"""Synthetic stand-ins for the fifteen real-world datasets of Table 2.

The paper evaluates on graphs from SNAP and networkrepository.com that range
from thousands to billions of edges.  Those files cannot be downloaded in
this offline environment, so each dataset is replaced by a seeded synthetic
graph of the same *category* (citation / web / social / interaction /
recommendation / biological) with a matching average degree and degree
skew, scaled down so a laptop can sweep all benchmarks.  DESIGN.md documents
why this substitution preserves the paper's comparisons.

Each :class:`DatasetSpec` records the paper's original |V|, |E| and average
degree next to the generator parameters used here, so the Table 2 benchmark
can print both side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.errors import DatasetError
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    bipartite_graph,
    erdos_renyi,
    power_law_graph,
    small_world_graph,
)

__all__ = [
    "DatasetSpec",
    "registry",
    "dataset_names",
    "load_dataset",
    "dataset_spec",
    "DEFAULT_REPRESENTATIVES",
]


@dataclass(frozen=True)
class DatasetSpec:
    """One dataset of Table 2 and the synthetic generator standing in for it."""

    #: Short name used throughout the paper (``up``, ``ep``, ``gg``...).
    name: str
    #: Full dataset name from Table 2.
    full_name: str
    #: Category reported in Table 2.
    category: str
    #: The paper's vertex count (for reporting only).
    paper_vertices: int
    #: The paper's edge count (for reporting only).
    paper_edges: int
    #: The paper's average degree (for reporting only).
    paper_avg_degree: float
    #: Factory building the synthetic stand-in.
    factory: Callable[[], DiGraph]
    #: Rough difficulty class used to pick representative graphs in benchmarks.
    difficulty: str = "medium"


def _spec(
    name: str,
    full_name: str,
    category: str,
    paper_vertices: int,
    paper_edges: int,
    paper_avg_degree: float,
    factory: Callable[[], DiGraph],
    difficulty: str,
) -> DatasetSpec:
    return DatasetSpec(
        name=name,
        full_name=full_name,
        category=category,
        paper_vertices=paper_vertices,
        paper_edges=paper_edges,
        paper_avg_degree=paper_avg_degree,
        factory=factory,
        difficulty=difficulty,
    )


# --------------------------------------------------------------------- #
# The registry.  Sizes are scaled down ~1000x; average degrees and the
# degree-distribution class follow Table 2 so that query hardness ordering
# (e.g. `ep`, `ye`, `da` hard; `up`, `db` easy) is preserved.
# --------------------------------------------------------------------- #
_REGISTRY: Dict[str, DatasetSpec] = {}


def _register(spec: DatasetSpec) -> None:
    if spec.name in _REGISTRY:
        raise DatasetError(f"dataset {spec.name!r} registered twice")
    _REGISTRY[spec.name] = spec


_register(_spec(
    "up", "US Patents", "Citation", 4_000_000, 17_000_000, 8.8,
    lambda: erdos_renyi(4000, 4.5, seed=101), "easy",
))
_register(_spec(
    "db", "DBpedia", "Miscellaneous", 4_000_000, 14_000_000, 6.5,
    lambda: erdos_renyi(4000, 3.5, seed=102), "easy",
))
_register(_spec(
    "gg", "Web-google", "Web", 876_000, 5_000_000, 11.1,
    lambda: power_law_graph(2500, 5.5, exponent=2.4, seed=103), "easy",
))
_register(_spec(
    "st", "Web-stanford", "Web", 282_000, 2_300_000, 16.4,
    lambda: power_law_graph(2000, 8.0, exponent=2.3, seed=104), "medium",
))
_register(_spec(
    "tw", "Twitter-social", "Miscellaneous", 465_000, 835_000, 3.6,
    lambda: power_law_graph(3000, 1.8, exponent=2.1, seed=105), "easy",
))
_register(_spec(
    "bk", "Baidu-baike", "Web", 416_000, 3_000_000, 15.8,
    lambda: power_law_graph(2000, 7.5, exponent=2.2, seed=106), "medium",
))
_register(_spec(
    "tr", "Wiki-trust", "Interaction", 139_000, 740_000, 10.7,
    lambda: small_world_graph(1500, 5, rewire_probability=0.3, seed=107), "medium",
))
_register(_spec(
    "ep", "Soc-Epinions1", "Social", 75_000, 508_000, 13.4,
    lambda: power_law_graph(1200, 7.0, exponent=2.0, seed=108), "hard",
))
_register(_spec(
    "uk", "Web-uk-2005", "Web", 121_000, 334_000, 181.2,
    lambda: power_law_graph(600, 40.0, exponent=1.9, seed=109), "hard",
))
_register(_spec(
    "wt", "WikiTalk", "Miscellaneous", 2_000_000, 5_000_000, 4.2,
    lambda: power_law_graph(3000, 2.2, exponent=1.9, seed=110), "medium",
))
_register(_spec(
    "sl", "Soc-Slashdot0922", "Social", 82_000, 948_000, 21.2,
    lambda: power_law_graph(1000, 11.0, exponent=2.0, seed=111), "hard",
))
_register(_spec(
    "lj", "LiveJournal", "Social", 5_000_000, 69_000_000, 28.3,
    lambda: power_law_graph(1500, 14.0, exponent=2.1, seed=112), "hard",
))
_register(_spec(
    "da", "Rec-dating", "Recommendation", 169_000, 17_000_000, 205.7,
    lambda: bipartite_graph(220, 220, connection_probability=0.18, seed=113), "hard",
))
_register(_spec(
    "ye", "Bio-grid-yeast", "Biological", 6_000, 314_000, 104.5,
    lambda: erdos_renyi(400, 26.0, seed=114), "hard",
))
_register(_spec(
    "tm", "Twitter-mpi", "Miscellaneous", 52_000_000, 1_960_000_000, 74.7,
    lambda: power_law_graph(5000, 20.0, exponent=2.0, seed=115), "scalability",
))

#: Representative graphs used throughout Section 7: ``ep`` (long-running
#: queries) and ``gg`` (short-running queries).
DEFAULT_REPRESENTATIVES = ("ep", "gg")

_CACHE: Dict[str, DiGraph] = {}


def registry() -> Dict[str, DatasetSpec]:
    """The full dataset registry keyed by short name."""
    return dict(_REGISTRY)


def dataset_names(*, include_scalability: bool = True) -> List[str]:
    """Short names of all registered datasets, in Table 2 order."""
    names = list(_REGISTRY)
    if not include_scalability:
        names = [n for n in names if _REGISTRY[n].difficulty != "scalability"]
    return names


def load_dataset(name: str, *, use_cache: bool = True) -> DiGraph:
    """Build (or fetch from the in-process cache) the named synthetic dataset."""
    spec = _REGISTRY.get(name)
    if spec is None:
        raise DatasetError(
            f"unknown dataset {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        )
    if use_cache and name in _CACHE:
        return _CACHE[name]
    graph = spec.factory()
    if use_cache:
        _CACHE[name] = graph
    return graph


def dataset_spec(name: str) -> DatasetSpec:
    """The :class:`DatasetSpec` registered under ``name``."""
    spec = _REGISTRY.get(name)
    if spec is None:
        raise DatasetError(f"unknown dataset {name!r}")
    return spec
