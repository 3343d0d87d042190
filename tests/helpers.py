"""Shared test helpers: reference implementations and example graphs.

The reference enumerator below is a deliberately naive brute force used as
the ground truth every algorithm is compared against.  It follows the
problem statement directly (simple paths from ``s`` to ``t`` with at most
``k`` edges) without any pruning, so its correctness is easy to audit.
"""

from __future__ import annotations

import contextlib
import os
from typing import List, Sequence, Set, Tuple

import numpy as np

from repro import _clib
from repro.core.constraints import PredicateConstraint
from repro.core.result_segments import SEGMENT_PREFIX
from repro.graph.builder import GraphBuilder
from repro.graph.digraph import DiGraph

Path = Tuple[int, ...]

#: Edges of the example graph of Figure 1 in the paper (external string ids).
PAPER_FIGURE1_EDGES = [
    ("s", "v0"),
    ("s", "v1"),
    ("s", "v3"),
    ("v0", "v1"),
    ("v0", "v6"),
    ("v0", "t"),
    ("v1", "v2"),
    ("v1", "v3"),
    ("v2", "v0"),
    ("v2", "t"),
    ("v3", "v4"),
    ("v4", "v5"),
    ("v5", "v2"),
    ("v5", "t"),
    ("v5", "v7"),
    ("v6", "v0"),
    ("v7", "v3"),
]

#: Graph G0 of Figure 5a: two disjoint 4-hop branches plus parallel lanes —
#: every walk within 4 hops is a path.
PAPER_FIGURE5_G0_EDGES = [
    ("s", "v0"),
    ("s", "v1"),
    ("v0", "v2"),
    ("v0", "v3"),
    ("v1", "v2"),
    ("v1", "v3"),
    ("v2", "v4"),
    ("v2", "v5"),
    ("v3", "v4"),
    ("v3", "v5"),
    ("v4", "t"),
    ("v5", "t"),
]

#: Graph in the spirit of Figure 5b: a single short path plus a 2-cycle, so
#: within k = 4 hops there are more walks than paths and the index DFS hits
#: dead ends (invalid partial results).
PAPER_FIGURE5_G1_EDGES = [
    ("s", "v0"),
    ("v0", "t"),
    ("v0", "v1"),
    ("v1", "v0"),
]


#: Name prefix ``multiprocessing.shared_memory`` gives its segments: the
#: shared graph images and packed distance caches of the process backend.
SHARED_MEMORY_PREFIX = "psm_"


def _shm_names(prefix: str) -> Set[str]:
    try:
        names = os.listdir("/dev/shm")
    except OSError:  # pragma: no cover - non-Linux: nothing to list
        return set()
    return {name for name in names if name.startswith(prefix)}


def result_segment_names() -> Set[str]:
    """Process-result segments currently named in ``/dev/shm`` (Linux)."""
    return _shm_names(SEGMENT_PREFIX)


def shared_memory_names() -> Set[str]:
    """``multiprocessing.shared_memory`` segments currently in ``/dev/shm``."""
    return _shm_names(SHARED_MEMORY_PREFIX)


def build_graph(edges: Sequence[Tuple[object, object]]) -> DiGraph:
    """Build a graph from external-id edge pairs."""
    builder = GraphBuilder()
    builder.add_edges(edges)
    return builder.build()


def paper_figure1_graph() -> DiGraph:
    """The running-example graph of the paper (Figure 1a)."""
    return build_graph(PAPER_FIGURE1_EDGES)


#: Every array a LightWeightIndex holds.
INDEX_ARRAYS = (
    "dist_from_s", "dist_to_t", "_rows", "_row_of", "_indptr", "_indices",
    "_offsets", "_part_indptr", "_part_members", "_gamma",
)


def assert_same_arrays(actual, expected, names=INDEX_ARRAYS) -> None:
    """Every array of two :class:`LightWeightIndex` objects is equal, dtype
    and shape included."""
    for name in names:
        a, b = getattr(actual, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name


def assert_same_index_on_x(actual, expected) -> None:
    """Like :func:`assert_same_arrays`, except that ``dist_from_s`` has to
    agree only on ``X`` (the index rows): one index may hold the forward
    sweep pruned to ``X``, the other a full one."""
    assert_same_arrays(actual, expected, INDEX_ARRAYS[1:])
    rows = expected.rows
    assert np.array_equal(actual.dist_from_s[rows], expected.dist_from_s[rows])


@contextlib.contextmanager
def numpy_reference():
    """Run the enclosed calls on the NumPy / Python reference paths, as under
    ``REPRO_NATIVE=off``: the compiled library reads as absent."""
    saved = dict(_clib._LIB)
    _clib._LIB.update(checked=True, lib=None)
    try:
        yield
    finally:
        _clib._LIB.update(saved)


#: The unconstrained enumeration tiers as context factories: the native tier
#: as loaded, and the kernel tier it runs without the C library.
UNCONSTRAINED_TIERS = {"native": contextlib.nullcontext, "kernel": numpy_reference}


def accept_all(graph: DiGraph) -> PredicateConstraint:
    """A constraint every path satisfies.  It changes no result, but a
    constrained query runs the recursive engines, so it pins that tier."""
    return PredicateConstraint(lambda u, v, weight, label: True, graph)


def brute_force_paths(graph: DiGraph, source: int, target: int, k: int) -> Set[Path]:
    """All simple paths from ``source`` to ``target`` with at most ``k`` edges.

    Unpruned backtracking over the raw adjacency lists; exponential but fine
    for the small graphs used in tests.
    """
    results: Set[Path] = set()

    def recurse(path: List[int]) -> None:
        v = path[-1]
        if v == target:
            results.add(tuple(path))
            return
        if len(path) - 1 == k:
            return
        for w in graph.neighbors(v):
            w = int(w)
            if w not in path:
                path.append(w)
                recurse(path)
                path.pop()

    recurse([source])
    return results


def brute_force_walks(graph: DiGraph, source: int, target: int, k: int) -> Set[Path]:
    """All walks from ``source`` to ``target`` with at most ``k`` edges.

    Walks follow Definition 2.1: interior vertices may repeat but must not be
    ``source`` or ``target``.  Used to validate the walk-based complexity
    bounds and the join model's padding semantics.
    """
    results: Set[Path] = set()

    def recurse(path: List[int]) -> None:
        v = path[-1]
        if v == target and len(path) > 1:
            results.add(tuple(path))
            return
        if len(path) - 1 == k:
            return
        for w in graph.neighbors(v):
            w = int(w)
            if w == source:
                continue
            path.append(w)
            recurse(path)
            path.pop()

    recurse([source])
    return results


def assert_same_paths(actual, expected: Set[Path], *, context: str = "") -> None:
    """Assert two path collections are equal with a readable failure message."""
    actual_set = set(tuple(p) for p in actual)
    missing = expected - actual_set
    extra = actual_set - expected
    assert not missing and not extra, (
        f"{context} path mismatch: missing={sorted(missing)[:5]} extra={sorted(extra)[:5]} "
        f"(|expected|={len(expected)}, |actual|={len(actual_set)})"
    )
