"""Name-based registry of enumeration algorithms.

The benchmark harness and the CLI refer to algorithms by the names used in
the paper's tables (``"BC-DFS"``, ``"IDX-JOIN"`` ...).  The registry maps
those names to factories; user code can register additional algorithms for
side-by-side comparison.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.core.algorithm import Algorithm
from repro.core.engine import IdxDfs, IdxJoin, PathEnum

__all__ = ["get_algorithm", "available_algorithms", "register_algorithm", "PAPER_ALGORITHMS"]

_FACTORIES: Dict[str, Callable[[], Algorithm]] = {}

#: The five algorithms compared in Table 3 of the paper, in table order.
PAPER_ALGORITHMS = ("BC-DFS", "BC-JOIN", "IDX-DFS", "IDX-JOIN", "PathEnum")


def register_algorithm(name: str, factory: Callable[[], Algorithm], *, overwrite: bool = False) -> None:
    """Register an algorithm factory under ``name``."""
    key = name.lower()
    if key in _FACTORIES and not overwrite:
        raise ValueError(f"algorithm {name!r} is already registered")
    _FACTORIES[key] = factory


def get_algorithm(name: str) -> Algorithm:
    """Instantiate the algorithm registered under ``name`` (case-insensitive)."""
    key = name.lower()
    if key not in _FACTORIES:
        raise KeyError(
            f"unknown algorithm {name!r}; available: {', '.join(sorted(available_algorithms()))}"
        )
    return _FACTORIES[key]()


def available_algorithms() -> List[str]:
    """Canonical names of all registered algorithms."""
    return [factory().name for factory in _FACTORIES.values()]


def _register_builtins() -> None:
    from repro.baselines.bc_dfs import BcDfs
    from repro.baselines.bc_join import BcJoin
    from repro.baselines.full_join import FullJoin
    from repro.baselines.generic_dfs import GenericDfs
    from repro.baselines.t_dfs import TDfs
    from repro.core.reverse import IdxDfsReverse

    builtin = {
        "BC-DFS": BcDfs,
        "BC-JOIN": BcJoin,
        "IDX-DFS": IdxDfs,
        "IDX-JOIN": IdxJoin,
        "PathEnum": PathEnum,
        "GenericDFS": GenericDfs,
        "T-DFS": TDfs,
        "FullJoin": FullJoin,
        "IDX-DFS-REV": IdxDfsReverse,
    }
    for name, cls in builtin.items():
        if name.lower() not in _FACTORIES:
            register_algorithm(name, cls)


_register_builtins()
