"""Baseline algorithms the paper compares against.

* :class:`~repro.baselines.generic_dfs.GenericDfs` — Algorithm 1, the shared
  backtracking skeleton with static distance pruning;
* :class:`~repro.baselines.bc_dfs.BcDfs` — the barrier-based polynomial-delay
  algorithm of Peng et al. [29] (the paper's main competitor);
* :class:`~repro.baselines.bc_join.BcJoin` — the join-oriented variant of
  BC-DFS splitting paths at the middle position;
* :class:`~repro.baselines.t_dfs.TDfs` — the certification-based
  polynomial-delay algorithm of Rizzi et al. [33];
* :class:`~repro.baselines.full_join.FullJoin` — the chain join evaluated on
  the fully-reduced relations of Algorithm 2 (no light-weight index).

Each is registered by name in :mod:`repro.baselines.registry`.  The top-K
shortest-path family the paper discusses as related work (Yen's algorithm)
has no adapter here: no table of the evaluation runs it.
"""

from repro.baselines.bc_dfs import BcDfs
from repro.baselines.bc_join import BcJoin
from repro.baselines.full_join import FullJoin
from repro.baselines.generic_dfs import GenericDfs
from repro.baselines.registry import available_algorithms, get_algorithm, register_algorithm
from repro.baselines.t_dfs import TDfs

__all__ = [
    "GenericDfs",
    "BcDfs",
    "BcJoin",
    "TDfs",
    "FullJoin",
    "get_algorithm",
    "available_algorithms",
    "register_algorithm",
]
