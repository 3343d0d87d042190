"""Reverse-direction enumeration on the light-weight index.

Section 7.5 of the paper notes that its optimizer only searches left-deep
plans that extend partial results *from s towards t*, and that the optimal
plan can fall outside that space.  This module adds the mirror plan — a
left-deep enumeration that grows partial results *from t towards s* using
the ``I_s`` lookup of the index — as a standalone algorithm
(:class:`IdxDfsReverse`).  On queries whose branching is much denser around
``s`` than around ``t`` the reverse direction explores fewer partial
results, which is exactly the asymmetry the forward plan cannot exploit.

The reverse search mirrors Algorithm 4:

* the partial result is a *suffix* ``(v, ..., t)`` of the final path;
* extending it prepends an in-neighbour ``u`` of its first vertex with
  ``S(s, u | G - {t}) <= k - L(M) - 1``, obtained in O(1) from
  ``I_s(v, b)``;
* a result is emitted when the prepended vertex is ``s``.

Correctness follows the same argument as Proposition C.1 with the roles of
``s`` and ``t`` swapped.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.core.algorithm import Algorithm, timed_run
from repro.core.index import LightWeightIndex
from repro.core.listener import Deadline, ResultCollector, RunConfig
from repro.core.query import Query
from repro.core.result import EnumerationStats, Phase, QueryResult
from repro.graph.digraph import DiGraph

__all__ = ["run_idx_dfs_reverse", "IdxDfsReverse"]


def run_idx_dfs_reverse(
    index: LightWeightIndex,
    collector: ResultCollector,
    *,
    deadline: Optional[Deadline] = None,
    stats: Optional[EnumerationStats] = None,
) -> int:
    """Enumerate all hop-constrained s-t paths by a backwards DFS on ``index``.

    Returns the number of results emitted.  Constraint extensions are not
    supported in the reverse direction (their state is defined left to
    right); the engine keeps using the forward enumerators for constrained
    queries.
    """
    stats = stats if stats is not None else EnumerationStats()
    query = index.query
    s, t, k = query.source, query.target, query.k
    if index.is_empty:
        return 0

    suffix = [t]
    on_path = {t}
    emitted = _search_backwards(index, s, k, suffix, on_path, collector, deadline, stats)
    stats.results_emitted += emitted
    return emitted


def _search_backwards(
    index: LightWeightIndex,
    s: int,
    k: int,
    suffix: list,
    on_path: set,
    collector: ResultCollector,
    deadline: Optional[Deadline],
    stats: EnumerationStats,
) -> int:
    """Recursive backwards Search; returns the number of results in this subtree."""
    if deadline is not None:
        deadline.check()
    first = suffix[0]
    budget = k - (len(suffix) - 1) - 1
    candidates = index.in_neighbors_within(first, budget)
    stats.edges_accessed += len(candidates)
    found = 0
    for u in candidates:
        if u == s:
            collector.emit([s, *suffix])
            found += 1
            continue
        if u in on_path:
            continue
        stats.partial_results_generated += 1
        suffix.insert(0, u)
        on_path.add(u)
        try:
            sub_found = _search_backwards(
                index, s, k, suffix, on_path, collector, deadline, stats
            )
        finally:
            suffix.pop(0)
            on_path.discard(u)
        if sub_found == 0:
            stats.invalid_partial_results += 1
        found += sub_found
    return found


class IdxDfsReverse(Algorithm):
    """Index DFS that grows partial results from ``t`` towards ``s``.

    An extension beyond the paper's plan space (its Section 7.5 future-work
    discussion); included for plan-space experiments and as an additional
    cross-check of the index's ``I_s`` lookup.
    """

    name = "IDX-DFS-REV"

    def run(
        self,
        graph: DiGraph,
        query: Query,
        config: Optional[RunConfig] = None,
        *,
        dist_to_t: Optional[np.ndarray] = None,
        index: Optional[LightWeightIndex] = None,
    ) -> QueryResult:
        """Evaluate ``query`` backwards.

        ``dist_to_t`` optionally injects a precomputed reverse distance
        array, and ``index`` a fully prebuilt light-weight index,
        mirroring the forward algorithms — this is what lets a
        :class:`~repro.core.engine.QuerySession` (and therefore the batch
        executors, including the sharded group-fused build path) drive the
        reverse plan through the same shared distance cache.
        """
        config = config if config is not None else RunConfig()
        if config.constraint is not None:
            raise ValueError(
                "IDX-DFS-REV does not support path constraints; use IDX-DFS or PathEnum"
            )
        query.validate(graph)
        prebuilt = index

        def body(collector, deadline, stats) -> None:
            if prebuilt is not None:
                index = prebuilt
                index.record_stats(stats)
            else:
                index = LightWeightIndex.build(
                    graph,
                    query,
                    deadline=deadline,
                    stats=stats,
                    dist_to_t=dist_to_t,
                )
            enumeration_started = time.perf_counter()
            try:
                run_idx_dfs_reverse(index, collector, deadline=deadline, stats=stats)
            finally:
                stats.add_phase(Phase.ENUMERATION, time.perf_counter() - enumeration_started)
            stats.plan = "dfs-reverse"

        return timed_run(self.name, query, config, body)
