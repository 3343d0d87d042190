"""Common interface implemented by every enumeration algorithm.

The benchmark harness treats PathEnum, its two fixed-plan variants and all
baselines uniformly: each is an :class:`Algorithm` whose :meth:`Algorithm.run`
evaluates one query under a :class:`~repro.core.listener.RunConfig` and
returns a :class:`~repro.core.result.QueryResult` with fully populated
statistics — even when the run timed out or was truncated by a result limit.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import Optional

from repro.errors import EnumerationTimeout, ResultLimitReached
from repro.core.listener import RunConfig
from repro.core.query import Query
from repro.core.result import EnumerationStats, Phase, QueryResult
from repro.graph.digraph import DiGraph

__all__ = ["Algorithm", "DelayedAlgorithm", "timed_run"]


class Algorithm(ABC):
    """Base class for HcPE enumeration algorithms."""

    #: Human-readable name used in benchmark tables (e.g. ``"IDX-DFS"``).
    name: str = "algorithm"

    @abstractmethod
    def run(self, graph: DiGraph, query: Query, config: Optional[RunConfig] = None) -> QueryResult:
        """Evaluate ``query`` on ``graph`` and return the result."""

    def count(self, graph: DiGraph, query: Query, **config_kwargs) -> int:
        """Convenience: number of result paths without storing them."""
        config = RunConfig(store_paths=False, **config_kwargs)
        return self.run(graph, query, config).count

    def paths(self, graph: DiGraph, query: Query, **config_kwargs):
        """Convenience: the list of result paths."""
        config = RunConfig(store_paths=True, **config_kwargs)
        return self.run(graph, query, config).paths

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class DelayedAlgorithm(Algorithm):
    """An algorithm wrapper adding a fixed per-query service delay.

    The results are exactly the inner algorithm's — only wall time changes —
    so equivalence checks hold across delayed and undelayed deployments.
    ``repro serve --delay-ms`` uses it to give a host a known service time:
    the overload and shutdown tests rely on it to keep work in flight or to
    fill an admission budget deterministically.  Picklable whenever the
    inner algorithm is, so it rides the process backend too.
    """

    def __init__(self, inner: Algorithm, delay_seconds: float) -> None:
        if delay_seconds < 0.0:
            raise ValueError("delay_seconds must be non-negative")
        self.inner = inner
        self.delay_seconds = float(delay_seconds)
        self.name = inner.name

    def run(self, graph: DiGraph, query: Query, config: Optional[RunConfig] = None) -> QueryResult:
        time.sleep(self.delay_seconds)
        return self.inner.run(graph, query, config)


def timed_run(
    algorithm_name: str,
    query: Query,
    config: RunConfig,
    body,
) -> QueryResult:
    """Execute ``body(collector, deadline, stats)`` with uniform bookkeeping.

    ``body`` performs the algorithm-specific work and returns nothing; this
    wrapper handles the shared concerns — total timing, deadline expiry,
    result limits — so that every algorithm reports timeouts and truncation
    identically, the way the paper's harness treats the two-minute cap.
    """
    stats = EnumerationStats()
    collector = config.make_collector()
    deadline = config.make_deadline()
    collector.restart_clock()
    started = time.perf_counter()
    try:
        body(collector, deadline, stats)
    except EnumerationTimeout:
        stats.timed_out = True
    except ResultLimitReached:
        stats.truncated = True
    stats.add_phase(Phase.TOTAL, time.perf_counter() - started)
    stats.results_emitted = collector.count
    return QueryResult(
        source=query.source,
        target=query.target,
        k=query.k,
        algorithm=algorithm_name,
        count=collector.count,
        paths=collector.stored_paths(),
        stats=stats,
        response_seconds=collector.response_seconds,
        response_k=collector.response_k,
    )
