"""The PathEnum engine, its fixed-plan variants (Figure 2) and the batch layer.

Three single-query algorithms are defined here:

* :class:`IdxDfs` — always evaluates with the index DFS (Algorithm 4); the
  paper's IDX-DFS.
* :class:`IdxJoin` — always runs the full-fledged optimizer and evaluates
  with the bushy join (Algorithms 5 and 6); the paper's IDX-JOIN.
* :class:`PathEnum` — the complete system: light-weight index, preliminary
  estimation, optional full optimization and cost-based selection between
  the two evaluation strategies.

All three accept the uniform :class:`~repro.core.listener.RunConfig` and can
therefore be driven by the same benchmark harness as the baselines.

On top of them sits the batch execution layer:

* :class:`QuerySession` — evaluates queries one by one against a single
  graph while caching reverse-BFS distance arrays keyed by
  ``(target, k, constraint)``.  The light-weight index of a query whose
  target was already visited is built from the cached distances, skipping
  roughly half of the per-query preprocessing (the reverse BFS of
  Algorithm 3).  The cached distances omit the ``no-intermediate-s``
  restriction, which only *under*-approximates ``v.t`` — the index becomes a
  superset of the per-query one, so the enumerated path sets are identical
  (pruning is a performance device, never a correctness device).
* :class:`ExecutorCore` — the shard-dispatch and pool-lifecycle machinery
  behind the ``threads`` and ``processes`` backends of
  :class:`~repro.api.Database` and the :mod:`repro.server` query service:
  it partitions a workload by target, warms the distance cache, owns a
  persistent worker pool (threads or processes) and *streams* result
  chunks back to the consumer as workers produce them, instead of one blob
  per shard.  Because a shard holds *every* query of its targets, workers
  additionally grow all forward BFS trees of a target group in one
  multi-source sweep — per-query results stay identical to sequential
  session runs while both halves of the per-query preprocessing are
  amortised.  The process backend publishes the graph once into shared
  memory (:meth:`~repro.graph.digraph.DiGraph.share`) together with a
  read-mostly packed distance cache; chunks cross the process boundary
  over a pipe drained by a router thread, their path columns in
  shared-memory result segments (:mod:`repro.core.result_segments`).
"""

from __future__ import annotations

import itertools
import queue as queue_module
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import multiprocessing
import os
import select
import signal
import sys
from multiprocessing import shared_memory

import numpy as np

from repro.core import result_segments
from repro.core.algorithm import Algorithm, timed_run
from repro.core.constraints import PathConstraint
from repro.core.dfs import run_idx_dfs
from repro.core.index import LightWeightIndex, _native_builder, _swept
from repro.core.join import run_idx_join
from repro.core.listener import RunConfig
from repro.core.native import run_dfs_native, run_join_native, warmup as native_warmup
from repro.core.optimizer import DEFAULT_TAU, Plan, choose_plan
from repro.core.query import Query
from repro.core.result import Phase, QueryResult
from repro.core.reverse import IdxDfsReverse
from repro.errors import GraphError
from repro.graph.digraph import DiGraph
from repro.graph.store import SharedMemoryStore, StoreHandle, _open_untracked
from repro.graph.traversal import DEFAULT_SOURCE_CHUNK, bfs_distances_bounded
from repro.testing.faults import maybe_fail_task

__all__ = [
    "PathEnum",
    "IdxDfs",
    "IdxJoin",
    "QuerySession",
    "ExecutorCore",
    "StreamRun",
    "BatchStats",
    "is_distance_aware",
]


class _IndexedAlgorithm(Algorithm):
    """Shared machinery of the three index-based algorithms."""

    #: Plan forcing: ``None`` (cost-based), ``"dfs"`` or ``"join"``.
    _force: Optional[str] = None

    def run(
        self,
        graph: DiGraph,
        query: Query,
        config: Optional[RunConfig] = None,
        *,
        dist_to_t: Optional[np.ndarray] = None,
        index: Optional[LightWeightIndex] = None,
    ) -> QueryResult:
        """Evaluate ``query`` on ``graph``.

        ``dist_to_t`` optionally injects a precomputed reverse-BFS distance
        array (the :class:`QuerySession` cache path); ``index`` a fully
        prebuilt light-weight index (the sharded executor's group-fused
        build).  Single-query callers leave both unset.
        """
        config = config if config is not None else RunConfig()
        constraint = config.constraint
        if constraint is not None and not isinstance(constraint, PathConstraint):
            raise TypeError("config.constraint must be a PathConstraint instance")
        prebuilt = index

        def body(collector, deadline, stats) -> None:
            if prebuilt is not None:
                index = prebuilt
                index.record_stats(stats)
            else:
                edge_filter = constraint.edge_filter() if constraint is not None else None
                index = LightWeightIndex.build(
                    graph,
                    query,
                    edge_filter=edge_filter,
                    deadline=deadline,
                    stats=stats,
                    dist_to_t=dist_to_t,
                )
            plan = choose_plan(
                index, tau=config.tau, deadline=deadline, stats=stats, force=self._force
            )
            stats.plan = plan.kind
            # The enumeration phase is recorded in a ``finally`` block so that
            # queries interrupted by the deadline or a result limit still
            # report how long they enumerated (Figure 7 / Figure 17 depend on
            # this for timed-out queries).  Constraint extensions (Appendix E)
            # carry per-level state the flat int frames cannot hold, so a
            # constrained query runs the recursive engines; every other query
            # runs the native tier, which is the iterative kernels whenever
            # the C library is not loaded (no compiler, or REPRO_NATIVE=off).
            enumeration_started = time.perf_counter()
            if plan.kind == "join":
                cut = plan.cut_position if plan.cut_position is not None else max(1, query.k // 2)
                try:
                    if constraint is None:
                        run_join_native(index, cut, collector, deadline=deadline, stats=stats)
                    else:
                        run_idx_join(
                            index, cut, collector,
                            deadline=deadline, stats=stats, constraint=constraint,
                        )
                finally:
                    stats.add_phase(Phase.JOIN, time.perf_counter() - enumeration_started)
            else:
                try:
                    if constraint is None:
                        run_dfs_native(index, collector, deadline=deadline, stats=stats)
                    else:
                        run_idx_dfs(
                            index, collector,
                            deadline=deadline, stats=stats, constraint=constraint,
                        )
                finally:
                    stats.add_phase(
                        Phase.ENUMERATION, time.perf_counter() - enumeration_started
                    )

        return timed_run(self.name, query, config, body)

    # ------------------------------------------------------------------ #
    # convenience entry points accepting external ids
    # ------------------------------------------------------------------ #
    def run_external(
        self,
        graph: DiGraph,
        source: Hashable,
        target: Hashable,
        k: int,
        config: Optional[RunConfig] = None,
    ) -> QueryResult:
        """Evaluate a query given external vertex ids."""
        query = Query.from_external(graph, source, target, k)
        return self.run(graph, query, config)


class IdxDfs(_IndexedAlgorithm):
    """Index-based depth-first search (the paper's IDX-DFS)."""

    name = "IDX-DFS"
    _force = "dfs"


class IdxJoin(_IndexedAlgorithm):
    """Index-based bushy join (the paper's IDX-JOIN)."""

    name = "IDX-JOIN"
    _force = "join"


class PathEnum(_IndexedAlgorithm):
    """The full PathEnum system with cost-based plan selection."""

    name = "PathEnum"
    _force = None

    def __init__(self, *, tau: float = DEFAULT_TAU) -> None:
        self._tau = tau

    def run(
        self,
        graph: DiGraph,
        query: Query,
        config: Optional[RunConfig] = None,
        *,
        dist_to_t: Optional[np.ndarray] = None,
        index: Optional[LightWeightIndex] = None,
    ) -> QueryResult:
        config = config if config is not None else RunConfig()
        if config.tau == DEFAULT_TAU and self._tau != DEFAULT_TAU:
            config = config.replace(tau=self._tau)
        return super().run(graph, query, config, dist_to_t=dist_to_t, index=index)

    def explain(self, graph: DiGraph, query: Query, *, tau: Optional[float] = None) -> Plan:
        """Return the plan PathEnum would choose for ``query`` without running it."""
        index = LightWeightIndex.build(graph, query)
        return choose_plan(index, tau=self._tau if tau is None else tau)


#: Algorithms whose ``run`` accepts injected distance arrays and can
#: therefore share the session / batch distance cache.
_DISTANCE_AWARE = (_IndexedAlgorithm, IdxDfsReverse)


def is_distance_aware(algorithm: Algorithm) -> bool:
    """Whether ``algorithm`` shares the session / batch distance cache.

    Distance-aware algorithms accept injected reverse-BFS arrays, so their
    results carry meaningful ``bfs_cache_hit`` flags; baselines do not.
    """
    return isinstance(algorithm, _DISTANCE_AWARE)


# --------------------------------------------------------------------- #
# batch execution
# --------------------------------------------------------------------- #
@dataclass
class BatchStats:
    """Aggregate statistics of a batch / session run."""

    #: Queries evaluated so far.
    queries_run: int = 0
    #: Reverse BFS traversals actually performed (== distance-cache misses).
    reverse_bfs_runs: int = 0
    #: Queries whose index was built from a cached distance array.
    bfs_cache_hits: int = 0
    #: Wall-clock seconds of the batch.
    wall_seconds: float = 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of queries served from the distance cache."""
        if self.queries_run == 0:
            return 0.0
        return self.bfs_cache_hits / self.queries_run

    def as_row(self) -> Dict[str, object]:
        """Flat dict for the benchmark reporting layer."""
        return {
            "queries": self.queries_run,
            "reverse_bfs_runs": self.reverse_bfs_runs,
            "bfs_cache_hits": self.bfs_cache_hits,
            "hit_rate": round(self.hit_rate, 3),
            "wall_ms": round(self.wall_seconds * 1e3, 3),
        }


#: Cache key of a reverse-BFS distance array: the target vertex, the hop
#: constraint and the identity of the (optional) constraint object whose
#: edge filter shaped the traversal.
_DistanceKey = Tuple[int, int, Optional[int]]


class QuerySession:
    """Evaluates queries on one graph, sharing reverse-BFS distance arrays.

    The session is the unit of distance reuse: all queries submitted through
    :meth:`run` share one cache keyed by ``(target, k, constraint)``.  For
    workloads that hammer a small set of targets (fraud rings around a hub
    account, Figure 13/14-style sweeps) this removes the reverse half of
    every repeated index build.

    Sessions are cheap; create one per logical workload.  ``max_cached``
    bounds the number of retained distance arrays (each is O(|V|)); the
    oldest entry is evicted first.
    """

    def __init__(
        self,
        graph: DiGraph,
        *,
        algorithm: Optional[Algorithm] = None,
        max_cached: int = 256,
    ) -> None:
        self.graph = graph
        self.algorithm = algorithm if algorithm is not None else PathEnum()
        self.stats = BatchStats()
        self._max_cached = max(1, int(max_cached))
        #: Cache entries retain the constraint object alongside the distance
        #: array: keys embed ``id(constraint)``, and holding the reference
        #: prevents a freed constraint's address from being recycled into a
        #: false hit for a different constraint.
        self._distances: Dict[_DistanceKey, Tuple[Optional[PathConstraint], np.ndarray]] = {}
        #: Guards the cache and the counters; the BFS itself and the query
        #: evaluation run outside the lock.
        self._lock = threading.Lock()

    # -- distance cache ------------------------------------------------ #
    def _key(self, query: Query, constraint: Optional[PathConstraint]) -> _DistanceKey:
        return (query.target, query.k, None if constraint is None else id(constraint))

    def distances_to_target(
        self, target: int, k: int, constraint: Optional[PathConstraint] = None
    ) -> np.ndarray:
        """The (cached) bounded reverse-BFS distance array towards ``target``.

        The traversal is *not* restricted around any particular source, so
        one array serves every query that shares ``(target, k, constraint)``;
        see the module docstring for why this relaxation preserves results.
        """
        key = (int(target), int(k), None if constraint is None else id(constraint))
        with self._lock:
            cached = self._distances.get(key)
        if cached is not None and cached[0] is constraint:
            return cached[1]
        edge_filter = constraint.edge_filter() if constraint is not None else None
        distances = bfs_distances_bounded(
            self.graph, int(target), cutoff=int(k), reverse=True, edge_filter=edge_filter
        )
        with self._lock:
            self.stats.reverse_bfs_runs += 1
            while len(self._distances) >= self._max_cached and self._distances:
                self._distances.pop(next(iter(self._distances)))
            self._distances[key] = (constraint, distances)
        return distances

    def ensure_capacity(self, num_keys: int) -> None:
        """Grow the cache bound so ``num_keys`` entries can coexist.

        :class:`ExecutorCore` calls this before warming a workload: the
        warm-once guarantee (every reverse BFS runs exactly once, and the
        parallel phase never mutates the cache) only holds when no entry is
        evicted between :meth:`prepare` and the last query of the batch.
        """
        with self._lock:
            if num_keys > self._max_cached:
                self._max_cached = int(num_keys)

    def prepare(self, queries: Iterable[Query]) -> Dict[int, int]:
        """Warm the unconstrained distance cache for ``queries``.

        Returns the positions of the queries whose reverse BFS was actually
        computed (cache misses), each with the number of vertices that sweep
        reached: the first query, in workload order, of each uncached key.
        Used by :class:`ExecutorCore` before fanning out to its pool — the
        cache is read-only during parallel execution, and the returned
        positions let the run charge each fresh BFS to the query a
        sequential session would have charged, instead of counting every
        pool query as a hit.
        """
        paying: Dict[int, int] = {}
        for position, query in enumerate(queries):
            key = self._key(query, None)
            with self._lock:
                known = key in self._distances
            distances = self.distances_to_target(query.target, query.k)
            if not known:
                paying[position] = _swept(distances)
        return paying

    def export_distances(self) -> Dict[Tuple[int, int], np.ndarray]:
        """The unconstrained cache entries as ``{(target, k): distances}``.

        Constrained entries are keyed by constraint object identity, which
        is meaningless in another process, so only the shareable
        (constraint-free) part of the cache is exported.
        """
        with self._lock:
            return {
                (key[0], key[1]): value[1]
                for key, value in self._distances.items()
                if key[2] is None
            }

    def refresh_graph(
        self,
        graph: DiGraph,
        *,
        added: Sequence[Tuple[int, int]] = (),
        removed: Sequence[Tuple[int, int]] = (),
    ) -> Dict[str, int]:
        """Swap the session onto a new graph epoch, repairing the cache.

        Unconstrained distance arrays are repaired incrementally from the
        update batch (:func:`repro.live.repair.repair_reverse_distances`)
        instead of being dropped, and constrained entries (whose edge
        filters may consult mutated attributes) are invalidated outright.
        Returns the per-entry counts.
        """
        from repro.live.repair import repair_reverse_distances

        counts = {"repaired": 0, "recomputed": 0, "invalidated": 0}
        with self._lock:
            self.graph = graph
            entries = list(self._distances.items())
            self._distances = {}
            for key, (constraint, array) in entries:
                if key[2] is not None:
                    counts["invalidated"] += 1
                    continue
                target, k = key[0], key[1]
                repaired_array, incremental = repair_reverse_distances(
                    graph,
                    array,
                    target,
                    cutoff=k,
                    added=added,
                    removed=removed,
                )
                counts["repaired" if incremental else "recomputed"] += 1
                self._distances[key] = (constraint, repaired_array)
        return counts

    # -- evaluation ---------------------------------------------------- #
    def run(self, query: Query, config: Optional[RunConfig] = None) -> QueryResult:
        """Evaluate one query through the session cache."""
        config = config if config is not None else RunConfig()
        if not isinstance(self.algorithm, _DISTANCE_AWARE):
            # Baselines have no index build to share; run them untouched.
            with self._lock:
                self.stats.queries_run += 1
            return self.algorithm.run(self.graph, query, config)
        key = self._key(query, config.constraint)
        with self._lock:
            self.stats.queries_run += 1
            hit = key in self._distances
            if hit:
                self.stats.bfs_cache_hits += 1
        distances = self.distances_to_target(query.target, query.k, config.constraint)
        result = self.algorithm.run(self.graph, query, config, dist_to_t=distances)
        # The index builder flags every injected distance array as a cache
        # hit; only the session knows whether this query actually paid for
        # the reverse BFS (first sight of its target) or skipped it.
        result.stats.bfs_cache_hit = hit
        if not hit:
            result.stats.swept_vertices += _swept(distances)
        return result

    def run_external(
        self, source: Hashable, target: Hashable, k: int,
        config: Optional[RunConfig] = None,
    ) -> QueryResult:
        """Evaluate a query given external vertex ids."""
        query = Query.from_external(self.graph, source, target, k)
        return self.run(query, config)


# --------------------------------------------------------------------- #
# process-parallel sharded execution: worker side
# --------------------------------------------------------------------- #
#: Per-worker-process state installed by :func:`_process_worker_init` and
#: reused across every shard the worker evaluates.  ``ProcessPoolExecutor``
#: runs the initializer exactly once per worker, so the shared graph is
#: attached once per process, not once per shard.
_WORKER_STATE: Dict[str, object] = {}


def _reset_inherited_signal_state() -> None:
    """Detach a forked worker from the parent's signal plumbing.

    A fork taken while an asyncio loop is serving (``repro serve``) inherits
    two dangerous pieces of state: the loop's *signal wakeup fd* — which is
    the write end of a socketpair **shared with the parent** — and the
    Python-level handlers ``loop.add_signal_handler`` installed.  Left in
    place, any signal delivered to the worker (e.g. the SIGTERM that
    ``concurrent.futures`` sends surviving workers while cleaning up a
    broken pool) is echoed into the parent's self-pipe, and the parent's
    loop misreads it as a signal *to the parent* — a crashing worker then
    triggers a spurious clean shutdown of the whole server.  The inherited
    no-op SIGTERM handler also makes the worker ignore pool termination.
    Both resets are best-effort: restricted environments may refuse them.
    """
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, signal.SIG_DFL)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass


def _exit_with_owner(owner: int) -> None:
    """End this worker as soon as process ``owner`` (the pool's owner) ends.

    An owner killed outright (SIGKILL, the OOM killer) never shuts its pool
    down, and its workers would wait on their call queue indefinitely.
    ``PR_SET_PDEATHSIG`` does not fit: it fires when the *thread* that
    forked the worker exits, and ``ProcessPoolExecutor`` forks from whichever
    thread submits, so a batch submitted from a short-lived thread would
    lose healthy workers.  A daemon thread watches the owner process
    instead: it blocks on a pidfd of the owner (readable once the owner has
    exited; an owner already gone ends the worker at once), or, where
    ``pidfd_open`` is missing, polls ``getppid()`` — the parent is the owner,
    or under ``forkserver`` the fork server, which exits with the owner.
    """
    parent = os.getppid()
    try:
        pidfd = os.pidfd_open(owner)
    except ProcessLookupError:
        os._exit(1)
    except (AttributeError, OSError):
        pidfd = None

    def watch() -> None:
        if pidfd is not None:
            poller = select.poll()
            poller.register(pidfd, select.POLLIN)
            poller.poll()
        else:
            while os.getppid() == parent:
                time.sleep(0.2)
        os._exit(1)

    threading.Thread(target=watch, name="repro-owner-watch", daemon=True).start()


def _process_worker_init(
    graph_handle: StoreHandle,
    algorithm: Algorithm,
    writer,
    write_lock,
    segment_prefix: str,
    owner: int,
) -> None:
    """Attach the shared graph in a freshly spawned/forked worker.

    ``writer`` and ``write_lock`` are the sending end of the pool's
    :class:`_ChunkChannel`; they ride the initializer because pipes and
    locks can only cross the process boundary while a child is being
    spawned.  ``segment_prefix`` names the worker's result segments
    (:mod:`repro.core.result_segments`) so the owning core can sweep them.
    ``owner`` is the pid of the pool's owner; the worker exits with it.
    """
    _exit_with_owner(owner)
    _reset_inherited_signal_state()
    _WORKER_STATE["graph"] = DiGraph.from_handle(graph_handle)
    _WORKER_STATE["algorithm"] = algorithm
    _WORKER_STATE["channel"] = (writer, write_lock)
    _WORKER_STATE["segment_prefix"] = segment_prefix
    _WORKER_STATE["cache_store"] = None
    _WORKER_STATE["cache_name"] = None
    _WORKER_STATE["distances"] = {}
    _WORKER_STATE["cancel_segments"] = {}
    # Epoch bookkeeping: the segment the worker's graph currently maps,
    # the init-time handle (epoch-less dispatches mean "the init graph"),
    # and the store of a re-attached epoch (closed on the next switch).
    _WORKER_STATE["graph_name"] = graph_handle.segment_name
    _WORKER_STATE["init_handle"] = graph_handle
    _WORKER_STATE["epoch_store"] = None
    # Load the compiled tier now rather than on this worker's first query.
    native_warmup()


#: One-byte cancellation slots per :class:`ExecutorCore` segment; a run's
#: slot is ``run_id % _CANCEL_SLOTS``.  Slot reuse needs 4096 in-flight run
#: ids between a run and its successor, and the successor's dispatch clears
#: the slot anyway.
_CANCEL_SLOTS = 4096


def _cancel_probe(cancel_ref):
    """Build the worker-side ``should_stop`` poll for a dispatched shard.

    ``cancel_ref`` is ``(segment_name, slot)`` of the core's shared
    cancellation page, or ``None`` (inline/thread paths, or a core without
    the segment).  The segment is attached once per worker process and
    cached; attach failure (the parent already unlinked at close) degrades
    to no cancellation polling rather than failing the shard.
    """
    if cancel_ref is None:
        return None
    name, slot = cancel_ref
    segments = _WORKER_STATE.setdefault("cancel_segments", {})
    if name not in segments:
        try:
            segments[name] = _open_untracked(name)
        except (OSError, ValueError):
            segments[name] = None
    segment = segments[name]
    if segment is None:
        return None
    buf = segment.buf
    return lambda: buf[slot] != 0


def _attach_distance_cache(cache_handle: Optional[StoreHandle]) -> Mapping:
    """Map the shared distance cache, reusing the attachment across shards.

    Attach failure is survivable: a concurrent run may have repacked (and
    unlinked) the segment between this shard's dispatch and its execution.
    The cache is purely an optimisation — :func:`_iter_shard_results`
    recomputes any missing key — so a vanished segment degrades to
    per-group reverse BFS instead of failing the shard.
    """
    if cache_handle is None:
        return {}
    if cache_handle.segment_name != _WORKER_STATE["cache_name"]:
        previous = _WORKER_STATE["cache_store"]
        if previous is not None:
            previous.close()
        _WORKER_STATE["cache_store"] = None
        _WORKER_STATE["cache_name"] = cache_handle.segment_name
        _WORKER_STATE["distances"] = {}
        try:
            store = SharedMemoryStore.attach(cache_handle)
        except GraphError:
            return _WORKER_STATE["distances"]
        matrix = store.get("distances")
        _WORKER_STATE["cache_store"] = store
        _WORKER_STATE["distances"] = {
            (int(target), int(k)): matrix[row]
            for row, (target, k) in enumerate(store.meta["keys"])
        }
    return _WORKER_STATE["distances"]


def _attach_graph_epoch(epoch_ref) -> DiGraph:
    """Map the graph epoch a shard was dispatched against, switching lazily.

    ``epoch_ref`` is an :class:`repro.live.epochs.EpochHandle` (or ``None``
    for dispatches predating any mutation, which mean *the init graph*).
    The worker re-attaches only when the requested segment differs from the
    one currently mapped — an epoch change costs one page-table mapping,
    never a pool restart — and closes the previous epoch's mapping so a
    long-lived worker holds at most one historic segment.

    Unlike the distance cache, a failed attach here is **not** survivable:
    serving a query from the wrong epoch would silently return stale
    results, so the :class:`~repro.errors.GraphError` (segment already
    unlinked — the epoch was retired and drained) propagates and fails the
    shard.  The core only dispatches pinned (undrained) epochs, so this
    fires only on genuine lifecycle bugs.
    """
    wanted = (
        _WORKER_STATE["init_handle"]
        if epoch_ref is None
        else epoch_ref.store
    )
    if wanted.segment_name == _WORKER_STATE["graph_name"]:
        return _WORKER_STATE["graph"]
    graph = DiGraph.from_handle(wanted)
    previous = _WORKER_STATE["epoch_store"]
    if previous is not None:
        previous.close()
    _WORKER_STATE["graph"] = graph
    _WORKER_STATE["graph_name"] = wanted.segment_name
    _WORKER_STATE["epoch_store"] = (
        None if epoch_ref is None else graph.store
    )
    return graph


def _iter_shard_results(
    graph: DiGraph,
    algorithm: Algorithm,
    config: RunConfig,
    shard: Sequence[Tuple[int, Tuple[int, int, int]]],
    distances: Mapping[Tuple[int, int], np.ndarray],
) -> Iterator[Tuple[int, QueryResult]]:
    """:func:`_iter_shard_results_raw` behind the ``worker.task`` fault site.

    Every backend (process workers, the thread pool, the inline path) runs
    shards through this wrapper, so an installed
    :mod:`repro.testing.faults` plan can kill/crash/delay the task at a
    chosen workload position on any of them.  The fault fires *before* the
    position's result is delivered — a killed worker leaves that position
    (and the rest of its shard) undelivered, which is exactly what the
    pool-recovery bookkeeping has to replay.  Without a plan the overhead
    is one environment lookup per result.
    """
    for position, result in _iter_shard_results_raw(
        graph, algorithm, config, shard, distances
    ):
        maybe_fail_task(position)
        yield position, result


def _iter_shard_results_raw(
    graph: DiGraph,
    algorithm: Algorithm,
    config: RunConfig,
    shard: Sequence[Tuple[int, Tuple[int, int, int]]],
    distances: Mapping[Tuple[int, int], np.ndarray],
) -> Iterator[Tuple[int, QueryResult]]:
    """Evaluate ``shard`` (``(position, (s, t, k))`` tuples), yielding results.

    Queries are grouped by ``(target, k)``: the group shares one reverse-BFS
    array (from the shared cache, by construction warm for every key of the
    shard).  With the C library loaded each query then builds its index in
    one ``repro_prepare`` call from that array, as a sequential session
    does.  Without it, an unconstrained group's indexes are built together
    (:meth:`LightWeightIndex.build_group`), their pruned forward sweeps
    grown level by level in one pass; the indexes equal the per-query ones,
    so results — path lists included, in order — are identical to
    sequential session evaluation.  Being a generator is the streaming
    seam: the worker loops that drain it ship results as they appear
    instead of one blob per shard.  Shared by the worker processes, the
    thread backend and the inline path, which is what makes the
    equivalence testable in-process.
    """
    if not isinstance(algorithm, _DISTANCE_AWARE):
        # Baselines: no index build, no distance reuse — plain evaluation.
        for position, (s, t, k) in shard:
            yield position, algorithm.run(graph, Query(s, t, k), config)
        return
    groups: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for position, (s, t, k) in shard:
        groups.setdefault((t, k), []).append((position, s))
    fuse_builds = (
        isinstance(algorithm, _IndexedAlgorithm)
        and config.constraint is None
        and _native_builder(graph) is None
    )
    for (t, k), members in groups.items():
        dist_to_t = distances.get((t, k))
        if dist_to_t is None:
            dist_to_t = bfs_distances_bounded(graph, t, cutoff=k, reverse=True)
        # Fused builds hold one chunk's forward matrix at a time: peak
        # extra memory stays at O(chunk * |V|) however many queries share
        # the target, and chunking cannot change any index.
        for start in range(0, len(members), DEFAULT_SOURCE_CHUNK):
            chunk = members[start : start + DEFAULT_SOURCE_CHUNK]
            if fuse_builds and len(chunk) > 1:
                chunk_queries = [Query(s, t, k) for _, s in chunk]
                indexes = LightWeightIndex.build_group(
                    graph, chunk_queries, dist_to_t=dist_to_t
                )
                for (position, _), query, index in zip(chunk, chunk_queries, indexes):
                    yield position, algorithm.run(graph, query, config, index=index)
                continue
            for position, s in chunk:
                yield position, algorithm.run(
                    graph, Query(s, t, k), config, dist_to_t=dist_to_t
                )


#: Queries per streamed result chunk when nobody needs per-query latency:
#: one IPC message per 32 results keeps queue overhead negligible.  Streaming
#: consumers (the query service) use a chunk size of 1.
DEFAULT_CHUNK_QUERIES = 32


def _pump_chunks(
    results: Iterator[Tuple[int, QueryResult]],
    chunk_queries: int,
    emit,
    should_stop=None,
) -> Tuple[int, bool]:
    """Drain ``results`` into ``emit(chunk)`` calls of ``chunk_queries`` items.

    The one chunk-accumulation protocol shared by the process worker and
    the thread backend (only the emission target differs).  ``should_stop``
    is polled between queries; stopping discards the partial buffer.
    Returns ``(emitted, stopped)``.
    """
    emitted = 0
    buffer: List[Tuple[int, QueryResult]] = []
    while True:
        if should_stop is not None and should_stop():
            return emitted, True
        try:
            item = next(results)
        except StopIteration:
            break
        buffer.append(item)
        if len(buffer) >= chunk_queries:
            emit(buffer)
            emitted += len(buffer)
            buffer = []
    if buffer:
        emit(buffer)
        emitted += len(buffer)
    return emitted, False


def _process_worker_stream_shard(payload) -> int:
    """Worker entry point: evaluate one shard, streaming chunks as produced.

    Result chunks — lists of ``(position, QueryResult)`` pairs — are shipped
    the moment they are complete, followed by one ``("done", run_id, None)``
    marker.  A chunk's path columns go into one fresh shared-memory segment
    (:func:`~repro.core.result_segments.pack_chunk`); the pool's chunk pipe
    (:class:`_ChunkChannel`) carries only ``("chunk", run_id, (segment_name,
    items))`` — the name, per-result offsets and the path-less results —
    and the parent's router thread maps the segment and unlinks it.  The
    pipe is how partial results reach the parent *before* the shard future
    resolves; the future's return value is only the emitted count.
    On failure no marker is sent — the parent surfaces the future's
    exception instead of waiting for a marker that will never come.

    ``payload`` carries the run's cancellation reference: the shared flag is
    polled between queries, so a cancelled run stops emitting after at most
    one more query instead of running its whole shard to completion.  A
    stopped shard sends no marker either — the cancelling parent is no
    longer counting.
    """
    run_id, shard, config, cache_handle, chunk_queries, cancel_ref, epoch_ref = payload
    writer, write_lock = _WORKER_STATE["channel"]
    prefix = _WORKER_STATE["segment_prefix"]
    graph = _attach_graph_epoch(epoch_ref)

    def send(message) -> None:
        with write_lock:
            writer.send(message)

    results = _iter_shard_results(
        graph,
        _WORKER_STATE["algorithm"],
        config,
        shard,
        _attach_distance_cache(cache_handle),
    )
    emitted, stopped = _pump_chunks(
        results,
        chunk_queries,
        lambda chunk: send(
            ("chunk", run_id, result_segments.pack_chunk(prefix, chunk, graph.num_vertices))
        ),
        _cancel_probe(cancel_ref),
    )
    if not stopped:
        send(("done", run_id, None))
    return emitted


class _ChunkChannel:
    """One pool generation's chunk pipe: its workers send, one router
    thread in the parent receives.

    Workers send synchronously under ``lock`` (messages are small — the
    path columns travel in result segments).  A worker killed mid-send
    leaves the lock held and maybe half a message in the pipe, so a channel
    never outlives its pool: a broken pool's channel is retired with it and
    the next pool gets a fresh one.  ``prefix`` names the generation's
    result segments; the router thread sweeps it on its way out, once every
    message of the generation has been read.
    """

    def __init__(self, context, prefix: str) -> None:
        self.reader, self.writer = context.Pipe(duplex=False)
        self.lock = context.Lock()
        self.prefix = prefix
        #: Set by :meth:`ExecutorCore.close`: leave once the pipe is empty,
        #: even if a process that inherited the write end never closes it.
        self.closing = False
        self.thread: Optional[threading.Thread] = None


def _default_start_method() -> str:
    """``fork`` on Linux (cheap, copy-on-write), else ``spawn``.

    macOS lists ``fork`` as available but forking a multi-threaded parent
    (the pool's management thread, numpy's Accelerate backend) can deadlock
    in system frameworks — the same reason CPython switched the platform
    default to ``spawn``.
    """
    if sys.platform == "linux" and "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "spawn"


class StreamRun:
    """One in-flight workload evaluation, streaming result chunks.

    Returned by :meth:`ExecutorCore.start`.  :meth:`chunks` yields lists of
    ``(position, QueryResult)`` pairs as workers complete them — positions
    within one shard arrive in shard order, chunks of different shards
    interleave by completion time.  A run is consumed exactly once; closing
    the generator (or :meth:`cancel`) cancels every shard that has not
    started and discards late chunks.
    """

    #: Seconds between worker-failure polls while waiting for chunks.
    _POLL_SECONDS = 0.05

    #: Consecutive empty polls with no shard in flight before the stream
    #: declares itself stalled (a backstop, not a timeout on real work).
    _STALL_POLLS = 100

    def __init__(
        self,
        core: "ExecutorCore",
        run_id: int,
        num_queries: int,
        num_shards: int,
        paying: Optional[Dict[int, int]],
    ) -> None:
        self._core = core
        self.run_id = run_id
        self.num_queries = num_queries
        self.num_shards = num_shards
        #: Positions charged with a warm-phase reverse BFS, each with the
        #: vertices it swept (``None`` when the algorithm shares no
        #: distance cache); see :meth:`_charge`.
        self._paying = paying
        self.cancelled = threading.Event()
        self._queue: "queue_module.Queue" = queue_module.Queue()
        self._futures: List = []
        self._inline: Optional[Iterator[Tuple[int, QueryResult]]] = None
        self._chunk_queries = DEFAULT_CHUNK_QUERIES
        self._consumed = False
        #: ``(shared_memory_segment, slot)`` of this run's cancellation
        #: byte, set by the core on process-backend dispatch.
        self._cancel_cell: Optional[Tuple[object, int]] = None
        #: Workload positions whose results reached the consumer.  Doubles
        #: as the completion criterion (generation-agnostic, so it survives
        #: pool regeneration) and as the dedup filter against late chunks.
        self._delivered: set = set()
        #: Redispatch inputs (process backend only): the original plain
        #: shards plus the run's config/cache handle, kept so a broken pool
        #: can resubmit exactly the undelivered positions.
        self._recovery: Optional[Dict[str, object]] = None
        #: The :class:`repro.live.epochs.Epoch` this run pinned at dispatch
        #: (``None`` before any mutation).  Released exactly once when the
        #: stream drains, keeping the epoch's segment attachable for
        #: broken-pool recovery until the last reader is gone.
        self._epoch = None
        #: Picklable handle of the pinned epoch, riding every shard payload
        #: (and any recovery redispatch) so workers map the right snapshot.
        self._epoch_ref = None
        self._retries_left = 0
        #: Pool regenerations this run survived / positions re-executed.
        self.recoveries = 0
        self.recovered_queries = 0

    def cancel(self) -> None:
        """Stop the run as soon as possible.

        Shards that have not started are cancelled outright; thread-backend
        shards stop between queries; a process-backend shard already
        executing observes the shared cancellation byte between queries and
        abandons the rest of its shard (the query being enumerated still
        runs to completion — enumeration is cooperative only towards its own
        deadline) and any late chunks are discarded.
        """
        self.cancelled.set()
        cell = self._cancel_cell
        if cell is not None:
            segment, slot = cell
            try:
                segment.buf[slot] = 1
            except (ValueError, TypeError):  # pragma: no cover - core closed
                pass
        for future in self._futures:
            future.cancel()

    def chunks(self) -> Iterator[List[Tuple[int, QueryResult]]]:
        """Yield result chunks until every shard finished (or cancellation).

        Re-raises the original exception of a failing shard.  Always drives
        this generator to exhaustion (or close it) — the ``finally`` block
        is what unregisters the run and cancels outstanding work.
        """
        if self._consumed:
            raise RuntimeError("a StreamRun can only be consumed once")
        self._consumed = True
        try:
            if self._inline is not None:
                yield from self._inline_chunks()
                return
            # Completion is counted by *delivered position*, not by shard
            # done markers: after a pool regeneration, markers from the dead
            # generation are indistinguishable from live ones (the router
            # strips the run id), whereas the delivered set is correct
            # across any number of regenerations and deduplicates chunks a
            # dying worker raced onto the queue.
            pending = set(self._futures)
            delivered = self._delivered
            idle_polls = 0
            while len(delivered) < self.num_queries and not self.cancelled.is_set():
                try:
                    kind, payload = self._queue.get(timeout=self._POLL_SECONDS)
                except queue_module.Empty:
                    # No chunk in flight: surface a shard that died without
                    # ever sending its done marker (worker exception, broken
                    # pool) instead of waiting forever.
                    broken = None
                    for future in [f for f in pending if f.done()]:
                        pending.discard(future)
                        error = None if future.cancelled() else future.exception()
                        if error is None:
                            continue
                        if isinstance(error, BrokenProcessPool):
                            # Every future of the dead pool breaks at once;
                            # collect them all, then recover in one shot.
                            broken = error
                            continue
                        raise error
                    if broken is not None:
                        self._core._discard_broken_pool()
                        replacement = self._try_recover()
                        if replacement is None:
                            raise broken
                        pending = set(replacement)
                        idle_polls = 0
                        continue
                    if not pending and self._queue.empty():
                        idle_polls += 1
                        if idle_polls >= self._STALL_POLLS:
                            missing = self.num_queries - len(delivered)
                            raise RuntimeError(
                                f"stream stalled with {missing} of "
                                f"{self.num_queries} results missing and no "
                                "shard in flight"
                            )
                    continue
                idle_polls = 0
                if kind == "done":
                    # Advisory only (see above) — completion is positional.
                    continue
                if kind == "error":
                    # The drain thread could not map this run's chunk.
                    raise payload
                fresh = [(p, r) for p, r in payload if p not in delivered]
                if fresh:
                    delivered.update(p for p, _ in fresh)
                    yield self._charge(fresh)
        finally:
            self.cancelled.set()
            for future in self._futures:
                future.cancel()
            self._core._unregister_run(self.run_id)
            self._release_epoch()

    def _charge(
        self, chunk: List[Tuple[int, QueryResult]]
    ) -> List[Tuple[int, QueryResult]]:
        """Set each result's cache-hit flag as a sequential session would.

        Workers read every distance array from the warm cache, so each
        warm-phase reverse BFS, and the vertices it swept, is charged here
        to the first query (in workload order) of its key, and every other
        query is a hit.
        """
        paying = self._paying
        if paying is not None:
            for position, result in chunk:
                result.stats.bfs_cache_hit = position not in paying
                result.stats.swept_vertices += paying.get(position, 0)
        return chunk

    def _release_epoch(self) -> None:
        """Drop the run's epoch pin (idempotent)."""
        epoch = self._epoch
        self._epoch = None
        if epoch is not None:
            epoch.release()

    def results(self) -> List[QueryResult]:
        """Drain the stream and return results in workload order."""
        out: List[Optional[QueryResult]] = [None] * self.num_queries
        for chunk in self.chunks():
            for position, result in chunk:
                out[position] = result
        missing = sum(1 for result in out if result is None)
        if missing:
            raise RuntimeError(
                f"stream ended with {missing} of {self.num_queries} results "
                "missing (run cancelled?)"
            )
        return out  # type: ignore[return-value]

    def _try_recover(self) -> Optional[List]:
        """Respawn the pool and resubmit undelivered work after a break.

        Returns the replacement futures, or ``None`` when the run cannot
        (thread backend, retries exhausted, redispatch failed) — the caller
        then surfaces the original :class:`BrokenProcessPool`.  Only shards
        filtered down to positions the consumer never received are
        redispatched, so work a healthy worker already finished is not
        re-executed; duplicates a dying worker still raced onto the queue
        are dropped by the delivered-set filter in :meth:`chunks`.
        """
        if self._recovery is None or self._retries_left <= 0 or self.cancelled.is_set():
            return None
        self._retries_left -= 1
        shards = []
        for shard in self._recovery["shards"]:
            rest = [entry for entry in shard if entry[0] not in self._delivered]
            if rest:
                shards.append(rest)
        if not shards:
            return []
        try:
            futures = self._core._resubmit(
                self, shards, self._recovery["config"], self._recovery["cache_handle"]
            )
        except Exception:  # noqa: BLE001 - recovery is best-effort
            return None
        self.recoveries += 1
        self.recovered_queries += sum(len(shard) for shard in shards)
        self._futures = list(futures)
        return futures

    def _inline_chunks(self) -> Iterator[List[Tuple[int, QueryResult]]]:
        buffer: List[Tuple[int, QueryResult]] = []
        for item in self._inline:
            if self.cancelled.is_set():
                return
            buffer.append(item)
            if len(buffer) >= self._chunk_queries:
                yield self._charge(buffer)
                buffer = []
        if buffer:
            yield self._charge(buffer)


class ExecutorCore:
    """Shard dispatch, pool lifecycle and result streaming — the shared core.

    Every parallel execution mode (the process batch executor, the thread
    backend, the async query service) runs through this object:

    1. the workload is partitioned by target with
       :func:`~repro.workloads.queries.partition_by_target` — every query of
       a ``(target, k)`` key lands in the same shard, so no distance array
       is ever computed twice across workers;
    2. the distinct reverse-BFS arrays are warmed in the parent session;
    3. shards are dispatched to a *persistent* worker pool, and results
       stream back chunk by chunk while later shards are still running.

    Two pool backends:

    * ``"process"`` — real worker processes.  The graph is published once
      into shared memory (:meth:`~repro.graph.digraph.DiGraph.share`), the
      warmed distance cache is packed into a second read-mostly segment, and
      chunks cross the process boundary over one pipe per pool
      (:class:`_ChunkChannel`) that a router thread demultiplexes to the
      per-run streams (concurrent runs share the pool).  A chunk's path
      columns do not ride that pipe: the worker writes them into one fresh
      shared-memory segment (:mod:`repro.core.result_segments`), and the
      router thread maps it read-only, unlinks it and hands out results
      whose paths are views into it — valid for as long as they are
      referenced, even after :meth:`close`; one live result keeps its whole
      chunk's segment mapped.  No segment outlives the run: the router
      unlinks the chunks of finished or cancelled runs; a broken pool's
      router, once it has read everything the dead pool sent, and
      :meth:`close` sweep ``/dev/shm`` for the pool's or the core's name
      prefix, which removes the segment of a worker killed before it sent
      the name (the sweep exists on Linux only).  With ``workers == 1``
      shards are evaluated inline in the caller's thread — no pool, no
      segments.
    * ``"thread"`` — a thread pool against the caller's own graph.  GIL-bound
      but free of process setup cost; shards stop between queries on
      cancellation.  This is the synchronous precursor mode the async
      service uses for single-process deployments.

    Constraints are rejected on both backends (their edge filters are
    process-local closures, and the shard loop would fall back to
    unconstrained distance arrays); evaluate constrained workloads on the
    inline ``Database(graph)``.

    The core owns shared segments and the pool; call :meth:`close` (or use
    it as a context manager) so they are released deterministically.
    ``close()`` is idempotent.
    """

    #: Pool regenerations one run may attempt after ``BrokenProcessPool``
    #: before the break is surfaced: a deterministically-crashing query
    #: fails on its second replay, one spare regeneration absorbs an
    #: unrelated coincident death.
    POOL_RETRIES = 2

    def __init__(
        self,
        graph: DiGraph,
        *,
        algorithm: Optional[Algorithm] = None,
        backend: str = "process",
        workers: Optional[int] = None,
        start_method: Optional[str] = None,
        max_cached: int = 1024,
    ) -> None:
        if backend not in ("process", "thread"):
            raise ValueError(f"unknown backend {backend!r}: use 'process' or 'thread'")
        if workers is not None and workers < 1:
            raise ValueError("workers must be at least 1")
        self.graph = graph
        self.algorithm = algorithm if algorithm is not None else PathEnum()
        self.backend = backend
        self.workers = int(workers) if workers else (os.cpu_count() or 1)
        self.start_method = start_method or _default_start_method()
        #: Parent-side distance cache — a :class:`QuerySession`, so warm /
        #: evict / charge semantics live in exactly one place.  It persists
        #: across runs, letting later workloads against the same targets
        #: skip the warm phase entirely.
        self.session = QuerySession(graph, algorithm=self.algorithm, max_cached=max_cached)
        self._cache_store: Optional[SharedMemoryStore] = None
        self._packed_keys: Tuple[Tuple[int, int], ...] = ()
        #: Shared page of per-run cancellation bytes (process backend).
        self._cancel_shm = None
        self._pool = None
        #: The current pool's chunk channel, and every channel whose router
        #: thread may still run (retired channels drain until EOF).
        self._channel: Optional[_ChunkChannel] = None
        self._channels: List[_ChunkChannel] = []
        #: Name prefix of this core's result segments (each pool generation
        #: adds its number): close() and broken-pool recovery sweep what a
        #: dead worker left behind.
        self._segment_prefix = result_segments.new_prefix()
        self._generations = itertools.count()
        self._runs: Dict[int, StreamRun] = {}
        self._runs_lock = threading.Lock()
        #: Serialises warm + pack + dispatch (and close) across submitters.
        self._submit_lock = threading.Lock()
        self._run_ids = itertools.count()
        self._graph_published_here = False
        #: The exact graph whose segment this core published at pool
        #: creation; after mutations ``self.graph`` moves on to newer
        #: epochs, but close() must unlink the segment it published.
        self._published_graph: Optional[DiGraph] = None
        #: Live-update state, created lazily on the first :meth:`mutate`.
        self._live = None
        #: Handle of the current epoch's shared segment (``None`` before
        #: the first mutation — shards then run on the init graph).
        self._epoch_ref = None
        #: The epoch whose graph ``self.graph`` is, pinned by the core until
        #: the next publish swaps it out.  ``LiveGraph.apply`` retires it
        #: before that swap, and :meth:`start` warms distances on
        #: ``self.graph`` before its run pins anything, so without this
        #: reference the segment could be unmapped under a running sweep.
        self._graph_epoch = None
        #: Serialises mutations; the expensive rebuild runs under this lock
        #: alone, so concurrent reads keep dispatching old-epoch runs.
        self._mutate_lock = threading.Lock()
        #: Live counters, updated under ``_submit_lock`` at publish time.
        self.live_stats: Dict[str, int] = {
            "epochs_published": 0,
            "compactions": 0,
            "updates_applied": 0,
            "distance_repairs_incremental": 0,
            "distance_repairs_full": 0,
            "distance_entries_invalidated": 0,
        }
        self._closed = False

    # -- lifecycle ----------------------------------------------------- #
    @property
    def closed(self) -> bool:
        """``True`` once :meth:`close` ran; further :meth:`start` calls fail."""
        return self._closed

    @property
    def distance_aware(self) -> bool:
        """Whether the algorithm shares the session's distance cache."""
        return isinstance(self.algorithm, _DISTANCE_AWARE)

    def __enter__(self) -> "ExecutorCore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Cancel active runs, shut the pool down, unlink owned segments.

        Idempotent.  The graph segment is unlinked only when this core
        published it; the parent's (and any still-attached worker's) mapping
        stays valid until closed — unlinking merely removes the name so
        nothing leaks past process exit.
        """
        with self._submit_lock:
            if self._closed:
                return
            self._closed = True
        with self._runs_lock:
            active = list(self._runs.values())
        for run in active:
            run.cancel()
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        channels, self._channels, self._channel = self._channels, [], None
        for channel in channels:
            channel.closing = True
            channel.writer.close()
        for channel in channels:
            channel.thread.join(timeout=5.0)
        if channels:
            # The workers and router threads are gone: any result segment
            # still named is an orphan (a chunk that was never mapped).
            result_segments.sweep(self._segment_prefix)
        if self._cache_store is not None:
            self._cache_store.close(unlink=True)
            self._cache_store = None
        if self._cancel_shm is not None:
            segment = self._cancel_shm
            self._cancel_shm = None
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        if self._live is not None:
            # Retires the current epoch; epoch-owned segments unlink as
            # their last pinned readers drain (cancelled above).
            self._live.close()
            self._live = None
        if self._graph_epoch is not None:
            self._graph_epoch.release()
            self._graph_epoch = None
        published = self._published_graph if self._published_graph is not None else self.graph
        store = published.store
        if self._graph_published_here and store is not None and store.shareable:
            if store.is_owner:
                store.unlink()

    def __del__(self):  # pragma: no cover - best-effort safety net
        try:
            self.close()
        except Exception:
            pass

    # -- submission ---------------------------------------------------- #
    def start(
        self,
        workload: Sequence[Query],
        config: Optional[RunConfig] = None,
        *,
        chunk_queries: int = DEFAULT_CHUNK_QUERIES,
    ) -> StreamRun:
        """Warm, partition and dispatch ``workload``; return its stream.

        The call itself performs the (sequential) warm phase; enumeration
        happens as the returned run's :meth:`StreamRun.chunks` is consumed
        concurrently with the workers.  ``chunk_queries`` bounds how many
        results ride one chunk — use 1 when the consumer needs per-query
        streaming latency.
        """
        from repro.workloads.queries import partition_by_target

        config = config if config is not None else RunConfig()
        self._check_config(config)
        queries = list(workload)
        with self._submit_lock:
            if self._closed:
                raise RuntimeError("ExecutorCore is closed")
            shards = partition_by_target(queries, self.workers) if queries else []
            plain = [
                [(position, (q.source, q.target, q.k)) for position, q in shard]
                for shard in shards
            ]
            distance_aware = self.distance_aware
            paying = self._warm_distances(queries) if distance_aware else None
            run = StreamRun(self, next(self._run_ids), len(queries), len(plain), paying)
            run._chunk_queries = max(1, int(chunk_queries))
            # MVCC read side: capture the graph *now* and pin its epoch.
            # A mutation published while this run is in flight swaps
            # ``self.graph`` for new submissions, but this run keeps
            # reading the snapshot it started on until it drains.
            graph = self.graph
            if self._graph_epoch is not None:
                run._epoch = self._graph_epoch.pin()
                run._epoch_ref = self._epoch_ref
            # Every run registers (not just process-backend ones): close()
            # walks the registry to cancel whatever is in flight, whichever
            # backend carries it.  chunks() unregisters on exhaustion.
            self._register_run(run)
            try:
                if not queries:
                    run._inline = iter(())
                elif self.backend == "thread":
                    pool = self._ensure_thread_pool()
                    distances = self.session.export_distances()
                    run._futures = [
                        pool.submit(
                            self._thread_stream_shard, run, graph, shard, config, distances
                        )
                        for shard in plain
                    ]
                elif self.workers > 1:
                    # Even a single shard goes to the pool: with a persistent
                    # service, cross-job parallelism (every job one shard)
                    # matters as much as intra-job sharding, and inline
                    # evaluation would pin it all to the GIL-bound parent.
                    cache_handle = None
                    if distance_aware:
                        cache_handle = self._pack_distances(
                            {(q.target, q.k) for q in queries}
                        )
                    pool = self._ensure_process_pool()
                    segment = self._ensure_cancel_segment()
                    slot = run.run_id % _CANCEL_SLOTS
                    segment.buf[slot] = 0
                    run._cancel_cell = (segment, slot)
                    cancel_ref = (segment.name, slot)
                    run._futures = [
                        pool.submit(
                            _process_worker_stream_shard,
                            (
                                run.run_id,
                                shard,
                                config,
                                cache_handle,
                                run._chunk_queries,
                                cancel_ref,
                                run._epoch_ref,
                            ),
                        )
                        for shard in plain
                    ]
                    # Everything a broken-pool recovery needs to redispatch
                    # just the undelivered positions.
                    run._recovery = {
                        "shards": plain,
                        "config": config,
                        "cache_handle": cache_handle,
                    }
                    run._retries_left = self.POOL_RETRIES
                else:
                    distances = self.session.export_distances()
                    run._inline = itertools.chain.from_iterable(
                        _iter_shard_results(graph, self.algorithm, config, shard, distances)
                        for shard in plain
                    )
            except BaseException:
                run.cancel()
                self._unregister_run(run.run_id)
                run._release_epoch()
                raise
            return run

    # -- mutation ------------------------------------------------------ #
    def mutate(
        self,
        add: Sequence[Tuple[int, int]] = (),
        remove: Sequence[Tuple[int, int]] = (),
    ) -> Dict[str, object]:
        """Apply an edge batch and publish the next graph epoch.

        The expensive part — folding the delta overlay into a fresh CSR
        (and, on the process backend, packing it into a new shared-memory
        segment) — runs under the mutation lock only, so concurrent
        :meth:`start` calls keep dispatching against the current epoch
        without stalling.  Only the final pointer swap (graph, epoch
        handle, repaired distance cache, packed-cache invalidation) takes
        the submit lock.

        In-flight runs pinned to older epochs are untouched: their workers
        keep the retired segment mapped until the run drains, and the
        distance arrays they were handed describe their own epoch.  New
        runs see the new epoch and a cache repaired incrementally by
        :func:`repro.live.repair.repair_reverse_distances`.
        """
        from repro.live.epochs import LiveGraph

        with self._mutate_lock:
            with self._submit_lock:
                if self._closed:
                    raise RuntimeError("ExecutorCore is closed")
                if self._live is None:
                    live_store = (
                        "shared_memory"
                        if self.backend == "process" and self.workers > 1
                        else "heap"
                    )
                    self._live = LiveGraph(self.graph, store=live_store)
            info = self._live.apply(add=add, remove=remove)
            if not info["published"]:
                with self._submit_lock:
                    stats = dict(self.live_stats)
                return {
                    "epoch": info["epoch"],
                    "added": 0,
                    "removed": 0,
                    "repair": {"repaired": 0, "recomputed": 0, "invalidated": 0},
                    "stats": stats,
                }
            # The epoch apply() just published; no other apply() can
            # retire it while the mutation lock is held.
            epoch = self._live.pin()
            new_graph = epoch.graph
            epoch_ref = epoch.handle()
            with self._submit_lock:
                self.graph = new_graph
                self._epoch_ref = epoch_ref
                previous, self._graph_epoch = self._graph_epoch, epoch
                repair = self.session.refresh_graph(
                    new_graph,
                    added=info["added"],
                    removed=info["removed"],
                )
                # The packed distance segment describes the previous epoch;
                # retire it.  In-flight runs that already attached keep
                # their mapping, late attaches degrade to per-group BFS.
                if self._cache_store is not None:
                    self._cache_store.close(unlink=True)
                    self._cache_store = None
                self._packed_keys = ()
                live = self._live.stats()
                self.live_stats["epochs_published"] = live["epochs_published"]
                self.live_stats["compactions"] = live["compactions"]
                self.live_stats["updates_applied"] = live["updates_applied"]
                self.live_stats["distance_repairs_incremental"] += repair["repaired"]
                self.live_stats["distance_repairs_full"] += repair["recomputed"]
                self.live_stats["distance_entries_invalidated"] += repair["invalidated"]
                stats = dict(self.live_stats)
            if previous is not None:
                previous.release()
        return {
            "epoch": info["epoch"],
            "added": len(info["added"]),
            "removed": len(info["removed"]),
            "repair": repair,
            "stats": stats,
        }

    @property
    def current_epoch(self) -> int:
        """Id of the epoch new runs dispatch against (0 before any mutation)."""
        live = self._live
        return 0 if live is None else live.epoch_id

    # -- internals ----------------------------------------------------- #
    def _check_config(self, config: RunConfig) -> None:
        if config.constraint is not None:
            raise ValueError(
                "path constraints hold process-local state (their edge "
                "filters are closures) and cannot cross a process boundary; "
                "evaluate constrained workloads on the inline Database(graph)"
            )

    def _warm_distances(self, queries: Sequence[Query]) -> Dict[int, int]:
        """Run the reverse BFS once per distinct ``(target, k)`` key.

        Delegates to :meth:`QuerySession.prepare` (after growing the cache
        bound so nothing is evicted mid-batch) and returns the positions
        charged with a computed BFS, so per-query hit flags match a
        sequential session.
        """
        distinct = {self.session._key(query, None) for query in queries}
        self.session.ensure_capacity(len(distinct))
        return self.session.prepare(queries)

    def _pack_distances(
        self, required: Optional[set] = None
    ) -> Optional[StoreHandle]:
        """Publish the parent distance cache as one shared ``(keys, n)`` matrix.

        ``required`` is the set of ``(target, k)`` keys the submitting run
        actually needs: as long as the existing pack covers them, its handle
        is reused — no O(cache × |V|) re-stack and, crucially on the
        serving path, no unlink of a segment that concurrent in-flight runs
        were handed.  A repack (covering the whole exported cache, so it
        amortises) happens only when genuinely new keys appeared; racing
        shards that still hold the retired handle fall back to per-group
        BFS via :func:`_attach_distance_cache`.
        """
        distances = self.session.export_distances()
        if not distances:
            return None
        if self._cache_store is not None:
            packed = set(self._packed_keys)
            needed = set(distances) if required is None else required
            if needed <= packed:
                return self._cache_store.handle()
            self._cache_store.close(unlink=True)
        keys = tuple(distances)
        matrix = np.stack([distances[key] for key in keys])
        self._cache_store = SharedMemoryStore.pack(
            {"distances": matrix}, meta={"keys": list(keys)}
        )
        self._packed_keys = keys
        return self._cache_store.handle()

    def _ensure_process_pool(self) -> ProcessPoolExecutor:
        if self._pool is not None:
            return self._pool
        store = self.graph.store
        already_shared = (
            store is not None
            and store.shareable
            and not getattr(store, "is_unlinked", False)
        )
        graph_handle = self.graph.share()
        if not already_shared:
            # Only unlink at close() what this core itself published.
            self._graph_published_here = True
            self._published_graph = self.graph
        context = multiprocessing.get_context(self.start_method)
        # A fresh chunk channel and router thread per pool: the router
        # demultiplexes chunks to per-run streams by run id and unlinks the
        # segments of unregistered (finished or cancelled) runs.
        channel = _ChunkChannel(
            context, f"{self._segment_prefix}{next(self._generations):x}-"
        )
        channel.thread = threading.Thread(
            target=self._drain_loop, args=(channel,), name="repro-stream-router", daemon=True
        )
        channel.thread.start()
        self._channel = channel
        self._channels.append(channel)
        # Always size the pool at full strength: a persistent pool serves
        # runs of different shapes, and resizing it mid-flight would tear
        # workers out from under a concurrent run.
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=context,
            initializer=_process_worker_init,
            initargs=(
                graph_handle, self.algorithm, channel.writer, channel.lock, channel.prefix,
                os.getpid(),
            ),
        )
        return self._pool

    def _ensure_cancel_segment(self):
        """The core's shared page of per-run cancellation bytes.

        Created lazily with the first process-backend dispatch and unlinked
        at :meth:`close`; workers attach it once per process (untracked, so
        a child's exit never unlinks the parent's page).
        """
        if self._cancel_shm is None:
            self._cancel_shm = shared_memory.SharedMemory(
                create=True, size=_CANCEL_SLOTS
            )
        return self._cancel_shm

    def _ensure_thread_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-shard"
            )
        return self._pool

    def _discard_broken_pool(self) -> None:
        """Drop a pool whose worker died; the next start() builds a fresh one.

        The pool's chunk channel is retired with it (the dead worker may
        hold its lock): closing the parent's write end lets the router
        thread read to EOF once the pool's workers are gone, and then sweep
        the generation's result segments — a worker killed after creating
        one but before sending its name leaves an orphan nothing else
        would remove.
        """
        with self._submit_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=False, cancel_futures=True)
                self._pool = None
            if self._channel is not None:
                self._channel.writer.close()
                self._channel = None

    def _resubmit(
        self,
        run: StreamRun,
        shards: List,
        config: RunConfig,
        cache_handle: Optional[StoreHandle],
    ) -> List:
        """Redispatch ``shards`` of ``run`` on a freshly built process pool.

        The recovery half of broken-pool handling: the fresh pool comes
        with a fresh chunk channel, whose router thread feeds the same
        per-run queues (the retired channel's router still delivers what
        the old workers sent before they died).  A
        stale ``cache_handle`` (a concurrent run repacked the distance
        segment meanwhile) is survivable — workers degrade to per-group
        reverse BFS.
        """
        with self._submit_lock:
            if self._closed:
                raise RuntimeError("ExecutorCore is closed")
            pool = self._ensure_process_pool()
            segment = self._ensure_cancel_segment()
            slot = run.run_id % _CANCEL_SLOTS
            segment.buf[slot] = 1 if run.cancelled.is_set() else 0
            run._cancel_cell = (segment, slot)
            cancel_ref = (segment.name, slot)
            return [
                pool.submit(
                    _process_worker_stream_shard,
                    (
                        run.run_id,
                        shard,
                        config,
                        cache_handle,
                        run._chunk_queries,
                        cancel_ref,
                        # The run's epoch pin is still held (chunks() has
                        # not drained), so the segment is attachable even
                        # if newer epochs have since retired it.
                        run._epoch_ref,
                    ),
                )
                for shard in shards
            ]

    def _thread_stream_shard(
        self,
        run: StreamRun,
        graph: DiGraph,
        shard: Sequence[Tuple[int, Tuple[int, int, int]]],
        config: RunConfig,
        distances: Mapping[Tuple[int, int], np.ndarray],
    ) -> int:
        """Thread-backend worker: same streaming contract, direct queue.

        ``graph`` is the epoch snapshot captured at dispatch — reading it
        through ``self.graph`` here would tear a run across epochs when a
        mutation publishes mid-flight.
        """
        results = _iter_shard_results(
            graph, self.algorithm, config, shard, distances
        )
        emitted, stopped = _pump_chunks(
            results,
            run._chunk_queries,
            lambda chunk: run._queue.put(("chunk", chunk)),
            run.cancelled.is_set,
        )
        if not stopped:
            run._queue.put(("done", None))
        return emitted

    def _register_run(self, run: StreamRun) -> None:
        with self._runs_lock:
            self._runs[run.run_id] = run

    def _unregister_run(self, run_id: int) -> None:
        with self._runs_lock:
            self._runs.pop(run_id, None)

    def _drain_loop(self, channel: _ChunkChannel) -> None:
        """Router thread: demultiplex one channel to the per-run streams.

        Chunks arrive as result segments (:mod:`repro.core.result_segments`):
        this thread maps each one and unlinks it, or only unlinks it when
        its run is no longer registered or was cancelled.  It ends at EOF
        (every write end closed) or, after :meth:`close`, at the first
        empty poll, and then sweeps the generation's leftover segments.
        """
        reader = channel.reader
        try:
            while True:
                try:
                    if not reader.poll(StreamRun._POLL_SECONDS):
                        if channel.closing:
                            return
                        continue
                    kind, run_id, payload = reader.recv()
                except (EOFError, OSError):
                    return
                with self._runs_lock:
                    run = self._runs.get(run_id)
                if kind == "chunk":
                    if run is None or run.cancelled.is_set():
                        result_segments.discard_chunk(payload)
                        continue
                    try:
                        payload = result_segments.unpack_chunk(payload)
                    except Exception as error:  # noqa: BLE001 - surfaced by chunks()
                        kind, payload = "error", error
                if run is not None:
                    run._queue.put((kind, payload))
        finally:
            reader.close()
            result_segments.sweep(channel.prefix)
