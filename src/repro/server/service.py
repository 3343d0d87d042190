"""The serving core: jobs, streaming delivery and worker-pool ownership.

:class:`QueryService` is the asyncio-facing layer over
:class:`~repro.core.engine.ExecutorCore`: it owns one graph image (published
to shared memory when the process backend is selected), one warm reverse-BFS
distance cache and one persistent worker pool, shared by every job for the
life of the service.  A *job* is one submitted workload; its per-query
results stream to an :class:`asyncio.Queue` the moment a worker finishes
them, so a network front end can ship frame ``n`` while query ``n+1`` is
still enumerating.

The bridge between the blocking executor world and asyncio is one *drive*
thread per active job (from a bounded pool): it performs the warm phase,
consumes the run's chunk stream and hands events into the event loop with
``call_soon_threadsafe``.  Cancellation flows the other way — a flag the
drive thread and the executor check between chunks/queries.
"""

from __future__ import annotations

import asyncio
import enum
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import AsyncIterator, Dict, List, Optional, Sequence, Tuple

from repro.core.algorithm import Algorithm
from repro.core.engine import ExecutorCore, StreamRun
from repro.core.native import warmup as native_warmup
from repro.core.listener import RunConfig
from repro.core.query import Query
from repro.core.result import EnumerationStats, PathBuffer, QueryResult
from repro.errors import ServiceOverloaded
from repro.graph.digraph import DiGraph

__all__ = ["JobState", "ServiceJob", "QueryService"]


class JobState(enum.Enum):
    """Lifecycle of a submitted job."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    CANCELLED = "cancelled"
    FAILED = "failed"
    #: Admitted but shed before execution (queue delay past the budget).
    SHED = "shed"


#: Events delivered on a job's queue:
#: ``("result", position, QueryResult)`` — one completed query;
#: ``("done", info)`` / ``("cancelled", delivered)`` / ``("error", message)``
#: / ``("overloaded", info)`` — exactly one terminal event per job.
JobEvent = Tuple


class ServiceJob:
    """One submitted workload and its streaming event queue."""

    def __init__(self, job_id: str, num_queries: int, loop: asyncio.AbstractEventLoop) -> None:
        self.id = job_id
        self.num_queries = num_queries
        self.state = JobState.PENDING
        #: Results delivered so far (drive-thread side counter).
        self.delivered = 0
        self._loop = loop
        self._queue: "asyncio.Queue[JobEvent]" = asyncio.Queue()
        self._cancel = threading.Event()
        self._run: Optional[StreamRun] = None
        self._drive_future = None
        #: Stamped by ``QueryService.submit`` on admission; queue delay is
        #: measured against it when the drive slot finally comes up.
        self._enqueued_monotonic = time.monotonic()

    def cancel(self) -> None:
        """Request cancellation; safe from any thread, idempotent.

        Queries not yet started are dropped; the job's terminal event
        becomes ``cancelled`` unless it already completed.
        """
        self._cancel.set()
        run = self._run
        if run is not None:
            run.cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancel.is_set()

    async def events(self) -> AsyncIterator[JobEvent]:
        """Yield streamed events until (and including) the terminal one."""
        while True:
            event = await self._queue.get()
            yield event
            if event[0] in ("done", "cancelled", "error", "overloaded"):
                return

    # -- drive-thread side --------------------------------------------- #
    def _deliver(self, event: JobEvent) -> None:
        try:
            self._loop.call_soon_threadsafe(self._queue.put_nowait, event)
        except RuntimeError:  # pragma: no cover - loop already closed
            pass


@dataclass
class ServiceStats:
    """Monotonic service counters (guarded by the service lock)."""

    jobs_submitted: int = 0
    jobs_completed: int = 0
    jobs_cancelled: int = 0
    jobs_failed: int = 0
    jobs_shed: int = 0
    queries_submitted: int = 0
    queries_completed: int = 0
    queries_admitted: int = 0
    queries_shed: int = 0
    queries_expired: int = 0
    queue_depth_high_water: int = 0
    paths_streamed: int = 0
    active_jobs: Dict[str, "ServiceJob"] = field(default_factory=dict)


class QueryService:
    """A long-lived query service over one graph.

    Parameters mirror the batch executors: ``processes > 1`` selects the
    process backend of :class:`~repro.core.engine.ExecutorCore` (shared
    graph image, packed distance cache, worker processes), otherwise a
    ``threads``-wide thread backend serves jobs in-process — the right
    default for small graphs and tests, and the only mode that stops
    mid-shard on cancellation.

    One service hosts many concurrent jobs: they share the worker pool, the
    distance cache (a query whose ``(target, k)`` any earlier job warmed
    skips its reverse BFS) and the ``max_concurrent_jobs``-wide drive pool.

    Admission control: ``max_pending_queries`` bounds the number of
    admitted-but-unfinished queries — a submit that would exceed it raises
    :class:`~repro.errors.ServiceOverloaded` with a retry-after estimate
    derived from recent service times.  ``max_queue_delay`` (seconds) sheds
    a job whose drive slot came up too late (terminal ``overloaded`` event
    instead of execution), and — only while either knob is set — a job whose
    per-query ``time_limit_seconds`` fully elapsed *while queued* is
    answered with deadline results without ever reaching a worker.  Both
    knobs default to off, and off means *exactly* the unhardened semantics:
    an unconfigured server still runs already-expired queries, because the
    engine's own deadline handling (a few paths may be emitted before the
    first poll) is part of the byte-identical-to-inline contract.
    """

    #: Clamp window of the retry-after hint (seconds).
    _RETRY_AFTER_BOUNDS = (0.05, 5.0)

    def __init__(
        self,
        graph: DiGraph,
        *,
        algorithm: Optional[Algorithm] = None,
        processes: int = 1,
        threads: int = 2,
        start_method: Optional[str] = None,
        max_cached: int = 1024,
        max_concurrent_jobs: int = 32,
        shard_id: Optional[int] = None,
        max_pending_queries: Optional[int] = None,
        max_queue_delay: Optional[float] = None,
    ) -> None:
        if processes < 1:
            raise ValueError("processes must be at least 1")
        if threads < 1:
            raise ValueError("threads must be at least 1")
        if max_pending_queries is not None and max_pending_queries < 1:
            raise ValueError("max_pending_queries must be at least 1")
        if max_queue_delay is not None and max_queue_delay <= 0.0:
            raise ValueError("max_queue_delay must be positive")
        self.graph = graph
        #: Identity of this host in a routed deployment (``repro serve
        #: --shard-id N``); ``None`` for a standalone server.  Reported in
        #: ``stats`` / ``pong`` frames so a router (and ``repro client
        #: --server-stats``) can attribute per-shard health.
        self.shard_id = shard_id
        backend = "process" if processes > 1 else "thread"
        # Load the native engine's C library before any worker starts — on
        # a cold cache this compiles it into the user cache dir — so forked
        # workers inherit it, spawned ones only load it, and no live query
        # pays the compile (p99 protection).  A no-op without a C compiler
        # or under REPRO_NATIVE=off.
        native_warmup()
        self._core = ExecutorCore(
            graph,
            algorithm=algorithm,
            backend=backend,
            workers=processes if processes > 1 else threads,
            start_method=start_method,
            max_cached=max_cached,
        )
        self._drive_pool = ThreadPoolExecutor(
            max_workers=max(1, int(max_concurrent_jobs)), thread_name_prefix="repro-job"
        )
        self.max_pending_queries = max_pending_queries
        self.max_queue_delay = max_queue_delay
        #: Hardening configured at all?  Gates the expired-in-queue fast
        #: path: an unconfigured server must stay byte-identical to inline.
        self._admission_active = (
            max_pending_queries is not None or max_queue_delay is not None
        )
        #: Admitted-but-unfinished queries (the pending-work gauge).
        self._pending_queries = 0
        #: EWMA of per-query service seconds, feeding the retry-after hint.
        self._ewma_query_seconds: Optional[float] = None
        self._stats = ServiceStats()
        self._lock = threading.Lock()
        self._job_ids = itertools.count(1)
        self._started_monotonic = time.monotonic()
        self._closed = False

    # -- introspection ------------------------------------------------- #
    @property
    def backend(self) -> str:
        """Worker backend of the underlying core (``process`` / ``thread``)."""
        return self._core.backend

    @property
    def workers(self) -> int:
        return self._core.workers

    @property
    def closed(self) -> bool:
        return self._closed

    def stats(self) -> Dict[str, object]:
        """A flat snapshot for the ``stats`` protocol frame."""
        with self._lock:
            counters = {
                "jobs_submitted": self._stats.jobs_submitted,
                "jobs_completed": self._stats.jobs_completed,
                "jobs_cancelled": self._stats.jobs_cancelled,
                "jobs_failed": self._stats.jobs_failed,
                "jobs_shed": self._stats.jobs_shed,
                "jobs_active": len(self._stats.active_jobs),
                "queries_submitted": self._stats.queries_submitted,
                "queries_completed": self._stats.queries_completed,
                "queries_admitted": self._stats.queries_admitted,
                "queries_shed": self._stats.queries_shed,
                "queries_expired": self._stats.queries_expired,
                "queries_inflight": self._pending_queries,
                "queue_depth_high_water": self._stats.queue_depth_high_water,
                "max_pending_queries": self.max_pending_queries,
                "max_queue_delay": self.max_queue_delay,
                "paths_streamed": self._stats.paths_streamed,
            }
        from repro._version import __version__
        from repro.server.protocol import PROTOCOL_VERSION

        session_stats = self._core.session.stats
        return {
            **counters,
            "backend": self.backend,
            "workers": self.workers,
            "shard_id": self.shard_id,
            "server_version": __version__,
            "protocol": PROTOCOL_VERSION,
            "current_epoch": self._core.current_epoch,
            **self._core.live_stats,
            "reverse_bfs_runs": session_stats.reverse_bfs_runs,
            "distance_cache_entries": len(self._core.session.export_distances()),
            "uptime_seconds": round(time.monotonic() - self._started_monotonic, 3),
            "graph_vertices": self.graph.num_vertices,
            "graph_edges": self.graph.num_edges,
            "graph_store": self.graph.store_backend,
            "graph_resident_bytes": self.graph.memory_usage()["resident_bytes"],
        }

    # -- job lifecycle ------------------------------------------------- #
    async def submit(
        self,
        queries: Sequence[Query],
        config: Optional[RunConfig] = None,
    ) -> ServiceJob:
        """Register a job and start driving it; returns immediately.

        The returned job's :meth:`ServiceJob.events` yields one ``result``
        event per query as workers complete them, then a terminal event.
        Constraints are rejected by the core.

        Raises :class:`~repro.errors.ServiceOverloaded` (with a
        ``retry_after`` hint) when admitting the job would exceed
        ``max_pending_queries``.
        """
        if self._closed:
            raise RuntimeError("QueryService is closed")
        config = config if config is not None else RunConfig()
        loop = asyncio.get_running_loop()
        queries = list(queries)
        job = ServiceJob(f"job-{next(self._job_ids)}", len(queries), loop)
        with self._lock:
            self._stats.jobs_submitted += 1
            self._stats.queries_submitted += len(queries)
            limit = self.max_pending_queries
            if (
                limit is not None
                and queries
                and self._pending_queries + len(queries) > limit
            ):
                self._stats.jobs_shed += 1
                self._stats.queries_shed += len(queries)
                raise ServiceOverloaded(
                    "pending-work budget exhausted",
                    retry_after=self._retry_after_locked(),
                    pending=self._pending_queries,
                    limit=limit,
                )
            self._stats.queries_admitted += len(queries)
            self._pending_queries += len(queries)
            if self._pending_queries > self._stats.queue_depth_high_water:
                self._stats.queue_depth_high_water = self._pending_queries
            self._stats.active_jobs[job.id] = job
        job._enqueued_monotonic = time.monotonic()
        job._drive_future = self._drive_pool.submit(self._drive, job, queries, config)
        return job

    def _retry_after_locked(self) -> float:
        """Estimate seconds until capacity frees up (caller holds the lock).

        Pending work divided by worker parallelism, priced at the EWMA of
        recent per-query service times, clamped so a cold service still
        answers something sane.
        """
        lo, hi = self._RETRY_AFTER_BOUNDS
        per_query = self._ewma_query_seconds if self._ewma_query_seconds else lo
        estimate = per_query * max(1, self._pending_queries) / max(1, self.workers)
        return min(hi, max(lo, estimate))

    async def run(
        self,
        queries: Sequence[Query],
        config: Optional[RunConfig] = None,
    ) -> List[QueryResult]:
        """Submit and await one workload, returning results in workload order."""
        queries = list(queries)
        job = await self.submit(queries, config)
        results: List[Optional[QueryResult]] = [None] * len(queries)
        async for event in job.events():
            if event[0] == "result":
                results[event[1]] = event[2]
            elif event[0] == "error":
                raise RuntimeError(event[1])
            elif event[0] == "cancelled":
                raise asyncio.CancelledError(f"job {job.id} cancelled")
        return results  # type: ignore[return-value]

    # -- mutation ------------------------------------------------------- #
    def mutate(
        self,
        add: Sequence[Tuple[int, int]] = (),
        remove: Sequence[Tuple[int, int]] = (),
    ) -> Dict[str, object]:
        """Apply one edge batch; blocking (call via an executor from asyncio).

        Delegates to :meth:`~repro.core.engine.ExecutorCore.mutate`: the new
        epoch publishes atomically, jobs already streaming keep their pinned
        snapshot, and the service's own graph reference moves forward so the
        ``stats`` frame describes what new jobs run against.
        """
        if self._closed:
            raise RuntimeError("QueryService is closed")
        info = self._core.mutate(add=add, remove=remove)
        self.graph = self._core.graph
        return info

    def _drive(self, job: ServiceJob, queries: List[Query], config: RunConfig) -> None:
        """Drive one job to completion (runs on a drive-pool thread)."""
        started = time.perf_counter()
        total_paths = 0
        try:
            if job.cancelled:
                self._finish(job, JobState.CANCELLED)
                job._deliver(("cancelled", 0))
                return
            queue_delay = time.monotonic() - job._enqueued_monotonic
            if self.max_queue_delay is not None and queue_delay > self.max_queue_delay:
                with self._lock:
                    self._stats.jobs_shed += 1
                    self._stats.queries_shed += job.num_queries
                    retry_after = self._retry_after_locked()
                self._finish(job, JobState.SHED)
                job._deliver(
                    (
                        "overloaded",
                        {
                            "retry_after_ms": round(retry_after * 1e3, 3),
                            "queue_delay_ms": round(queue_delay * 1e3, 3),
                        },
                    )
                )
                return
            if (
                self._admission_active
                and config.time_limit_seconds is not None
                and queue_delay >= config.time_limit_seconds
            ):
                # The per-query deadline fully elapsed while the job waited
                # for a drive slot: answer every position with a deadline
                # result instead of burning workers on queries whose callers
                # have already timed out.
                with self._lock:
                    self._stats.queries_expired += job.num_queries
                algorithm_name = self._core.algorithm.name
                for position, query in enumerate(queries):
                    job.delivered += 1
                    job._deliver(
                        (
                            "result",
                            position,
                            QueryResult(
                                query.source,
                                query.target,
                                query.k,
                                algorithm_name,
                                0,
                                PathBuffer() if config.store_paths else None,
                                EnumerationStats(timed_out=True),
                                response_k=config.response_k,
                            ),
                        )
                    )
                self._finish(job, JobState.DONE, queries=job.delivered, paths=0)
                job._deliver(
                    (
                        "done",
                        {
                            "queries": job.delivered,
                            "total_paths": 0,
                            "expired_in_queue": True,
                            "wall_ms": round((time.perf_counter() - started) * 1e3, 3),
                        },
                    )
                )
                return
            job.state = JobState.RUNNING
            run = self._core.start(queries, config, chunk_queries=1)
            job._run = run
            if job.cancelled:
                run.cancel()
            for chunk in run.chunks():
                for position, result in chunk:
                    job.delivered += 1
                    total_paths += result.count
                    job._deliver(("result", position, result))
            if job.delivered == job.num_queries:
                self._finish(
                    job,
                    JobState.DONE,
                    queries=job.delivered,
                    paths=total_paths,
                    wall_seconds=time.perf_counter() - started,
                )
                job._deliver(
                    (
                        "done",
                        {
                            "queries": job.delivered,
                            "total_paths": total_paths,
                            "wall_ms": round((time.perf_counter() - started) * 1e3, 3),
                        },
                    )
                )
            elif job.cancelled:
                self._finish(job, JobState.CANCELLED, queries=job.delivered, paths=total_paths)
                job._deliver(("cancelled", job.delivered))
            else:
                raise RuntimeError(
                    f"stream ended with {job.num_queries - job.delivered} results missing"
                )
        except Exception as error:  # noqa: BLE001 - forwarded to the client
            self._finish(job, JobState.FAILED, queries=job.delivered, paths=total_paths)
            job._deliver(("error", f"{type(error).__name__}: {error}"))

    def _finish(
        self,
        job: ServiceJob,
        state: JobState,
        *,
        queries: int = 0,
        paths: int = 0,
        wall_seconds: Optional[float] = None,
    ) -> None:
        job.state = state
        with self._lock:
            if self._stats.active_jobs.pop(job.id, None) is not None:
                # Release the job's pending-work budget exactly once (both
                # _drive and _shutdown_blocking may try to finish a job).
                self._pending_queries = max(0, self._pending_queries - job.num_queries)
            self._stats.queries_completed += queries
            self._stats.paths_streamed += paths
            if state is JobState.DONE:
                self._stats.jobs_completed += 1
                if wall_seconds is not None and job.num_queries > 0:
                    per_query = wall_seconds / job.num_queries
                    if self._ewma_query_seconds is None:
                        self._ewma_query_seconds = per_query
                    else:
                        self._ewma_query_seconds += 0.2 * (per_query - self._ewma_query_seconds)
            elif state is JobState.CANCELLED:
                self._stats.jobs_cancelled += 1
            elif state is JobState.FAILED:
                self._stats.jobs_failed += 1

    # -- shutdown ------------------------------------------------------ #
    async def close(self) -> None:
        """Cancel active jobs and release the pool + shared segments.

        Blocking teardown (pool joins, segment unlinks) runs on the default
        executor so the event loop keeps serving terminal frames meanwhile.
        Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        with self._lock:
            active = list(self._stats.active_jobs.values())
        for job in active:
            job.cancel()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._shutdown_blocking)

    def _shutdown_blocking(self) -> None:
        self._drive_pool.shutdown(wait=True, cancel_futures=True)
        # A job queued behind max_concurrent_jobs whose _drive never ran was
        # cancelled as a bare future — nobody delivered its terminal event,
        # and an events()/run() awaiter would hang on the empty queue.
        with self._lock:
            stranded = list(self._stats.active_jobs.values())
        for job in stranded:
            future = job._drive_future
            if future is not None and future.cancelled():
                self._finish(job, JobState.CANCELLED)
                job._deliver(("cancelled", 0))
        self._core.close()
