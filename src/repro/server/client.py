"""Asyncio client for the query service, plus the open-loop load driver.

:class:`QueryClient` wraps one TCP connection: a background reader task
demultiplexes incoming frames by job id, so any number of jobs (and
``stats`` probes) can be in flight on one connection.  The convenience
entry points cover the two scripted uses:

* :func:`run_queries` — synchronous one-shot: connect, submit one workload,
  collect the ordered results (the ``repro client`` default);
* :func:`open_loop_load` — the traffic generator behind ``repro client
  --rate``: each query becomes its own job, submitted at a scheduled
  arrival time regardless of completions (open-loop, so queueing delay is
  *measured*, not hidden), across a pool of concurrent connections.
"""

from __future__ import annotations

import asyncio
import functools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.result import PathBuffer
from repro.errors import ConnectionLost
from repro.server.protocol import (
    DEFAULT_PORT,
    PROTOCOL_VERSION,
    frame_paths,
    negotiate_protocol,
    read_frame,
    write_frame,
)

__all__ = [
    "ReconnectPolicy",
    "RemoteResult",
    "JobOutcome",
    "Pong",
    "QueryClient",
    "run_queries",
    "open_loop_load",
    "LoadReport",
]


@dataclass(frozen=True)
class ReconnectPolicy:
    """Exponential backoff with jitter for (re)dialling a query server.

    ``attempts`` counts connection *tries*: 1 means a single dial and no
    retry.  The delay before retry ``n`` is ``base_delay * 2**(n-1)``
    capped at ``max_delay``, stretched by a uniform random factor in
    ``[1, 1 + jitter]`` — the jitter keeps a fleet of clients (or a router's
    shard channels) from redialling a recovering server in lockstep.
    """

    attempts: int = 1
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.5

    def delay(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Seconds to sleep after failed attempt number ``attempt`` (1-based)."""
        base = min(self.max_delay, self.base_delay * (2.0 ** (attempt - 1)))
        spread = (rng.random() if rng is not None else random.random()) * self.jitter
        return base * (1.0 + spread)


@dataclass
class Pong:
    """A ``pong`` reply: liveness plus identity plus round-trip latency.

    Truthy (so ``assert await client.ping()`` keeps reading naturally);
    ``rtt_ms`` is measured on the client's clock around the full control
    round trip; ``protocol`` / ``server_version`` / ``shard_id`` are absent
    (``None`` / 1) when the peer predates protocol version 2.
    """

    rtt_ms: float
    protocol: int = 1
    server_version: Optional[str] = None
    shard_id: Optional[int] = None

    def __bool__(self) -> bool:
        return True


@dataclass
class RemoteResult:
    """One query's result as received over the wire.

    :attr:`path_buffer` holds the frame's paths in columnar form (``None``
    when the frame carried none); :attr:`paths` reads them as a list of
    tuples, materialised and cached on first access.
    """

    position: int
    source: object
    target: object
    k: int
    count: int
    path_buffer: Optional[PathBuffer]
    query_ms: float
    plan: Optional[str]
    timed_out: bool
    bfs_cache_hit: bool

    @functools.cached_property
    def paths(self) -> Optional[List[Tuple[int, ...]]]:
        return None if self.path_buffer is None else self.path_buffer.to_paths()

    @classmethod
    def from_frame(cls, frame: Dict[str, object]) -> "RemoteResult":
        return cls(
            position=int(frame["position"]),
            source=frame["source"],
            target=frame["target"],
            k=int(frame["k"]),
            count=int(frame["count"]),
            path_buffer=frame_paths(frame),
            query_ms=float(frame["query_ms"]),
            plan=frame.get("plan"),
            timed_out=bool(frame.get("timed_out", False)),
            bfs_cache_hit=bool(frame.get("bfs_cache_hit", False)),
        )


@dataclass
class JobOutcome:
    """Everything one job streamed back, reassembled."""

    job_id: str
    #: Results in workload order (sorted by ``position``).
    results: List[RemoteResult]
    #: ``"done"``, ``"cancelled"``, ``"overloaded"`` or ``"error"``.
    status: str
    #: The terminal frame (carries ``total_paths`` / ``wall_ms`` on done,
    #: ``retry_after_ms`` on overloaded).
    info: Dict[str, object]
    #: Client-side seconds from submit to the first streamed frame / the
    #: terminal frame — the serving latency split the benchmark reports.
    first_frame_seconds: Optional[float] = None
    wall_seconds: float = 0.0
    #: Overload retries :meth:`QueryClient.run_with_retries` spent before
    #: this outcome (0 for a first-attempt answer).
    retries: int = 0

    @property
    def total_paths(self) -> int:
        return sum(result.count for result in self.results)


class QueryClient:
    """One protocol connection with frame demultiplexing."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        endpoint: Optional[Tuple[str, int]] = None,
        policy: Optional[ReconnectPolicy] = None,
    ) -> None:
        self._endpoint = endpoint
        self._policy = policy if policy is not None else ReconnectPolicy()
        self._connected = True
        self._attach(reader, writer)

    def _attach(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        """(Re)bind the connection state around a fresh socket."""
        self._reader = reader
        self._writer = writer
        self._write_lock = asyncio.Lock()
        self._jobs: Dict[str, asyncio.Queue] = {}
        self._control: asyncio.Queue = asyncio.Queue()
        self._control_lock = asyncio.Lock()
        self._next_id = getattr(self, "_next_id", 0)
        self._connected = True
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @staticmethod
    async def _dial(
        host: str, port: int, policy: ReconnectPolicy
    ) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        """Open a connection under ``policy``; :class:`ConnectionLost` when spent."""
        attempt = 0
        while True:
            attempt += 1
            try:
                return await asyncio.open_connection(host, port)
            except OSError as error:
                if attempt >= max(1, policy.attempts):
                    raise ConnectionLost(host, port, attempt, str(error)) from error
                await asyncio.sleep(policy.delay(attempt))

    @classmethod
    async def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        *,
        retries: int = 0,
        policy: Optional[ReconnectPolicy] = None,
    ) -> "QueryClient":
        """Dial a server; a refused/unreachable endpoint raises
        :class:`~repro.errors.ConnectionLost` (never a raw ``OSError``).

        ``retries`` adds that many redial attempts with the default
        exponential backoff + jitter; ``policy`` overrides the whole
        schedule.  The policy is remembered for :meth:`reconnect`.
        """
        policy = policy if policy is not None else ReconnectPolicy(attempts=1 + max(0, retries))
        reader, writer = await cls._dial(host, port, policy)
        return cls(reader, writer, endpoint=(host, port), policy=policy)

    @property
    def connected(self) -> bool:
        """Whether the reader loop still considers the connection live."""
        return self._connected and not self._reader_task.done()

    async def reconnect(self) -> None:
        """Redial the remembered endpoint under the connect-time policy.

        Jobs in flight on the old connection are already poisoned (their
        server-side state died with the socket) — reconnecting restores the
        *connection*, not the jobs; resubmission is the caller's decision.
        Raises :class:`~repro.errors.ConnectionLost` when the policy's
        attempts are exhausted, ``RuntimeError`` when the client was built
        from a raw stream pair and no endpoint is known.
        """
        if self._endpoint is None:
            raise RuntimeError("cannot reconnect: client was not built via connect()")
        await self.close()
        reader, writer = await self._dial(*self._endpoint, self._policy)
        self._attach(reader, writer)

    async def __aenter__(self) -> "QueryClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def close(self) -> None:
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):  # noqa: BLE001 - teardown
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def _read_loop(self) -> None:
        reason = "connection closed"
        try:
            while True:
                frame = await read_frame(self._reader)
                if frame is None:
                    break
                job_id = frame.get("id")
                queue = self._jobs.get(job_id) if job_id is not None else None
                if queue is not None:
                    queue.put_nowait(frame)
                else:
                    self._control.put_nowait(frame)
        except asyncio.CancelledError:
            raise
        except Exception as error:  # noqa: BLE001 - reported through the poison frame
            reason = f"connection failed: {type(error).__name__}: {error}"
        finally:
            # Wake every waiter so nobody blocks on a dead connection — and
            # tell them *why* (protocol error vs. plain disconnect).  The
            # marker lets control-frame waiters distinguish this local
            # "connection is gone" signal from an ordinary server error
            # frame that happens to carry no job id.
            self._connected = False
            poison = {"type": "error", "error": reason, "_closed": True}
            for job_id, queue in self._jobs.items():
                queue.put_nowait({**poison, "id": job_id})
            self._control.put_nowait(poison)

    # -- requests ------------------------------------------------------ #
    async def submit(
        self,
        queries: Sequence[Sequence[object]],
        *,
        store_paths: bool = True,
        result_limit: Optional[int] = None,
        time_limit_seconds: Optional[float] = None,
        response_k: int = 1000,
        external: bool = False,
        protocol: Optional[int] = PROTOCOL_VERSION,
    ) -> str:
        """Send one submit frame; returns the job id to stream/collect.

        ``external`` says the query endpoints are external vertex ids, which
        the server resolves; results always carry internal ids.
        ``protocol`` is the
        frame version announced to the server (``None`` announces none, a
        version-1 submitter): from 4 on, ``result`` frames may arrive
        columnar, which :meth:`collect` and
        :func:`~repro.server.protocol.frame_paths` read transparently.
        """
        self._next_id += 1
        job_id = f"c{self._next_id}"
        if not self._connected:
            # The reader loop already poisoned every job it knew of; a job
            # registered now would wait forever for its frames.
            host, port = self._endpoint if self._endpoint else ("?", 0)
            raise ConnectionLost(host, port, 1, "connection closed")
        self._jobs[job_id] = asyncio.Queue()
        opts: Dict[str, object] = {
            "store_paths": store_paths,
            "response_k": response_k,
        }
        if result_limit is not None:
            opts["result_limit"] = result_limit
        if time_limit_seconds is not None:
            opts["time_limit_seconds"] = time_limit_seconds
        if external:
            opts["external"] = True
        message: Dict[str, object] = {
            "type": "submit",
            "id": job_id,
            "queries": [list(query) for query in queries],
            "opts": opts,
        }
        if protocol is not None:
            message["protocol"] = protocol
        await write_frame(self._writer, message, lock=self._write_lock)
        return job_id

    async def frames(self, job_id: str):
        """Yield the job's raw frames until (and including) the terminal one."""
        queue = self._jobs[job_id]
        try:
            while True:
                frame = await queue.get()
                yield frame
                if frame["type"] in ("done", "cancelled", "error", "overloaded"):
                    return
        finally:
            self._jobs.pop(job_id, None)

    async def collect(self, job_id: str) -> JobOutcome:
        """Drain one job into a :class:`JobOutcome` (results position-sorted)."""
        loop = asyncio.get_running_loop()
        started = loop.time()
        first: Optional[float] = None
        results: List[RemoteResult] = []
        status, info = "error", {"error": "stream ended without a terminal frame"}
        async for frame in self.frames(job_id):
            if first is None:
                first = loop.time() - started
            kind = frame["type"]
            if kind == "result":
                results.append(RemoteResult.from_frame(frame))
            else:
                status, info = kind, frame
        results.sort(key=lambda result: result.position)
        return JobOutcome(
            job_id=job_id,
            results=results,
            status=status,
            info=info,
            first_frame_seconds=first,
            wall_seconds=loop.time() - started,
        )

    async def run(self, queries: Sequence[Sequence[object]], **opts) -> JobOutcome:
        """Submit one workload and collect its outcome."""
        job_id = await self.submit(queries, **opts)
        return await self.collect(job_id)

    async def run_with_retries(
        self,
        queries: Sequence[Sequence[object]],
        *,
        overload_retries: int = 4,
        rng: Optional[random.Random] = None,
        **opts,
    ) -> JobOutcome:
        """:meth:`run`, honouring ``overloaded`` rejects with backoff.

        The sleep before retry ``n`` is the larger of the server's
        ``retry_after_ms`` hint and ``0.05 * 2**(n-1)`` seconds, capped at
        2 s and stretched by up to 50 % jitter (so a rejected fleet does not
        retry in lockstep).  After ``overload_retries`` rejected attempts
        the final ``overloaded`` outcome is returned — never raised — with
        :attr:`JobOutcome.retries` recording the attempts spent.
        """
        attempt = 0
        while True:
            outcome = await self.run(queries, **opts)
            outcome.retries = attempt
            if outcome.status != "overloaded" or attempt >= overload_retries:
                return outcome
            attempt += 1
            hint = float(outcome.info.get("retry_after_ms", 50.0)) / 1e3
            backoff = min(2.0, max(hint, 0.05 * (2.0 ** (attempt - 1))))
            spread = (rng.random() if rng is not None else random.random()) * 0.5
            await asyncio.sleep(backoff * (1.0 + spread))

    async def cancel(self, job_id: str) -> None:
        await write_frame(
            self._writer, {"type": "cancel", "id": job_id}, lock=self._write_lock
        )

    async def stats(self) -> Dict[str, object]:
        """Request one service statistics snapshot."""
        return (await self._control_request({"type": "stats"}, "stats")).get("stats")

    async def update(
        self,
        add: Sequence[Sequence[object]] = (),
        remove: Sequence[Sequence[object]] = (),
        *,
        external: bool = False,
    ) -> Dict[str, object]:
        """Apply one edge batch server-side; returns the ``updated`` frame.

        The reply carries the new ``epoch`` id, the ``added`` / ``removed``
        counts that actually took effect, the distance-cache ``repair``
        breakdown and the live-graph ``stats`` counters (protocol version
        3).  A server-side validation failure raises ``RuntimeError`` with
        the server's message.
        """
        request: Dict[str, object] = {
            "type": "update",
            "add": [list(edge) for edge in add],
            "remove": [list(edge) for edge in remove],
        }
        if external:
            request["external"] = True
        async with self._control_lock:
            await write_frame(self._writer, request, lock=self._write_lock)
            while True:
                frame = await self._control.get()
                if frame["type"] == "updated":
                    return frame
                if frame.get("_closed"):
                    host, port = self._endpoint if self._endpoint else ("?", 0)
                    raise ConnectionLost(
                        host, port, 1, str(frame.get("error", "connection closed"))
                    )
                if frame["type"] == "error":
                    raise RuntimeError(f"update failed: {frame.get('error')}")

    async def ping(self) -> Pong:
        """Round-trip a liveness probe; returns the (truthy) :class:`Pong`.

        The ping frame carries the client's monotonic clock sample and
        protocol version; the pong echoes the former (round-trip latency
        measured on one clock) and reports the server's identity fields.
        """
        loop = asyncio.get_running_loop()
        sent = loop.time()
        frame = await self._control_request(
            {"type": "ping", "protocol": PROTOCOL_VERSION, "t": sent}, "pong"
        )
        rtt_ms = (loop.time() - sent) * 1e3
        return Pong(
            rtt_ms=rtt_ms,
            protocol=1 if frame.get("protocol") is None else int(frame["protocol"]),
            server_version=frame.get("server_version"),
            shard_id=frame.get("shard_id"),
        )

    async def negotiate(self) -> int:
        """Ping the server and validate its protocol version.

        Returns the negotiated version; raises
        :class:`~repro.server.protocol.ProtocolMismatch` when the server
        speaks a version outside this build's supported window.  A pong
        without a ``protocol`` field is a version-1 server.
        """
        pong = await self.ping()
        return negotiate_protocol(pong.protocol)

    async def _control_request(
        self, request: Dict[str, object], reply_type: str
    ) -> Dict[str, object]:
        """Send a control frame and wait for its reply (the whole frame).

        Unrelated control-queue traffic (e.g. a server error frame that
        carries no job id) is skipped, not raised — only the dead-connection
        poison aborts the wait, as :class:`~repro.errors.ConnectionLost`.
        """
        async with self._control_lock:
            await write_frame(self._writer, request, lock=self._write_lock)
            while True:
                frame = await self._control.get()
                if frame["type"] == reply_type:
                    return frame
                if frame.get("_closed"):
                    host, port = self._endpoint if self._endpoint else ("?", 0)
                    raise ConnectionLost(
                        host, port, 1, str(frame.get("error", "connection closed"))
                    )


def run_queries(
    queries: Sequence[Sequence[object]],
    *,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    **opts,
) -> JobOutcome:
    """Synchronous one-shot: connect, run one workload, disconnect."""

    async def _run() -> JobOutcome:
        client = await QueryClient.connect(host, port)
        async with client:
            return await client.run(queries, **opts)

    return asyncio.run(_run())


@dataclass
class LoadReport:
    """Outcome of one open-loop load run."""

    concurrency: int
    offered_rate: float
    wall_seconds: float
    completed: int
    errors: int
    total_paths: int
    #: Per-query completion latency in milliseconds, measured from each
    #: query's *scheduled* arrival time (queueing delay included).
    latencies_ms: List[float] = field(default_factory=list)
    #: Queries the server refused with ``overloaded`` beyond the retry
    #: budget — shed load, counted separately from errors.
    shed: int = 0
    #: Overload-rejected submissions that were retried (attempts, not
    #: distinct queries).
    retried: int = 0
    #: Arrivals moved off a dead connection onto a surviving one.
    reassigned: int = 0
    #: ``(index, JobOutcome)`` of completed queries, kept only when
    #: ``keep_outcomes`` was requested (equivalence checks).
    outcomes: List[Tuple[int, "JobOutcome"]] = field(default_factory=list)

    @property
    def achieved_qps(self) -> float:
        if self.wall_seconds <= 0.0:
            return float(self.completed)
        return self.completed / self.wall_seconds


async def open_loop_load(
    queries: Sequence[Sequence[object]],
    arrivals_seconds: Sequence[float],
    *,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    connections: int = 1,
    store_paths: bool = False,
    result_limit: Optional[int] = None,
    time_limit_seconds: Optional[float] = None,
    external: bool = False,
    overload_retries: int = 3,
    rng: Optional[random.Random] = None,
    keep_outcomes: bool = False,
) -> LoadReport:
    """Drive open-loop traffic: query ``i`` is submitted at its arrival time.

    Every query is its own single-query job; jobs round-robin over
    ``connections`` concurrent client connections.  Submission times follow
    ``arrivals_seconds`` (offsets from the start of the run) without waiting
    for completions — when the service falls behind, latency grows instead
    of the arrival process stalling, which is what makes the measured
    percentiles honest.

    The driver degrades instead of aborting: an ``overloaded`` reject is
    retried with backoff + jitter up to ``overload_retries`` times (the
    final reject counts as *shed*, not an error), and an arrival whose
    preferred connection died is handed to a surviving connection (counted
    in :attr:`LoadReport.reassigned`) rather than silently lost — a query
    that was mid-flight when its connection died may be re-executed
    server-side, which an open-loop measurement tolerates.  ``rng`` seeds
    the backoff jitter for reproducible runs.
    """
    if len(queries) != len(arrivals_seconds):
        raise ValueError("queries and arrivals_seconds must have equal length")
    if connections < 1:
        raise ValueError("connections must be at least 1")
    loop = asyncio.get_running_loop()
    clients: List[QueryClient] = []
    started = loop.time()
    counters = {"shed": 0, "retried": 0, "reassigned": 0}

    async def one(index: int, query: Sequence[object], offset: float):
        scheduled = started + offset
        delay = scheduled - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        preferred = index % len(clients)
        overloads = 0
        hops = 0
        max_hops = 2 * len(clients)
        while True:
            client = clients[preferred]
            if not client.connected:
                live = [i for i, c in enumerate(clients) if c.connected]
                if not live or hops >= max_hops:
                    return "lost", None, None
                preferred = live[index % len(live)]
                client = clients[preferred]
                counters["reassigned"] += 1
                hops += 1
            try:
                job_id = await client.submit(
                    [query],
                    store_paths=store_paths,
                    result_limit=result_limit,
                    time_limit_seconds=time_limit_seconds,
                    external=external,
                )
                outcome = await client.collect(job_id)
            except (ConnectionError, OSError):
                hops += 1
                if hops > max_hops:
                    return "lost", None, None
                continue
            if outcome.status == "error" and outcome.info.get("_closed"):
                # The connection died mid-flight (poison frame): loop back —
                # the dead-client branch above reassigns to a survivor.
                hops += 1
                if hops > max_hops:
                    return "lost", None, None
                continue
            if outcome.status == "overloaded":
                overloads += 1
                if overloads > overload_retries:
                    return "shed", outcome, None
                counters["retried"] += 1
                hint = float(outcome.info.get("retry_after_ms", 50.0)) / 1e3
                backoff = min(2.0, max(hint, 0.05 * (2.0 ** (overloads - 1))))
                spread = (rng.random() if rng is not None else random.random()) * 0.5
                await asyncio.sleep(backoff * (1.0 + spread))
                continue
            latency_ms = (loop.time() - scheduled) * 1e3
            return outcome.status, outcome, latency_ms

    try:
        # Connections open inside the try so a mid-list refusal (fd limit,
        # server backlog) still closes the ones already established.
        for _ in range(min(connections, max(1, len(queries)))):
            clients.append(await QueryClient.connect(host, port))
        started = loop.time()
        settled = await asyncio.gather(
            *(one(i, q, a) for i, (q, a) in enumerate(zip(queries, arrivals_seconds))),
            return_exceptions=True,
        )
        wall = loop.time() - started
    finally:
        for client in clients:
            await client.close()

    latencies: List[float] = []
    outcomes: List[Tuple[int, JobOutcome]] = []
    completed = errors = total_paths = 0
    for index, entry in enumerate(settled):
        if isinstance(entry, BaseException):
            errors += 1
            continue
        status, outcome, latency_ms = entry
        if status == "shed":
            counters["shed"] += 1
            continue
        if status != "done":
            errors += 1
            continue
        completed += 1
        total_paths += outcome.total_paths
        latencies.append(latency_ms)
        if keep_outcomes:
            outcomes.append((index, outcome))
    return LoadReport(
        concurrency=len(clients),
        offered_rate=(len(queries) / arrivals_seconds[-1]) if len(queries) and arrivals_seconds[-1] > 0 else 0.0,
        wall_seconds=wall,
        completed=completed,
        errors=errors,
        total_paths=total_paths,
        latencies_ms=latencies,
        shed=counters["shed"],
        retried=counters["retried"],
        reassigned=counters["reassigned"],
        outcomes=outcomes,
    )
