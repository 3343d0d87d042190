"""Distributed shard router: one logical database over N serve hosts.

The router is the graph-free tier between the public API and a fleet of
``repro serve`` shard hosts (the thin-server-over-graph-image shape
swh-graph uses to serve multi-billion-edge graphs).  It owns exactly three
things:

* a **shard map** (:class:`ShardMap`) — rendezvous consistent hashing over
  query *targets* (:func:`repro.workloads.queries.consistent_hash`), with a
  replica set per shard.  Hashing by target keeps every ``(target, k)``
  distance-cache key on one host across batches and restarts, so shard
  caches stay hot, and growing the fleet only remaps ``1/(n+1)`` of the
  target space;
* **persistent connections** (:class:`ShardChannel`) — one demultiplexing
  :class:`~repro.server.client.QueryClient` per replica address, shared by
  every routed job, redialled with exponential backoff + jitter when lost;
* **routing state** (:class:`ShardRouter`) — each submitted batch is split
  by target shard, fanned out as per-shard submit frames, and the streamed
  result frames are merged back into one job with positions remapped
  to the original workload order.  Cancel fans out to every in-flight
  shard job.

Robustness and tail-latency machinery layer on top of that core:

* **failover** — a shard attempt that dies (connection loss mid-stream,
  dial failure) is retried on the next replica, resubmitting only the
  positions still outstanding; results already merged are never recomputed;
* **hedged requests** — when a shard attempt straggles past a
  latency-percentile-derived delay (p95 of recent winning attempts,
  clamped), the outstanding sub-batch is duplicated to another replica.
  The first result per position wins, duplicates are dropped exactly once
  each, and the losing attempt receives a cancel frame.

``repro route`` is :func:`~repro.server.server.serve_forever` over a
:class:`ShardRouter`: the same TCP front end as ``repro serve``, speaking
the frame protocol the shards speak, so any existing client — ``repro
client``, the ``remote`` backend, another router — talks to it unchanged.
``Database("router://host:port")`` and shard-map files wire it into the
public API.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import math
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import AsyncIterator, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ConnectionLost, ReproError
from repro.server.client import QueryClient, ReconnectPolicy
from repro.server.protocol import PROTOCOL_VERSION, submit_options, submit_queries
from repro.workloads.queries import consistent_hash

__all__ = [
    "parse_address",
    "ShardMap",
    "ShardChannel",
    "RouterJob",
    "ShardRouter",
]


def parse_address(text: str) -> Tuple[str, int]:
    """Parse one ``host:port`` replica address (``tcp://`` prefix allowed)."""
    candidate = text[len("tcp://"):] if text.startswith("tcp://") else text
    host, separator, port = candidate.strip().rpartition(":")
    if not separator or not host or not port.isdigit():
        raise ReproError(f"malformed replica address {text!r}: expected host:port")
    return host, int(port)


@dataclass(frozen=True)
class ShardMap:
    """The routing table: per-shard replica address lists.

    Shard ``i`` of a target is :func:`consistent_hash(target, num_shards)
    <repro.workloads.queries.consistent_hash>`; ``shards[i]`` lists the
    replica endpoints serving that shard (all replicas of one shard must
    host the same graph image).  The first replica is the shard's primary;
    later entries are failover/hedging candidates.
    """

    shards: Tuple[Tuple[Tuple[str, int], ...], ...]

    def __post_init__(self) -> None:
        if not self.shards:
            raise ReproError("a shard map needs at least one shard")
        for index, replicas in enumerate(self.shards):
            if not replicas:
                raise ReproError(f"shard {index} has no replicas")

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def num_replicas(self) -> int:
        return sum(len(replicas) for replicas in self.shards)

    def shard_of(self, target) -> int:
        """The shard index owning ``target`` (stable across processes)."""
        return consistent_hash(target, self.num_shards)

    @classmethod
    def from_entries(cls, entries: Sequence[str]) -> "ShardMap":
        """Build a map from CLI-style entries: one ``h:p[,h:p...]`` per shard."""
        shards = []
        for entry in entries:
            replicas = tuple(
                parse_address(part) for part in str(entry).split(",") if part.strip()
            )
            shards.append(replicas)
        return cls(tuple(shards))

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ShardMap":
        """Build a map from the shard-map file shape (see :meth:`to_dict`)."""
        raw = payload.get("shards")
        if not isinstance(raw, list):
            raise ReproError("shard map must carry a 'shards' list")
        shards = []
        for entry in raw:
            if isinstance(entry, dict):
                entry = entry.get("replicas")
            if not isinstance(entry, (list, tuple)):
                raise ReproError(
                    "each shard must be a list of addresses or "
                    "{'replicas': [...]}"
                )
            shards.append(tuple(parse_address(str(address)) for address in entry))
        return cls(tuple(shards))

    @classmethod
    def from_file(cls, path) -> "ShardMap":
        """Load the JSON shard-map file format::

            {"shards": [
              {"replicas": ["127.0.0.1:7301", "127.0.0.1:7401"]},
              {"replicas": ["127.0.0.1:7302"]}
            ]}

        A bare list per shard (``"shards": [["h:p", ...], ...]``) is also
        accepted.
        """
        text = Path(path).read_text(encoding="utf-8")
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ReproError(f"unreadable shard map {path}: {error}") from None
        return cls.from_dict(payload)

    def to_dict(self) -> Dict[str, object]:
        return {
            "shards": [
                {"replicas": [f"{host}:{port}" for host, port in replicas]}
                for replicas in self.shards
            ]
        }


class ShardChannel:
    """Persistent demultiplexed connections to one shard's replica set.

    One :class:`~repro.server.client.QueryClient` per replica address,
    created lazily and shared by every routed job (the protocol
    demultiplexes jobs by id on one socket).  A dead client is replaced on
    the next acquisition, dialling under the router's backoff policy; the
    per-address lock stops two concurrent jobs from racing one redial.

    The channel also keeps the per-replica **circuit breaker**:
    ``breaker_threshold`` consecutive failed attempts open a replica's
    breaker, and :meth:`pick_replica` then routes around it so a flapping
    host stops absorbing attempts (and hedges).  After
    ``breaker_cooldown`` seconds one half-open probe attempt is let
    through — success closes the breaker, failure re-opens it for another
    cooldown.
    """

    def __init__(
        self,
        shard_id: int,
        replicas: Sequence[Tuple[str, int]],
        policy: ReconnectPolicy,
        *,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 5.0,
    ) -> None:
        self.shard_id = shard_id
        self.replicas = tuple(replicas)
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_cooldown = float(breaker_cooldown)
        self._policy = policy
        self._probe_policy = ReconnectPolicy(attempts=1)
        self._clients: Dict[Tuple[str, int], QueryClient] = {}
        self._locks: Dict[Tuple[str, int], asyncio.Lock] = {}
        #: Consecutive failures per replica index (reset on any success).
        self._failures: Dict[int, int] = {}
        #: Loop time each open breaker last tripped/re-tripped.
        self._opened_at: Dict[int, float] = {}
        #: Replicas whose half-open probe is currently in flight.
        self._half_open: set = set()

    # -- circuit breaker ------------------------------------------------ #
    def record_success(self, replica: int) -> None:
        """A replica answered: reset its failure streak, close its breaker."""
        replica %= len(self.replicas)
        self._failures.pop(replica, None)
        self._opened_at.pop(replica, None)
        self._half_open.discard(replica)

    def record_failure(self, replica: int) -> bool:
        """Count one failed attempt; ``True`` when this trip *opened* the breaker."""
        replica %= len(self.replicas)
        self._half_open.discard(replica)
        count = self._failures.get(replica, 0) + 1
        self._failures[replica] = count
        if count >= self.breaker_threshold:
            self._opened_at[replica] = asyncio.get_event_loop().time()
        return count == self.breaker_threshold

    def breaker_state(self, replica: int) -> str:
        """``"closed"``, ``"open"`` or ``"half-open"`` (for stats)."""
        replica %= len(self.replicas)
        if self._failures.get(replica, 0) < self.breaker_threshold:
            return "closed"
        if replica in self._half_open:
            return "half-open"
        elapsed = asyncio.get_event_loop().time() - self._opened_at.get(replica, 0.0)
        return "half-open" if elapsed >= self.breaker_cooldown else "open"

    def _breaker_blocks(self, replica: int) -> bool:
        """Whether the breaker currently refuses attempts at ``replica``.

        A breaker past its cooldown admits exactly one half-open probe:
        the first caller through marks the replica half-open (and attempts
        it); further callers keep being refused until the probe settles via
        :meth:`record_success` / :meth:`record_failure`.
        """
        if self._failures.get(replica, 0) < self.breaker_threshold:
            return False
        if replica in self._half_open:
            return True
        elapsed = asyncio.get_event_loop().time() - self._opened_at.get(replica, 0.0)
        if elapsed >= self.breaker_cooldown:
            self._half_open.add(replica)
            return False
        return True

    def pick_replica(self, attempt: int) -> Tuple[int, int]:
        """Replica for this attempt, skipping open breakers.

        Returns ``(replica, skipped)`` — ``skipped`` counts replicas
        routed around.  With every breaker open, the plain round-robin
        choice is returned (refusing all replicas would turn a flap into a
        full outage).
        """
        count = len(self.replicas)
        base = attempt % count
        skipped = 0
        for step in range(count):
            candidate = (base + step) % count
            if not self._breaker_blocks(candidate):
                return candidate, skipped
            skipped += 1
        return base, skipped

    async def client(self, replica: int, *, probe: bool = False) -> QueryClient:
        """A live client for replica ``replica``; dials when needed.

        ``probe=True`` dials at most once with no backoff — used by health
        probes that must not stall on a dead replica.  Raises
        :class:`~repro.errors.ConnectionLost` when the replica stays
        unreachable.
        """
        address = self.replicas[replica % len(self.replicas)]
        lock = self._locks.setdefault(address, asyncio.Lock())
        async with lock:
            existing = self._clients.get(address)
            if existing is not None and existing.connected:
                return existing
            if existing is not None:
                self._clients.pop(address, None)
                await existing.close()
            client = await QueryClient.connect(
                address[0],
                address[1],
                policy=self._probe_policy if probe else self._policy,
            )
            self._clients[address] = client
            return client

    async def close(self) -> None:
        clients, self._clients = list(self._clients.values()), {}
        for client in clients:
            await client.close()


@dataclass
class RouterStatsCounters:
    """Monotonic routing counters (event-loop confined, no lock needed)."""

    jobs_routed: int = 0
    jobs_completed: int = 0
    jobs_cancelled: int = 0
    jobs_failed: int = 0
    queries_routed: int = 0
    results_merged: int = 0
    duplicates_dropped: int = 0
    failovers: int = 0
    hedges_fired: int = 0
    hedge_wins: int = 0
    loser_cancels: int = 0
    cancels_forwarded: int = 0
    breaker_trips: int = 0
    breaker_skips: int = 0
    shard_overloads: int = 0


class RouterJob:
    """One routed batch: merged frame queue plus fan-out bookkeeping."""

    def __init__(self, job_id: str, num_queries: int, protocol: Optional[int] = None) -> None:
        self.id = job_id
        self.num_queries = num_queries
        #: Frame version the consumer reads, announced to the shards.
        self.protocol = protocol
        self.queue: "asyncio.Queue[Dict[str, object]]" = asyncio.Queue()
        #: Global positions whose result already reached the merged stream —
        #: the exactly-once gate for hedged duplicates and failover retries.
        self.delivered: Set[int] = set()
        self.total_paths = 0
        self.cancel_event = asyncio.Event()
        #: Live shard-side attempts: key → (shard id, client, shard-side
        #: job id).  Cancel fan-out walks all of it; loser cancellation only
        #: the entries of the finishing attempt's own shard.
        self.active: Dict[int, Tuple[int, QueryClient, str]] = {}
        self.tasks: List[asyncio.Task] = []
        self.error: Optional[str] = None
        self.started = asyncio.get_event_loop().time()
        #: Latest retry-after hint (seconds) from an ``overloaded`` shard.
        self.retry_after_seconds = 0.05

    @property
    def cancelled(self) -> bool:
        return self.cancel_event.is_set()

    def claim(self, position: int) -> bool:
        """Atomically claim one global position; ``False`` for a duplicate.

        Runs on the event loop with no awaits between check and insert, so
        two racing attempts (primary vs. hedge, or failover overlap) can
        never both win one position.
        """
        if position in self.delivered:
            return False
        self.delivered.add(position)
        return True

    def fail(self, message: str) -> None:
        if self.error is None:
            self.error = message

    def emit(self, frame: Dict[str, object]) -> None:
        self.queue.put_nowait(frame)

    async def frames(self) -> AsyncIterator[Dict[str, object]]:
        """Yield merged frames until (and including) the terminal one."""
        while True:
            frame = await self.queue.get()
            yield frame
            if frame["type"] in ("done", "cancelled", "error"):
                return


class ShardRouter:
    """The routing core: fan-out, merge, failover, hedging.  Holds no graph.

    All methods run on one event loop.  ``max_attempts`` bounds how many
    replica attempts one shard sub-batch gets before the whole job fails;
    hedging needs at least two replicas on a shard to do anything.  The
    hedge delay is the ``hedge_percentile``-th percentile of recent
    *winning* attempt latencies, clamped to
    ``[hedge_min_delay, hedge_max_delay]`` — until ``hedge_min_samples``
    attempts have completed, ``hedge_initial_delay`` is used.
    """

    #: Winning-attempt latencies the hedge percentile is taken over.
    LATENCY_WINDOW = 256

    def __init__(
        self,
        shard_map: ShardMap,
        *,
        hedge: bool = True,
        hedge_percentile: float = 95.0,
        hedge_initial_delay: float = 0.1,
        hedge_min_delay: float = 0.025,
        hedge_max_delay: float = 2.0,
        hedge_min_samples: int = 8,
        max_attempts: int = 4,
        policy: Optional[ReconnectPolicy] = None,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 5.0,
    ) -> None:
        if not 0.0 < hedge_percentile <= 100.0:
            raise ReproError("hedge_percentile must lie in (0, 100]")
        if max_attempts < 1:
            raise ReproError("max_attempts must be positive")
        if breaker_threshold < 1:
            raise ReproError("breaker_threshold must be positive")
        if breaker_cooldown <= 0.0:
            raise ReproError("breaker_cooldown must be positive")
        self.shard_map = shard_map
        self.hedge = hedge
        self.hedge_percentile = hedge_percentile
        self.hedge_initial_delay = hedge_initial_delay
        self.hedge_min_delay = hedge_min_delay
        self.hedge_max_delay = hedge_max_delay
        self.hedge_min_samples = hedge_min_samples
        self.max_attempts = max_attempts
        self.policy = policy if policy is not None else ReconnectPolicy(attempts=3)
        self.channels = [
            ShardChannel(
                index,
                replicas,
                self.policy,
                breaker_threshold=breaker_threshold,
                breaker_cooldown=breaker_cooldown,
            )
            for index, replicas in enumerate(shard_map.shards)
        ]
        self.counters = RouterStatsCounters()
        self._latencies: Deque[float] = deque(maxlen=self.LATENCY_WINDOW)
        self._job_ids = itertools.count(1)
        self._attempt_ids = itertools.count(1)
        self._closed = False

    # -- hedge delay ---------------------------------------------------- #
    def record_latency(self, seconds: float) -> None:
        self._latencies.append(seconds)

    def hedge_delay(self) -> float:
        """Current hedge trigger in seconds (percentile-derived, clamped)."""
        clamp = lambda v: min(self.hedge_max_delay, max(self.hedge_min_delay, v))  # noqa: E731
        if len(self._latencies) < self.hedge_min_samples:
            return clamp(self.hedge_initial_delay)
        ordered = sorted(self._latencies)
        rank = max(0, math.ceil(self.hedge_percentile / 100.0 * len(ordered)) - 1)
        return clamp(ordered[rank])

    # -- job lifecycle -------------------------------------------------- #
    async def submit(
        self,
        triples: Sequence[Sequence[object]],
        opts: Dict[str, object],
        *,
        protocol: Optional[int] = None,
    ) -> RouterJob:
        """Route one batch; returns the job whose :meth:`RouterJob.frames`
        streams the merged result frames (positions in workload space).

        ``opts`` are :meth:`QueryClient.submit
        <repro.server.client.QueryClient.submit>` keywords, sent to every
        shard as they are (:func:`~repro.server.protocol.submit_options`
        reads them off a submit frame).  ``protocol`` is the frame version
        the job's consumer reads, announced to every shard as is: a v4
        consumer gets the shards' columnar ``result`` frames, whose columns
        go back out as they arrived (no path is rendered here), and
        ``None`` keeps JSON paths.
        """
        if self._closed:
            raise RuntimeError("ShardRouter is closed")
        triples = [list(triple) for triple in triples]
        job = RouterJob(f"r{next(self._job_ids)}", len(triples), protocol)
        self.counters.jobs_routed += 1
        self.counters.queries_routed += len(triples)
        shards: Dict[int, List[int]] = {}
        for position, triple in enumerate(triples):
            shards.setdefault(self.shard_map.shard_of(triple[1]), []).append(position)
        for shard_id, positions in shards.items():
            job.tasks.append(
                asyncio.ensure_future(
                    self._run_shard(job, shard_id, positions, triples, dict(opts))
                )
            )
        asyncio.ensure_future(self._finish(job))
        return job

    async def open_job(
        self, submit: Dict[str, object], job_id: str
    ) -> Tuple[RouterJob, AsyncIterator[Dict[str, object]]]:
        """Route the batch of one submit frame; returns the job and its frames.

        Only the protocol's shape check runs here (the router holds no
        graph); the shards check the endpoints.  The frames carry
        ``job_id``, and the submitter's announced ``protocol`` goes on to
        the shards.
        """
        triples = submit_queries(submit)
        options = submit_options(submit)
        protocol = submit.get("protocol")
        job = await self.submit(
            triples, options, protocol=protocol if isinstance(protocol, int) else None
        )

        async def frames() -> AsyncIterator[Dict[str, object]]:
            async for frame in job.frames():
                yield {**frame, "id": job_id}

        return job, frames()

    async def cancel(self, job: RouterJob) -> None:
        """Cancel fan-out: flag the job and cancel every in-flight shard job."""
        job.cancel_event.set()
        for _shard, client, shard_job in list(job.active.values()):
            with contextlib.suppress(ConnectionError, OSError, RuntimeError):
                await client.cancel(shard_job)
                self.counters.cancels_forwarded += 1

    async def _finish(self, job: RouterJob) -> None:
        """Emit the job's terminal frame once every shard task settled."""
        outcomes = await asyncio.gather(*job.tasks, return_exceptions=True)
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                job.fail(f"{type(outcome).__name__}: {outcome}")
        loop = asyncio.get_event_loop()
        if len(job.delivered) == job.num_queries:
            self.counters.jobs_completed += 1
            job.emit(
                {
                    "type": "done",
                    "id": job.id,
                    "queries": len(job.delivered),
                    "total_paths": job.total_paths,
                    "wall_ms": round((loop.time() - job.started) * 1e3, 3),
                }
            )
        elif job.cancelled and job.error is None:
            self.counters.jobs_cancelled += 1
            job.emit({"type": "cancelled", "id": job.id, "delivered": len(job.delivered)})
        else:
            self.counters.jobs_failed += 1
            job.emit(
                {
                    "type": "error",
                    "id": job.id,
                    "error": job.error
                    or f"{job.num_queries - len(job.delivered)} results missing",
                }
            )

    # -- per-shard fan-out ---------------------------------------------- #
    async def _run_shard(
        self,
        job: RouterJob,
        shard_id: int,
        positions: List[int],
        triples: List[List[object]],
        opts: Dict[str, object],
    ) -> None:
        """Drive one shard's sub-batch to completion: retries, failover, hedging."""
        channel = self.channels[shard_id]
        outstanding: Set[int] = set(positions)
        for attempt in range(self.max_attempts):
            if not outstanding or job.cancelled:
                return
            replica, skipped = channel.pick_replica(attempt)
            self.counters.breaker_skips += skipped
            primary = asyncio.ensure_future(
                self._attempt(job, channel, replica, outstanding, triples, opts)
            )
            hedge_task = None
            if self.hedge and len(channel.replicas) > 1:
                hedge_task = asyncio.ensure_future(
                    self._hedge(job, channel, replica, outstanding, triples, opts, primary)
                )
            status = await primary
            # Primary attempts feed the breaker (hedges race on a different
            # replica and report their own status out of band).
            if status in ("done", "cancelled", "overloaded"):
                channel.record_success(replica)
            elif status in ("lost", "unreachable"):
                if channel.record_failure(replica):
                    self.counters.breaker_trips += 1
            if hedge_task is not None:
                if status == "done" and not outstanding:
                    hedge_task.cancel()
                    with contextlib.suppress(asyncio.CancelledError):
                        await hedge_task
                else:
                    # The hedge may still be racing (or about to rescue a
                    # lost primary): let it run to its own conclusion.
                    await hedge_task
            if not outstanding or job.cancelled:
                return
            if status == "error":
                # A shard-side rejection (malformed query, unknown engine)
                # is permanent: retrying elsewhere would fail identically.
                await self.cancel(job)
                return
            if status == "overloaded":
                # The shard shed the sub-batch: wait out its retry-after
                # hint, then re-attempt — a reject is live capacity
                # signalling, not a replica failure, so the breaker stays
                # untouched.
                self.counters.shard_overloads += 1
                await asyncio.sleep(
                    min(2.0, max(0.05, job.retry_after_seconds))
                )
                continue
            if status in ("lost", "unreachable"):
                self.counters.failovers += 1
                continue
            # "done" with outstanding left means the shard answered fewer
            # results than asked (should not happen) — retry the rest.
        job.fail(
            f"shard {shard_id}: {len(outstanding)} queries undelivered after "
            f"{self.max_attempts} attempts"
        )
        await self.cancel(job)

    async def _hedge(
        self,
        job: RouterJob,
        channel: ShardChannel,
        primary_replica: int,
        outstanding: Set[int],
        triples: List[List[object]],
        opts: Dict[str, object],
        primary: asyncio.Task,
    ) -> str:
        """Duplicate a straggling sub-batch to the next replica.

        Waits the percentile-derived delay; if the primary attempt has not
        finished by then, the positions still outstanding are submitted to
        another replica and the two attempts race — :meth:`RouterJob.claim`
        keeps every position exactly-once, and whichever attempt finishes
        the shard cancels the other.
        """
        await asyncio.wait({primary}, timeout=self.hedge_delay())
        if primary.done() or not outstanding or job.cancelled:
            return "idle"
        self.counters.hedges_fired += 1
        replica, skipped = channel.pick_replica(primary_replica + 1)
        self.counters.breaker_skips += skipped
        status = await self._attempt(
            job,
            channel,
            replica,
            outstanding,
            triples,
            opts,
            hedged=True,
        )
        return status

    async def _attempt(
        self,
        job: RouterJob,
        channel: ShardChannel,
        replica: int,
        outstanding: Set[int],
        triples: List[List[object]],
        opts: Dict[str, object],
        *,
        hedged: bool = False,
    ) -> str:
        """One submit-and-stream attempt against one replica.

        Returns ``"done"`` (terminal done frame seen), ``"cancelled"``,
        ``"lost"`` (connection died mid-stream), ``"unreachable"`` (dial
        failed), ``"overloaded"`` (the shard shed the sub-batch; the
        retry-after hint lands in ``job.retry_after_seconds``) or
        ``"error"`` (the shard rejected the sub-batch).  Result
        frames are merged into ``job`` with positions remapped from the
        sub-batch's local space to the workload's global space; a losing
        duplicate contributes nothing.
        """
        try:
            client = await channel.client(replica)
        except ConnectionLost:
            return "unreachable"
        sub_positions = sorted(outstanding)
        if not sub_positions:
            return "done"
        loop = asyncio.get_event_loop()
        started = loop.time()
        try:
            shard_job = await client.submit(
                [triples[position] for position in sub_positions],
                protocol=job.protocol,
                **opts,
            )
        except (ConnectionError, OSError):
            return "lost"
        key = next(self._attempt_ids)
        job.active[key] = (channel.shard_id, client, shard_job)
        won_as_hedge = False
        claimed_any = False
        loser_cancelled = False
        try:
            async for frame in client.frames(shard_job):
                kind = frame["type"]
                if kind == "result":
                    local = int(frame["position"])
                    if local >= len(sub_positions):
                        job.fail(f"shard {channel.shard_id} returned position {local} "
                                 f"for a {len(sub_positions)}-query sub-batch")
                        return "error"
                    position = sub_positions[local]
                    if job.claim(position):
                        claimed_any = True
                        outstanding.discard(position)
                        self.counters.results_merged += 1
                        job.total_paths += int(frame.get("count", 0))
                        if hedged and not won_as_hedge:
                            won_as_hedge = True
                            self.counters.hedge_wins += 1
                        job.emit({**frame, "id": job.id, "position": position})
                    else:
                        self.counters.duplicates_dropped += 1
                    if not outstanding and not loser_cancelled:
                        loser_cancelled = True
                        await self._cancel_others(job, channel.shard_id, key)
                elif kind == "done":
                    # Only attempts that actually won a claim inform the
                    # hedge-delay estimator; a duplicate that lost every
                    # race to its hedge measures the slow path, and feeding
                    # it back would push the hedge delay up to exactly the
                    # latency hedging exists to cut.
                    if claimed_any:
                        self.record_latency(loop.time() - started)
                    return "done"
                elif kind == "cancelled":
                    return "cancelled"
                elif kind == "overloaded":
                    job.retry_after_seconds = (
                        float(frame.get("retry_after_ms", 50.0)) / 1e3
                    )
                    return "overloaded"
                else:  # error — local poison or a shard-side rejection
                    if frame.get("_closed"):
                        return "lost"
                    job.fail(f"shard {channel.shard_id}: {frame.get('error')}")
                    return "error"
        finally:
            job.active.pop(key, None)
        return "lost"  # stream ended without a terminal frame

    async def _cancel_others(self, job: RouterJob, shard_id: int, winner_key: int) -> None:
        """First-response-wins: cancel the *same shard's* other attempts.

        Scoped to one shard on purpose — the registry also holds the other
        shards' perfectly healthy attempts, which must keep streaming.
        """
        for key, (owner, client, shard_job) in list(job.active.items()):
            if key == winner_key or owner != shard_id:
                continue
            with contextlib.suppress(ConnectionError, OSError, RuntimeError):
                await client.cancel(shard_job)
                self.counters.loser_cancels += 1

    # -- health & teardown ---------------------------------------------- #
    SHUTDOWN_BANNER = "router shutdown complete"

    def banner(self, host: str, port: int) -> str:
        return (
            f"routing on {host}:{port} ({self.shard_map.num_shards} shards, "
            f"{self.shard_map.num_replicas} replicas, "
            f"hedging {'on' if self.hedge else 'off'}, no graph held)"
        )

    @property
    def identity(self) -> Dict[str, object]:
        """The router's fields of a ``pong`` frame: it is no shard."""
        return {"shard_id": None, "role": "router"}

    async def stats(self, *, probe_timeout: float = 2.0) -> Dict[str, object]:
        """Routing counters plus a live per-shard health probe.

        Every replica is pinged (round-trip latency on the router's clock)
        and asked for its stats snapshot — the ``shard_id`` /
        ``server_version`` fields added to the protocol in version 2 are
        what lets the probe attribute health to fleet members.  Dead
        replicas are reported, not raised, and probed with a single
        no-backoff dial so a down host cannot stall the stats frame.
        """
        from repro._version import __version__

        shards: List[Dict[str, object]] = []
        for channel in self.channels:
            replicas: List[Dict[str, object]] = []
            for index, (host, port) in enumerate(channel.replicas):
                info: Dict[str, object] = {
                    "address": f"{host}:{port}",
                    "connected": False,
                    "breaker": channel.breaker_state(index),
                }
                try:
                    client = await channel.client(index, probe=True)
                    pong = await asyncio.wait_for(client.ping(), probe_timeout)
                    remote = await asyncio.wait_for(client.stats(), probe_timeout)
                    info.update(
                        connected=True,
                        rtt_ms=round(pong.rtt_ms, 3),
                        protocol=pong.protocol,
                        server_version=remote.get("server_version"),
                        shard_id=remote.get("shard_id"),
                        backend=remote.get("backend"),
                        workers=remote.get("workers"),
                        jobs_active=remote.get("jobs_active"),
                        queries_completed=remote.get("queries_completed"),
                    )
                except (ConnectionLost, ConnectionError, OSError, asyncio.TimeoutError) as error:
                    info["error"] = str(error) or type(error).__name__
                replicas.append(info)
            shards.append({"shard": channel.shard_id, "replicas": replicas})
        counters = self.counters
        return {
            "role": "router",
            "protocol": PROTOCOL_VERSION,
            "server_version": __version__,
            "num_shards": self.shard_map.num_shards,
            "num_replicas": self.shard_map.num_replicas,
            "hedging": self.hedge,
            "hedge_delay_ms": round(self.hedge_delay() * 1e3, 3),
            "jobs_routed": counters.jobs_routed,
            "jobs_completed": counters.jobs_completed,
            "jobs_cancelled": counters.jobs_cancelled,
            "jobs_failed": counters.jobs_failed,
            "queries_routed": counters.queries_routed,
            "results_merged": counters.results_merged,
            "duplicates_dropped": counters.duplicates_dropped,
            "failovers": counters.failovers,
            "hedges_fired": counters.hedges_fired,
            "hedge_wins": counters.hedge_wins,
            "loser_cancels": counters.loser_cancels,
            "cancels_forwarded": counters.cancels_forwarded,
            "breaker_trips": counters.breaker_trips,
            "breaker_skips": counters.breaker_skips,
            "shard_overloads": counters.shard_overloads,
            "shards": shards,
        }

    async def close(self) -> None:
        """Close every shard connection; idempotent."""
        if self._closed:
            return
        self._closed = True
        for channel in self.channels:
            await channel.close()
