"""The unified public façade: one ``Database`` over every execution backend.

Every way of running a query — in the calling thread, on a thread or
process pool, against a ``repro serve`` instance or a shard fleet — goes
through the same three concepts:

* :class:`Database` — opened from a :class:`~repro.graph.digraph.DiGraph`,
  an ``.npz`` snapshot / edge-list file, or a ``host:port`` URL.  It owns
  whatever the chosen backend needs (distance cache, worker pool, shared
  memory, TCP connections) and releases it on :meth:`Database.close` /
  context-manager exit.
* :class:`QuerySpec` — a frozen, declarative query: endpoints, hop budget
  and the run options (result limit, deadline, path storage).  The
  fluent builder :class:`Q` constructs specs readably::

      Q("alice", "bob", 4).limit(100).deadline(2.0)

* :class:`ResultStream` — what every call returns, whichever backend runs
  it: a lazily-materialising stream of
  :class:`~repro.core.result.QueryResult` objects with uniform
  :meth:`~ResultStream.paths`, :meth:`~ResultStream.stats`,
  :meth:`~ResultStream.cancel` and iteration semantics.  Every stored
  result, on every backend, is one :class:`~repro.core.result.PathBuffer`
  of internal vertex ids; tuples materialise only when read.

Execution backends (``backend=`` argument, or inferred from the open
target) all satisfy the :class:`ExecutionBackend` protocol:

``inline``
    Sequential evaluation through a :class:`~repro.core.engine.QuerySession`
    in the calling thread.  The only backend that evaluates constrained
    queries (their edge filters are process-local closures); results
    stream truly lazily — a query runs when the stream is pulled past it.
``threads``
    Target-sharded fan-out over a persistent thread pool
    (:class:`~repro.core.engine.ExecutorCore`, thread backend).
``processes``
    The same sharded dispatch over worker processes attached to a
    shared-memory graph image and a packed distance cache.
``remote``
    A `repro serve` instance over one persistent TCP connection: specs
    travel as submit frames, and per-query result frames stream back into
    the same ``ResultStream`` shape.
``router``
    A distributed deployment: either a running ``repro route`` front end
    (``Database("router://host:port")``) or a client-side
    :class:`~repro.server.router.ShardRouter` opened straight from a
    shard-map ``.json`` file / :class:`~repro.server.router.ShardMap`.
    Queries are consistent-hashed by target across the shard hosts and the
    per-shard streams merge back into one workload-ordered
    ``ResultStream`` — with replica failover and hedged requests underneath.

Every backend produces byte-identical payloads for the same spec list
(asserted in ``tests/api/test_backend_equivalence.py``); switching from an
in-process prototype to a served deployment is a one-argument change.
``external=True`` translates input only — the endpoints are resolved by the
graph, or by the server for the wire backends — and results carry internal
ids everywhere; :meth:`~repro.core.result.QueryResult.paths_as_external`
maps them back for a caller that holds the graph.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import operator
import queue as queue_module
import threading
import time
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.algorithm import Algorithm
from repro.core.engine import (
    DEFAULT_CHUNK_QUERIES,
    ExecutorCore,
    QuerySession,
    is_distance_aware,
)
from repro.core.listener import RunConfig
from repro.core.native import warmup as native_warmup
from repro.core.query import MIN_HOP_CONSTRAINT, Query
from repro.core.result import EnumerationStats, Phase, QueryResult
from repro.errors import BackendError, ConnectionLost, QuerySpecError, ServiceOverloaded
from repro.graph.digraph import DiGraph

__all__ = [
    "BACKEND_CHOICES",
    "Database",
    "ExecutionBackend",
    "Q",
    "QuerySpec",
    "ResultStream",
    "StreamStats",
]

#: Recognised ``backend=`` names of :class:`Database`.
BACKEND_CHOICES = ("inline", "threads", "processes", "remote", "router")


def _as_int(value) -> Optional[int]:
    """``value`` as a plain int, or ``None`` when it is not index-like.

    ``operator.index`` (rather than ``isinstance(int)``) keeps numpy
    integers — the natural product of slicing a CSR graph — first-class
    throughout the spec layer; bools are rejected explicitly.
    """
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


# --------------------------------------------------------------------- #
# the declarative query
# --------------------------------------------------------------------- #
#: The run-option fields of a spec — everything but the query triple.  One
#: batch must agree on all of them (they become a single RunConfig / submit
#: frame), which :func:`_common_options` enforces with a precise error.
_OPTION_FIELDS = ("limit", "deadline", "store_paths", "response_k", "constraint")


@dataclass(frozen=True)
class QuerySpec:
    """A declarative, frozen HcPE query: endpoints, hop budget, run options.

    ``source`` / ``target`` are internal vertex ids (plain ints) unless the
    call that submits the spec passes ``external=True``, in which case they
    are external ids resolved by the graph (or by the server, for remote
    execution); results carry internal ids either way.  Validation happens
    at construction; all failures raise
    :class:`~repro.errors.QuerySpecError` (a ``ValueError``) with a message
    naming the offending field.
    """

    source: Hashable
    target: Hashable
    k: int
    #: Stop after this many results (``None`` = enumerate everything).
    limit: Optional[int] = None
    #: Cooperative per-query time limit in seconds (``None`` = no limit).
    deadline: Optional[float] = None
    #: Keep the enumerated paths on the result (off = count only).
    store_paths: bool = True
    #: Record the response time at this many results (the paper uses 1000).
    response_k: int = 1000
    #: Optional path constraint (inline backend only).
    constraint: Optional[object] = None

    def __post_init__(self) -> None:
        k = _as_int(self.k)
        if k is None:
            raise QuerySpecError(f"hop budget k must be an int, got {self.k!r}")
        object.__setattr__(self, "k", k)
        if k < MIN_HOP_CONSTRAINT:
            raise QuerySpecError(
                f"hop budget k must be at least {MIN_HOP_CONSTRAINT}, got {k}"
            )
        if self.source == self.target:
            raise QuerySpecError(
                f"source and target must be distinct vertices, both are {self.source!r}"
            )
        if self.limit is not None:
            limit = _as_int(self.limit)
            if limit is None or limit < 1:
                raise QuerySpecError(
                    f"result limit must be a positive int or None, got {self.limit!r}"
                )
            object.__setattr__(self, "limit", limit)
        if self.deadline is not None and float(self.deadline) < 0.0:
            raise QuerySpecError(
                f"deadline must be non-negative seconds or None, got {self.deadline!r}"
            )
        response_k = _as_int(self.response_k)
        if response_k is None or response_k < 1:
            raise QuerySpecError(
                f"response_k must be a positive int, got {self.response_k!r}"
            )
        object.__setattr__(self, "response_k", response_k)

    def replace(self, **changes) -> "QuerySpec":
        """A copy with some fields changed (re-validated)."""
        return dataclasses.replace(self, **changes)

    @property
    def triple(self) -> Tuple[Hashable, Hashable, int]:
        """The ``(source, target, k)`` triple — the wire shape of the query."""
        return (self.source, self.target, self.k)


class Q:
    """Fluent builder for :class:`QuerySpec`.

    Every method returns a *new* builder, so partial queries can be forked::

        base = Q(s, t, 4).deadline(2.0)
        quick, full = base.limit(100), base.count_only()

    A ``Q`` is accepted anywhere a spec is (``Database.query(Q(s, t, 4))``);
    :meth:`spec` freezes it explicitly.  Validation happens when the spec is
    built, i.e. at submission time for a ``Q`` passed directly.
    """

    __slots__ = ("_fields",)

    def __init__(self, source: Hashable, target: Hashable, k: int, **options) -> None:
        self._fields: Dict[str, object] = {"source": source, "target": target, "k": k}
        self._fields.update(options)

    def _with(self, **changes) -> "Q":
        clone = Q.__new__(Q)
        clone._fields = {**self._fields, **changes}
        return clone

    def limit(self, n: Optional[int]) -> "Q":
        """Stop each query after ``n`` results (``None`` removes the cap)."""
        return self._with(limit=n)

    def deadline(self, seconds: Optional[float]) -> "Q":
        """Give up cooperatively after ``seconds`` (``None`` removes it)."""
        return self._with(deadline=seconds)

    def count_only(self) -> "Q":
        """Do not keep paths on the result — count them only."""
        return self._with(store_paths=False)

    def store_paths(self, keep: bool = True) -> "Q":
        """Keep (or drop) the enumerated paths on the result."""
        return self._with(store_paths=keep)

    def response_k(self, n: int) -> "Q":
        """Record the response time at the ``n``-th result."""
        return self._with(response_k=n)

    def where(self, constraint: object) -> "Q":
        """Attach a path constraint (evaluated by the inline backend)."""
        return self._with(constraint=constraint)

    def spec(self) -> QuerySpec:
        """Freeze the builder into a validated :class:`QuerySpec`."""
        return QuerySpec(**self._fields)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        triple = (self._fields["source"], self._fields["target"], self._fields["k"])
        extras = {k: v for k, v in self._fields.items() if k not in ("source", "target", "k")}
        return f"Q{triple}{extras or ''}"


SpecLike = Union[QuerySpec, Q, Query, Sequence]


def as_spec(item: SpecLike, **overrides) -> QuerySpec:
    """Coerce ``item`` into a :class:`QuerySpec`.

    Accepts a spec (returned as-is, or re-validated with ``overrides``
    applied), a :class:`Q` builder, a core :class:`~repro.core.query.Query`
    or a plain ``(source, target, k)`` triple.
    """
    if isinstance(item, QuerySpec):
        return item.replace(**overrides) if overrides else item
    if isinstance(item, Q):
        return QuerySpec(**{**item._fields, **overrides})
    if isinstance(item, Query):
        return QuerySpec(item.source, item.target, item.k, **overrides)
    if isinstance(item, Sequence) and not isinstance(item, (str, bytes)) and len(item) == 3:
        source, target, k = item
        return QuerySpec(source, target, k, **overrides)
    raise QuerySpecError(
        f"cannot build a QuerySpec from {item!r}: expected a QuerySpec, a Q "
        "builder, a Query or a (source, target, k) triple"
    )


def _common_options(specs: Sequence[QuerySpec]) -> QuerySpec:
    """The run options shared by every spec of a batch.

    One batch becomes one :class:`~repro.core.listener.RunConfig` (and, for
    remote execution, one submit frame), so the option fields must agree
    across the whole list; the first divergence raises a
    :class:`~repro.errors.QuerySpecError` naming the field and positions.
    """
    first = specs[0]
    for position, spec in enumerate(specs[1:], start=1):
        for field in _OPTION_FIELDS:
            left, right = getattr(first, field), getattr(spec, field)
            same = left is right if field == "constraint" else left == right
            if not same:
                raise QuerySpecError(
                    f"one batch must share its run options, but {field!r} "
                    f"differs between query 0 ({left!r}) and query "
                    f"{position} ({right!r}); align the specs or submit "
                    "separate batches"
                )
    return first


def _run_config(options: QuerySpec) -> RunConfig:
    """The :class:`RunConfig` equivalent of a spec's option fields."""
    return RunConfig(
        store_paths=options.store_paths,
        result_limit=options.limit,
        time_limit_seconds=options.deadline,
        response_k=options.response_k,
        constraint=options.constraint,
    )


# --------------------------------------------------------------------- #
# the uniform result surface
# --------------------------------------------------------------------- #
@dataclass
class StreamStats:
    """Aggregate statistics of one :class:`ResultStream`.

    Computed over the results delivered *so far* — call after draining the
    stream for batch totals.  ``reverse_bfs_runs`` / ``bfs_cache_hits`` are
    derived from the per-result cache flags, which every backend charges
    the way a sequential session would, so the numbers agree across
    backends (and are zero for non-indexed baseline algorithms).
    """

    backend: str
    queries: int
    completed: int
    total_paths: int
    wall_seconds: float
    reverse_bfs_runs: int = 0
    bfs_cache_hits: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of completed queries served from the distance cache."""
        if self.completed == 0:
            return 0.0
        return self.bfs_cache_hits / self.completed

    def as_row(self) -> Dict[str, object]:
        """Flat dict for tables and the CLI."""
        return {
            "backend": self.backend,
            "queries": self.completed,
            "reverse_bfs_runs": self.reverse_bfs_runs,
            "bfs_cache_hits": self.bfs_cache_hits,
            "hit_rate": round(self.hit_rate, 3),
            "wall_ms": round(self.wall_seconds * 1e3, 3),
        }


class ResultStream:
    """Lazily-materialising results of one :meth:`Database` call.

    The same object comes back from every backend:

    * iterating yields :class:`~repro.core.result.QueryResult` objects — in
      workload order for :meth:`Database.query` / :meth:`Database.batch`,
      in completion order for :meth:`Database.stream`;
    * :meth:`results` / :meth:`paths` / :meth:`counts` drain the stream and
      return workload-ordered views (cached — safe to call repeatedly);
    * :meth:`stats` summarises what has been delivered so far;
    * :meth:`cancel` stops the run as soon as the backend allows (between
      queries inline and on the thread backend, between shards on the
      process backend, via a cancel frame remotely).

    Every stored result is backed by one columnar
    :class:`~repro.core.result.PathBuffer`; per-path tuples materialise
    only when read.
    """

    def __init__(
        self,
        producer: Iterator[Tuple[int, QueryResult]],
        *,
        num_queries: int,
        backend: str,
        cancel: Optional[Callable[[], None]] = None,
        close: Optional[Callable[[], None]] = None,
        ordered: bool = True,
        distance_aware: bool = True,
        started_at: Optional[float] = None,
    ) -> None:
        self._producer = producer
        self.num_queries = num_queries
        self.backend = backend
        self._cancel_cb = cancel
        self._close_cb = close
        self.ordered = ordered
        self._distance_aware = distance_aware
        self._by_position: Dict[int, QueryResult] = {}
        self._arrival: List[int] = []
        self._exhausted = False
        self.cancelled = False
        #: Wall clock anchors at submission, not stream construction: the
        #: backends pass the instant *before* their warm phase (the shared
        #: reverse BFS work batching amortises must stay on the bill).
        self._started = started_at if started_at is not None else time.perf_counter()
        self._wall: Optional[float] = None

    # -- consumption ---------------------------------------------------- #
    def _pull(self) -> bool:
        """Advance the producer by one item; ``False`` when exhausted."""
        if self._exhausted:
            return False
        try:
            position, result = next(self._producer)
        except StopIteration:
            self._finish()
            return False
        except BaseException:
            self._finish()
            raise
        self._by_position[position] = result
        self._arrival.append(position)
        return True

    def _finish(self) -> None:
        if not self._exhausted:
            self._exhausted = True
            self._wall = time.perf_counter() - self._started
            if self._close_cb is not None:
                self._close_cb()

    def __iter__(self) -> Iterator[QueryResult]:
        if self.ordered:
            next_position = 0
            while next_position < self.num_queries:
                if next_position in self._by_position:
                    yield self._by_position[next_position]
                    next_position += 1
                elif not self._pull():
                    return
        else:
            for position, _ in self.as_completed():
                yield self._by_position[position]

    def as_completed(self) -> Iterator[Tuple[int, QueryResult]]:
        """Yield ``(position, result)`` pairs in completion order."""
        cursor = 0
        while True:
            while cursor < len(self._arrival):
                position = self._arrival[cursor]
                cursor += 1
                yield position, self._by_position[position]
            if not self._pull():
                return

    def __len__(self) -> int:
        return self.num_queries

    # -- materialised views --------------------------------------------- #
    def results(self) -> List[QueryResult]:
        """Drain the stream; results in workload order.

        Raises ``RuntimeError`` when results are missing (the run was
        cancelled, or the backend died mid-stream).
        """
        while self._pull():
            pass
        missing = self.num_queries - len(self._by_position)
        if missing:
            raise RuntimeError(
                f"stream ended with {missing} of {self.num_queries} results "
                f"missing{' (cancelled)' if self.cancelled else ''}"
            )
        return [self._by_position[i] for i in range(self.num_queries)]

    def result(self) -> QueryResult:
        """The single result of a one-query stream (:meth:`Database.query`)."""
        results = self.results()
        if len(results) != 1:
            raise RuntimeError(
                f"result() needs a single-query stream, this one has {len(results)}"
            )
        return results[0]

    def paths(self) -> List[Optional[List[Tuple[int, ...]]]]:
        """Per-query path lists in workload order (``None`` = storage off)."""
        return [result.paths for result in self.results()]

    def counts(self) -> List[int]:
        """Per-query result counts in workload order."""
        return [result.count for result in self.results()]

    @property
    def delivered(self) -> int:
        """Results received so far (without pulling more)."""
        return len(self._by_position)

    # -- control & summaries -------------------------------------------- #
    def cancel(self) -> None:
        """Stop the run as soon as the backend allows; idempotent."""
        self.cancelled = True
        if self._cancel_cb is not None:
            self._cancel_cb()

    def stats(self) -> StreamStats:
        """Summary of the results delivered so far (does not drain)."""
        delivered = list(self._by_position.values())
        hits = sum(1 for r in delivered if r.stats.bfs_cache_hit)
        runs = (len(delivered) - hits) if self._distance_aware else 0
        return StreamStats(
            backend=self.backend,
            queries=self.num_queries,
            completed=len(delivered),
            total_paths=sum(r.count for r in delivered),
            wall_seconds=(
                self._wall if self._wall is not None
                else time.perf_counter() - self._started
            ),
            reverse_bfs_runs=runs,
            bfs_cache_hits=hits if self._distance_aware else 0,
        )

    # -- canonical payload ---------------------------------------------- #
    def payload(self) -> List[Dict[str, object]]:
        """The stream's canonical payload: one plain dict per query.

        This is the cross-backend equivalence contract — the fields every
        backend reproduces bit for bit for the same spec list (endpoints,
        hop budget, count, chosen plan, timeout flag and the exact path
        sequence).  Backend-dependent extras (timings, cache flags on warm
        services) are deliberately excluded.
        """
        entries: List[Dict[str, object]] = []
        for result in self.results():
            buffer = result.path_buffer
            entries.append(
                {
                    "source": result.source,
                    "target": result.target,
                    "k": result.k,
                    "count": result.count,
                    "plan": result.stats.plan,
                    "timed_out": bool(result.stats.timed_out),
                    "paths": None if buffer is None else buffer.to_lists(),
                }
            )
        return entries

    def payload_bytes(self) -> bytes:
        """:meth:`payload` as canonical JSON bytes (sorted keys, no spaces)."""
        return json.dumps(
            self.payload(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self._exhausted else ("cancelled" if self.cancelled else "live")
        return (
            f"ResultStream(backend={self.backend!r}, queries={self.num_queries}, "
            f"delivered={self.delivered}, {state})"
        )


# --------------------------------------------------------------------- #
# execution backends
# --------------------------------------------------------------------- #
class ExecutionBackend:
    """Protocol every execution backend implements.

    A backend turns one validated batch — ``specs`` plus their shared
    option fields — into an iterator of ``(position, QueryResult)`` pairs
    wrapped in a :class:`ResultStream`, and owns whatever resources the
    execution mode needs.  ``chunk_queries`` is a latency hint: 1 when the
    consumer wants per-query streaming, larger for throughput batches.
    """

    #: Backend name as listed in :data:`BACKEND_CHOICES`.
    name: str = "abstract"

    def submit(
        self,
        specs: Sequence[QuerySpec],
        options: QuerySpec,
        *,
        external: bool = False,
        ordered: bool = True,
        chunk_queries: int = DEFAULT_CHUNK_QUERIES,
    ) -> ResultStream:
        raise NotImplementedError

    def close(self) -> None:
        """Release pools / connections / shared segments; idempotent."""

    def mutate(
        self,
        add: Sequence[Tuple[object, object]] = (),
        remove: Sequence[Tuple[object, object]] = (),
        *,
        external: bool = False,
    ) -> Dict[str, object]:
        """Apply an edge batch; publishes the next graph epoch.

        Local backends fold the batch into a fresh snapshot through
        :class:`repro.live.LiveGraph` and repair their cached distance
        arrays incrementally; the remote backend sends an ``update`` frame.
        Backends without a mutation path (the routed ones — a write would
        have to fan out to every replica of the owning shard) raise
        :class:`BackendError`.
        """
        raise BackendError(
            f"backend {self.name!r} does not support live updates; open the "
            "graph through an inline / threads / processes / remote Database"
        )

    @property
    def distance_aware(self) -> bool:
        """Whether results carry meaningful distance-cache flags."""
        return True


def _resolve_queries(
    graph: DiGraph, specs: Sequence[QuerySpec], external: bool
) -> List[Query]:
    """Translate specs into core :class:`Query` objects against ``graph``."""
    queries: List[Query] = []
    for position, spec in enumerate(specs):
        if external:
            queries.append(Query.from_external(graph, spec.source, spec.target, spec.k))
            continue
        source, target = _as_int(spec.source), _as_int(spec.target)
        if source is None or target is None:
            raise QuerySpecError(
                f"query {position} has non-integer endpoints "
                f"({spec.source!r}, {spec.target!r}) but external=False; pass "
                "external=True to resolve external vertex ids"
            )
        queries.append(Query(source, target, spec.k))
    return queries


def _resolve_edges(
    graph: DiGraph, edges: Iterable[Tuple[object, object]], external: bool
) -> List[Tuple[int, int]]:
    """Translate ``(u, v)`` pairs into internal-id pairs against ``graph``."""
    pairs: List[Tuple[int, int]] = []
    for edge in edges:
        u, v = edge
        if external:
            pairs.append((graph.to_internal(u), graph.to_internal(v)))
            continue
        iu, iv = _as_int(u), _as_int(v)
        if iu is None or iv is None:
            raise QuerySpecError(
                f"edge ({u!r}, {v!r}) has non-integer endpoints but "
                "external=False; pass external=True to resolve external "
                "vertex ids"
            )
        pairs.append((iu, iv))
    return pairs


class InlineBackend(ExecutionBackend):
    """Sequential evaluation through one :class:`QuerySession`.

    The session (and its reverse-BFS distance cache) persists for the
    database's lifetime, so later batches against warm targets skip the
    reverse half of their index builds — exactly the old ``QuerySession``
    behaviour behind the new surface.  The only backend that evaluates
    constrained specs, and the only one whose laziness is per query: a
    query runs when the stream is pulled past it.
    """

    name = "inline"

    def __init__(
        self,
        graph: DiGraph,
        *,
        algorithm: Optional[Algorithm] = None,
        max_cached: int = 1024,
        **_ignored,
    ) -> None:
        self.graph = graph
        self.session = QuerySession(graph, algorithm=algorithm, max_cached=max_cached)
        self._live = None  # lazy LiveGraph, created on the first mutation

    @property
    def distance_aware(self) -> bool:
        return is_distance_aware(self.session.algorithm)

    def mutate(
        self,
        add: Sequence[Tuple[object, object]] = (),
        remove: Sequence[Tuple[object, object]] = (),
        *,
        external: bool = False,
    ) -> Dict[str, object]:
        from repro.live.epochs import LiveGraph

        if self._live is None:
            self._live = LiveGraph(self.graph)
        info = self._live.apply(
            add=_resolve_edges(self.graph, add, external),
            remove=_resolve_edges(self.graph, remove, external),
        )
        repair = {"repaired": 0, "recomputed": 0, "invalidated": 0}
        if info["published"]:
            self.graph = self._live.graph
            repair = self.session.refresh_graph(
                self.graph, added=info["added"], removed=info["removed"]
            )
        return {
            "epoch": info["epoch"],
            "added": len(info["added"]),
            "removed": len(info["removed"]),
            "repair": repair,
            "stats": self._live.stats(),
        }

    def close(self) -> None:
        if self._live is not None:
            self._live.close()
            self._live = None

    def submit(
        self,
        specs: Sequence[QuerySpec],
        options: QuerySpec,
        *,
        external: bool = False,
        ordered: bool = True,
        chunk_queries: int = DEFAULT_CHUNK_QUERIES,
    ) -> ResultStream:
        started = time.perf_counter()
        queries = _resolve_queries(self.graph, specs, external)
        config = _run_config(options)
        cancelled = threading.Event()

        def produce() -> Iterator[Tuple[int, QueryResult]]:
            for position, query in enumerate(queries):
                if cancelled.is_set():
                    return
                yield position, self.session.run(query, config)

        return ResultStream(
            produce(),
            num_queries=len(queries),
            backend=self.name,
            cancel=cancelled.set,
            ordered=ordered,
            distance_aware=self.distance_aware,
            started_at=started,
        )


class _CoreBackend(ExecutionBackend):
    """Shared implementation of the thread and process backends.

    Thin adapter over :class:`~repro.core.engine.ExecutorCore`: the core
    warms the distance cache, partitions the workload by target and streams
    ``(position, result)`` chunks back from its persistent pool; the
    adapter flattens the chunks and charges each warm-phase reverse BFS to
    the first query of its key, so cache flags match a sequential session.
    """

    _core_backend = "thread"

    def __init__(
        self,
        graph: DiGraph,
        *,
        algorithm: Optional[Algorithm] = None,
        workers: Optional[int] = None,
        start_method: Optional[str] = None,
        max_cached: int = 1024,
    ) -> None:
        self.graph = graph
        self.core = ExecutorCore(
            graph,
            algorithm=algorithm,
            backend=self._core_backend,
            workers=workers,
            start_method=start_method,
            max_cached=max_cached,
        )

    @property
    def distance_aware(self) -> bool:
        return self.core.distance_aware

    def mutate(
        self,
        add: Sequence[Tuple[object, object]] = (),
        remove: Sequence[Tuple[object, object]] = (),
        *,
        external: bool = False,
    ) -> Dict[str, object]:
        # The external-id mapping is epoch-invariant (the vertex set is
        # fixed at build time), so resolving against the possibly previous
        # snapshot is safe.
        info = self.core.mutate(
            add=_resolve_edges(self.graph, add, external),
            remove=_resolve_edges(self.graph, remove, external),
        )
        self.graph = self.core.graph
        return info

    def close(self) -> None:
        self.core.close()

    def submit(
        self,
        specs: Sequence[QuerySpec],
        options: QuerySpec,
        *,
        external: bool = False,
        ordered: bool = True,
        chunk_queries: int = DEFAULT_CHUNK_QUERIES,
    ) -> ResultStream:
        if options.constraint is not None:
            raise BackendError(
                "path constraints hold process-local state (their edge "
                "filters are closures) and cannot ride a worker pool; "
                "evaluate constrained specs on an inline Database"
            )
        started = time.perf_counter()
        queries = _resolve_queries(self.graph, specs, external)
        config = _run_config(options)
        run = self.core.start(queries, config, chunk_queries=chunk_queries)
        return ResultStream(
            itertools.chain.from_iterable(run.chunks()),
            num_queries=len(queries),
            backend=self.name,
            cancel=run.cancel,
            ordered=ordered,
            distance_aware=self.core.distance_aware,
            started_at=started,
        )


class ThreadsBackend(_CoreBackend):
    """Sharded fan-out over a persistent thread pool."""

    name = "threads"
    _core_backend = "thread"


class ProcessesBackend(_CoreBackend):
    """Sharded fan-out over worker processes sharing one graph image."""

    name = "processes"
    _core_backend = "process"


def _result_from_frame(frame: Dict[str, object]) -> QueryResult:
    """Rebuild a :class:`QueryResult` from one ``result`` protocol frame.

    The wire carries the payload fields (endpoints, count, paths, plan,
    timeout and cache flags) plus the server-side query time; phase
    breakdowns and estimator internals stay server-side.  A columnar frame
    becomes a buffer-backed result over the frame's own bytes.
    """
    from repro.server.protocol import frame_paths

    stats = EnumerationStats(
        plan=frame.get("plan"),
        timed_out=bool(frame.get("timed_out", False)),
        bfs_cache_hit=bool(frame.get("bfs_cache_hit", False)),
    )
    stats.add_phase(Phase.TOTAL, float(frame.get("query_ms", 0.0)) / 1e3)
    return QueryResult(
        source=frame["source"],
        target=frame["target"],
        k=int(frame["k"]),
        algorithm="remote",
        count=int(frame["count"]),
        paths=frame_paths(frame),
        stats=stats,
    )


class _WireJob:
    """One batch on a wire backend.  ``events`` hands the consumer
    ``(position, result)`` items, then one terminal event: ``None`` for a
    clean end, else the exception the stream raises."""

    __slots__ = ("events", "handle", "task", "cancel_requested", "ended")

    def __init__(self) -> None:
        self.events: "queue_module.SimpleQueue[object]" = queue_module.SimpleQueue()
        self.handle = self.task = None
        self.cancel_requested = self.ended = False

    def end(self, error: Optional[BaseException] = None) -> None:
        if not self.ended:  # only the first terminal event counts
            self.ended = True
            self.events.put(error)

    def produce(self) -> Iterator[Tuple[int, QueryResult]]:
        for event in iter(self.events.get, None):
            if isinstance(event, BaseException):
                raise event
            yield event  # type: ignore[misc]


class _WireBackend(ExecutionBackend):
    """The one driver of the backends that speak the wire protocol.

    It owns an event-loop thread for the backend's whole life; every batch
    runs as a coroutine on it.  A subclass supplies ``endpoint``,
    ``_lost(reason)`` and the coroutines ``_open(triples, opts)`` (submit a
    job, return ``(handle, frames)``), ``_cancel(handle)`` and
    ``_close_transport()``.  :meth:`_pump` turns frames into results or
    typed exceptions: :class:`~repro.errors.ConnectionLost` for a lost or
    unreachable connection, :class:`~repro.errors.ServiceOverloaded` for a
    shed job, ``RuntimeError`` for a server-side rejection.  A cancel that
    arrives before the job exists takes effect as soon as ``_open`` returns.
    """

    _thread_name = "repro-remote-loop"
    #: Who answered, in error messages.
    _label = "remote"

    def __init__(self) -> None:
        import asyncio

        self._jobs: set = set()
        self._cancels: set = set()
        self._closing = False
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name=self._thread_name, daemon=True
        )
        self._thread.start()

    def _as_lost(self, error: BaseException) -> ConnectionLost:
        if isinstance(error, ConnectionLost):
            return error
        return self._lost(f"{type(error).__name__}: {error}")

    def submit(
        self,
        specs: Sequence[QuerySpec],
        options: QuerySpec,
        *,
        external: bool = False,
        ordered: bool = True,
        chunk_queries: int = DEFAULT_CHUNK_QUERIES,
    ) -> ResultStream:
        import asyncio

        if options.constraint is not None:
            raise BackendError(
                "path constraints hold process-local state (their edge "
                "filters are closures) and cannot cross the wire; evaluate "
                "constrained specs on a local inline Database"
            )
        started = time.perf_counter()
        triples = [list(spec.triple) for spec in specs]
        # QueryClient.submit keywords = the submit-frame opts the router reads
        opts = {
            "store_paths": options.store_paths,
            "result_limit": options.limit,
            "time_limit_seconds": options.deadline,
            "response_k": options.response_k,
            "external": external,
        }
        job = _WireJob()
        self._jobs.add(job)
        asyncio.run_coroutine_threadsafe(self._pump(job, triples, opts), self._loop)
        return ResultStream(
            job.produce(),
            num_queries=len(triples),
            backend=self.name,
            cancel=lambda: self._request_cancel(job),
            ordered=ordered,
            started_at=started,
        )

    async def _pump(self, job: _WireJob, triples, opts) -> None:
        import asyncio

        job.task = asyncio.current_task()
        try:
            if self._closing:
                raise self._lost("Database closed")
            job.handle, frames = await self._open(triples, opts)
            if job.cancel_requested:
                await self._cancel(job.handle)
            async for frame in frames:
                kind = frame["type"]
                if kind == "result":
                    job.events.put((int(frame["position"]), _result_from_frame(frame)))
                elif kind in ("done", "cancelled"):
                    job.end()
                elif kind == "overloaded":
                    retry_ms = float(frame.get("retry_after_ms", 50.0))
                    job.end(ServiceOverloaded(
                        f"{self._label} service shed the job: retry after {retry_ms} ms",
                        retry_after=retry_ms / 1e3,
                        pending=frame.get("pending"),
                        limit=frame.get("limit"),
                    ))
                elif kind == "error":
                    message = str(frame.get("error"))
                    job.end(self._lost(message) if frame.get("_closed") else
                            RuntimeError(f"{self._label} query failed: {message}"))
        except (ConnectionError, OSError) as error:
            job.end(self._as_lost(error))
        except Exception as error:  # noqa: BLE001 - surfaced to the consumer
            job.end(RuntimeError(f"{self._label} query failed: {type(error).__name__}: {error}"))
        finally:
            reason = "Database closed" if self._closing else "stream ended without a terminal frame"
            job.end(self._lost(reason))
            self._jobs.discard(job)

    def _request_cancel(self, job: _WireJob) -> None:
        def on_loop() -> None:
            job.cancel_requested = True
            if job.handle is not None and not job.ended:
                task = self._loop.create_task(self._cancel(job.handle))
                self._cancels.add(task)
                task.add_done_callback(self._cancels.discard)

        with contextlib.suppress(RuntimeError):  # the loop is already closed
            self._loop.call_soon_threadsafe(on_loop)

    def close(self) -> None:
        """End every live stream, close the transport, stop the loop."""
        import asyncio

        if self._loop.is_closed():
            return
        with contextlib.suppress(Exception):
            asyncio.run_coroutine_threadsafe(self._shutdown(), self._loop).result(timeout=10.0)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        if not self._thread.is_alive():
            self._loop.close()
        for job in list(self._jobs):  # a submit that raced close()
            job.end(self._lost("Database closed"))

    async def _shutdown(self) -> None:
        import asyncio

        self._closing = True  # a cancelled pump ends its stream as closed
        pumps = [job.task for job in list(self._jobs) if job.task is not None]
        for pump in pumps:
            pump.cancel()
        await asyncio.gather(*pumps, *self._cancels, return_exceptions=True)
        with contextlib.suppress(Exception):
            await self._close_transport()
        await self._loop.shutdown_asyncgens()


class RemoteBackend(_WireBackend):
    """Execution against a running ``repro serve`` instance over TCP.

    One :class:`~repro.server.client.QueryClient` connection serves every
    call: dialled on the first (construction never dials), shared by
    callers on any thread, and redialled by the next call after it is found
    dead.  Jobs in flight on a lost connection end in
    :class:`~repro.errors.ConnectionLost`; nothing is resubmitted silently.
    All run options travel in the submit frame.
    """

    name = "remote"

    def __init__(self, host: str, port: int, **_ignored) -> None:
        import asyncio

        self.host = host
        self.port = int(port)
        self._client = None
        self._dial_lock = asyncio.Lock()  # binds to the loop on first use
        super().__init__()

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    def _lost(self, reason: str) -> ConnectionLost:
        return ConnectionLost(self.host, self.port, 1, reason)

    async def _connection(self):
        """The live client; dials on first use and after a loss."""
        from repro.server.client import QueryClient

        async with self._dial_lock:
            if self._client is None or not self._client.connected:
                stale, self._client = self._client, None
                if stale is not None:
                    await stale.close()
                self._client = await QueryClient.connect(self.host, self.port)
            return self._client

    async def _open(self, triples, opts):
        client = await self._connection()
        job_id = await client.submit(triples, **opts)
        return (client, job_id), client.frames(job_id)

    async def _cancel(self, handle) -> None:
        client, job_id = handle
        with contextlib.suppress(ConnectionError, OSError):
            await client.cancel(job_id)

    async def _close_transport(self) -> None:
        client, self._client = self._client, None
        if client is not None:
            await client.close()

    def mutate(
        self,
        add: Sequence[Tuple[object, object]] = (),
        remove: Sequence[Tuple[object, object]] = (),
        *,
        external: bool = False,
    ) -> Dict[str, object]:
        import asyncio

        async def update() -> Dict[str, object]:
            try:
                client = await self._connection()
                return await client.update(add=add, remove=remove, external=external)
            except (ConnectionError, OSError) as error:
                raise self._as_lost(error) from error

        frame = asyncio.run_coroutine_threadsafe(update(), self._loop).result()
        return {
            key: frame[key]
            for key in ("epoch", "added", "removed", "repair", "stats")
            if key in frame
        }


class RouterBackend(RemoteBackend):
    """Execution against a running ``repro route`` front end.

    The router speaks the exact protocol of ``repro serve`` — it rewrites
    job ids and positions so the merged multi-shard stream is
    indistinguishable from a single-host stream — so this backend is the
    remote one under a different name: the name records *what* answered
    (a routed fleet), which ``Database.backend_name`` and stream stats
    report.
    """

    name = "router"

    def mutate(
        self,
        add: Sequence[Tuple[object, object]] = (),
        remove: Sequence[Tuple[object, object]] = (),
        *,
        external: bool = False,
    ) -> Dict[str, object]:
        # A routed write would have to reach every replica of the owning
        # shard atomically; the router has no such path. Fall back to the
        # base class's clear refusal instead of inheriting the remote
        # single-host update.
        return ExecutionBackend.mutate(self, add, remove, external=external)


class ShardMapBackend(_WireBackend):
    """Client-side routing: the database itself is the router.

    Opened from a shard-map ``.json`` file or a
    :class:`~repro.server.router.ShardMap`, this backend runs a
    :class:`~repro.server.router.ShardRouter` on the driver's loop thread,
    which lives as long as the database: shard connections stay persistent
    across batches (so shard-side distance caches stay hot), and every
    batch gets the full routing treatment — consistent-hash fan-out, merged
    workload-ordered streaming, replica failover, hedged requests — without
    any ``repro route`` process in between.  The router fails lost shard
    connections over; a batch it cannot complete raises ``RuntimeError``.
    """

    name = "router"
    _thread_name = "repro-router-loop"
    _label = "routed"

    def __init__(self, shard_map, *, router_options: Optional[Dict[str, object]] = None, **_ignored) -> None:
        from repro.server.router import ShardRouter

        self.shard_map = shard_map
        # Construction is loop-free (validation + channel bookkeeping); all
        # awaiting happens later on the driver's loop.
        self._router = ShardRouter(shard_map, **(router_options or {}))
        super().__init__()

    @property
    def endpoint(self) -> str:
        return " | ".join(
            ",".join(f"{host}:{port}" for host, port in replicas)
            for replicas in self.shard_map.shards
        )

    def _lost(self, reason: str) -> ConnectionLost:
        return ConnectionLost(f"shards {self.endpoint}", None, 1, reason)

    async def _open(self, triples, opts):
        from repro.server.protocol import PROTOCOL_VERSION

        job = await self._router.submit(triples, opts, protocol=PROTOCOL_VERSION)
        return job, job.frames()

    async def _cancel(self, handle) -> None:
        await self._router.cancel(handle)

    async def _close_transport(self) -> None:
        await self._router.close()


# --------------------------------------------------------------------- #
# the façade
# --------------------------------------------------------------------- #
def _is_snapshot(path) -> bool:
    """``True`` when ``path`` starts with the binary snapshot magic."""
    from repro.graph.snapshot import SNAPSHOT_MAGIC

    try:
        with open(path, "rb") as handle:
            return handle.read(len(SNAPSHOT_MAGIC)) == SNAPSHOT_MAGIC
    except OSError:
        return False


def _looks_like_url(target: str) -> Optional[Tuple[str, int]]:
    """Parse ``host:port`` / ``tcp://host:port``; ``None`` when not a URL."""
    candidate = target[len("tcp://"):] if target.startswith("tcp://") else target
    host, separator, port = candidate.rpartition(":")
    if not separator or not host or not port.isdigit():
        return None
    return host, int(port)


class Database:
    """One handle over a graph and an execution backend.

    Open it from whatever you have::

        Database(graph)                          # a DiGraph, inline execution
        Database(graph, backend="threads")       # same graph, thread pool
        Database("snapshot.npz", backend="processes", workers=4)
        Database("graph.rsnap")                  # mappable snapshot: attaches
        Database("graph.rsnap", store="heap")    # ... or materialise it

        Database("edges.txt")                    # SNAP-style edge list
        Database("127.0.0.1:7284")               # a running `repro serve`
        Database("router://127.0.0.1:7285")      # a running `repro route`
        Database("shards.json")                  # shard map: client-side routing

    The backend is inferred from the arguments (URL → ``remote``, local
    graph → ``inline``, or ``threads`` when ``workers > 1`` asks for
    parallelism) unless ``backend=`` names one of
    :data:`BACKEND_CHOICES`.  The database owns the backend's resources —
    distance cache, worker pools, shared-memory segments, connections — and
    releases them on :meth:`close` (it is a context manager).

    Every execution entry point accepts :class:`QuerySpec` / :class:`Q` /
    core ``Query`` objects (or plain ``(s, t, k)`` triples) and returns a
    :class:`ResultStream`:

    * :meth:`query` — one spec, a one-result stream;
    * :meth:`batch` — many specs, iterated in workload order;
    * :meth:`stream` — many specs, iterated in completion order with
      per-query streaming latency.
    """

    def __init__(
        self,
        target: Union[DiGraph, str, "os.PathLike[str]"],
        *,
        backend: Optional[str] = None,
        algorithm: Optional[Algorithm] = None,
        workers: Optional[int] = None,
        start_method: Optional[str] = None,
        max_cached: int = 1024,
        store: Optional[str] = None,
    ) -> None:
        if backend is not None and backend not in BACKEND_CHOICES:
            raise BackendError(
                f"unknown backend {backend!r}: use one of {BACKEND_CHOICES}"
            )
        graph, remote, router = self._resolve_target(target, backend, store)
        if router is not None or remote is not None:
            if algorithm is not None:
                raise BackendError(
                    "a remote Database serves whatever algorithm `repro "
                    "serve` was started with; drop the algorithm argument"
                )
        if router is not None:
            if backend not in (None, "router"):
                raise BackendError(
                    f"backend {backend!r} cannot run against the routed target "
                    f"{target!r}; open a local graph instead"
                )
            self.backend_name = "router"
            if router[0] == "url":
                self._backend: ExecutionBackend = RouterBackend(router[1], router[2])
            else:
                self._backend = ShardMapBackend(router[1])
        elif remote is not None:
            if backend not in (None, "remote", "router"):
                raise BackendError(
                    f"backend {backend!r} cannot run against the remote target "
                    f"{target!r}; open a local graph instead"
                )
            # backend="router" against a plain host:port says the endpoint
            # is a `repro route` front end (same wire protocol either way).
            self.backend_name = "router" if backend == "router" else "remote"
            factory = RouterBackend if backend == "router" else RemoteBackend
            self._backend = factory(*remote)
        else:
            if backend == "remote":
                raise BackendError(
                    f"backend 'remote' needs a host:port target, got {target!r}"
                )
            if backend == "router":
                raise BackendError(
                    "backend 'router' needs a router://host:port URL, a "
                    f"shard-map .json file or a ShardMap, got {target!r}"
                )
            parallel = workers is not None and workers > 1
            if backend is None:
                # workers= is an unambiguous ask for parallelism; silently
                # running it sequentially would be a trap.
                backend = "threads" if parallel else "inline"
            elif backend == "inline" and parallel:
                raise BackendError(
                    "backend 'inline' runs in the calling thread and takes "
                    "no workers; drop workers= or pick backend='threads' / "
                    "'processes'"
                )
            self.backend_name = backend
            # Load (on a cold cache: compile) the compiled tier while
            # opening, so that cost is set-up and never a query's; forked
            # workers inherit the loaded library.
            native_warmup()
            factory = {
                "inline": InlineBackend,
                "threads": ThreadsBackend,
                "processes": ProcessesBackend,
            }[self.backend_name]
            self._backend = factory(
                graph,
                algorithm=algorithm,
                workers=workers,
                start_method=start_method,
                max_cached=max_cached,
            )
        self.graph = graph
        # A graph loaded from a path is this Database's to clean up —
        # mmap'd snapshot mappings and compressed block buffers included.
        # A caller-provided DiGraph keeps its own store lifecycle.  Live
        # updates rebind ``self.graph`` to newer epochs, so cleanup tracks
        # the graph that was actually opened.
        self._opened_graph = graph
        self._owns_graph_store = graph is not None and not isinstance(target, DiGraph)
        self._closed = False

    @staticmethod
    def _resolve_target(target, backend, store):
        """Classify the open target: ``(graph, remote, router)``.

        Exactly one element is non-``None``: a loaded graph for local
        execution, a ``(host, port)`` tuple for a plain ``repro serve``
        endpoint, or a router descriptor — ``("url", host, port)`` for a
        ``repro route`` front end, ``("map", ShardMap)`` for client-side
        routing.  Shard-map ``.json`` files are recognised *before* the
        generic existing-file branch, which would otherwise read them as an
        edge list.
        """
        import os
        from pathlib import Path

        if isinstance(target, DiGraph):
            return target, None, None
        from repro.server.router import ShardMap

        if isinstance(target, ShardMap):
            return None, None, ("map", target)
        if isinstance(target, os.PathLike):
            target = os.fspath(target)
        if not isinstance(target, str):
            raise BackendError(
                f"cannot open {target!r}: expected a DiGraph, a snapshot / "
                "edge-list path, a host:port URL, or a shard map"
            )
        if target.startswith("router://"):
            url = _looks_like_url(target[len("router://"):])
            if url is None:
                raise BackendError(
                    f"cannot open {target!r}: expected router://host:port"
                )
            return None, None, ("url",) + url
        path = Path(target)
        if target.endswith(".json") and path.exists():
            return None, None, ("map", ShardMap.from_file(target))
        if target.endswith(".npz") or path.exists():
            from repro.graph.io import _load_npz, read_edge_list

            if path.exists() and _is_snapshot(path):
                from repro.graph.snapshot import load_snapshot

                return load_snapshot(target, store=store or "auto"), None, None
            if target.endswith(".npz"):
                return _load_npz(target, store=store), None, None
            return read_edge_list(target), None, None
        url = _looks_like_url(target)
        if url is not None:
            return None, url, None
        raise BackendError(
            f"cannot open {target!r}: not an existing snapshot / edge-list "
            "file and not a host:port URL"
        )

    @classmethod
    def open(cls, target, **options) -> "Database":
        """Alias of the constructor, for symmetry with file APIs."""
        return cls(target, **options)

    # -- lifecycle ------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the backend's resources; idempotent.

        Backends go first (worker pools may still read the graph), then any
        graph store this Database opened itself — dropping snapshot mappings
        without deleting the snapshot, and shared segments via the owner
        path.  Both layers are themselves idempotent, so a second
        ``close()`` (or an explicit ``graph.close_store()`` before this) is
        harmless.
        """
        if not self._closed:
            self._closed = True
            self._backend.close()
            if self._owns_graph_store and self._opened_graph is not None:
                self._opened_graph.close_store(unlink=True)

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        origin = (
            self._backend.endpoint
            if isinstance(self._backend, _WireBackend)
            else f"|V|={self.graph.num_vertices}, |E|={self.graph.num_edges}"
        )
        return f"Database(backend={self.backend_name!r}, {origin})"

    # -- execution ------------------------------------------------------ #
    def _submit(
        self,
        items: Iterable[SpecLike],
        overrides: Dict[str, object],
        *,
        external: bool,
        ordered: bool,
        chunk_queries: int,
    ) -> ResultStream:
        if self._closed:
            raise RuntimeError("Database is closed")
        specs = [as_spec(item, **overrides) for item in items]
        if not specs:
            return ResultStream(
                iter(()), num_queries=0, backend=self.backend_name, ordered=ordered
            )
        options = _common_options(specs)
        return self._backend.submit(
            specs,
            options,
            external=external,
            ordered=ordered,
            chunk_queries=chunk_queries,
        )

    def query(self, spec: SpecLike, *, external: bool = False, **options) -> ResultStream:
        """Evaluate one spec; returns a one-result :class:`ResultStream`.

        Keyword ``options`` override the spec's run-option fields (e.g.
        ``db.query((s, t, 4), limit=10)``); read the single result with
        ``.result()``, its paths with ``.paths()[0]``.
        """
        return self._submit(
            [spec], options, external=external, ordered=True, chunk_queries=1
        )

    def batch(
        self, specs: Iterable[SpecLike], *, external: bool = False, **options
    ) -> ResultStream:
        """Evaluate a whole spec list; iteration follows workload order.

        All specs of one batch must share their run options (one batch is
        one :class:`RunConfig` / submit frame); ``options`` apply to every
        spec, so triples and :class:`Q` builders pick them up directly.
        """
        return self._submit(
            specs,
            options,
            external=external,
            ordered=True,
            chunk_queries=DEFAULT_CHUNK_QUERIES,
        )

    def stream(
        self, specs: Iterable[SpecLike], *, external: bool = False, **options
    ) -> ResultStream:
        """Like :meth:`batch`, but iteration yields results as they finish.

        Chunking is per query, so the first result arrives while later
        queries still enumerate; use :meth:`ResultStream.as_completed` for
        ``(position, result)`` pairs.
        """
        return self._submit(
            specs, options, external=external, ordered=False, chunk_queries=1
        )

    # -- mutation ------------------------------------------------------- #
    def _mutate(
        self,
        add: Sequence[Tuple[object, object]],
        remove: Sequence[Tuple[object, object]],
        external: bool,
    ) -> Dict[str, object]:
        if self._closed:
            raise RuntimeError("Database is closed")
        result = self._backend.mutate(add=add, remove=remove, external=external)
        # Local backends rebind their graph to the newly published epoch;
        # mirror it here so db.graph always describes what queries see.
        refreshed = getattr(self._backend, "graph", None)
        if refreshed is not None:
            self.graph = refreshed
        return result

    def insert_edges(
        self, edges: Iterable[Tuple[object, object]], *, external: bool = False
    ) -> Dict[str, object]:
        """Insert an edge batch; returns the published epoch and counters.

        The batch is applied atomically: queries in flight keep reading the
        epoch they started on, queries submitted after the call returns see
        every inserted edge.  Self-loops, duplicates and edges already
        present are skipped (mirroring the graph builder); both endpoints
        must already exist — the vertex set is fixed at build time.  The
        returned dict carries ``epoch``, the applied ``added`` / ``removed``
        counts, the distance-cache ``repair`` breakdown and the live
        ``stats`` counters.
        """
        return self._mutate(list(edges), (), external)

    def remove_edges(
        self, edges: Iterable[Tuple[object, object]], *, external: bool = False
    ) -> Dict[str, object]:
        """Remove an edge batch; semantics mirror :meth:`insert_edges`.

        Removing an edge that is not present is a no-op; a batch that
        changes nothing publishes no new epoch.
        """
        return self._mutate((), list(edges), external)
