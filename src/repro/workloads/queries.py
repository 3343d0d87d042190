"""Query-set generation following Section 7.1 of the paper.

For each graph the paper builds four query sets of 1 000 queries each.  The
vertex set is split into ``V'`` (the top 10 % of vertices by degree) and
``V''`` (the rest); the four settings place ``s`` and ``t`` in
``{V', V''} x {V', V''}``.  Every query additionally requires
``S(s, t) <= 3`` so that at least one result exists — otherwise a single BFS
answers the query and the enumeration problem is trivial.  The hardest
setting, and the paper's default, draws both endpoints from ``V'``.
"""

from __future__ import annotations

import enum
import hashlib
import heapq
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.core.query import Query
from repro.graph.digraph import DiGraph
from repro.graph.traversal import UNREACHABLE, distance

__all__ = [
    "QuerySetting",
    "QueryWorkload",
    "split_by_degree",
    "consistent_hash",
    "partition_by_target",
    "poisson_arrival_times",
    "generate_query_set",
    "generate_target_centric_set",
]


class QuerySetting(enum.Enum):
    """The four endpoint-placement settings of Section 7.1."""

    #: Both endpoints among the top-degree vertices (the paper's default).
    HIGH_HIGH = "V'xV'"
    #: Source high degree, target low degree.
    HIGH_LOW = "V'xV''"
    #: Source low degree, target high degree.
    LOW_HIGH = "V''xV'"
    #: Both endpoints among the low-degree vertices.
    LOW_LOW = "V''xV''"

    @property
    def source_high(self) -> bool:
        return self in (QuerySetting.HIGH_HIGH, QuerySetting.HIGH_LOW)

    @property
    def target_high(self) -> bool:
        return self in (QuerySetting.HIGH_HIGH, QuerySetting.LOW_HIGH)


@dataclass
class QueryWorkload:
    """A generated query set together with its provenance."""

    graph_name: str
    setting: QuerySetting
    k: int
    queries: List[Query] = field(default_factory=list)
    seed: Optional[int] = None

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self):
        return iter(self.queries)

    def with_k(self, k: int) -> "QueryWorkload":
        """The same endpoint pairs under a different hop constraint."""
        return QueryWorkload(
            graph_name=self.graph_name,
            setting=self.setting,
            k=k,
            queries=[q.with_k(k) for q in self.queries],
            seed=self.seed,
        )

    def subset(self, count: int) -> "QueryWorkload":
        """The first ``count`` queries (used to scale benchmarks down)."""
        return QueryWorkload(
            graph_name=self.graph_name,
            setting=self.setting,
            k=self.k,
            queries=list(self.queries[:count]),
            seed=self.seed,
        )

    def to_specs(self, **options) -> List["QuerySpec"]:
        """The workload as :class:`~repro.api.QuerySpec` objects.

        ``options`` (``limit``, ``deadline``, ``store_paths``, ``response_k``,
        ...) apply to every spec, which also makes the list a valid single
        :meth:`~repro.api.Database.batch` argument — one batch must share
        its run options.
        """
        from repro.api import QuerySpec

        return [
            QuerySpec(query.source, query.target, query.k, **options)
            for query in self.queries
        ]

    def unique_targets(self) -> List[int]:
        """The distinct query targets, in first-appearance order.

        ``len(workload.unique_targets()) < len(workload)`` is exactly the
        condition under which batch execution saves reverse-BFS work.
        """
        seen: set = set()
        targets: List[int] = []
        for query in self.queries:
            if query.target not in seen:
                seen.add(query.target)
                targets.append(query.target)
        return targets


def consistent_hash(target, num_shards: int) -> int:
    """The shard owning ``target`` under rendezvous (HRW) consistent hashing.

    Deterministic across runs, processes and machines: the weight of each
    ``(target, shard)`` pair is the first 8 bytes of a BLAKE2b digest over a
    canonical byte encoding of the target id — never Python's seeded
    ``hash()``.  The highest-weight shard wins; ties (astronomically rare,
    but the contract matters) break toward the *lowest* shard index because
    the comparison is strict.

    Rendezvous hashing is what makes the mapping *consistent*: growing the
    fleet from ``n`` to ``n + 1`` shards only moves the ``1 / (n + 1)``
    fraction of targets whose new shard wins — every other target keeps its
    shard, and with it the reverse-BFS distance cache that shard has warmed.

    ``target`` may be an internal vertex id (int) or an external id (str);
    the two spaces are encoded distinctly so ``5`` and ``"5"`` hash
    independently.
    """
    if num_shards < 1:
        raise WorkloadError("num_shards must be positive")
    if num_shards == 1:
        return 0
    if isinstance(target, (int, np.integer)) and not isinstance(target, bool):
        key = b"i:%d" % int(target)
    else:
        key = b"s:" + str(target).encode("utf-8", errors="surrogatepass")
    best_shard, best_weight = 0, -1
    for shard in range(num_shards):
        digest = hashlib.blake2b(
            key + b"|%d" % shard, digest_size=8
        ).digest()
        weight = int.from_bytes(digest, "big")
        if weight > best_weight:
            best_shard, best_weight = shard, weight
    return best_shard


def partition_by_target(
    queries: Sequence[Query], num_shards: int
) -> List[List[Tuple[int, Query]]]:
    """Partition ``queries`` into at most ``num_shards`` target-affine shards.

    Every query with the same ``(target, k)`` — the distance-cache key of
    :class:`~repro.core.engine.QuerySession` — lands in the same shard, so a
    worker evaluating one shard owns all reuse opportunities of its targets
    and no reverse-BFS array is ever computed in two processes.  Groups are
    balanced greedily (largest group first onto the least-loaded shard,
    longest-processing-time heuristic), which keeps shard sizes even when a
    few hub targets dominate the workload.

    Returns non-empty shards of ``(original_position, query)`` pairs; the
    positions let the caller reassemble results in workload order.  The
    partition is deterministic for a given query sequence.
    """
    if num_shards < 1:
        raise WorkloadError("num_shards must be positive")
    groups: dict = {}
    for position, query in enumerate(queries):
        groups.setdefault((query.target, query.k), []).append((position, query))
    if not groups:
        return []
    # Largest group first; ties broken by first appearance for determinism.
    ordered = sorted(groups.values(), key=lambda group: (-len(group), group[0][0]))
    shard_count = min(num_shards, len(ordered))
    shards: List[List[Tuple[int, Query]]] = [[] for _ in range(shard_count)]
    heap = [(0, index) for index in range(shard_count)]
    heapq.heapify(heap)
    for group in ordered:
        load, index = heapq.heappop(heap)
        shards[index].extend(group)
        heapq.heappush(heap, (load + len(group), index))
    return [shard for shard in shards if shard]


def poisson_arrival_times(
    count: int, rate_per_second: float, *, seed: Optional[int] = None
) -> np.ndarray:
    """Deterministic open-loop arrival schedule: Poisson process offsets.

    Returns ``count`` monotonically increasing arrival times in seconds
    (offsets from the start of a load run), with exponentially distributed
    inter-arrival gaps of mean ``1 / rate_per_second`` drawn from a seeded
    :class:`numpy.random.Generator` — the same seed always produces the same
    schedule, so serving benchmarks are replayable.  The first arrival is at
    the first gap, not at zero (no thundering herd at t=0).
    """
    if count < 1:
        raise WorkloadError("count must be positive")
    if not rate_per_second > 0.0:
        raise WorkloadError("rate_per_second must be positive")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(scale=1.0 / rate_per_second, size=count)
    return np.cumsum(gaps)


def split_by_degree(graph: DiGraph, *, top_fraction: float = 0.10) -> Tuple[np.ndarray, np.ndarray]:
    """Split vertices into ``V'`` (top ``top_fraction`` by degree) and ``V''``.

    The split uses total degree (in + out), breaking ties by vertex id so the
    result is deterministic.
    """
    if not 0.0 < top_fraction < 1.0:
        raise WorkloadError("top_fraction must lie strictly between 0 and 1")
    degrees = graph.out_degrees() + graph.in_degrees()
    order = np.lexsort((np.arange(graph.num_vertices), -degrees))
    cutoff = max(1, int(round(top_fraction * graph.num_vertices)))
    high = np.sort(order[:cutoff])
    low = np.sort(order[cutoff:])
    return high, low


def generate_query_set(
    graph: DiGraph,
    *,
    count: int,
    k: int,
    setting: QuerySetting = QuerySetting.HIGH_HIGH,
    max_distance: int = 3,
    seed: Optional[int] = None,
    graph_name: str = "graph",
    top_fraction: float = 0.10,
    max_attempts_factor: int = 200,
) -> QueryWorkload:
    """Generate ``count`` queries under the given setting (Section 7.1).

    Endpoints are drawn uniformly at random from their degree classes and a
    pair is kept only when ``S(s, t) <= max_distance`` (3 in the paper), so
    every generated query has at least one result for any ``k >= max_distance``.
    Raises :class:`WorkloadError` when the graph cannot supply enough pairs.
    """
    if count < 1:
        raise WorkloadError("count must be positive")
    rng = np.random.default_rng(seed)
    high, low = split_by_degree(graph, top_fraction=top_fraction)
    source_pool = high if setting.source_high else low
    target_pool = high if setting.target_high else low
    if len(source_pool) == 0 or len(target_pool) == 0:
        raise WorkloadError("degree split produced an empty vertex pool")

    queries: List[Query] = []
    seen: set = set()
    attempts = 0
    max_attempts = max_attempts_factor * count
    while len(queries) < count and attempts < max_attempts:
        attempts += 1
        s = int(rng.choice(source_pool))
        t = int(rng.choice(target_pool))
        if s == t or (s, t) in seen:
            continue
        d = distance(graph, s, t, cutoff=max_distance)
        if d == UNREACHABLE or d > max_distance:
            continue
        seen.add((s, t))
        queries.append(Query(s, t, k))
    if len(queries) < count:
        raise WorkloadError(
            f"could only generate {len(queries)} of {count} queries for setting "
            f"{setting.value} (graph too sparse or disconnected)"
        )
    return QueryWorkload(graph_name=graph_name, setting=setting, k=k, queries=queries, seed=seed)


def generate_target_centric_set(
    graph: DiGraph,
    *,
    count: int,
    k: int,
    num_targets: int = 4,
    setting: QuerySetting = QuerySetting.HIGH_HIGH,
    max_distance: int = 3,
    seed: Optional[int] = None,
    graph_name: str = "graph",
    top_fraction: float = 0.10,
    max_attempts_factor: int = 200,
) -> QueryWorkload:
    """Generate ``count`` queries concentrated on ``num_targets`` targets.

    This is the batch-friendly shape of real serving traffic (many sources
    probing the same hub accounts): sources are drawn per the ``setting``
    rules of Section 7.1, but targets rotate through a small pool, so
    ``count / num_targets`` queries share each reverse-BFS distance array.
    The usual ``S(s, t) <= max_distance`` guarantee still applies.
    """
    if count < 1:
        raise WorkloadError("count must be positive")
    if num_targets < 1:
        raise WorkloadError("num_targets must be positive")
    rng = np.random.default_rng(seed)
    high, low = split_by_degree(graph, top_fraction=top_fraction)
    source_pool = high if setting.source_high else low
    target_pool = high if setting.target_high else low
    if len(source_pool) == 0 or len(target_pool) == 0:
        raise WorkloadError("degree split produced an empty vertex pool")

    targets: List[int] = []
    attempts = 0
    max_attempts = max_attempts_factor * max(count, num_targets)
    # A target qualifies once one in-range source exists; drawing the pool
    # first keeps the per-target source sampling independent of pool order.
    while len(targets) < min(num_targets, len(target_pool)) and attempts < max_attempts:
        attempts += 1
        t = int(rng.choice(target_pool))
        if t in targets:
            continue
        s = int(rng.choice(source_pool))
        if s == t:
            continue
        d = distance(graph, s, t, cutoff=max_distance)
        if d == UNREACHABLE or d > max_distance:
            continue
        targets.append(t)
    if not targets:
        raise WorkloadError(
            "could not find any target with an in-range source "
            f"(setting {setting.value}, max_distance {max_distance})"
        )

    queries: List[Query] = []
    seen: set = set()
    attempts = 0
    while len(queries) < count and attempts < max_attempts:
        # Rotate by attempt, not by accepted query: a target whose in-range
        # sources are exhausted must not pin the loop while other targets
        # still have capacity.
        t = targets[attempts % len(targets)]
        attempts += 1
        s = int(rng.choice(source_pool))
        if s == t or (s, t) in seen:
            continue
        d = distance(graph, s, t, cutoff=max_distance)
        if d == UNREACHABLE or d > max_distance:
            continue
        seen.add((s, t))
        queries.append(Query(s, t, k))
    if len(queries) < count:
        raise WorkloadError(
            f"could only generate {len(queries)} of {count} target-centric queries "
            f"(graph too sparse around the {len(targets)} chosen targets)"
        )
    return QueryWorkload(graph_name=graph_name, setting=setting, k=k, queries=queries, seed=seed)
