"""The seven workloads: seeded inputs, set-up, one timed window, verification.

Every workload drives the system through its public surface only —
``repro.api.Database`` / ``QuerySpec``, the ``repro serve`` / ``repro route``
command lines and ``QueryClient.connect/submit/collect/ping/stats``.  The
inputs are generated here (not by ``repro.workloads``) from the seed and the
graph's degrees, and handed to the program as plain specs, edge lists and
arrival offsets.

Endpoints are drawn from ``V'`` (the top 10 % of vertices by degree, the
paper's default query setting) by *stratified* sampling: ``V'`` is sorted by
degree, cut into as many strata as vertices are needed, and the seed picks
one vertex per stratum.  On a power-law graph the cost of a query follows the
degrees of its endpoints, so every seed gets the same mix of light and heavy
queries and the metrics of two seeds are comparable.
"""

from __future__ import annotations

import asyncio
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api import Database, QuerySpec
from repro.errors import ReproError
from repro.graph.builder import GraphBuilder
from repro.server.client import QueryClient
from repro.workloads.datasets import load_dataset

import harness
from harness import Tracer

Triple = Tuple[int, int, int]
Edge = Tuple[int, int]

#: The paper's response time is the time to the first 1 000 results.
RESPONSE_LIMIT = 1000
#: Latency limit of the open-loop workloads at their offered rate.
SLO_MS = 25.0
#: Every failure a call into the system may raise; counted, never fatal.
CALL_ERRORS = (ReproError, RuntimeError, OSError, asyncio.TimeoutError)


# --------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------- #
@dataclass
class Inputs:
    """What one workload hands the program, as plain values.

    ``steps`` is the op list of one pass: ``("query", spec)``,
    ``("batch", [spec, ...])``, ``("insert", edges)`` or
    ``("remove", edges)``.  ``twins`` are the leading query/batch steps
    again with ``limit=1000`` (the response-time probe).  ``arrivals`` are
    the scheduled send offsets of an open-loop pass, one per step.
    """

    steps: List[Tuple[str, object]]
    twins: List[Tuple[str, object]]
    arrivals: List[float] = field(default_factory=list)
    #: Reference result counts per step / twin, filled by verification and
    #: re-checked on every timed op.
    expected: List[Optional[int]] = field(default_factory=list)
    expected_twins: List[Optional[int]] = field(default_factory=list)

    def triples(self) -> List[Triple]:
        """Every query of one pass, flattened, in op order."""
        out: List[Triple] = []
        for kind, payload in self.steps:
            if kind == "query":
                out.append(payload.triple)
            elif kind == "batch":
                out.extend(spec.triple for spec in payload)
        return out

    def plain(self) -> Dict[str, object]:
        """JSON-ready form, the thing the frozen-input digest covers."""
        def render(step):
            kind, payload = step
            if kind == "query":
                return [kind, list(payload.triple)]
            if kind == "batch":
                return [kind, [list(spec.triple) for spec in payload]]
            return [kind, [list(edge) for edge in payload]]

        return {
            "steps": [render(step) for step in self.steps],
            "twins": [render(step) for step in self.twins],
            "arrivals": [round(offset, 9) for offset in self.arrivals],
        }


def _limited(step: Tuple[str, object]) -> Tuple[str, object]:
    kind, payload = step
    if kind == "query":
        return kind, payload.replace(limit=RESPONSE_LIMIT)
    return kind, [spec.replace(limit=RESPONSE_LIMIT) for spec in payload]


class Sampler:
    """Seeded endpoint pairs from ``V' x V'``, drawn by *query size*.

    The size of ``q(s, t, k)`` is the number of walks of at most ``k`` hops
    from ``s`` to ``t`` — ``k`` sparse matrix-vector products per source,
    computed here from the CSR and nothing else.  On the power-law stand-ins
    it tracks the number of result paths within a few per cent, and the
    number of results is what a query costs.  A workload asks for pairs of
    given sizes and the seed chooses among the :attr:`BAND` pairs nearest to
    each, so two seeds get different queries of the same sizes and their
    metrics are comparable.

    Only pairs within three hops are used, the paper's condition
    (Section 7.1): such a query has a result for every ``k >= 3``.
    """

    #: Candidates per wanted size the seed chooses among.
    BAND = 8

    def __init__(self, graph, rng: np.random.Generator) -> None:
        self.graph = graph
        self.rng = rng
        degrees = graph.out_degrees() + graph.in_degrees()
        order = np.lexsort((np.arange(graph.num_vertices), -degrees))
        #: ``V'``: the top 10 % of vertices by degree, heaviest first.
        self.hot = order[: max(1, round(0.10 * graph.num_vertices))]
        indptr, indices = graph.out_csr()
        self._edge_src = np.repeat(np.arange(graph.num_vertices), np.diff(indptr))
        self._edge_dst = np.asarray(indices)
        self._sizes: Dict[int, np.ndarray] = {}
        self._log_sizes: Dict[int, np.ndarray] = {}
        self._free: Dict[int, np.ndarray] = {}

    def sizes(self, k: int) -> np.ndarray:
        """``|V'| x |V'|`` matrix of query sizes; 0 marks an unusable pair
        (same vertex, or no path within three hops)."""
        if k not in self._sizes:
            n = self.graph.num_vertices
            reach = {}
            for hops in (3, k):
                rows = []
                for source in self.hot:
                    walks = np.zeros(n)
                    walks[source] = 1.0
                    total = np.zeros(n)
                    for _ in range(hops):
                        walks = np.bincount(
                            self._edge_dst, weights=walks[self._edge_src], minlength=n
                        )
                        total += walks
                    rows.append(total[self.hot])
                reach[hops] = np.array(rows)
            matrix = np.where(reach[3] > 0, reach[k], 0.0)
            np.fill_diagonal(matrix, 0.0)
            self._sizes[k] = matrix
            with np.errstate(divide="ignore"):
                self._log_sizes[k] = np.log(matrix)
        return self._sizes[k]

    def quantile_sizes(self, k: int, count: int, low: float, high: float) -> np.ndarray:
        """``count`` sizes evenly spaced in rank between two quantiles of the
        size distribution of ``V' x V'`` — a property of the graph alone."""
        matrix = self.sizes(k)
        return np.quantile(matrix[matrix > 0], np.linspace(low, high, count))

    def targets(self, count: int) -> List[int]:
        """``count`` columns of ``V'``, one per degree stratum (as indices
        into :attr:`hot`), in random order."""
        strata = np.array_split(np.arange(len(self.hot)), count)
        picks = [int(self.rng.choice(stratum)) for stratum in strata]
        self.rng.shuffle(picks)
        return picks

    def pick(
        self, k: int, wanted: Sequence[float], columns: Optional[Sequence[int]] = None, band: int = BAND
    ) -> List[QuerySpec]:
        """One unused pair per wanted size, in the order given.

        ``columns`` restricts the targets (indices into :attr:`hot`); the
        target-centric workloads use it.  ``band=1`` takes the nearest pair
        whatever the seed.
        """
        matrix = self.sizes(k)
        free = self._free.setdefault(k, matrix > 0)
        allowed = np.ones(len(self.hot), dtype=bool)
        if columns is not None:
            allowed = np.isin(np.arange(len(self.hot)), columns)
        log_sizes = self._log_sizes[k]
        specs: List[QuerySpec] = []
        for size in wanted:
            rows, cols = np.nonzero(free & allowed)
            if not len(rows):
                raise RuntimeError("V' x V' has no unused pair within three hops left")
            distance = np.abs(log_sizes[rows, cols] - np.log(size))
            nearest = np.argsort(distance, kind="stable")[:band]
            chosen = int(self.rng.choice(nearest))
            row, column = int(rows[chosen]), int(cols[chosen])
            free[row, column] = False
            specs.append(QuerySpec(int(self.hot[row]), int(self.hot[column]), k))
        return specs

    def target_centric(self, k: int, num_targets: int, count: int, low: float, high: float) -> List[QuerySpec]:
        """``count`` specs on ``num_targets`` targets (one per degree
        stratum), their sizes spread between two quantiles."""
        wanted = self.rng.permutation(self.quantile_sizes(k, count, low, high))
        return self.pick(k, wanted, self.targets(num_targets))

    def absent_edges(self, count: int) -> List[Edge]:
        """``count`` distinct edges between ``V'`` vertices not in the graph."""
        edges: List[Edge] = []
        seen = set()
        while len(edges) < count:
            u, v = (int(x) for x in self.rng.choice(self.hot, size=2, replace=False))
            if (u, v) not in seen and not self.graph.has_edge(u, v):
                seen.add((u, v))
                edges.append((u, v))
        return edges


def _queries(specs: Sequence[QuerySpec]) -> List[Tuple[str, object]]:
    return [("query", spec) for spec in specs]


# --------------------------------------------------------------------- #
# one timed window
# --------------------------------------------------------------------- #
@dataclass
class Window:
    """Raw samples of one pass; ``run.py`` turns them into metrics."""

    wall: float = 0.0
    cpu: float = 0.0
    queries: int = 0
    paths: int = 0
    cache_hits: int = 0
    attempted: int = 0
    failed: int = 0
    latencies: List[float] = field(default_factory=list)
    responses: List[float] = field(default_factory=list)
    updates: List[float] = field(default_factory=list)
    inserts: List[float] = field(default_factory=list)
    removes: List[float] = field(default_factory=list)
    #: Open loop only: how late each send ran, time to first frame, SLO misses.
    lags: List[float] = field(default_factory=list)
    first_frames: List[float] = field(default_factory=list)
    slo_misses: int = 0
    #: The dict the last ``insert_edges`` / ``remove_edges`` returned.
    update_info: Optional[dict] = None


def _drive(db: Database, steps, expected, tracer: Tracer, window: Window, twins: bool = False) -> None:
    """Closed loop, one caller: issue each step when the previous returned.

    A query's latency runs from the call to ``ResultStream.results()``
    returning — count and columnar paths in hand, tuples not forced.  The
    ``twins`` pass feeds the response-time samples and nothing else.
    """
    for op, (kind, payload) in enumerate(steps):
        window.attempted += 1
        results = None  # free the previous op's paths before the next are made
        began = time.perf_counter()
        try:
            with tracer.span(f"api.Database.{kind}", op):
                if kind == "query":
                    results = db.query(payload).results()
                elif kind == "batch":
                    results = db.batch(payload).results()
                elif kind == "insert":
                    window.update_info = db.insert_edges(payload)
                else:
                    window.update_info = db.remove_edges(payload)
        except CALL_ERRORS:
            window.failed += 1
            continue
        took = time.perf_counter() - began
        if kind in ("insert", "remove"):
            window.updates.append(took)
            (window.inserts if kind == "insert" else window.removes).append(took)
            continue
        count = sum(result.count for result in results)
        if expected and count != expected[op]:
            window.failed += 1
        if twins:
            window.responses.append(took)
            continue
        window.latencies.append(took)
        window.queries += len(results)
        window.paths += count
        window.cache_hits += sum(result.stats.bfs_cache_hit for result in results)


# --------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------- #
class Workload:
    """Base: closed loop through one ``Database``; subclasses pick the inputs
    and how the database is opened."""

    name = ""
    dataset = ""
    #: Leading steps the warm-up inside set-up runs (``None``: one full
    #: pass), so that caches are full and pools spawned before timing.
    warm_steps: Optional[int] = None
    #: Entries of the reverse-BFS distance cache (the ``Database`` default).
    cache_entries = 1024

    def __init__(self) -> None:
        self.db: Optional[Database] = None
        self.servers: List[harness.ServerProcess] = []

    # -- inputs -------------------------------------------------------- #
    def rng(self, seed: int) -> np.random.Generator:
        return np.random.default_rng([seed, zlib.crc32(self.input_key().encode("ascii"))])

    def input_key(self) -> str:
        return self.name

    def make_inputs(self, graph, seed: int) -> Inputs:
        raise NotImplementedError

    # -- lifecycle ----------------------------------------------------- #
    def open(self) -> None:
        """Build or attach the graph and open the system under test."""
        raise NotImplementedError

    def warm(self, inputs: Inputs) -> None:
        quiet, unused = Tracer(False), Window()
        _drive(self.db, inputs.steps[:self.warm_steps], None, quiet, unused)
        _drive(self.db, inputs.twins, None, quiet, unused, twins=True)

    def setup(self, inputs: Inputs) -> float:
        """Open and warm up; returns the seconds it took (``setup_s``)."""
        began = time.perf_counter()
        self.open()
        self.warm(inputs)
        return time.perf_counter() - began

    def close(self) -> List[str]:
        """Tear everything down; returns what did not end cleanly."""
        problems: List[str] = []
        if self.db is not None:
            self.db.close()
            self.db = None
        for server in self.servers:
            code = server.stop()
            if code != 0:
                problems.append(f"{server.label} exited with code {code}")
        self.servers = []
        return problems

    # -- measurement --------------------------------------------------- #
    def window(self, inputs: Inputs, tracer: Tracer) -> Window:
        window = Window()
        cpu = time.process_time()
        began = time.perf_counter()
        _drive(self.db, inputs.steps, inputs.expected, tracer, window)
        window.wall = time.perf_counter() - began
        window.cpu = time.process_time() - cpu
        _drive(self.db, inputs.twins, inputs.expected_twins, tracer, window, twins=True)
        return window

    # -- verification -------------------------------------------------- #
    def verify(self, inputs: Inputs, graph) -> Tuple[int, int]:
        """Equivalence gate: one pass against a sequential inline reference.

        Every query result must match the digest of the same spec evaluated
        by a fresh inline ``Database`` over a graph rebuilt from scratch —
        after each insert and each remove, rebuilt from the edited edge set.
        Also records the reference counts the timed windows re-check.
        Returns ``(ops checked, ops that differed)``.
        """
        attempted = failed = 0
        edges = set(graph.edges())
        reference = Database(graph)
        try:
            for steps, counts in ((inputs.steps, inputs.expected), (inputs.twins, inputs.expected_twins)):
                counts.clear()
                for kind, payload in steps:
                    attempted += 1
                    if kind in ("insert", "remove"):
                        counts.append(None)
                        changed = set(map(tuple, payload))
                        edges = edges | changed if kind == "insert" else edges - changed
                        reference.close()
                        reference = Database(_rebuild(graph, edges))
                        try:
                            (self.db.insert_edges if kind == "insert" else self.db.remove_edges)(payload)
                        except CALL_ERRORS:
                            failed += 1
                        continue
                    specs = [payload] if kind == "query" else payload
                    want = reference.batch(specs).results()
                    counts.append(sum(r.count for r in want))
                    try:
                        got = (self.db.query(payload) if kind == "query" else self.db.batch(payload)).results()
                    except CALL_ERRORS:
                        failed += 1
                        del want
                        continue
                    if harness.count_mismatches(want, got):
                        failed += 1
                    del want, got  # two million-path results at a time, not four
            if self.db.graph is not None and harness.graph_digest(self.db.graph) != harness.graph_digest(graph):
                failed += 1  # the pass must leave the graph as it found it
        finally:
            reference.close()
        return attempted, failed

    # -- traced runs --------------------------------------------------- #
    def probes(self, graph, inputs: Inputs, before: Window, traced: List[Window]) -> Dict[str, float]:
        """Per-layer metrics only this workload can measure.

        ``traced`` are the windows run with spans, ``before`` the last
        window run without.
        """
        return {}


def _rebuild(graph, edges):
    builder = GraphBuilder()
    for vertex in graph.vertices():
        builder.add_vertex(vertex)
    for u, v in sorted(edges):
        builder.add_edge(u, v)
    return builder.build()


class InlineCheap(Workload):
    name = "inline-cheap"
    dataset = "gg"
    #: 200 targets cycle through a 64-entry distance cache, so every query
    #: pays its own reverse BFS: hit rate 0 by construction.
    cache_entries = 64
    warm_steps = 100  # there is no cache to fill

    def make_inputs(self, graph, seed: int) -> Inputs:
        sampler = Sampler(graph, self.rng(seed))
        # Each of 200 targets twice, 200 ops apart: further than the cache
        # reaches.  One hop budget, so the latency distribution has one mode
        # and its median does not flip between two.
        columns = sampler.targets(200)
        wanted = sampler.rng.permutation(sampler.quantile_sizes(4, 400, 0.10, 0.95))
        specs = [
            sampler.pick(4, [size], [column])[0]
            for size, column in zip(wanted, columns * 2)
        ]
        steps = _queries(specs)
        return Inputs(steps, [_limited(step) for step in steps[::4]])

    def open(self) -> None:
        graph = load_dataset(self.dataset, use_cache=False)
        self.db = Database(graph, max_cached=self.cache_entries)


class InlineHeavy(Workload):
    name = "inline-heavy"
    dataset = "ep"
    warm_steps = 0  # nothing to fill; the limited twins touch every code path

    def make_inputs(self, graph, seed: int) -> Inputs:
        sampler = Sampler(graph, self.rng(seed))
        # 16 queries of 6e4-1.3e5 paths, which the optimizer gives to IDX-DFS
        # at a steady 0.45 us per path, chosen by the seed; and two of 3e5
        # and 4e5 paths, which it gives to IDX-JOIN.  A join costs up to
        # twice another of its size, so a seeded pair of them would move the
        # pass by a tenth: these two are the same for every seed.
        light = sampler.pick(5, sampler.quantile_sizes(5, 16, 0.02, 0.30))
        joins = sampler.pick(5, sampler.quantile_sizes(5, 2, 0.70, 0.80), band=1)
        specs = light + joins
        sampler.rng.shuffle(specs)
        steps = _queries(specs)
        return Inputs(steps, [_limited(step) for step in steps])

    def open(self) -> None:
        self.db = Database(load_dataset(self.dataset, use_cache=False))


class BatchProcs(Workload):
    name = "batch-procs"
    dataset = "ep"
    warm_steps = 2  # the pool spawns and attaches the shared graph on the first batches
    WORKERS = 2

    def make_inputs(self, graph, seed: int) -> Inputs:
        sampler = Sampler(graph, self.rng(seed))
        specs = sampler.target_centric(4, 16, 300, 0.10, 0.90)
        steps = [("batch", specs[i:i + 100]) for i in range(0, 300, 100)]
        return Inputs(steps, [_limited(steps[0])])

    def open(self) -> None:
        graph = load_dataset(self.dataset, use_cache=False)
        self.db = Database(graph, backend="processes", workers=self.WORKERS)

    def probes(self, graph, inputs: Inputs, before: Window, traced: List[Window]) -> Dict[str, float]:
        """One batch inline against the same batch on the pool."""
        with Database(graph) as inline:
            began = time.perf_counter()
            inline.batch(inputs.steps[0][1]).results()
            inline_seconds = time.perf_counter() - began
        pooled = harness.median([w.latencies[0] for w in traced])
        return {"core.engine.parallel_efficiency": inline_seconds / (self.WORKERS * pooled)}


class ServedHeavy(Workload):
    name = "served-heavy"
    dataset = "ep"
    warm_steps = 20

    def make_inputs(self, graph, seed: int) -> Inputs:
        sampler = Sampler(graph, self.rng(seed))
        wanted = sampler.rng.permutation(sampler.quantile_sizes(4, 40, 0.10, 0.90))
        steps = _queries(sampler.pick(4, wanted))
        return Inputs(steps, [_limited(step) for step in steps])

    def open(self) -> None:
        server = harness.serve(self.dataset, 2, self.name)
        self.servers.append(server)
        self.db = Database(f"127.0.0.1:{server.port}")

    def probes(self, graph, inputs: Inputs, before: Window, traced: List[Window]) -> Dict[str, float]:
        return _served_probes(self.servers[0].port, traced)


class LiveMixed(Workload):
    name = "live-mixed"
    dataset = "ep"
    CYCLES = 8
    READS = 40
    EDGES = 16

    def make_inputs(self, graph, seed: int) -> Inputs:
        sampler = Sampler(graph, self.rng(seed))
        reads = sampler.target_centric(3, 16, 2 * self.READS * self.CYCLES, 0.10, 0.90)
        edges = sampler.absent_edges(self.EDGES * self.CYCLES)
        steps: List[Tuple[str, object]] = []
        for cycle in range(self.CYCLES):
            batch = edges[cycle * self.EDGES:(cycle + 1) * self.EDGES]
            block = reads[cycle * 2 * self.READS:(cycle + 1) * 2 * self.READS]
            steps += _queries(block[:self.READS]) + [("insert", batch)]
            steps += _queries(block[self.READS:]) + [("remove", batch)]
        twins = [_limited(step) for step in steps if step[0] == "query"][::8]
        return Inputs(steps, twins)

    def open(self) -> None:
        graph = load_dataset(self.dataset, use_cache=False)
        self.db = Database(graph, backend="threads", workers=2)

    def probes(self, graph, inputs: Inputs, before: Window, traced: List[Window]) -> Dict[str, float]:
        """Update latencies, and the counters ``insert_edges`` /
        ``remove_edges`` return, per update applied in the traced windows."""
        updates = [s for w in traced for s in w.updates]
        first, last = before.update_info["stats"], traced[-1].update_info["stats"]

        def per_update(key: str) -> float:
            return (last[key] - first[key]) / len(updates)

        return {
            "live.update_p50_ms": 1e3 * harness.median(updates),
            "live.insert_ms": 1e3 * harness.median([s for w in traced for s in w.inserts]),
            "live.remove_ms": 1e3 * harness.median([s for w in traced for s in w.removes]),
            "live.repairs_incremental": per_update("distance_repairs_incremental"),
            "live.repairs_full": per_update("distance_repairs_full"),
            "live.epochs_published": per_update("epochs_published"),
            "live.compactions": float(last["compactions"] - first["compactions"]),
        }


def _with_client(port: int, work):
    """Run ``await work(client)`` on a fresh connection to ``port``."""
    async def session():
        client = await QueryClient.connect("127.0.0.1", port)
        try:
            return await work(client)
        finally:
            await client.close()

    return asyncio.run(session())


def ping_ms(port: int, count: int = 50) -> float:
    """Median ``QueryClient.ping`` round trip: wire plus event loop, no query."""
    async def pings(client: QueryClient):
        return [(await client.ping()).rtt_ms for _ in range(count)]

    return harness.median(_with_client(port, pings))


def _served_probes(port: int, traced: List[Window]) -> Dict[str, float]:
    """What every workload with a server reports: round trip, tail, counters."""
    latencies = [s for w in traced for s in w.latencies]
    return {
        "server.client.rtt_ms": ping_ms(port),
        "server.client.query_p95_ms": harness.median(
            [1e3 * harness.percentile(w.latencies, 95) for w in traced]
        ),
        "server.client.query_p99_ms": 1e3 * harness.percentile(latencies, 99),
        **_service_counters(port),
    }


def _service_counters(port: int) -> Dict[str, float]:
    stats = _with_client(port, lambda client: client.stats())
    return {
        "server.service.queue_depth_high_water": float(stats.get("queue_depth_high_water", 0)),
        "server.service.queries_shed": float(stats.get("queries_shed", 0)),
        "server.service.reverse_bfs_runs": float(stats.get("reverse_bfs_runs", 0)),
    }


class ServedOpen(Workload):
    """Open loop: Poisson arrivals over two connections, single-query jobs.

    The harness owns the driver (``QueryClient.connect/submit/collect``);
    latency runs from the *scheduled* arrival, so a stall is charged to every
    request it delays.
    """

    name = "served-open"
    dataset = "gg"
    RATE = 100.0
    WINDOW_SECONDS = 1.6
    CONNECTIONS = 2
    SHARD_THREADS = 2

    def __init__(self) -> None:
        super().__init__()
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.clients: List[QueryClient] = []
        self.port = 0

    def input_key(self) -> str:
        return "served-open"  # routed-open replays the identical stream

    def make_inputs(self, graph, seed: int) -> Inputs:
        rng = self.rng(seed)
        sampler = Sampler(graph, rng)
        # A Poisson process seen over a window with a given number of
        # arrivals is that many sorted uniform draws; fixing the number keeps
        # the offered rate the same for every seed.
        count = int(self.RATE * self.WINDOW_SECONDS)
        arrivals = np.sort(rng.uniform(0.0, self.WINDOW_SECONDS, size=count))
        steps = _queries(sampler.target_centric(3, 32, count, 0.10, 0.90))
        return Inputs(steps, [_limited(step) for step in steps[::2]], [float(a) for a in arrivals])

    def boot(self) -> int:
        server = harness.serve(self.dataset, self.SHARD_THREADS, self.name)
        self.servers.append(server)
        return server.port

    def open(self) -> None:
        self.port = self.boot()
        self.loop = asyncio.new_event_loop()
        self.clients = [
            self.loop.run_until_complete(QueryClient.connect("127.0.0.1", self.port))
            for _ in range(self.CONNECTIONS)
        ]

    def close(self) -> List[str]:
        if self.loop is not None:
            for client in self.clients:
                self.loop.run_until_complete(client.close())
            self.loop.close()
            self.loop, self.clients = None, []
        return super().close()

    # -- drivers ------------------------------------------------------- #
    def _closed(self, steps, expected, window: Window, samples: List[float]):
        return self.loop.run_until_complete(
            _closed_pass(self.clients[0], steps, expected, window, samples)
        )

    async def _open_pass(self, inputs: Inputs, tracer: Tracer, window: Window) -> None:
        loop = asyncio.get_running_loop()
        start = loop.time() + 0.02

        async def fire(op: int, spec: QuerySpec, due: float) -> None:
            window.attempted += 1
            wait = due - loop.time()
            if wait > 0:
                await asyncio.sleep(wait)
            window.lags.append(max(0.0, loop.time() - due))
            try:
                with tracer.span("server.client.submit+collect", op):
                    outcome = await _one_job(self.clients[op % len(self.clients)], spec)
            except CALL_ERRORS:
                window.failed += 1
                window.slo_misses += 1
                return
            took = loop.time() - due
            result = outcome.results[0]
            window.latencies.append(took)
            window.first_frames.append(outcome.first_frame_seconds or 0.0)
            window.slo_misses += int(took * 1e3 > SLO_MS)
            window.queries += 1
            window.paths += result.count
            window.cache_hits += int(result.bfs_cache_hit)
            if inputs.expected and result.count != inputs.expected[op]:
                window.failed += 1

        await asyncio.gather(*(
            fire(op, spec, start + offset)
            for op, ((_, spec), offset) in enumerate(zip(inputs.steps, inputs.arrivals))
        ))
        window.wall = loop.time() - start

    def warm(self, inputs: Inputs) -> None:
        self._closed(inputs.steps, None, Window(), [])
        self._closed(inputs.twins, None, Window(), [])

    def window(self, inputs: Inputs, tracer: Tracer) -> Window:
        window = Window()
        cpu = time.process_time()
        self.loop.run_until_complete(self._open_pass(inputs, tracer, window))
        window.cpu = time.process_time() - cpu
        self._closed(inputs.twins, inputs.expected_twins, window, window.responses)
        return window

    def verify(self, inputs: Inputs, graph) -> Tuple[int, int]:
        attempted = failed = 0
        with Database(graph) as reference:
            for steps, counts in ((inputs.steps, inputs.expected), (inputs.twins, inputs.expected_twins)):
                want = reference.batch([spec for _, spec in steps]).results()
                counts[:] = [r.count for r in want]
                got = self._closed(steps, None, Window(), [])  # a failed job is a ``None``
                attempted += len(steps)
                failed += harness.count_mismatches(want, got)
        return attempted, failed

    # -- traced-run probes --------------------------------------------- #
    def saturation_qps(self, inputs: Inputs, seconds: float = 1.0) -> float:
        """Back-to-back single-query jobs on every connection: the ceiling."""
        specs = [spec for _, spec in inputs.steps]

        async def burst(client: QueryClient, offset: int, until: float) -> int:
            done = 0
            while time.perf_counter() < until:
                await _one_job(client, specs[(offset + done) % len(specs)])
                done += 1
            return done

        async def run() -> float:
            began = time.perf_counter()
            done = await asyncio.gather(*(
                burst(client, i * 7, began + seconds) for i, client in enumerate(self.clients)
            ))
            return sum(done) / (time.perf_counter() - began)

        return self.loop.run_until_complete(run())

    def probes(self, graph, inputs: Inputs, before: Window, traced: List[Window]) -> Dict[str, float]:
        return {
            **_served_probes(self.port, traced),
            "server.client.first_frame_ms": 1e3 * harness.median([s for w in traced for s in w.first_frames]),
            "server.client.lag_p95_ms": 1e3 * harness.percentile([s for w in traced for s in w.lags], 95),
            "server.client.slo_miss_share": sum(w.slo_misses for w in traced) / (len(inputs.steps) * len(traced)),
            "server.client.saturation_qps": self.saturation_qps(inputs),
        }


async def _one_job(client: QueryClient, spec: QuerySpec):
    """Submit one single-query job and collect it; raises unless it is done."""
    job = await client.submit([list(spec.triple)], store_paths=True, result_limit=spec.limit)
    outcome = await client.collect(job)
    if outcome.status != "done" or len(outcome.results) != 1:
        raise RuntimeError(f"job ended {outcome.status}: {outcome.info.get('error')}")
    return outcome


async def _closed_pass(client: QueryClient, steps, expected, window: Window, samples: List[float]):
    """One connection, one job at a time: twins, warm-up, verification.

    Returns the ``RemoteResult`` per step (``None`` where the job failed).
    """
    results = []
    for op, (_, spec) in enumerate(steps):
        window.attempted += 1
        began = time.perf_counter()
        try:
            outcome = await _one_job(client, spec)
        except CALL_ERRORS:
            window.failed += 1
            results.append(None)
            continue
        samples.append(time.perf_counter() - began)
        results.append(outcome.results[0])
        if expected and outcome.results[0].count != expected[op]:
            window.failed += 1
    return results


class RoutedOpen(ServedOpen):
    """The ``served-open`` stream through ``repro route`` over two shards."""

    name = "routed-open"

    def boot(self) -> int:
        shards = [
            harness.serve(self.dataset, 1, f"{self.name}-shard{i}", shard_id=i) for i in range(2)
        ]
        self.servers.extend(shards)
        router = harness.route([shard.port for shard in shards], f"{self.name}-router")
        self.servers.append(router)
        return router.port

    def router_overhead_ms(self, inputs: Inputs) -> float:
        """The same jobs through the router and straight to one shard (every
        shard is a full replica): the difference of the median latencies."""
        steps = inputs.steps[:40]
        routed: List[float] = []
        direct: List[float] = []
        self._closed(steps, None, Window(), routed)
        _with_client(
            self.servers[0].port,
            lambda client: _closed_pass(client, steps, None, Window(), direct),
        )
        return 1e3 * (harness.median(routed) - harness.median(direct))

    def probes(self, graph, inputs: Inputs, before: Window, traced: List[Window]) -> Dict[str, float]:
        metrics = super().probes(graph, inputs, before, traced)  # the router answers stats too
        stats = self.loop.run_until_complete(self.clients[0].stats())
        metrics.update({
            "server.router.overhead_ms": self.router_overhead_ms(inputs),
            "server.router.retries": float(stats.get("failovers", 0)),
            "server.router.hedges": float(stats.get("hedges_fired", 0)),
        })
        shards = [_service_counters(shard.port) for shard in self.servers[:2]]
        metrics.update({name: sum(shard[name] for shard in shards) for name in shards[0]})
        return metrics


WORKLOADS = {
    cls.name: cls
    for cls in (InlineCheap, InlineHeavy, BatchProcs, ServedOpen, ServedHeavy, LiveMixed, RoutedOpen)
}
