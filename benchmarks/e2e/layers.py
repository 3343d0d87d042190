"""Per-layer probes of a traced run: each layer's public functions, timed
from outside.

A layer is a module of ``src/repro`` and a metric is named after it.  The
probes replay a seeded sample of the workload's own queries through the
layers one call at a time — reverse BFS, forward BFS, index build, plan
choice, enumeration — inside spans, so the span file shows each layer's
self time per op; the remaining probes time what happens to a finished
result (tuple materialisation, pickling for IPC, rendering and the JSON
codec for the wire) and the storage back ends.  Spans inside ``src/`` are a
later change; nothing here edits the program.
"""

from __future__ import annotations

import pickle
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.api import Database, QuerySpec
from repro.core.dfs import run_idx_dfs
from repro.core.engine import QuerySession
from repro.core.index import LightWeightIndex
from repro.core.join import run_idx_join
from repro.core.kernels import run_dfs_kernel, run_join_kernel
from repro.core.listener import RunConfig
from repro.core.native import jit_ready, run_dfs_native, run_join_native
from repro.core.optimizer import choose_plan
from repro.core.query import Query
from repro.core.result import EnumerationStats
from repro.graph.snapshot import load_snapshot, save_snapshot
from repro.graph.traversal import bfs_distances_bounded
from repro.server.protocol import decode_frame, encode_frame, render_result_paths

import harness
from harness import Tracer

Triple = Tuple[int, int, int]

#: Ops of the seeded sample every mean is taken over (all ops when fewer).
SAMPLE_OPS = 40
#: ``core.engine.auto_tier`` values.
TIER_CODES = {"recursive": 0.0, "kernel": 1.0, "native": 2.0}

_TIERS = {
    "kernels": (run_dfs_kernel, run_join_kernel),
    "native": (run_dfs_native, run_join_native),
    "recursive": (run_idx_dfs, run_idx_join),
}


def sample_of(triples: Sequence[Triple], seed: int) -> List[Triple]:
    if len(triples) <= SAMPLE_OPS:
        return list(triples)
    rng = np.random.default_rng([seed, 40])
    picked = np.sort(rng.choice(len(triples), size=SAMPLE_OPS, replace=False))
    return [triples[i] for i in picked]


def _mean(values: Sequence[float]) -> float:
    return float(sum(values) / len(values)) if values else 0.0


def _enumerate(tier: str, index, plan, stats) -> Tuple[float, object]:
    """Run one tier's enumeration of a planned query; ``(seconds, collector)``."""
    dfs, join = _TIERS[tier]
    collector = RunConfig().make_collector()
    began = time.perf_counter()
    if plan.kind == "join":
        join(index, plan.cut_position, collector, stats=stats)
    else:
        dfs(index, collector, stats=stats)
    return time.perf_counter() - began, collector


class _Replay:
    """One query at a time through traversal → index → optimizer → kernels.

    Every call into a layer is one span under the op's ``replay`` span, and
    the layer times reported are those spans' self times.  The distances are
    injected into ``LightWeightIndex.build`` so that its span is the index's
    own work.  The reverse sweep is the session's (not restricted around the
    source), the forward sweep the builder's.
    """

    def __init__(self, graph, tracer: Tracer) -> None:
        self.graph = graph
        self.tracer = tracer
        self.edges: List[int] = []
        self.nbytes: List[int] = []
        self.q_errors: List[float] = []
        self.ops = self.paths = self.accessed = self.partial = self.invalid = self.joins = 0

    def run(self, op: int, s: int, t: int, k: int) -> None:
        graph, span = self.graph, self.tracer.span
        stats = EnumerationStats()
        with span("replay", op):
            with span("graph.traversal.reverse_bfs", op):
                to_t = bfs_distances_bounded(graph, t, cutoff=k, reverse=True)
            with span("graph.traversal.forward_bfs", op):
                from_s = bfs_distances_bounded(graph, s, cutoff=k, no_expand=t)
            with span("core.index.build", op):
                index = LightWeightIndex.build(graph, Query(s, t, k), dist_to_t=to_t, dist_from_s=from_s)
            with span("core.optimizer.choose_plan", op):
                plan = choose_plan(index, stats=stats)
            with span("core.kernels.enumerate", op):
                collector = _enumerate("kernels", index, plan, stats)[1]
                collector.stored_paths()
        self.ops += 1
        self.edges.append(index.num_index_edges)
        self.nbytes.append(index.estimated_bytes())
        self.paths += collector.count
        self.accessed += stats.edges_accessed
        self.partial += stats.partial_results_generated
        self.invalid += stats.invalid_partial_results
        self.joins += plan.kind == "join"
        if plan.used_full_estimator and collector.count:
            self.q_errors.append(stats.full_estimate / collector.count)

    def metrics(self) -> Dict[str, float]:
        own = self.tracer.mean_self_ms
        enum_ms = own("core.kernels.enumerate")
        return {
            "graph.traversal.reverse_bfs_ms": own("graph.traversal.reverse_bfs"),
            "graph.traversal.forward_bfs_ms": own("graph.traversal.forward_bfs"),
            "core.index.build_ms": own("core.index.build"),
            "core.index.edges": _mean(self.edges),
            "core.index.bytes": _mean(self.nbytes),
            "core.optimizer.plan_ms": own("core.optimizer.choose_plan"),
            "core.optimizer.join_plan_share": self.joins / self.ops,
            "core.optimizer.q_error_p50": harness.median(self.q_errors) if self.q_errors else 0.0,
            "core.kernels.enum_ms": enum_ms,
            "core.kernels.paths_per_s": self.paths / (self.ops * enum_ms / 1e3) if enum_ms else 0.0,
            "core.kernels.edges_accessed": self.accessed / self.ops,
            "core.kernels.invalid_partial_share": self.invalid / self.partial if self.partial else 0.0,
        }


def query_path(
    graph, sample: Sequence[Triple], cache_entries: int, tracer: Tracer, budget: float
) -> Dict[str, object]:
    """Each sampled query three ways, then its result through the codecs.

    The layer-by-layer replay, ``QuerySession.run`` and ``Database.query``
    run back to back on each op and take turns going first, so that the
    machine's drift and a warm allocator favour none of them; session and
    facade both start cold with the workload's cache size, so each sees a
    ``(target, k)`` key for the first time on the same op.  The facade's
    result then goes through tuples (``QueryResult.paths``), pickle (the IPC
    of the process backend) and render + JSON encode + decode (the wire of
    ``repro serve``) and is dropped before the next query runs, as the
    workloads drop theirs.  A million-path result takes a second through
    JSON, so the codecs stop after the result that exhausts ``budget``
    seconds (three at least).
    """
    replay = _Replay(graph, tracer)
    session = QuerySession(graph, max_cached=cache_entries)
    rows: Dict[str, List[float]] = {name: [] for name in (
        "replay", "session", "api", "materialize", "pickle", "pickle_bytes",
        "render", "encode", "decode", "wire_bytes", "paths",
    )}
    ways = ("replay", "session", "api")
    spent = 0.0
    with Database(graph, max_cached=cache_entries) as db:
        for op, (s, t, k) in enumerate(sample):
            spec = QuerySpec(s, t, k)
            for turn in range(3):
                way = ways[(op + turn) % 3]
                began = time.perf_counter()
                if way == "replay":
                    replay.run(op, s, t, k)
                elif way == "session":
                    session.run(Query(s, t, k), RunConfig())
                else:
                    result = db.query(spec).results()[0]
                rows[way].append(1e3 * (time.perf_counter() - began))
            if op < 3 or spent < budget:
                began = time.perf_counter()
                _codecs(result, op, rows)
                spent += time.perf_counter() - began
            del result
    paths = sum(rows["paths"])
    return {
        **replay.metrics(),
        "core.engine.session_run_ms": _mean(rows["session"]),
        "api.overhead_ms": harness.median([a - b for a, b in zip(rows["api"], rows["session"])]),
        "core.result.materialize_ms": _mean(rows["materialize"]),
        "core.result.pickle_ms": _mean(rows["pickle"]),
        "core.result.pickle_bytes_per_path": sum(rows["pickle_bytes"]) / paths if paths else 0.0,
        "server.protocol.render_ms": _mean(rows["render"]),
        "server.protocol.encode_ms": _mean(rows["encode"]),
        "server.protocol.decode_ms": _mean(rows["decode"]),
        "server.protocol.bytes_per_path": sum(rows["wire_bytes"]) / paths if paths else 0.0,
        "trace.replay_coverage": harness.median([r / a for r, a in zip(rows["replay"], rows["api"])]),
        # Per op: what a served query costs outside the service itself.
        "_session_and_codec_ms": [
            a + b + c + d for a, b, c, d in
            zip(rows["session"], rows["render"], rows["encode"], rows["decode"])
        ],
    }


def tiers(graph, sample: Sequence[Triple], budget: float) -> Dict[str, float]:
    """The three enumeration tiers on the same leading ops of the sample.

    Heavy queries cost a second per tier, so the comparison stops after the
    op that exhausts ``budget`` (three ops at least);
    ``core.kernels.tier_enum_ms`` is the kernel tier on exactly those ops.
    """
    seconds: Dict[str, List[float]] = {tier: [] for tier in _TIERS}
    began = time.perf_counter()
    for done, (s, t, k) in enumerate(sample):
        if done >= 3 and time.perf_counter() - began > budget:
            break
        for tier in _TIERS:
            index = LightWeightIndex.build(graph, Query(s, t, k))
            plan = choose_plan(index)
            seconds[tier].append(_enumerate(tier, index, plan, EnumerationStats())[0])
    return {
        "core.kernels.tier_enum_ms": 1e3 * _mean(seconds["kernels"]),
        "core.native.enum_ms": 1e3 * _mean(seconds["native"]),
        "core.recursive.enum_ms": 1e3 * _mean(seconds["recursive"]),
        "core.engine.auto_tier": TIER_CODES["native" if jit_ready() else "kernel"],
    }


def build_group(graph, sample: Sequence[Triple]) -> float:
    """``LightWeightIndex.build_group`` per query, over the sample's
    target-sharing groups (the process executor's fused build)."""
    groups: Dict[Tuple[int, int], List[Query]] = {}
    for s, t, k in sample:
        groups.setdefault((t, k), []).append(Query(s, t, k))
    seconds = 0.0
    for (t, k), queries in groups.items():
        to_t = bfs_distances_bounded(graph, t, cutoff=k, reverse=True)
        from_s = np.stack([
            bfs_distances_bounded(graph, q.source, cutoff=k, no_expand=t) for q in queries
        ])
        began = time.perf_counter()
        LightWeightIndex.build_group(graph, queries, dist_from_s_rows=from_s, dist_to_t=to_t)
        seconds += time.perf_counter() - began
    return 1e3 * seconds / len(sample)


def _codecs(result, position: int, rows: Dict[str, List[float]]) -> None:
    """Time one result through pickle, the wire codec and tuple materialisation."""
    def lap(name: str, began: float) -> None:
        rows[name].append(1e3 * (time.perf_counter() - began))

    rows["paths"].append(result.count)
    began = time.perf_counter()
    blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    pickle.loads(blob)
    lap("pickle", began)
    rows["pickle_bytes"].append(len(blob))

    began = time.perf_counter()
    rendered = render_result_paths(result)
    lap("render", began)
    frame = {
        "type": "result", "id": "c1", "position": position,
        "source": result.source, "target": result.target, "k": result.k,
        "count": result.count, "query_ms": round(result.query_millis, 3),
        "plan": result.stats.plan, "timed_out": result.stats.timed_out,
        "bfs_cache_hit": result.stats.bfs_cache_hit, "paths": rendered,
    }
    began = time.perf_counter()
    wire = encode_frame(frame)
    lap("encode", began)
    rows["wire_bytes"].append(len(wire))
    began = time.perf_counter()
    decoded = decode_frame(wire[4:])
    [tuple(path) for path in decoded["paths"]]  # what QueryClient.collect does
    lap("decode", began)

    began = time.perf_counter()
    result.paths  # last: it caches the tuples on the result
    lap("materialize", began)


def stores(graph, sample: Sequence[Triple]) -> Dict[str, float]:
    """Snapshot once per codec, attach per store, one reverse sweep each."""
    harness.WORK_DIR.mkdir(parents=True, exist_ok=True)
    files = {
        "raw": save_snapshot(graph, harness.WORK_DIR / "probe-raw.rsnap", codec="raw"),
        "compressed": save_snapshot(
            graph, harness.WORK_DIR / "probe-compressed.rsnap", codec="compressed"
        ),
    }
    metrics: Dict[str, float] = {}
    targets = [(t, k) for _, t, k in sample[:10]]
    try:
        for store, codec in (("heap", "raw"), ("mmap", "raw"), ("compressed", "compressed")):
            attach: List[float] = []
            for _ in range(5):
                began = time.perf_counter()
                attached = load_snapshot(files[codec], store=store)
                attach.append(time.perf_counter() - began)
                if len(attach) < 5:
                    attached.close_store()
            metrics[f"graph.store.attach_ms.{store}"] = 1e3 * harness.median(attach)
            if store != "heap":
                usage = attached.memory_usage()
                metrics[f"graph.store.bytes_per_edge.{store}"] = (
                    usage["total_bytes"] / graph.num_edges
                )
                began = time.perf_counter()
                for t, k in targets:
                    bfs_distances_bounded(attached, t, cutoff=k, reverse=True)
                metrics[f"graph.store.reverse_bfs_ms.{store}"] = (
                    1e3 * (time.perf_counter() - began) / len(targets)
                )
            attached.close_store()
    finally:
        for path in files.values():
            path.unlink(missing_ok=True)
    return metrics
