"""Native engine benchmark: compiled enumeration vs the kernels.

Two claims are checked, then measured:

1. **Byte-identical results.**  Every workload is evaluated three ways —
   recursive reference engines, iterative array kernels, and the native
   engine — and the per-query path list (order included) plus every work
   counter (edges accessed, partials generated/rejected, results emitted)
   must be identical across all three.
2. **>= 3x enumeration speedup.**  On enumeration-heavy workloads (dense
   random digraphs and cliques where a single query yields 10^4..10^6
   paths), the native engine must run the enumeration phase at least three
   times faster than the iterative kernels.

The native engine runs the inner loops in C (built with ``cc`` on first
use).  Without the library (no compiler, or ``REPRO_NATIVE=off``),
``engine="native"`` *is* the kernel, so the speedup is ~1x and the
speedup gate cannot pass there; the equivalence sweep still runs.  The
result file records which tier ran.

``--quick`` is the CI smoke mode: a scaled-down tracked workload, the full
equivalence sweep, and a regression gate — divergence, or an enumeration
speedup more than 20 % below the committed baseline
(``results/BENCH_native.json``), fails the run.

Run directly:  ``PYTHONPATH=src python benchmarks/bench_native.py [--quick]``
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.core.engine import IdxDfs, IdxJoin, PathEnum, QuerySession
from repro.core.listener import RunConfig
from repro.core.native import jit_ready, warmup
from repro.core.query import Query
from repro.core.result import Phase
from repro.graph.generators import complete_graph, erdos_renyi

RESULTS_DIR = Path(__file__).parent / "results"
RESULT_FILE = RESULTS_DIR / "BENCH_native.json"

#: Repetitions per (workload, engine) measurement; the minimum is reported.
#: The native/kernel gap is measured on a noisy shared machine, so each rep
#: collects garbage first and the best of N carries the claim.
REPEATS = 5

#: The committed headline claim: the native engine at least this much
#: faster than the iterative kernels on the tracked workloads.
REQUIRED_SPEEDUP = 3.0

#: Quick mode tolerates this much regression against the committed baseline
#: before failing the build.
QUICK_REGRESSION_TOLERANCE = 0.8

#: Work counters that must match bit-for-bit across engines.
COUNTERS = (
    "edges_accessed",
    "partial_results_generated",
    "invalid_partial_results",
    "results_emitted",
)


def _graph(spec: Dict) -> object:
    kind = spec["kind"]
    if kind == "erdos_renyi":
        return erdos_renyi(spec["n"], spec["avg_out_degree"], seed=spec["seed"])
    if kind == "complete":
        return complete_graph(spec["n"])
    raise ValueError(f"unknown graph kind {kind!r}")


#: Enumeration-heavy single queries, larger than the kernel benchmark's
#: rows: the native engine's per-path cost is a few C instructions against
#: the kernels' interpreted loop, so its advantage (and the timing
#: stability) grows with result count.
WORKLOADS = [
    {
        "name": "clique18-k6",
        "graph": {"kind": "complete", "n": 18},
        "query": (0, 17, 6),
        "tracked": True,
    },
    {
        "name": "er1000-deg30-k5",
        "graph": {"kind": "erdos_renyi", "n": 1000, "avg_out_degree": 30.0, "seed": 5},
        "query": (0, 1, 5),
        "tracked": True,
    },
    {
        "name": "er400-deg25-k6",
        "graph": {"kind": "erdos_renyi", "n": 400, "avg_out_degree": 25.0, "seed": 9},
        "query": (0, 1, 6),
        "tracked": True,
    },
    {
        "name": "clique12-k8",
        "graph": {"kind": "complete", "n": 12},
        "query": (0, 11, 8),
        "tracked": True,
    },
]

#: Scaled-down tracked workload for the CI smoke gate.
QUICK_WORKLOAD = {
    "name": "quick-clique14-k6",
    "graph": {"kind": "complete", "n": 14},
    "query": (0, 13, 6),
    "tracked": True,
}


def _enum_seconds(result) -> float:
    return result.stats.phase(Phase.ENUMERATION) + result.stats.phase(Phase.JOIN)


def measure_workload(spec: Dict, repeats: int = REPEATS) -> Dict:
    """Measure native vs kernel for the DFS plan on one workload."""
    graph = _graph(spec["graph"])
    s, t, k = spec["query"]
    query = Query(s, t, k)
    algorithm = IdxDfs()
    timings: Dict[str, Dict[str, float]] = {}
    counts = {}
    for engine in ("kernel", "native"):
        config = RunConfig(store_paths=True, engine=engine)
        best_total = best_enum = float("inf")
        for _ in range(repeats):
            # Collect leftovers before the timed region so ambient garbage
            # from earlier measurements is not charged to whichever engine
            # happens to allocate next.
            gc.collect()
            started = time.perf_counter()
            result = algorithm.run(graph, query, config)
            total = time.perf_counter() - started
            best_total = min(best_total, total)
            best_enum = min(best_enum, _enum_seconds(result))
            counts[engine] = result.count
        timings[engine] = {"total": best_total, "enum": best_enum}
    assert counts["native"] == counts["kernel"]
    return {
        "workload": spec["name"],
        "graph": spec["graph"],
        "query": {"source": s, "target": t, "k": k},
        "paths": counts["native"],
        "tracked": bool(spec["tracked"]),
        "kernel_enum_ms": round(timings["kernel"]["enum"] * 1e3, 3),
        "native_enum_ms": round(timings["native"]["enum"] * 1e3, 3),
        "kernel_total_ms": round(timings["kernel"]["total"] * 1e3, 3),
        "native_total_ms": round(timings["native"]["total"] * 1e3, 3),
        "enum_speedup": round(
            timings["kernel"]["enum"] / max(timings["native"]["enum"], 1e-9), 3
        ),
        "total_speedup": round(
            timings["kernel"]["total"] / max(timings["native"]["total"], 1e-9), 3
        ),
    }


# --------------------------------------------------------------------- #
# equivalence across engines
# --------------------------------------------------------------------- #
def _equivalence_workload() -> tuple:
    graph = erdos_renyi(90, 10.0, seed=7)
    rng = np.random.default_rng(2021)
    queries = []
    while len(queries) < 14:
        s, t = (int(v) for v in rng.choice(graph.num_vertices, size=2, replace=False))
        queries.append(Query(s, t, int(rng.integers(3, 7))))
    return graph, queries


def check_equivalence() -> Dict[str, object]:
    """Evaluate one workload through every engine; paths and counters must match."""
    graph, queries = _equivalence_workload()

    def run_all(engine: str, algorithm) -> List:
        config = RunConfig(store_paths=True, engine=engine)
        session = QuerySession(graph, algorithm=algorithm)
        return [session.run(q, config) for q in queries]

    divergent: List[str] = []
    total_paths = 0
    for plan_name, make in (("path-enum", PathEnum), ("dfs", IdxDfs), ("join", IdxJoin)):
        reference = run_all("recursive", make())
        total_paths = sum(r.count for r in reference)
        for engine in ("kernel", "native"):
            got = run_all(engine, make())
            for ref, res in zip(reference, got):
                if (ref.count, ref.paths) != (res.count, res.paths):
                    divergent.append(f"{plan_name}/{engine}: paths")
                    break
                if any(
                    getattr(ref.stats, c) != getattr(res.stats, c) for c in COUNTERS
                ):
                    divergent.append(f"{plan_name}/{engine}: counters")
                    break
    return {
        "queries": len(queries),
        "total_paths": total_paths,
        "plans": ["path-enum", "dfs", "join"],
        "engines": ["recursive", "kernel", "native"],
        "counters": list(COUNTERS),
        "byte_identical": not divergent,
        "divergent": divergent,
    }


def _print_rows(rows: List[Dict]) -> None:
    header = f"{'workload':<18} {'paths':>8} {'kernel':>10} {'native':>10} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['workload']:<18} {row['paths']:>8} "
            f"{row['kernel_enum_ms']:>8.1f}ms {row['native_enum_ms']:>8.1f}ms "
            f"{row['enum_speedup']:>7.2f}x"
        )


def _baseline_quick_speedup() -> Optional[float]:
    if not RESULT_FILE.exists():
        return None
    try:
        committed = json.loads(RESULT_FILE.read_text())
        return float(committed["quick"]["row"]["enum_speedup"])
    except (KeyError, ValueError, TypeError):
        return None


def run_quick() -> int:
    print("equivalence sweep (recursive / kernel / native, 3 plans) ...")
    equivalence = check_equivalence()
    if not equivalence["byte_identical"]:
        print(f"FAIL: engines diverged from the recursive reference: "
              f"{equivalence['divergent']}")
        return 1
    print(f"byte-identical across {equivalence['engines']} "
          f"({equivalence['queries']} queries, {equivalence['total_paths']} paths)")

    row = measure_workload(QUICK_WORKLOAD, repeats=7)
    _print_rows([row])
    floor = 1.0
    baseline = _baseline_quick_speedup()
    if baseline is not None:
        floor = max(floor, baseline * QUICK_REGRESSION_TOLERANCE)
    if row["enum_speedup"] < floor:
        print(f"FAIL: native speedup {row['enum_speedup']:.2f}x below the "
              f"regression floor {floor:.2f}x")
        return 1
    print("native speedup within the regression budget")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: equivalence + regression gate, no result file",
    )
    args = parser.parse_args()
    compiled = warmup()  # builds/loads the C tier once, outside timing
    print(f"native tier: {'c-compiled' if compiled else 'kernel'}")
    if args.quick:
        return run_quick()

    print("equivalence sweep (recursive / kernel / native, 3 plans) ...")
    equivalence = check_equivalence()
    assert equivalence["byte_identical"], equivalence
    print(f"byte-identical across {equivalence['engines']} "
          f"({equivalence['queries']} queries, {equivalence['total_paths']} paths)")

    rows = [measure_workload(spec) for spec in WORKLOADS]
    _print_rows(rows)

    tracked = [row for row in rows if row["tracked"]]
    min_tracked = min(row["enum_speedup"] for row in tracked)
    if min_tracked < REQUIRED_SPEEDUP:
        print(f"WARNING: minimum tracked speedup {min_tracked:.2f}x "
              f"is below the {REQUIRED_SPEEDUP:.1f}x claim")

    quick_row = measure_workload(QUICK_WORKLOAD, repeats=7)

    payload = {
        "benchmark": "native_enumeration_engine",
        "claim": f">= {REQUIRED_SPEEDUP:.0f}x enumeration speedup over the "
                 "iterative kernels on tracked enumeration-heavy workloads, "
                 "byte-identical paths, order and counters",
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "native_tier": "c-compiled" if jit_ready() else "kernel",
        },
        "settings": {
            "repeats": REPEATS,
            "store_paths": True,
            "timing": "best-of-N enumeration phase (index build excluded), "
                      "gc.collect() before each rep; total includes the "
                      "identical index build",
        },
        "equivalence": equivalence,
        "workloads": rows,
        "summary": {
            "min_tracked_enum_speedup": min_tracked,
            "enum_speedups": [r["enum_speedup"] for r in rows],
            "meets_claim": min_tracked >= REQUIRED_SPEEDUP,
        },
        "quick": {
            "workload": QUICK_WORKLOAD["name"],
            "regression_tolerance": QUICK_REGRESSION_TOLERANCE,
            "row": quick_row,
        },
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    RESULT_FILE.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {RESULT_FILE}")
    print(f"minimum tracked enumeration speedup: {min_tracked:.2f}x "
          f"(claim: >= {REQUIRED_SPEEDUP:.0f}x)")
    return 0 if min_tracked >= REQUIRED_SPEEDUP else 1


if __name__ == "__main__":
    raise SystemExit(main())
