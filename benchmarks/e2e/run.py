#!/usr/bin/env python3
"""The repository's benchmark: one command, every metric by name.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--out FILE] [--smoke]
    python3 benchmarks/e2e/run.py --compare A.json B.json

Per workload: generate the seeded inputs, set up (graph, ``Database`` or
server processes, one warm-up pass), verify every op against a sequential
inline reference, then run timed windows for ``--seconds`` and report each
end-to-end metric as the median across windows.  ``--trace 1`` runs the
workload with spans and the per-layer probes instead and reports the
per-layer metrics.  The last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); the exit code is
non-zero when an op failed or differed from the reference, a process or
shared-memory segment outlived the run, or the frozen inputs changed.

Names, units, directions and bounds come from ``BENCHMARK.json`` at the
repository root; ``README.md`` beside this file is the glossary.  The
workloads ``BENCHMARK.json`` lists are the ones a change is gated on; the
others (``served-open``, ``routed-open``, ``live-mixed``) run through the same
command but are too noisy on a small shared machine to hold a bound.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import json
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent.parent / "src"))

import harness  # noqa: E402
import layers  # noqa: E402
from compare import compare_reports  # noqa: E402
from harness import Tracer, median, summarise  # noqa: E402
from workloads import WORKLOADS, Inputs, Window, Workload  # noqa: E402

from repro.workloads.datasets import load_dataset  # noqa: E402

SPEC = json.loads((harness.REPO_ROOT / "BENCHMARK.json").read_text())
FROZEN_PATH = BENCH_DIR / "frozen.json"
#: ``setup_s`` is the median of several set-ups: at least the first number,
#: more (up to the second) while they have taken less than the third in all,
#: because a 0.2 s set-up is noisier than a 2 s one.
SETUP_REPEATS = (5, 15, 5.0)


# --------------------------------------------------------------------- #
# measuring
# --------------------------------------------------------------------- #
def timed_windows(workload: Workload, inputs: Inputs, tracer: Tracer, seconds: float) -> List[Window]:
    """Full passes over the fixed op list until ``seconds`` have gone by."""
    windows: List[Window] = []
    began = time.perf_counter()
    while not windows or time.perf_counter() - began < seconds:
        gc.collect()  # between windows: inside one it would be charged to an op
        windows.append(workload.window(inputs, tracer))
    return windows


def end_to_end(windows: List[Window], setups: List[float], rss_mb: float) -> Dict[str, Dict[str, float]]:
    """Each metric is the median across windows of the per-window statistic."""
    def per_window(statistic) -> Dict[str, float]:
        return summarise([statistic(w) for w in windows])

    return {
        "setup_s": summarise(setups),
        "query_p50_ms": per_window(lambda w: 1e3 * median(w.latencies)),
        "queries_per_s": per_window(lambda w: w.queries / w.wall),
        "paths_per_s": per_window(lambda w: w.paths / w.wall),
        "response_p50_ms": per_window(lambda w: 1e3 * median(w.responses)),
        "peak_rss_mb": summarise([rss_mb]),
    }


def per_layer(
    workload: Workload, graph, inputs: Inputs, seed: int, seconds: float, verify_s: float
) -> Dict[str, float]:
    """The traced run: windows without and with spans, then the layer probes."""
    plain = timed_windows(workload, inputs, Tracer(False), 0.2 * seconds)
    tracer = Tracer(True)
    traced = timed_windows(workload, inputs, tracer, 0.2 * seconds)
    ops = sum(len(w.latencies) + len(w.updates) for w in traced)
    p50 = median([1e3 * median(w.latencies) for w in traced])
    plain_p50 = median([1e3 * median(w.latencies) for w in plain])

    metrics = {entry["name"]: 0.0 for entry in SPEC["per_layer"]}
    sample = layers.sample_of(inputs.triples(), seed)
    probes = layers.query_path(graph, sample, workload.cache_entries, tracer, 0.15 * seconds)
    outside_service_ms = probes.pop("_session_and_codec_ms")
    metrics.update(probes)
    metrics.update(layers.tiers(graph, sample, 0.15 * seconds))
    metrics["core.index.build_group_ms"] = layers.build_group(graph, sample)
    metrics.update(layers.stores(graph, sample))
    metrics.update({
        "core.engine.session_hit_rate": sum(w.cache_hits for w in traced) / max(1, sum(w.queries for w in traced)),
        "proc.cpu_ms_per_op": 1e3 * sum(w.cpu for w in traced) / ops,
        "harness.verify_s": verify_s,
        "trace.overhead_share": p50 / plain_p50 - 1.0,
    })

    metrics.update(workload.probes(graph, inputs, plain[-1], traced))
    if workload.servers:
        # Medians throughout: the means of the probes are pulled up by the
        # few largest results, the served p50 is not.
        metrics["server.service.residual_ms"] = (
            p50 - metrics["server.client.rtt_ms"] - median(outside_service_ms)
        )
    tracer.write(harness.WORK_DIR / f"trace-{workload.name}-{seed}.jsonl")
    return metrics


# --------------------------------------------------------------------- #
# one workload
# --------------------------------------------------------------------- #
def check_frozen(name: str, seed: int, digests: Dict[str, str]) -> None:
    """Seed 2021's inputs are pinned: a change to the generators, to
    ``graph/generators.py`` or to ``workloads/datasets.py`` must not change
    what is measured without anyone noticing."""
    frozen = json.loads(FROZEN_PATH.read_text())  # a missing file aborts too
    if seed != frozen["seed"]:
        return
    if frozen["workloads"].get(name) != digests:
        sys.exit(
            f"frozen inputs changed for {name} at seed {seed}: expected "
            f"{frozen['workloads'].get(name)}, got {digests}. If the change is meant, "
            "refresh frozen.json with --freeze in a change that touches only the benchmark."
        )


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool, freeze: bool) -> Dict[str, object]:
    # The build step of a pure-Python program: without it the first server
    # booted in a fresh checkout compiles its imports inside ``setup_s``.
    compileall.compile_dir(str(harness.SRC_DIR), quiet=1)
    workload = WORKLOADS[name]()
    graph = load_dataset(workload.dataset)
    inputs = workload.make_inputs(graph, seed)
    digests = {"graph": harness.graph_digest(graph), "inputs": harness.sha256_json(inputs.plain())}
    if not freeze:
        check_frozen(name, seed, digests)

    segments = harness.shm_segments()
    problems: List[str] = []
    least, most, enough = (1, 1, 0.0) if (trace or smoke) else SETUP_REPEATS
    setups: List[float] = []
    try:
        while len(setups) < least or (len(setups) < most and sum(setups) < enough):
            if setups:
                problems += workload.close()
            setups.append(workload.setup(inputs))
        began = time.perf_counter()
        attempted, failed = workload.verify(inputs, graph)
        verify_s = time.perf_counter() - began
        if trace:
            metrics = {
                key: {"value": value}
                for key, value in per_layer(workload, graph, inputs, seed, seconds, verify_s).items()
            }
            windows: List[Window] = []
        else:
            windows = timed_windows(workload, inputs, Tracer(False), seconds)
            metrics = end_to_end(windows, setups, harness.peak_rss_mb())
    finally:
        problems += workload.close()
        # Before the tracker goes: on its way out it unlinks what was leaked.
        leaked = harness.shm_segments() - segments
        harness.stop_resource_tracker()
    attempted += sum(w.attempted for w in windows)
    failed += sum(w.failed for w in windows)
    if leaked:
        problems.append(f"/dev/shm segments outlived the run: {sorted(leaked)}")
    leftover = harness.leftover_children()
    if leftover:
        problems.append(f"child processes outlived the run: {leftover}")

    units = {entry["name"]: entry["unit"] for entry in SPEC["end_to_end"] + SPEC["per_layer"]}
    for key, entry in metrics.items():
        entry["unit"] = units[key]
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digests": digests,
        "windows": len(windows),
        "samples": sum(len(w.latencies) for w in windows),
        "metrics": metrics,
    }


# --------------------------------------------------------------------- #
# reporting
# --------------------------------------------------------------------- #
def print_report(name: str, report: Dict[str, object]) -> None:
    print(
        f"\n{name}: {'correct' if report['correct'] else 'NOT CORRECT'}, "
        f"{report['failed']} of {report['attempted']} ops failed, "
        f"{report['windows']} windows, {report['samples']} latency samples"
    )
    for problem in report["problems"]:
        print(f"  problem: {problem}")
    print(f"  {'metric':42} {'unit':>6} {'value':>14} {'q1':>14} {'q3':>14}")
    for key, entry in report["metrics"].items():
        quartiles = (
            f"{entry['q1']:14.4f} {entry['q3']:14.4f}" if "q1" in entry else f"{'':14} {'':14}"
        )
        print(f"  {key:42} {entry['unit']:>6} {entry['value']:14.4f} {quartiles}")


def driver_line(report: Dict[str, object]) -> str:
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            key: {"value": entry["value"], "unit": entry["unit"]}
            for key, entry in report["metrics"].items()
        },
    })


def run_all(args) -> Dict[str, Dict[str, object]]:
    """Each workload in a process of its own, so that peak memory and the
    hygiene checks of one are not those of the ones before it."""
    reports: Dict[str, Dict[str, object]] = {}
    harness.WORK_DIR.mkdir(parents=True, exist_ok=True)
    for name in WORKLOADS:
        out = harness.WORK_DIR / f"report-{name}.json"
        out.unlink(missing_ok=True)
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", str(out),
        ] + (["--smoke"] if args.smoke else []) + (["--freeze"] if args.freeze else [])
        done = subprocess.run(command, stdout=subprocess.DEVNULL)
        if not out.exists():
            sys.exit(f"workload {name} ended with code {done.returncode} and no report")
        reports[name] = json.loads(out.read_text())["workloads"][name]
    return reports


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", help="write the full report (quartiles, digests, environment) here")
    parser.add_argument("--smoke", action="store_true", help="one 1 s window, verification still on")
    parser.add_argument("--freeze", action="store_true", help="rewrite frozen.json from this run's inputs")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare_reports(*args.compare, SPEC)
    if args.smoke:
        args.seconds = 1.0
    # A terminated run must still stop the servers it booted: turn the
    # signal into an exception so that every ``finally`` runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    environment = harness.environment()
    if environment["overloaded"]:
        print(
            f"warning: 1-min load average {environment['load_avg_1m']} exceeds the "
            f"{environment['cpu_count']} cores; timings will be noisy", file=sys.stderr,
        )
    if args.workload:
        reports = {args.workload: run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, args.freeze
        )}
    else:
        reports = run_all(args)

    print(f"environment: {json.dumps(environment)}")
    for name, report in reports.items():
        print_report(name, report)
    document = {
        "environment": environment, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "workloads": reports,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    if args.freeze and args.workload:  # run_all's children each froze their own
        frozen = json.loads(FROZEN_PATH.read_text()) if FROZEN_PATH.exists() else {"workloads": {}}
        frozen["seed"] = args.seed
        frozen["workloads"].update({name: report["digests"] for name, report in reports.items()})
        FROZEN_PATH.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
    if args.workload:
        print(driver_line(reports[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in reports.values()),
            "attempted": sum(r["attempted"] for r in reports.values()),
            "failed": sum(r["failed"] for r in reports.values()),
            "metrics": {
                f"{name}/{key}": {"value": entry["value"], "unit": entry["unit"]}
                for name, report in reports.items() for key, entry in report["metrics"].items()
            },
        }))
    return 0 if all(report["correct"] for report in reports.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
