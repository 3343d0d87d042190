"""Keeps the benchmark itself from rotting: ``python -m pytest benchmarks/e2e -q``.

Runs every workload in ``--smoke`` mode (one 1 s window, verification still
on), untraced and traced, through the same command line the driver uses, and
checks the output contract.  Not collected by the tier-1 suite (``testpaths``
is ``tests``).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).with_name("run.py")
ROOT = RUN.parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: All seven, not only the ones ``BENCHMARK.json`` gates on.
WORKLOADS = sorted(json.loads(RUN.with_name("frozen.json").read_text())["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke(workload, trace):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
         "--smoke", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(line["metrics"]) == {entry["name"] for entry in expected}
    for entry in expected:
        metric = line["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0, entry["name"]


def test_compare_flags_a_regression(tmp_path):
    def report(latency):
        metrics = {
            entry["name"]: {"value": 10.0, "q1": 9.9, "q3": 10.1, "unit": entry["unit"]}
            for entry in SPEC["end_to_end"]
        }
        metrics["query_p50_ms"]["value"] = latency
        workloads = {
            entry["name"]: {"correct": True, "failed": 0, "problems": [], "metrics": metrics}
            for entry in SPEC["workloads"]
        }
        return json.dumps({"workloads": workloads})

    bound = next(e["bound"] for e in SPEC["end_to_end"] if e["name"] == "query_p50_ms")
    (tmp_path / "a.json").write_text(report(10.0))
    (tmp_path / "same.json").write_text(report(10.0 * (1 + bound / 2)))
    (tmp_path / "slow.json").write_text(report(10.0 * (1 + 2 * bound)))

    def compare(other):
        return subprocess.run(
            [sys.executable, str(RUN), "--compare", str(tmp_path / "a.json"), str(tmp_path / other)],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )

    assert compare("same.json").returncode == 0
    slow = compare("slow.json")
    assert slow.returncode == 1 and "worse" in slow.stdout
