"""``run.py --compare A B``: apply each metric's bound and direction.

``A`` is the baseline (the parent commit), ``B`` the candidate.  Each side is
one report written by ``run.py --out`` or several separated by commas
(``a1.json,a2.json,a3.json``); with several, a metric's value is the median
over the reports, which is how the driver compares two commits and the only
comparison this noisy a machine supports.  One row per (workload, end-to-end
metric): *better* / *worse* when the two values differ by more than the
metric's bound in that direction, *unresolved* when they do not but either
side's own uncertainty is wider than the bound (the runs cannot tell),
*within bound* otherwise.  The uncertainty of a side is the distance between
the quartiles of its reports' values as a share of their median; of a single
report, that of its windows over the root of their number.  Exit code 1 on
any *worse*.
"""

from __future__ import annotations

import json
import math
import statistics
from typing import Dict, List, Optional


def _load(paths: str) -> List[Dict[str, object]]:
    reports = []
    for path in paths.split(","):
        with open(path, encoding="utf-8") as handle:
            reports.append(json.load(handle)["workloads"])
    return reports


def _side(reports: List[Dict[str, object]], workload: str, metric: str) -> Optional[Dict[str, float]]:
    """``{"value", "spread"}`` of one metric over one side's reports."""
    entries = [
        report[workload]["metrics"][metric]
        for report in reports
        if workload in report and metric in report[workload]["metrics"]
    ]
    if not entries:
        return None  # a traced report carries no end-to-end metrics
    values = [entry["value"] for entry in entries]
    value = statistics.median(values)
    if len(values) >= 3:
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(value)
    else:
        entry = entries[0]
        spread = abs(entry.get("q3", value) - entry.get("q1", value)) / abs(value)
        spread /= math.sqrt(entry.get("windows", 1))
    return {"value": value, "spread": spread}


def verdict(base: Dict[str, float], candidate: Dict[str, float], better: str, bound: float) -> str:
    change = (candidate["value"] - base["value"]) / abs(base["value"])
    worsening = change if better == "lower" else -change
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    if max(base["spread"], candidate["spread"]) > bound:
        return "unresolved"
    return "within bound"


def compare_reports(paths_a: str, paths_b: str, spec: Dict[str, object]) -> int:
    a, b = _load(paths_a), _load(paths_b)
    print(f"A: {len(a)} report(s), B: {len(b)} report(s)")
    print(f"{'workload':14} {'metric':18} {'A':>14} {'B':>14} {'change':>8} {'bound':>6}  verdict")
    worse = 0
    for name in dict.fromkeys(name for report in a for name in report):
        for metric in spec["end_to_end"]:
            key = metric["name"]
            base, candidate = _side(a, name, key), _side(b, name, key)
            if base is None or candidate is None:
                continue
            row = verdict(base, candidate, metric["better"], metric["bound"])
            worse += row == "worse"
            change = (candidate["value"] - base["value"]) / abs(base["value"])
            print(
                f"{name:14} {key:18} {base['value']:14.4f} {candidate['value']:14.4f} "
                f"{change:+8.1%} {metric['bound']:6.2f}  {row}"
            )
        for side, reports in (("A", a), ("B", b)):
            for report in reports:
                if name in report and not report[name]["correct"]:
                    print(
                        f"{name:14} a report of {side} was not correct: "
                        f"{report[name]['failed']} failed, {report[name]['problems']}"
                    )
                    worse += 1
    return 1 if worse else 0
