"""Shared fixtures for the tests of ``benchmarks/paper.py``: a small, fast workload.

The driver is a script, not a package module; its directory goes on
``sys.path`` so the tests can ``import paper``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.core.listener import RunConfig
from repro.graph.generators import power_law_graph
from repro.workloads.queries import QuerySetting, generate_query_set

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))


@pytest.fixture(scope="package")
def bench_graph():
    """A small skewed graph so every projection test completes quickly."""
    return power_law_graph(250, 5.0, exponent=2.1, seed=99)


@pytest.fixture(scope="package")
def bench_workload(bench_graph):
    return generate_query_set(
        bench_graph,
        count=4,
        k=4,
        setting=QuerySetting.HIGH_HIGH,
        seed=0,
        graph_name="bench",
    )


@pytest.fixture(scope="package")
def bench_config():
    return RunConfig(time_limit_seconds=1.0, response_k=10, store_paths=False)
