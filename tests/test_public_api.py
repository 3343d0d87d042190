"""The top-level ``repro`` namespace, pinned: adding or removing a name is deliberate."""

from __future__ import annotations

import repro

PUBLIC_NAMES = {
    "__version__",
    # the façade
    "Database", "Q", "QuerySpec", "ResultStream", "StreamStats", "BACKEND_CHOICES",
    # graphs
    "DiGraph", "GraphBuilder", "read_edge_list",
    # queries, algorithms and results
    "Query", "QueryResult", "RunConfig", "PathEnum", "IdxDfs", "IdxJoin",
    "LightWeightIndex",
    # constraints
    "PredicateConstraint", "AccumulativeConstraint", "AutomatonConstraint",
    "SequenceAutomaton", "ReproError",
}


def test_all_is_pinned():
    assert len(repro.__all__) == len(set(repro.__all__)) == 22
    assert set(repro.__all__) == PUBLIC_NAMES


def test_every_exported_name_resolves():
    for name in repro.__all__:
        assert getattr(repro, name) is not None

