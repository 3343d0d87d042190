"""End-to-end scenarios mirroring the paper's motivating applications."""

from __future__ import annotations

import pytest

from repro.core.constraints import (
    AccumulativeConstraint,
    AutomatonConstraint,
    PredicateConstraint,
    SequenceAutomaton,
)
from repro.api import Database, Q
from repro.core.engine import PathEnum
from repro.core.listener import RunConfig
from repro.core.query import Query
from repro.graph.builder import GraphBuilder


def _external_paths(graph, source, target, k):
    """Every path of at most ``k`` hops from ``source`` to ``target``, in external ids."""
    with Database(graph) as db:
        result = db.query(Q(source, target, k), external=True).result()
    return [graph.translate_path(p) for p in result.paths]


@pytest.fixture()
def transaction_graph():
    """A toy bank-transaction graph: accounts as vertices, transfers as edges.

    Edge weights are risk scores; labels are transfer channels.
    """
    builder = GraphBuilder()
    transfers = [
        ("source_acct", "mule_1", 0.9, "wire"),
        ("source_acct", "shop", 0.1, "card"),
        ("mule_1", "mule_2", 0.8, "wire"),
        ("mule_2", "dest_acct", 0.9, "wire"),
        ("mule_1", "dest_acct", 0.7, "crypto"),
        ("shop", "dest_acct", 0.1, "card"),
        ("dest_acct", "source_acct", 0.2, "refund"),
        ("shop", "mule_2", 0.3, "card"),
    ]
    for src, dst, risk, channel in transfers:
        builder.add_edge(src, dst, weight=risk, label=channel)
    return builder.build()


class TestMoneyLaunderingScenario:
    """Application 1: short high-risk flows between two target accounts."""

    def test_all_short_flows_are_found(self, transaction_graph):
        paths = _external_paths(transaction_graph, "source_acct", "dest_acct", 3)
        assert ("source_acct", "mule_1", "dest_acct") in paths
        assert ("source_acct", "mule_1", "mule_2", "dest_acct") in paths
        assert ("source_acct", "shop", "dest_acct") in paths

    def test_risk_threshold_filters_benign_flows(self, transaction_graph):
        query = Query.from_external(transaction_graph, "source_acct", "dest_acct", 3)
        constraint = AccumulativeConstraint(
            transaction_graph, accept=lambda total_risk: total_risk >= 1.5
        )
        result = PathEnum().run(transaction_graph, query, RunConfig(constraint=constraint))
        named = {transaction_graph.translate_path(p) for p in result.paths}
        assert ("source_acct", "shop", "dest_acct") not in named
        assert ("source_acct", "mule_1", "mule_2", "dest_acct") in named

    def test_channel_predicate(self, transaction_graph):
        query = Query.from_external(transaction_graph, "source_acct", "dest_acct", 3)
        constraint = PredicateConstraint(
            lambda u, v, weight, label: label == "wire", transaction_graph
        )
        result = PathEnum().run(transaction_graph, query, RunConfig(constraint=constraint))
        named = {transaction_graph.translate_path(p) for p in result.paths}
        assert named == {("source_acct", "mule_1", "mule_2", "dest_acct")}


class TestFraudCycleScenario:
    """Application 2: cycles triggered by a new edge in a dynamic transaction graph."""

    def test_new_edge_triggers_cycle_query(self, transaction_graph):
        with Database(transaction_graph) as db:
            # A new refund edge closes cycles through dest_acct -> mule_1.
            report = db.insert_edges([("dest_acct", "mule_1")], external=True)
            assert report["added"] == 1
            # Cycles of length <= 4 through the new edge (v, v') are the paths
            # q(v', v, k - 1) = q(mule_1, dest_acct, 3).
            result = db.query(Q("mule_1", "dest_acct", 3), external=True).result()
            named = {db.graph.translate_path(p) for p in result.paths}
        assert ("mule_1", "dest_acct") in named
        assert ("mule_1", "mule_2", "dest_acct") in named


class TestKnowledgeGraphScenario:
    """Application 3: paths constrained by a sequence of relation labels."""

    def test_action_sequence_constraint(self):
        builder = GraphBuilder()
        facts = [
            ("author", "paper", "write"),
            ("paper", "topic", "mention"),
            ("author", "workshop", "attend"),
            ("workshop", "topic", "mention"),
            ("author", "topic", "cite"),
        ]
        for head, tail, relation in facts:
            builder.add_edge(head, tail, label=relation)
        graph = builder.build()
        query = Query.from_external(graph, "author", "topic", 3)
        automaton = SequenceAutomaton.from_label_sequence(["write", "mention"])
        constraint = AutomatonConstraint(graph, automaton)
        result = PathEnum().run(graph, query, RunConfig(constraint=constraint))
        named = {graph.translate_path(p) for p in result.paths}
        assert named == {("author", "paper", "topic")}

    def test_unconstrained_paths_cover_all_relations(self):
        builder = GraphBuilder()
        builder.add_edge("a", "b", label="r1")
        builder.add_edge("b", "c", label="r2")
        builder.add_edge("a", "c", label="r3")
        graph = builder.build()
        paths = _external_paths(graph, "a", "c", 2)
        assert set(paths) == {("a", "c"), ("a", "b", "c")}
