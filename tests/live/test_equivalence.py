"""Equivalence: every live-update path must match a from-scratch rebuild.

The invariant the whole subsystem rests on: applying a batch through the
overlay, through an epoch-publishing :class:`LiveGraph` (compacted or not)
or through ``Database.insert_edges``/``remove_edges`` yields a graph — and
query payloads — byte-identical to rebuilding the post-update graph with
:class:`GraphBuilder` and querying it fresh.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.api import Database, Q
from repro.core.native import jit_ready
from repro.graph.builder import GraphBuilder
from repro.graph.generators import erdos_renyi
from repro.live import DeltaOverlay, LiveGraph

from tests.helpers import UNCONSTRAINED_TIERS, accept_all

requires_compiled = pytest.mark.skipif(
    not jit_ready(), reason="compiled C library not loaded (no cc, or REPRO_NATIVE=off)"
)


@pytest.fixture(scope="module")
def base_graph():
    return erdos_renyi(150, 4.0, seed=11)


def _update_batches(graph, *, batches=3, per_batch=8, seed=5):
    """Seeded (add, remove) batches: removals present, additions absent."""
    rng = random.Random(seed)
    present = sorted(graph.edges())
    out = []
    removed_so_far = set()
    added_so_far = set()
    for _ in range(batches):
        candidates = [e for e in present if e not in removed_so_far]
        remove = rng.sample(candidates, per_batch)
        add = []
        while len(add) < per_batch:
            u = rng.randrange(graph.num_vertices)
            v = rng.randrange(graph.num_vertices)
            edge = (u, v)
            if u == v or graph.has_edge(u, v) or edge in added_so_far:
                continue
            add.append(edge)
            added_so_far.add(edge)
        removed_so_far.update(remove)
        out.append((add, remove))
    return out


def _rebuild(graph, batches):
    """Reference: replay every batch onto a plain edge set, rebuild from scratch."""
    edges = set(graph.edges())
    for add, remove in batches:
        edges -= set(remove)
        edges |= set(add)
    builder = GraphBuilder()
    for v in graph.vertices():
        builder.add_vertex(v)
    for u, v in sorted(edges):
        builder.add_edge(u, v)
    return builder.build()


def _csr_equal(left, right):
    return all(
        np.array_equal(a, b)
        for a, b in zip(
            left.out_csr() + left.in_csr(), right.out_csr() + right.in_csr()
        )
    )


class TestGraphEquivalence:
    def test_overlay_materialize_matches_rebuild(self, base_graph):
        batches = _update_batches(base_graph)
        overlay = DeltaOverlay(base_graph)
        for add, remove in batches:
            overlay.add_edges(add)
            overlay.remove_edges(remove)
        assert _csr_equal(overlay.materialize(), _rebuild(base_graph, batches))

    @pytest.mark.parametrize("compact_threshold", [1, 4, 10_000])
    def test_live_graph_epochs_match_rebuild(self, base_graph, compact_threshold):
        batches = _update_batches(base_graph)
        with LiveGraph(base_graph, compact_threshold=compact_threshold) as live:
            for add, remove in batches:
                info = live.apply(add=add, remove=remove)
                assert info["published"]
            assert _csr_equal(live.graph, _rebuild(base_graph, batches))
            stats = live.stats()
            assert stats["epochs_published"] == len(batches)
            if compact_threshold == 1:
                assert stats["compactions"] == len(batches)

    def test_undone_changes_publish_a_copy_of_the_base(self, base_graph):
        # Removing an edge and putting it back leaves an empty delta.  The
        # epoch publishing it owns its shared-memory store and releases it
        # on retirement, so its graph must never be the overlay base.
        with LiveGraph(base_graph, store="shared_memory") as live:
            for edge in sorted(base_graph.edges())[:3]:
                live.apply(remove=[edge])
                live.apply(add=[edge])
                assert live.graph is not base_graph
                assert _csr_equal(live.graph, base_graph)
            assert live.epoch_id == 6

    def test_noop_batch_publishes_nothing(self, base_graph):
        with LiveGraph(base_graph) as live:
            present = next(iter(base_graph.edges()))
            info = live.apply(add=[present], remove=[(0, 0)])
            assert not info["published"]
            assert live.epoch_id == 0


def _queries(graph, count=8, k=4, seed=3):
    rng = random.Random(seed)
    specs = []
    while len(specs) < count:
        s = rng.randrange(graph.num_vertices)
        t = rng.randrange(graph.num_vertices)
        if s != t:
            specs.append(Q(s, t, k))
    return specs


def _payload(database, specs, **options):
    return database.batch(specs, **options).payload_bytes()


class TestPayloadEquivalence:
    """Mutated-database payloads are byte-identical to a fresh rebuild."""

    @pytest.fixture(scope="class")
    def mutated_pair(self, base_graph):
        batches = _update_batches(base_graph)
        database = Database(base_graph)
        for add, remove in batches:
            database.insert_edges(add)
            database.remove_edges(remove)
        fresh = Database(_rebuild(base_graph, batches))
        yield database, fresh
        database.close()
        fresh.close()

    def test_payloads_identical(self, base_graph, mutated_pair):
        database, fresh = mutated_pair
        specs = _queries(base_graph)
        assert _payload(database, specs) == _payload(fresh, specs)

    def test_payloads_identical_under_limit_interruption(self, base_graph, mutated_pair):
        database, fresh = mutated_pair
        specs = _queries(base_graph)
        assert _payload(database, specs, limit=2) == _payload(fresh, specs, limit=2)

    def test_payloads_identical_under_deadline_interruption(self, base_graph, mutated_pair):
        database, fresh = mutated_pair
        specs = _queries(base_graph)
        # A zero deadline trips the cooperative check before any result is
        # emitted, on both sides — the interrupted payloads must still agree.
        assert _payload(database, specs, deadline=0.0) == _payload(
            fresh, specs, deadline=0.0
        )

    def test_payloads_identical_recursive_engine(self, base_graph, mutated_pair):
        database, fresh = mutated_pair
        specs = _queries(base_graph)
        recursive = _payload(database, specs, constraint=accept_all(database.graph))
        assert recursive == _payload(fresh, specs, constraint=accept_all(fresh.graph))

    @requires_compiled
    @pytest.mark.parametrize("tier", ["kernel", "native"])
    def test_payloads_identical_compiled_engines(self, base_graph, mutated_pair, tier):
        database, fresh = mutated_pair
        specs = _queries(base_graph)
        with UNCONSTRAINED_TIERS[tier]():
            assert _payload(database, specs) == _payload(fresh, specs)
