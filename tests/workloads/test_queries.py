"""Unit tests for query-set generation (Section 7.1)."""

from __future__ import annotations

import pytest

from repro.errors import WorkloadError
from repro.graph.generators import chain_graph, power_law_graph
from repro.graph.traversal import UNREACHABLE, distance
from repro.workloads.queries import (
    QuerySetting,
    consistent_hash,
    generate_query_set,
    generate_target_centric_set,
    poisson_arrival_times,
    split_by_degree,
)


@pytest.fixture(scope="module")
def workload_graph():
    return power_law_graph(300, 6.0, exponent=2.0, seed=3)


class TestDegreeSplit:
    def test_split_sizes(self, workload_graph):
        high, low = split_by_degree(workload_graph, top_fraction=0.10)
        assert len(high) == 30
        assert len(high) + len(low) == workload_graph.num_vertices

    def test_high_vertices_have_larger_degrees(self, workload_graph):
        high, low = split_by_degree(workload_graph)
        degrees = workload_graph.out_degrees() + workload_graph.in_degrees()
        assert min(degrees[v] for v in high) >= max(0, min(degrees[v] for v in low))
        assert degrees[high].mean() > degrees[low].mean()

    def test_split_is_deterministic(self, workload_graph):
        first = split_by_degree(workload_graph)
        second = split_by_degree(workload_graph)
        assert list(first[0]) == list(second[0])

    def test_invalid_fraction(self, workload_graph):
        with pytest.raises(WorkloadError):
            split_by_degree(workload_graph, top_fraction=0.0)
        with pytest.raises(WorkloadError):
            split_by_degree(workload_graph, top_fraction=1.5)


class TestQueryGeneration:
    def test_requested_count_generated(self, workload_graph):
        workload = generate_query_set(workload_graph, count=25, k=6, seed=1)
        assert len(workload) == 25
        assert workload.k == 6

    def test_endpoints_satisfy_distance_constraint(self, workload_graph):
        workload = generate_query_set(workload_graph, count=15, k=6, seed=2, max_distance=3)
        for query in workload:
            d = distance(workload_graph, query.source, query.target, cutoff=3)
            assert d != UNREACHABLE and d <= 3

    def test_endpoints_respect_setting(self, workload_graph):
        high, low = split_by_degree(workload_graph)
        high_set, low_set = set(int(v) for v in high), set(int(v) for v in low)
        workload = generate_query_set(
            workload_graph, count=10, k=4, setting=QuerySetting.HIGH_LOW, seed=3
        )
        for query in workload:
            assert query.source in high_set
            assert query.target in low_set

    def test_queries_are_unique_pairs(self, workload_graph):
        workload = generate_query_set(workload_graph, count=30, k=4, seed=4)
        pairs = [(q.source, q.target) for q in workload]
        assert len(set(pairs)) == len(pairs)

    def test_deterministic_for_seed(self, workload_graph):
        first = generate_query_set(workload_graph, count=10, k=4, seed=5)
        second = generate_query_set(workload_graph, count=10, k=4, seed=5)
        assert [(q.source, q.target) for q in first] == [(q.source, q.target) for q in second]

    def test_impossible_workload_raises(self):
        graph = chain_graph(50)  # far too sparse for 100 close high-degree pairs
        with pytest.raises(WorkloadError):
            generate_query_set(graph, count=100, k=4, seed=6, max_attempts_factor=5)

    def test_invalid_count(self, workload_graph):
        with pytest.raises(WorkloadError):
            generate_query_set(workload_graph, count=0, k=4)

    def test_all_four_settings(self, workload_graph):
        for offset, setting in enumerate(QuerySetting):
            workload = generate_query_set(
                workload_graph, count=5, k=4, setting=setting, seed=7 + offset
            )
            assert workload.setting is setting
            assert len(workload) == 5


class TestWorkloadHelpers:
    def test_with_k_rescopes_every_query(self, workload_graph):
        workload = generate_query_set(workload_graph, count=8, k=4, seed=8)
        rescoped = workload.with_k(7)
        assert rescoped.k == 7
        assert all(q.k == 7 for q in rescoped)
        assert [(q.source, q.target) for q in rescoped] == [
            (q.source, q.target) for q in workload
        ]

    def test_subset(self, workload_graph):
        workload = generate_query_set(workload_graph, count=8, k=4, seed=9)
        subset = workload.subset(3)
        assert len(subset) == 3
        assert subset.queries == workload.queries[:3]

    def test_setting_flags(self):
        assert QuerySetting.HIGH_HIGH.source_high and QuerySetting.HIGH_HIGH.target_high
        assert QuerySetting.LOW_LOW.source_high is False
        assert QuerySetting.HIGH_LOW.target_high is False
        assert QuerySetting.LOW_HIGH.target_high is True


class TestTargetCentricSet:
    def test_targets_rotate_through_small_pool(self, workload_graph):
        workload = generate_target_centric_set(
            workload_graph, count=12, k=4, num_targets=3, seed=1
        )
        assert len(workload) == 12
        unique = workload.unique_targets()
        assert len(unique) <= 3
        assert len(unique) < len(workload)

    def test_distance_guarantee_holds(self, workload_graph):
        workload = generate_target_centric_set(
            workload_graph, count=8, k=5, num_targets=2, seed=2
        )
        for query in workload:
            d = distance(workload_graph, query.source, query.target, cutoff=3)
            assert d != UNREACHABLE and d <= 3

    def test_endpoint_pairs_are_unique(self, workload_graph):
        workload = generate_target_centric_set(
            workload_graph, count=10, k=4, num_targets=2, seed=4
        )
        pairs = [(q.source, q.target) for q in workload]
        assert len(set(pairs)) == len(pairs)

    def test_rejects_bad_arguments(self, workload_graph):
        with pytest.raises(WorkloadError):
            generate_target_centric_set(workload_graph, count=0, k=4)
        with pytest.raises(WorkloadError):
            generate_target_centric_set(workload_graph, count=4, k=4, num_targets=0)

    def test_unique_targets_preserves_first_appearance_order(self, workload_graph):
        workload = generate_target_centric_set(
            workload_graph, count=9, k=4, num_targets=3, seed=6
        )
        unique = workload.unique_targets()
        seen = []
        for query in workload:
            if query.target not in seen:
                seen.append(query.target)
        assert unique == seen


class TestPoissonArrivals:
    def test_deterministic_for_a_seed(self):
        first = poisson_arrival_times(50, 100.0, seed=7)
        second = poisson_arrival_times(50, 100.0, seed=7)
        assert (first == second).all()
        different = poisson_arrival_times(50, 100.0, seed=8)
        assert not (first == different).all()

    def test_strictly_increasing_and_positive(self):
        arrivals = poisson_arrival_times(200, 50.0, seed=1)
        assert arrivals[0] > 0.0  # no thundering herd at t=0
        assert (arrivals[1:] > arrivals[:-1]).all()

    def test_mean_gap_matches_rate(self):
        rate = 250.0
        arrivals = poisson_arrival_times(20_000, rate, seed=3)
        mean_gap = arrivals[-1] / len(arrivals)
        assert mean_gap == pytest.approx(1.0 / rate, rel=0.05)

    def test_rejects_bad_arguments(self):
        with pytest.raises(WorkloadError):
            poisson_arrival_times(0, 10.0)
        with pytest.raises(WorkloadError):
            poisson_arrival_times(10, 0.0)
        with pytest.raises(WorkloadError):
            poisson_arrival_times(10, -1.0)


class TestConsistentHash:
    """The routing contract: stable, deterministic, minimally-remapping."""

    def test_same_target_same_shard_within_a_run(self):
        for num_shards in (1, 2, 3, 8):
            first = [consistent_hash(t, num_shards) for t in range(200)]
            second = [consistent_hash(t, num_shards) for t in range(200)]
            assert first == second
            assert all(0 <= shard < num_shards for shard in first)

    def test_pinned_values_never_change(self):
        # Changing these values silently would strand every shard's warm
        # distance cache on a fleet restart — they are part of the wire-level
        # contract, like a serialisation format.
        assert [consistent_hash(t, 4) for t in range(12)] == [
            1, 1, 1, 0, 0, 2, 2, 0, 1, 3, 0, 0,
        ]
        assert [consistent_hash(str(t), 4) for t in range(12)] == [
            2, 2, 2, 2, 3, 0, 1, 0, 0, 0, 1, 3,
        ]

    def test_stable_across_processes(self):
        # PYTHONHASHSEED randomises str.__hash__ per process; the shard
        # mapping must not care.  Compute in a subprocess with a forced
        # different seed and compare.
        import json
        import subprocess
        import sys

        script = (
            "import json, sys\n"
            "from repro.workloads.queries import consistent_hash\n"
            "targets = list(range(64)) + [str(t) for t in range(64)] + ['alice', 'bob']\n"
            "print(json.dumps([consistent_hash(t, 5) for t in targets]))\n"
        )
        env = {"PYTHONHASHSEED": "12345", "PYTHONPATH": ":".join(sys.path)}
        output = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env,
            check=True,
        ).stdout
        targets = list(range(64)) + [str(t) for t in range(64)] + ["alice", "bob"]
        assert json.loads(output) == [consistent_hash(t, 5) for t in targets]

    def test_int_and_str_spellings_hash_independently(self):
        # '5' (external id) and 5 (internal id) are different vertices.
        assignments_int = [consistent_hash(t, 7) for t in range(100)]
        assignments_str = [consistent_hash(str(t), 7) for t in range(100)]
        assert assignments_int != assignments_str

    def test_rendezvous_minimal_remapping(self):
        # Growing 3 -> 4 shards moves only the targets the new shard wins:
        # roughly 1/4 of them, and every move lands on the new shard.
        before = [consistent_hash(t, 3) for t in range(1000)]
        after = [consistent_hash(t, 4) for t in range(1000)]
        moved = [(a, b) for a, b in zip(before, after) if a != b]
        assert 0 < len(moved) < 400
        assert all(b == 3 for _, b in moved), "a target moved between old shards"

    def test_distribution_is_roughly_balanced(self):
        counts = [0] * 8
        for target in range(4000):
            counts[consistent_hash(target, 8)] += 1
        assert min(counts) > 300  # perfect balance would be 500 each

    def test_rejects_nonpositive_shard_count(self):
        with pytest.raises(WorkloadError):
            consistent_hash(0, 0)
        with pytest.raises(WorkloadError):
            consistent_hash(0, -2)
