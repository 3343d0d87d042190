"""Validation of the declarative query spec and its fluent builder."""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import Q, QuerySpec, as_spec
from repro.core.query import Query
from repro.errors import QuerySpecError, ReproError


class TestQuerySpecValidation:
    def test_valid_spec_round_trips_fields(self):
        spec = QuerySpec(0, 5, 4, limit=10, deadline=1.5)
        assert spec.triple == (0, 5, 4)
        assert spec.limit == 10
        assert spec.deadline == 1.5
        assert spec.store_paths is True

    def test_negative_k_is_rejected(self):
        with pytest.raises(QuerySpecError, match="hop budget k must be at least 2, got -3"):
            QuerySpec(0, 1, -3)

    def test_k_below_minimum_is_rejected(self):
        with pytest.raises(QuerySpecError, match="at least 2, got 1"):
            QuerySpec(0, 1, 1)

    def test_non_integer_k_is_rejected(self):
        with pytest.raises(QuerySpecError, match="must be an int"):
            QuerySpec(0, 1, "4")

    def test_identical_endpoints_are_rejected(self):
        with pytest.raises(QuerySpecError, match="distinct vertices"):
            QuerySpec(7, 7, 4)

    def test_identical_external_endpoints_are_rejected(self):
        with pytest.raises(QuerySpecError, match="both are 'alice'"):
            QuerySpec("alice", "alice", 4)

    def test_non_positive_limit_is_rejected(self):
        with pytest.raises(QuerySpecError, match="result limit must be a positive int"):
            QuerySpec(0, 1, 4, limit=0)

    def test_negative_deadline_is_rejected(self):
        with pytest.raises(QuerySpecError, match="deadline must be non-negative"):
            QuerySpec(0, 1, 4, deadline=-1.0)

    def test_non_positive_response_k_is_rejected(self):
        with pytest.raises(QuerySpecError, match="response_k must be a positive int"):
            QuerySpec(0, 1, 4, response_k=0)

    def test_spec_error_is_a_value_error_and_repro_error(self):
        with pytest.raises(ValueError):
            QuerySpec(0, 0, 4)
        with pytest.raises(ReproError):
            QuerySpec(0, 0, 4)

    def test_specs_are_frozen(self):
        spec = QuerySpec(0, 1, 4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.k = 9  # type: ignore[misc]
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.limit = 3  # type: ignore[misc]

    def test_replace_revalidates(self):
        spec = QuerySpec(0, 1, 4)
        assert spec.replace(k=6).k == 6
        with pytest.raises(QuerySpecError):
            spec.replace(k=1)


class TestQBuilder:
    def test_fluent_chain_builds_the_spec(self):
        spec = Q(0, 9, 4).limit(100).deadline(2.0).count_only().spec()
        assert spec == QuerySpec(0, 9, 4, limit=100, deadline=2.0, store_paths=False)

    def test_builder_methods_fork(self):
        base = Q(0, 9, 4).deadline(1.0)
        quick = base.limit(10)
        full = base.count_only()
        assert quick.spec().limit == 10
        assert quick.spec().store_paths is True
        assert full.spec().limit is None
        assert full.spec().store_paths is False
        # The shared prefix is untouched by either fork.
        assert base.spec().limit is None
        assert base.spec().store_paths is True

    def test_builder_validates_at_spec_time(self):
        bad = Q(3, 3, 4)  # no error yet: validation happens on freeze
        with pytest.raises(QuerySpecError):
            bad.spec()

    def test_where_attaches_the_constraint(self):
        marker = object()
        assert Q(0, 1, 4).where(marker).spec().constraint is marker

    def test_store_paths_and_response_k(self):
        spec = Q(0, 1, 4).store_paths(False).response_k(7).spec()
        assert spec.store_paths is False
        assert spec.response_k == 7


class TestAsSpec:
    def test_accepts_specs_builders_queries_and_triples(self):
        spec = QuerySpec(0, 1, 4)
        assert as_spec(spec) is spec
        assert as_spec(Q(0, 1, 4)) == spec
        assert as_spec(Query(0, 1, 4)) == spec
        assert as_spec((0, 1, 4)) == spec
        assert as_spec([0, 1, 4]) == spec

    def test_overrides_apply_to_every_shape(self):
        assert as_spec((0, 1, 4), limit=5).limit == 5
        assert as_spec(Q(0, 1, 4), limit=5).limit == 5
        assert as_spec(QuerySpec(0, 1, 4), limit=5).limit == 5

    def test_rejects_unbuildable_items(self):
        with pytest.raises(QuerySpecError, match="cannot build a QuerySpec"):
            as_spec("0,1,4")
        with pytest.raises(QuerySpecError, match="cannot build a QuerySpec"):
            as_spec((0, 1))
