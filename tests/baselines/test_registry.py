"""Unit tests for the algorithm registry."""

from __future__ import annotations

import pytest

from repro.baselines.registry import (
    PAPER_ALGORITHMS,
    available_algorithms,
    get_algorithm,
    register_algorithm,
)
from repro.core.algorithm import Algorithm


class TestLookup:
    def test_paper_algorithms_are_registered(self):
        for name in PAPER_ALGORITHMS:
            algorithm = get_algorithm(name)
            assert isinstance(algorithm, Algorithm)
            assert algorithm.name == name

    def test_lookup_is_case_insensitive(self):
        assert get_algorithm("idx-dfs").name == "IDX-DFS"
        assert get_algorithm("PATHENUM").name == "PathEnum"

    def test_unknown_name_raises_with_suggestions(self):
        with pytest.raises(KeyError) as excinfo:
            get_algorithm("definitely-not-registered")
        assert "available" in str(excinfo.value)

    def test_available_algorithms_contains_baselines(self):
        names = set(available_algorithms())
        assert {"BC-DFS", "BC-JOIN", "T-DFS", "FullJoin", "GenericDFS"} <= names

    def test_each_lookup_returns_a_fresh_instance(self):
        assert get_algorithm("PathEnum") is not get_algorithm("PathEnum")


class TestRegistration:
    def test_register_custom_algorithm(self):
        class _Custom(Algorithm):
            name = "CustomTestAlgo"

            def run(self, graph, query, config=None):  # pragma: no cover - not invoked
                raise NotImplementedError

        register_algorithm("CustomTestAlgo", _Custom, overwrite=True)
        assert get_algorithm("customtestalgo").name == "CustomTestAlgo"

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_algorithm("IDX-DFS", lambda: None)  # type: ignore[arg-type]
