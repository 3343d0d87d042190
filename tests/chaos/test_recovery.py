"""Worker-crash recovery: a killed pool worker must not kill the batch.

The contract: after a ``BrokenProcessPool`` the executor respawns the pool
and re-executes only positions whose results were never delivered —
results already streamed to the consumer are not produced twice, and the
recovered run's results are byte-identical to an inline run.  A query that
*deterministically* crashes its worker exhausts the bounded retry budget
and fails the batch cleanly instead of respawning forever.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.core.engine import ExecutorCore, QuerySession
from repro.core.listener import RunConfig
from repro.core.query import Query
from repro.testing import faults
from repro.workloads.queries import generate_target_centric_set

from tests.chaos._support import CHAOS_BACKENDS, backend_kwargs, serve_scenario

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process-pool recovery tests need the fork start method",
)


@pytest.fixture(autouse=True)
def _clean_plan():
    faults.clear()
    yield
    faults.clear()


@pytest.fixture(scope="module")
def queries(graph):
    workload = generate_target_centric_set(graph, count=12, k=4, num_targets=3, seed=5)
    return [Query(q.source, q.target, q.k) for q in workload]


def _inline_results(graph, queries):
    session = QuerySession(graph)
    return [session.run(q, RunConfig(store_paths=True)) for q in queries]


def _stream_all(core, queries):
    run = core.start(queries, RunConfig(store_paths=True), chunk_queries=1)
    delivered = {}
    for chunk in run.chunks():
        for position, result in chunk:
            assert position not in delivered, "duplicate delivery after recovery"
            delivered[position] = result
    return run, delivered


class TestPoolRecovery:
    def test_killed_worker_recovers_with_identical_results(self, graph, queries, tmp_path):
        expected = _inline_results(graph, queries)
        plan = {
            "seed": 7,
            "faults": [{"site": "worker.task", "op": "kill", "position": 5}],
        }
        with faults.installed(plan, state_dir=str(tmp_path / "state")):
            with ExecutorCore(graph, backend="process", workers=2,
                              start_method="fork") as core:
                run, delivered = _stream_all(core, queries)
        assert run.recoveries == 1
        assert run.recovered_queries >= 1
        assert sorted(delivered) == list(range(len(queries)))
        for position, exp in enumerate(expected):
            act = delivered[position]
            assert (act.source, act.target, act.k) == (exp.source, exp.target, exp.k)
            assert act.count == exp.count
            assert act.paths == exp.paths

    def test_killed_served_worker_recovers_with_identical_results(
        self, graph, queries, tmp_path
    ):
        # The same kill behind a server: the client sees one complete job
        # whose results equal the inline run's, in workload order.
        expected = _inline_results(graph, queries)
        plan = {
            "seed": 7,
            "faults": [{"site": "worker.task", "op": "kill", "position": 5}],
        }
        state_dir = tmp_path / "state"
        triples = [[q.source, q.target, q.k] for q in queries]

        async def scenario(client, server, service):
            return await client.run(triples, store_paths=True)

        with faults.installed(plan, state_dir=str(state_dir)):
            outcome = serve_scenario(
                graph, scenario, **backend_kwargs("process"), start_method="fork"
            )
        assert list(state_dir.iterdir()), "the kill never fired"
        assert outcome.status == "done", outcome.info
        assert len(outcome.results) == len(expected)
        for exp, act in zip(expected, outcome.results):
            assert (act.source, act.target, act.k) == (exp.source, exp.target, exp.k)
            assert act.count == exp.count
            assert act.paths == exp.paths

    def test_deterministic_crasher_fails_cleanly(self, graph, queries, tmp_path):
        # once=false: the respawned worker crashes on the same position
        # every time, so the bounded retry budget must surface the failure
        # instead of respawning forever.
        plan = {
            "faults": [{"site": "worker.task", "op": "kill",
                        "position": 5, "once": False}],
        }
        from concurrent.futures.process import BrokenProcessPool

        with faults.installed(plan, state_dir=str(tmp_path / "state")):
            with ExecutorCore(graph, backend="process", workers=2,
                              start_method="fork") as core:
                with pytest.raises(BrokenProcessPool):
                    _stream_all(core, queries)

    def test_pool_retries_zero_disables_recovery(self, graph, queries, tmp_path, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        monkeypatch.setattr(ExecutorCore, "POOL_RETRIES", 0)
        plan = {
            "faults": [{"site": "worker.task", "op": "kill", "position": 5}],
        }
        with faults.installed(plan, state_dir=str(tmp_path / "state")):
            with ExecutorCore(graph, backend="process", workers=2,
                              start_method="fork") as core:
                with pytest.raises(BrokenProcessPool):
                    _stream_all(core, queries)

    def test_executor_survives_for_the_next_batch(self, graph, queries, tmp_path):
        # After a recovered batch the same core (fresh pool) keeps working.
        plan = {
            "faults": [{"site": "worker.task", "op": "kill", "position": 0}],
        }
        expected = _inline_results(graph, queries)
        with faults.installed(plan, state_dir=str(tmp_path / "state")):
            with ExecutorCore(graph, backend="process", workers=2,
                              start_method="fork") as core:
                run, _ = _stream_all(core, queries)
                assert run.recoveries == 1
                run2, delivered2 = _stream_all(core, queries)
                assert run2.recoveries == 0
        assert [delivered2[p].count for p in sorted(delivered2)] == [
            r.count for r in expected
        ]


class TestInjectedTaskErrors:
    @pytest.mark.parametrize("backend", CHAOS_BACKENDS)
    def test_injected_error_fails_the_job_not_the_service(
        self, graph, workload, backend, tmp_path
    ):
        # A plain task exception (not a crash) surfaces as a job error frame
        # and the service keeps answering on the same connection.  The
        # state_dir marker makes the firing globally at-most-once, so the
        # second job runs clean even in forked workers that inherited the
        # plan environment.
        plan = {
            "faults": [{"site": "worker.task", "op": "error", "position": 2}],
        }

        async def scenario(client, server, service):
            with faults.installed(plan, state_dir=str(tmp_path / "state")):
                first = await client.run(workload)
                second = await client.run(workload)
            return first, second

        first, second = serve_scenario(graph, scenario, **backend_kwargs(backend))
        assert first.status == "error"
        assert second.status == "done"
        assert len(second.results) == len(workload)
