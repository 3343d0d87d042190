"""Unit tests for collectors, deadlines and run configuration."""

from __future__ import annotations

import time

import pytest

from repro.core.listener import Deadline, ResultCollector, RunConfig
from repro.errors import EnumerationTimeout, ResultLimitReached


class TestResultCollector:
    def test_counts_and_stores(self):
        collector = ResultCollector()
        collector.emit([0, 1, 2])
        collector.emit((0, 2))
        assert collector.count == 2
        assert collector.stored_paths().to_paths() == [(0, 1, 2), (0, 2)]

    def test_store_paths_disabled(self):
        collector = ResultCollector(store_paths=False)
        collector.emit([0, 1])
        assert collector.count == 1
        assert collector.stored_paths() is None

    def test_result_limit(self):
        collector = ResultCollector(result_limit=3)
        collector.emit([0])
        collector.emit([1])
        with pytest.raises(ResultLimitReached):
            collector.emit([2])
        assert collector.count == 3

    def test_response_time_recorded_at_kth_result(self):
        collector = ResultCollector(response_k=2)
        collector.emit([0])
        assert collector.response_seconds is None
        collector.emit([1])
        assert collector.response_seconds is not None
        first = collector.response_seconds
        collector.emit([2])
        assert collector.response_seconds == first  # not overwritten

    def test_emitted_paths_are_materialised_copies(self):
        collector = ResultCollector()
        path = [0, 1]
        collector.emit(path)
        path.append(2)
        assert collector.stored_paths().to_paths() == [(0, 1)]

    def test_restart_clock(self):
        collector = ResultCollector(response_k=1)
        time.sleep(0.01)
        collector.restart_clock()
        collector.emit([0])
        assert collector.response_seconds < 0.01


class TestDeadline:
    def test_unlimited_deadline_never_fires(self):
        deadline = Deadline(None, poll_interval=1)
        for _ in range(1000):
            deadline.check()
        assert not deadline.expired
        assert deadline.remaining() is None

    def test_expired_deadline_raises(self):
        deadline = Deadline(0.0, poll_interval=1)
        with pytest.raises(EnumerationTimeout):
            deadline.check()
        assert deadline.expired
        assert deadline.remaining() == 0.0

    def test_poll_interval_defers_clock_reads(self):
        deadline = Deadline(0.0, poll_interval=10)
        # The first nine checks do not consult the clock.
        for _ in range(9):
            deadline.check()
        with pytest.raises(EnumerationTimeout):
            deadline.check()

    def test_elapsed_increases(self):
        deadline = Deadline(10.0)
        before = deadline.elapsed()
        time.sleep(0.005)
        assert deadline.elapsed() > before

    def test_future_deadline_does_not_fire(self):
        deadline = Deadline(60.0, poll_interval=1)
        deadline.check()
        assert not deadline.expired
        assert deadline.remaining() > 0

    def test_remaining_without_limit_is_none_and_never_clamps(self):
        deadline = Deadline(None)
        assert deadline.remaining() is None
        time.sleep(0.002)
        assert deadline.remaining() is None  # stays None however long we wait

    def test_remaining_clamps_to_zero_after_expiry(self):
        deadline = Deadline(0.001, poll_interval=1)
        time.sleep(0.005)
        assert deadline.remaining() == 0.0  # never negative

    def test_expiry_raises_once_per_poll_window(self):
        # After a raise the countdown resets: the next poll_interval - 1
        # checks are free, then the expired deadline raises again.  Exactly
        # one raise per window, not one per check.
        deadline = Deadline(0.0, poll_interval=5)
        raises = 0
        for _ in range(20):
            try:
                deadline.check()
            except EnumerationTimeout:
                raises += 1
        assert raises == 4  # checks 5, 10, 15, 20
        assert deadline.expired

    def test_poll_interval_is_clamped_to_one(self):
        deadline = Deadline(0.0, poll_interval=0)
        # A nonsensical poll interval must not disable checking entirely.
        with pytest.raises(EnumerationTimeout):
            deadline.check()

    def test_expired_property_is_immediate_despite_poll_batching(self):
        # ``expired`` reads the clock directly; only ``check()`` batches.
        deadline = Deadline(0.0, poll_interval=1000)
        deadline.check()  # consumes one countdown tick, does not raise
        assert deadline.expired

    def test_batched_checks_raise_on_the_polling_check(self):
        deadline = Deadline(0.005, poll_interval=8)
        time.sleep(0.01)
        # Checks 1..7 never consult the clock even though the deadline has
        # long passed; the 8th does and raises.
        for _ in range(7):
            deadline.check()
        with pytest.raises(EnumerationTimeout):
            deadline.check()

    def test_check_every_charges_many_units_in_one_call(self):
        deadline = Deadline(0.0, poll_interval=100)
        deadline.check_every(99)  # countdown not yet exhausted
        with pytest.raises(EnumerationTimeout):
            deadline.check_every(1)

    def test_check_every_fires_when_charge_exceeds_window(self):
        deadline = Deadline(0.0, poll_interval=100)
        with pytest.raises(EnumerationTimeout):
            deadline.check_every(1000)

    def test_check_every_ignores_non_positive_charges(self):
        deadline = Deadline(0.0, poll_interval=1)
        deadline.check_every(0)
        deadline.check_every(-5)
        with pytest.raises(EnumerationTimeout):
            deadline.check_every(1)

    def test_check_every_unlimited_deadline_never_fires(self):
        deadline = Deadline(None, poll_interval=1)
        for _ in range(100):
            deadline.check_every(10**6)
        assert not deadline.expired

    def test_check_every_resets_countdown_after_poll(self):
        deadline = Deadline(60.0, poll_interval=10)
        deadline.check_every(25)  # polls the (future) clock, resets window
        assert not deadline.expired


class TestRunConfig:
    def test_factories(self):
        config = RunConfig(result_limit=5, time_limit_seconds=1.0, response_k=7)
        collector = config.make_collector()
        deadline = config.make_deadline()
        assert collector.result_limit == 5
        assert collector.response_k == 7
        assert deadline.remaining() <= 1.0

    def test_replace(self):
        config = RunConfig(store_paths=True, tau=42.0)
        changed = config.replace(store_paths=False)
        assert changed.store_paths is False
        assert changed.tau == 42.0
        assert config.store_paths is True

    def test_defaults_match_paper_settings(self):
        config = RunConfig()
        assert config.response_k == 1000
        assert config.tau == pytest.approx(1e5)
        assert config.time_limit_seconds is None
