"""Emission handling: collectors, deadlines and run configuration.

Every enumeration algorithm in the package reports results through a
:class:`ResultCollector` and periodically polls a :class:`Deadline`.  This is
how the paper's measurement protocol is expressed:

* *query time* — wall-clock until the algorithm finishes or the deadline
  (the paper's two-minute limit) fires;
* *response time* — the collector records the instant the 1 000-th result is
  emitted;
* *throughput* — results emitted before the deadline divided by elapsed time.

Keeping this logic out of the algorithms keeps each of them close to the
paper's pseudocode.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.result import PathBuffer
from repro.errors import EnumerationTimeout, ResultLimitReached

__all__ = ["Deadline", "ResultCollector", "RunConfig"]


class Deadline:
    """Cooperative deadline checked inside enumeration loops.

    ``check()`` is cheap enough to call per search-tree node: it only reads
    the clock every ``poll_interval`` calls.  A ``None`` time limit produces
    a deadline that never fires.
    """

    __slots__ = ("_expires_at", "_poll_interval", "_countdown", "started_at")

    def __init__(self, time_limit_seconds: Optional[float], *, poll_interval: int = 256) -> None:
        self.started_at = time.perf_counter()
        self._poll_interval = max(1, poll_interval)
        self._countdown = self._poll_interval
        self._expires_at = (
            None if time_limit_seconds is None else self.started_at + time_limit_seconds
        )

    @property
    def expired(self) -> bool:
        """Non-raising check of whether the deadline has passed."""
        return self._expires_at is not None and time.perf_counter() >= self._expires_at

    def elapsed(self) -> float:
        """Seconds elapsed since the deadline was created."""
        return time.perf_counter() - self.started_at

    def check(self) -> None:
        """Raise :class:`EnumerationTimeout` when the deadline has passed."""
        if self._expires_at is None:
            return
        self._countdown -= 1
        if self._countdown > 0:
            return
        self._countdown = self._poll_interval
        if time.perf_counter() >= self._expires_at:
            raise EnumerationTimeout()

    def check_every(self, n: int) -> None:
        """Charge ``n`` work units against the poll countdown in one call.

        Amortised form of :meth:`check`: a loop that expands ``n`` edges per
        node pays one method call instead of ``n``, and the clock is still
        read roughly once per ``poll_interval`` units of work.  ``n <= 0``
        charges nothing (a dead end costs no edges).
        """
        if self._expires_at is None or n <= 0:
            return
        self._countdown -= n
        if self._countdown > 0:
            return
        self._countdown = self._poll_interval
        if time.perf_counter() >= self._expires_at:
            raise EnumerationTimeout()

    def units_until_poll(self) -> Optional[int]:
        """Work units :meth:`check_every` absorbs before it next reads the
        clock, or ``None`` when the deadline never fires.

        A compiled loop that runs exactly this many units before returning
        to call :meth:`check_every` reads the clock where a per-unit caller
        would.
        """
        return None if self._expires_at is None else self._countdown

    def remaining(self) -> Optional[float]:
        """Seconds left before expiry, or ``None`` for unlimited deadlines."""
        if self._expires_at is None:
            return None
        return max(0.0, self._expires_at - time.perf_counter())


class ResultCollector:
    """Receives emitted paths and records the response-time probe.

    Stored paths land in one :class:`PathBuffer`, whichever engine tier
    emits them: per path (:meth:`emit`), as a block of Python ints
    (:meth:`emit_block`) or as a block of numpy arrays
    (:meth:`emit_array_block`).

    Parameters
    ----------
    store_paths:
        Keep the emitted paths in memory.  Benchmarks over huge result sets
        disable this and only count.
    result_limit:
        Stop the enumeration (via :class:`ResultLimitReached`) after this
        many results; ``None`` means unlimited.
    response_k:
        Record the elapsed time when the ``response_k``-th result arrives —
        the paper uses 1 000.
    """

    __slots__ = ("result_limit", "response_k", "count", "_started_at",
                 "response_seconds", "_buffer")

    def __init__(
        self,
        *,
        store_paths: bool = True,
        result_limit: Optional[int] = None,
        response_k: int = 1000,
    ) -> None:
        self.result_limit = result_limit
        self.response_k = response_k
        self.count = 0
        self._started_at = time.perf_counter()
        self.response_seconds: Optional[float] = None
        self._buffer: Optional[PathBuffer] = PathBuffer() if store_paths else None

    def restart_clock(self) -> None:
        """Reset the response-time clock (called when the query actually starts)."""
        self._started_at = time.perf_counter()

    def emit(self, path: Sequence[int]) -> None:
        """Record one result path.

        Raises :class:`ResultLimitReached` once the configured limit is hit;
        the raising call is still counted, so a limit of ``n`` yields exactly
        ``n`` results.
        """
        self.count += 1
        if self._buffer is not None:
            self._buffer.append_path(path)
        if self.response_seconds is None and self.count >= self.response_k:
            self.response_seconds = time.perf_counter() - self._started_at
        if self.result_limit is not None and self.count >= self.result_limit:
            raise ResultLimitReached()

    def _take(self, total: int) -> int:
        """How many of a ``total``-path block to keep under the result limit."""
        limit = self.result_limit
        if limit is None:
            return total
        room = limit - self.count
        if room <= 0:
            raise ResultLimitReached()
        return min(total, room)

    def _count_block(self, take: int) -> None:
        self.count += take
        if self.response_seconds is None and self.count >= self.response_k:
            self.response_seconds = time.perf_counter() - self._started_at
        if self.result_limit is not None and self.count >= self.result_limit:
            raise ResultLimitReached()

    def emit_block(self, data: Sequence[int], bounds: Sequence[int]) -> None:
        """Record a whole block of paths stored columnar.

        ``data`` holds the block's vertices concatenated; ``bounds`` the end
        offset of each path within ``data`` (no leading zero).  This is the
        bulk entry point of the iterative kernels: the block lands in the
        :class:`PathBuffer` untouched — no per-path tuple is ever built.
        Limit semantics match :meth:`emit`: the block is truncated so that
        exactly ``result_limit`` results exist, then
        :class:`ResultLimitReached` is raised.
        """
        if len(bounds) == 0:
            return
        take = self._take(len(bounds))
        if self._buffer is not None:
            self._buffer.extend_block(data, bounds, take)
        self._count_block(take)

    def emit_array_block(self, data, bounds) -> None:
        """Record a block of paths stored as numpy int64 arrays.

        Same contract as :meth:`emit_block` (``bounds`` holds end offsets, no
        leading zero), but the columns arrive as sealed numpy arrays from the
        compiled native engine and land in the :class:`PathBuffer` as whole
        array segments: no per-vertex Python int is ever created.
        """
        if len(bounds) == 0:
            return
        take = self._take(len(bounds))
        if self._buffer is not None:
            self._buffer.extend_array_block(data, bounds, take)
        self._count_block(take)

    def remaining_before_flush(self) -> Optional[int]:
        """How many results a kernel may buffer before it must flush.

        ``None`` means no constraint: the kernel flushes at its own block
        granularity.  A finite value keeps the result-limit raise and the
        response-time probe accurate to the path (not the block): the next
        flush must happen when that many more results have been found.
        """
        bounds = []
        if self.result_limit is not None:
            bounds.append(self.result_limit - self.count)
        if self.response_seconds is None and self.response_k > self.count:
            bounds.append(self.response_k - self.count)
        return min(bounds) if bounds else None

    def stored_paths(self) -> Optional[PathBuffer]:
        """The stored paths (empty when none was found), or ``None`` when
        storage was disabled."""
        return self._buffer


@dataclass
class RunConfig:
    """Options shared by every algorithm's ``run`` entry point."""

    #: Keep the full list of paths in the result object.
    store_paths: bool = True
    #: Stop after this many results (``None`` = enumerate everything).
    result_limit: Optional[int] = None
    #: Cooperative time limit in seconds (``None`` = no limit).  The paper
    #: uses 120 s; the benchmark harness scales this down.
    time_limit_seconds: Optional[float] = None
    #: Record the response time at this many results (the paper uses 1000).
    response_k: int = 1000
    #: Threshold tau of the preliminary estimator (Section 6.2).
    tau: float = 1e5
    #: Optional path constraint (predicate / accumulative / automaton).
    constraint: Optional[object] = None

    def make_collector(self) -> ResultCollector:
        """Build a collector matching this configuration."""
        return ResultCollector(
            store_paths=self.store_paths,
            result_limit=self.result_limit,
            response_k=self.response_k,
        )

    def make_deadline(self) -> Deadline:
        """Build a deadline matching this configuration."""
        return Deadline(self.time_limit_seconds)

    def replace(self, **changes) -> "RunConfig":
        """Return a copy with the given fields changed."""
        return dataclasses.replace(self, **changes)
