"""Deterministic, process-safe fault injection for the serving stack.

A *fault plan* is a small JSON document naming exactly which failure to
inject where::

    {
      "seed": 7,
      "state_dir": "/tmp/faults-x",          # optional: global at-most-once
      "faults": [
        {"site": "worker.task", "op": "kill", "position": 3},
        {"site": "server.frame.out", "op": "truncate", "at": 2}
      ]
    }

The plan travels in the ``REPRO_FAULTS`` environment variable — either
inline JSON or a path to a JSON file — so it crosses every process boundary
the serving stack creates (forked/spawned pool workers, ``repro serve``
subprocesses) without any coordination channel of its own.  Each process
parses the plan once and keeps per-fault hit counters; determinism comes
from counting *matching events* at a named site rather than from timing.

Sites and the operations they understand:

``worker.task``
    Checked once per query evaluated by :func:`repro.core.engine.\
    _iter_shard_results` (all backends: process workers, threads, inline).
    Context: ``position`` (workload position of the query).  Ops:
    ``kill`` (``os._exit`` in a worker process, an injected ``RuntimeError``
    when the site runs in the main process, e.g. the thread backend),
    ``memory_error`` (raise ``MemoryError``), ``error`` (raise
    ``RuntimeError``).

``server.frame.out``
    Checked for every frame a ``QueryServer`` writes, under ``repro
    serve`` and ``repro route`` alike (client-side writes in the same
    process — a router's own frames to its shards included — do **not**
    hit the site: the server passes it explicitly).  Context: ``frame_type``.  Ops: ``drop``
    (swallow the frame), ``delay`` (sleep ``delay_ms`` before writing),
    ``truncate`` (write the first ``keep_bytes`` bytes of the frame, then
    sever the connection).

Matching: a fault fires on the ``at``-th matching event (1-based, counted
per process) and keeps firing for ``count`` consecutive matches.  With a
``state_dir``, ``once: true`` (the default) makes the firing *globally*
at-most-once across every process sharing the plan — an atomically created
marker file is the cross-process gate — which is what lets "kill the worker
executing position P" recover: the respawned worker re-executes P, finds
the marker, and proceeds.  ``once: false`` turns the fault into a
deterministic repeat-offender (every respawn crashes again), the shape the
retry-cap tests need.

Everything here is standard library only and import-cycle free; the hot
path cost without ``REPRO_FAULTS`` set is one environment lookup.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

__all__ = [
    "ENV_VAR",
    "Fault",
    "FaultPlan",
    "active_plan",
    "install",
    "installed",
    "clear",
    "hit",
    "maybe_fail_task",
]

#: Environment variable carrying the plan (inline JSON or a file path).
ENV_VAR = "REPRO_FAULTS"

_SITES = ("worker.task", "server.frame.out")
_OPS = ("kill", "memory_error", "error", "drop", "delay", "truncate")


@dataclass
class Fault:
    """One injectable failure: where, what, and when it fires."""

    site: str
    op: str
    #: Fire on the ``at``-th matching event (1-based, per process).
    at: int = 1
    #: Keep firing for this many consecutive matching events.
    count: int = 1
    #: ``worker.task`` filter: only events for this workload position match.
    position: Optional[int] = None
    #: ``server.frame.out`` filter: only frames of this type match.
    frame_type: Optional[str] = None
    #: ``delay`` op: sleep this long before the write.
    delay_ms: float = 50.0
    #: ``truncate`` op: bytes of the frame actually written.
    keep_bytes: int = 2
    #: Fire at most once across *all* processes (needs a plan ``state_dir``).
    once: bool = True
    #: Per-process count of matching events (not serialised).
    hits: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.site not in _SITES:
            raise ValueError(f"unknown fault site {self.site!r}: use one of {_SITES}")
        if self.op not in _OPS:
            raise ValueError(f"unknown fault op {self.op!r}: use one of {_OPS}")
        if self.at < 1:
            raise ValueError("'at' is 1-based and must be positive")
        if self.count < 1:
            raise ValueError("'count' must be positive")

    def matches(self, site: str, position: Optional[int], frame_type: Optional[str]) -> bool:
        if site != self.site:
            return False
        if self.position is not None and position != self.position:
            return False
        if self.frame_type is not None and frame_type != self.frame_type:
            return False
        return True

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Fault":
        known = {
            "site", "op", "at", "count", "position", "frame_type",
            "delay_ms", "keep_bytes", "once",
        }
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown fault fields {sorted(unknown)}")
        return cls(**payload)  # type: ignore[arg-type]


class FaultPlan:
    """A parsed plan: the fault list plus the cross-process once-state."""

    def __init__(
        self,
        faults: List[Fault],
        *,
        seed: int = 0,
        state_dir: Optional[str] = None,
    ) -> None:
        self.faults = faults
        self.seed = int(seed)
        self.state_dir = state_dir
        self._lock = threading.Lock()

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultPlan":
        raw = payload.get("faults", [])
        if not isinstance(raw, list):
            raise ValueError("'faults' must be a list of fault objects")
        faults = [Fault.from_dict(dict(entry)) for entry in raw]
        state_dir = payload.get("state_dir")
        return cls(
            faults,
            seed=int(payload.get("seed", 0)),
            state_dir=None if state_dir is None else str(state_dir),
        )

    @classmethod
    def from_env_value(cls, value: str) -> "FaultPlan":
        text = value.strip()
        if not text.startswith("{"):
            with open(text, "r", encoding="utf-8") as handle:
                text = handle.read()
        return cls.from_dict(json.loads(text))

    def to_dict(self) -> Dict[str, object]:
        entries = []
        for fault in self.faults:
            entry: Dict[str, object] = {"site": fault.site, "op": fault.op}
            if fault.at != 1:
                entry["at"] = fault.at
            if fault.count != 1:
                entry["count"] = fault.count
            if fault.position is not None:
                entry["position"] = fault.position
            if fault.frame_type is not None:
                entry["frame_type"] = fault.frame_type
            if fault.op == "delay":
                entry["delay_ms"] = fault.delay_ms
            if fault.op == "truncate":
                entry["keep_bytes"] = fault.keep_bytes
            if not fault.once:
                entry["once"] = False
            entries.append(entry)
        payload: Dict[str, object] = {"seed": self.seed, "faults": entries}
        if self.state_dir is not None:
            payload["state_dir"] = self.state_dir
        return payload

    # -- firing -------------------------------------------------------- #
    def check(
        self,
        site: str,
        *,
        position: Optional[int] = None,
        frame_type: Optional[str] = None,
    ) -> Optional[Fault]:
        """Count one event at ``site``; return the fault firing on it, if any."""
        armed: Optional[Fault] = None
        with self._lock:
            for index, fault in enumerate(self.faults):
                if not fault.matches(site, position, frame_type):
                    continue
                fault.hits += 1
                if armed is None and fault.at <= fault.hits < fault.at + fault.count:
                    if self._claim_once(index, fault):
                        armed = fault
        return armed

    def _claim_once(self, index: int, fault: Fault) -> bool:
        """The cross-process at-most-once gate (atomic marker creation)."""
        if not fault.once or self.state_dir is None:
            return True
        marker = os.path.join(self.state_dir, f"fault-{index}.fired")
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return False
        except OSError:
            # An unusable state_dir degrades to per-process once semantics
            # rather than suppressing the fault entirely.
            return True
        return True


# ---------------------------------------------------------------------- #
# per-process plan cache keyed on the raw env value
# ---------------------------------------------------------------------- #
_CACHE_KEY: Optional[str] = None
_CACHE_PLAN: Optional[FaultPlan] = None
_CACHE_PID: Optional[int] = None
_CACHE_LOCK = threading.Lock()


def active_plan() -> Optional[FaultPlan]:
    """The process's current plan, parsed from ``REPRO_FAULTS`` (or ``None``).

    The parse is cached per (environment value, pid): counters survive
    across calls within one process, a changed env value resets them, and a
    forked child re-parses so it counts its own events from zero.
    """
    global _CACHE_KEY, _CACHE_PLAN, _CACHE_PID
    value = os.environ.get(ENV_VAR)
    if value is None:
        return None
    pid = os.getpid()
    if value == _CACHE_KEY and pid == _CACHE_PID:
        return _CACHE_PLAN
    with _CACHE_LOCK:
        if value == _CACHE_KEY and pid == _CACHE_PID:
            return _CACHE_PLAN
        try:
            plan = FaultPlan.from_env_value(value)
        except (ValueError, OSError, json.JSONDecodeError):
            plan = None
        _CACHE_KEY, _CACHE_PLAN, _CACHE_PID = value, plan, pid
    return plan


def install(plan, *, state_dir: Optional[str] = None) -> FaultPlan:
    """Install a plan into this process's environment (and children's).

    ``plan`` is a :class:`FaultPlan`, a plan ``dict`` or raw JSON text.
    ``state_dir`` (created if missing) enables the global at-most-once gate.
    Returns the parsed plan; :func:`clear` removes it.
    """
    if isinstance(plan, FaultPlan):
        parsed = plan
    elif isinstance(plan, str):
        parsed = FaultPlan.from_env_value(plan)
    else:
        parsed = FaultPlan.from_dict(dict(plan))
    if state_dir is not None:
        parsed.state_dir = state_dir
    if parsed.state_dir is not None:
        os.makedirs(parsed.state_dir, exist_ok=True)
    os.environ[ENV_VAR] = json.dumps(parsed.to_dict(), separators=(",", ":"))
    return active_plan()  # re-parse so env and cache agree exactly


def clear() -> None:
    """Remove any installed plan from the environment and the cache."""
    global _CACHE_KEY, _CACHE_PLAN, _CACHE_PID
    os.environ.pop(ENV_VAR, None)
    with _CACHE_LOCK:
        _CACHE_KEY = _CACHE_PLAN = _CACHE_PID = None


@contextlib.contextmanager
def installed(plan, *, state_dir: Optional[str] = None) -> Iterator[FaultPlan]:
    """Context manager: install a plan for the block, always clear after."""
    parsed = install(plan, state_dir=state_dir)
    try:
        yield parsed
    finally:
        clear()


# ---------------------------------------------------------------------- #
# site check helpers (the call sites in engine/protocol use these)
# ---------------------------------------------------------------------- #
def hit(
    site: str,
    *,
    position: Optional[int] = None,
    frame_type: Optional[str] = None,
) -> Optional[Fault]:
    """Count one event at ``site``; return a firing :class:`Fault` or ``None``.

    The no-plan fast path is one environment lookup.
    """
    plan = active_plan()
    if plan is None:
        return None
    return plan.check(site, position=position, frame_type=frame_type)


def maybe_fail_task(position: int) -> None:
    """The ``worker.task`` site: invoked once per evaluated query.

    ``kill`` exits the worker process abruptly (no cleanup — exactly what a
    segfaulted or OOM-killed worker looks like to the parent pool); when the
    site runs in the main process (thread backend, inline execution) it
    degrades to an injected exception so tests never kill themselves.
    """
    fault = hit("worker.task", position=position)
    if fault is None:
        return
    if fault.op == "kill":
        if multiprocessing.current_process().name != "MainProcess":
            os._exit(86)
        raise RuntimeError(f"injected worker crash at position {position}")
    if fault.op == "memory_error":
        raise MemoryError(f"injected memory error at position {position}")
    if fault.op == "error":
        raise RuntimeError(f"injected task error at position {position}")
    if fault.op == "delay":
        time.sleep(fault.delay_ms / 1e3)
