"""Exception hierarchy for the :mod:`repro` package.

All library errors derive from :class:`ReproError` so that callers can catch
a single base class.  More specific subclasses are raised where the caller
can reasonably recover or report a precise message.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "ReproError",
    "GraphError",
    "VertexNotFoundError",
    "EdgeNotFoundError",
    "QueryError",
    "InvalidQueryError",
    "QuerySpecError",
    "BackendError",
    "ConnectionLost",
    "ServiceOverloaded",
    "EnumerationTimeout",
    "ResultLimitReached",
    "DatasetError",
    "WorkloadError",
    "ConstraintError",
]


class ReproError(Exception):
    """Base class for every error raised by the library."""


class GraphError(ReproError):
    """Problems constructing or manipulating a graph."""


class VertexNotFoundError(GraphError, KeyError):
    """A vertex id is not present in the graph."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"vertex {vertex!r} is not in the graph")
        self.vertex = vertex


class EdgeNotFoundError(GraphError, KeyError):
    """An edge is not present in the graph."""

    def __init__(self, source: object, target: object) -> None:
        super().__init__(f"edge ({source!r} -> {target!r}) is not in the graph")
        self.source = source
        self.target = target


class QueryError(ReproError):
    """Problems with a HcPE query."""


class InvalidQueryError(QueryError, ValueError):
    """The query parameters violate the problem statement (e.g. s == t, k < 2)."""


class QuerySpecError(QueryError, ValueError):
    """A declarative :class:`repro.api.QuerySpec` is ill-formed.

    Raised with a precise message naming the offending field (negative hop
    budget, identical endpoints, unknown engine name, mixed per-batch
    options, ...) so callers can surface it verbatim.
    """


class BackendError(ReproError, ValueError):
    """An execution backend cannot be selected or opened.

    Raised by :class:`repro.api.Database` for unknown backend names, targets
    that cannot be resolved (not a graph, snapshot, edge list or
    ``host:port`` URL) and local/remote mismatches.
    """


class ConnectionLost(ReproError, ConnectionError):
    """A query-service connection could not be established or died.

    Raised by :class:`repro.server.client.QueryClient` when dialling a
    server fails after every reconnect attempt, and by control requests
    whose connection vanished mid-flight, and by remote and routed
    :class:`repro.api.Database` streams in both cases.  Subclasses
    ``ConnectionError`` so pre-existing ``except (ConnectionError,
    OSError)`` handlers keep working; carries the endpoint and the number
    of attempts made.  ``port=None`` means ``host`` already names the
    endpoint (e.g. a whole shard map).
    """

    def __init__(
        self, host: str, port: Optional[int], attempts: int = 1, reason: str = ""
    ) -> None:
        detail = f": {reason}" if reason else ""
        where = host if port is None else f"{host}:{port}"
        super().__init__(
            f"lost connection to {where} after {attempts} "
            f"attempt{'s' if attempts != 1 else ''}{detail}"
        )
        self.host = host
        self.port = port
        self.attempts = attempts


class ServiceOverloaded(ReproError, RuntimeError):
    """A query service shed work because its pending budget is exhausted.

    Raised by :meth:`repro.server.service.QueryService.submit` when
    admitting a job would push the in-flight query count past
    ``max_pending_queries``, and by the remote backends when the server
    answered with an ``overloaded`` frame.  Carries ``retry_after`` — the
    server's own estimate, in seconds, of when capacity should free up —
    so callers can back off intelligently instead of hammering a saturated
    host.
    """

    def __init__(
        self,
        message: str = "query service overloaded",
        *,
        retry_after: float = 0.1,
        pending: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> None:
        detail = message
        if pending is not None and limit is not None:
            detail = f"{message} ({pending} queries pending, budget {limit})"
        super().__init__(detail)
        self.retry_after = float(retry_after)
        self.pending = pending
        self.limit = limit


class EnumerationTimeout(ReproError):
    """The cooperative deadline of an enumeration run expired.

    The exception carries the partial statistics gathered so far so the
    harness can still report throughput for timed-out queries, mirroring the
    paper's treatment of queries hitting the two-minute limit.
    """

    def __init__(self, message: str = "enumeration deadline expired", *, stats=None) -> None:
        super().__init__(message)
        self.stats = stats


class ResultLimitReached(ReproError):
    """Internal control-flow signal used to stop after the N-th result.

    Never escapes the public API: the enumerators catch it and return
    normally with ``truncated=True`` in the result.
    """


class DatasetError(ReproError):
    """A named dataset cannot be generated or loaded."""


class WorkloadError(ReproError):
    """A query workload cannot be generated with the requested properties."""


class ConstraintError(ReproError, ValueError):
    """A path constraint (predicate / accumulative / automaton) is ill-formed."""
