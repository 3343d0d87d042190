"""PathEnum reproduction: real-time hop-constrained s-t path enumeration.

This package reimplements the system described in

    Sun, Chen, He, Hooi.  "PathEnum: Towards Real-Time Hop-Constrained s-t
    Path Enumeration."  SIGMOD 2021.

in pure Python, together with the baselines it is evaluated against and
the workload generators of its evaluation section.  The repository's
``benchmarks/paper.py`` regenerates the paper's tables and figures from them.

Quickstart
----------

The public surface is the :class:`~repro.api.Database` façade: open it from
a graph, a snapshot or a running server, submit declarative
:class:`~repro.api.QuerySpec` queries (built fluently with
:class:`~repro.api.Q`) and read the uniform
:class:`~repro.api.ResultStream` back — the same code runs inline, on a
thread or process pool, or against a ``repro serve`` instance.

>>> from repro import Database, GraphBuilder, Q
>>> builder = GraphBuilder()
>>> builder.add_edges([("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
4
>>> graph = builder.build()
>>> with Database(graph) as db:
...     result = db.query(Q("a", "d", 3), external=True).result()
>>> [graph.translate_path(p) for p in result.paths]
[('a', 'c', 'd'), ('a', 'b', 'c', 'd')]

Execution
---------

:class:`~repro.api.Database` is the entry point for running queries, on
every backend.  The machinery it is built on — ``QuerySession``,
``ExecutorCore`` and ``StreamRun`` — lives in :mod:`repro.core.engine`.
"""

from repro._version import __version__
from repro.api import BACKEND_CHOICES, Database, Q, QuerySpec, ResultStream, StreamStats
from repro.core import (
    AccumulativeConstraint,
    AutomatonConstraint,
    IdxDfs,
    IdxJoin,
    LightWeightIndex,
    PathEnum,
    PredicateConstraint,
    Query,
    QueryResult,
    RunConfig,
    SequenceAutomaton,
)
from repro.errors import ReproError
from repro.graph import DiGraph, GraphBuilder, read_edge_list

__all__ = [
    "__version__",
    # the unified façade
    "Database",
    "Q",
    "QuerySpec",
    "ResultStream",
    "StreamStats",
    "BACKEND_CHOICES",
    # graphs
    "DiGraph",
    "GraphBuilder",
    "read_edge_list",
    # queries and results
    "Query",
    "QueryResult",
    "RunConfig",
    "PathEnum",
    "IdxDfs",
    "IdxJoin",
    "LightWeightIndex",
    # constraints
    "PredicateConstraint",
    "AccumulativeConstraint",
    "AutomatonConstraint",
    "SequenceAutomaton",
    "ReproError",
]
