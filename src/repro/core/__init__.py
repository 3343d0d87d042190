"""PathEnum core: the paper's primary contribution.

Public surface:

* :class:`~repro.core.engine.PathEnum` — the complete system (index +
  cost-based optimizer + DFS/join execution);
* :class:`~repro.core.engine.IdxDfs` / :class:`~repro.core.engine.IdxJoin` —
  the fixed-plan variants evaluated in the paper;
* :class:`~repro.core.query.Query`, :class:`~repro.core.listener.RunConfig`,
  :class:`~repro.core.result.QueryResult` — query/result plumbing;
* :class:`~repro.core.index.LightWeightIndex` and the estimator/optimizer
  helpers for users who want to drive the pieces individually;
* the iterative enumeration kernels of :mod:`repro.core.kernels`
  (:func:`run_dfs_kernel` / :func:`run_join_kernel`) and the columnar
  :class:`~repro.core.result.PathBuffer` they emit into;
* the constraint extensions of Appendix E.
"""

from repro.core.algorithm import Algorithm
from repro.core.constraints import (
    AccumulativeConstraint,
    AutomatonConstraint,
    PathConstraint,
    PredicateConstraint,
    SequenceAutomaton,
)
from repro.core.dfs import run_idx_dfs
from repro.core.engine import (
    BatchStats,
    ExecutorCore,
    IdxDfs,
    IdxJoin,
    PathEnum,
    QuerySession,
    StreamRun,
)
from repro.core.estimator import (
    CardinalityEstimate,
    dfs_cost,
    find_cut_position,
    full_estimate,
    join_cost,
    preliminary_estimate,
)
from repro.core.index import LightWeightIndex
from repro.core.join import run_idx_join
from repro.core.kernels import run_dfs_kernel, run_join_kernel, run_subquery_kernel
from repro.core.listener import Deadline, ResultCollector, RunConfig
from repro.core.optimizer import DEFAULT_TAU, Plan, choose_plan
from repro.core.query import Query
from repro.core.relations import ChainRelations, Relation, build_relations
from repro.core.result import EnumerationStats, PathBuffer, Phase, QueryResult
from repro.core.reverse import IdxDfsReverse, run_idx_dfs_reverse

__all__ = [
    "Algorithm",
    "PathEnum",
    "IdxDfs",
    "IdxJoin",
    "QuerySession",
    "ExecutorCore",
    "StreamRun",
    "BatchStats",
    "Query",
    "RunConfig",
    "QueryResult",
    "PathBuffer",
    "EnumerationStats",
    "Phase",
    "Deadline",
    "ResultCollector",
    "LightWeightIndex",
    "run_idx_dfs",
    "run_idx_join",
    "run_dfs_kernel",
    "run_join_kernel",
    "run_subquery_kernel",
    "IdxDfsReverse",
    "run_idx_dfs_reverse",
    "Plan",
    "choose_plan",
    "DEFAULT_TAU",
    "CardinalityEstimate",
    "preliminary_estimate",
    "full_estimate",
    "find_cut_position",
    "dfs_cost",
    "join_cost",
    "ChainRelations",
    "Relation",
    "build_relations",
    "PathConstraint",
    "PredicateConstraint",
    "AccumulativeConstraint",
    "AutomatonConstraint",
    "SequenceAutomaton",
]
