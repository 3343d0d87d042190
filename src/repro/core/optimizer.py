"""Two-phase, cost-based plan selection (Section 6.1, Figure 2).

The optimizer first runs the cheap preliminary estimator.  Queries whose
estimated search space is below the threshold ``tau`` go straight to the
index DFS — for them the few milliseconds the full optimizer would take can
dominate the query time.  Heavier queries pay for the full-fledged
estimator, which yields the best cut position and the modelled costs of the
left-deep (DFS) and bushy (join) plans; the cheaper plan wins.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.core.estimator import (
    CardinalityEstimate,
    dfs_cost,
    find_cut_position,
    full_estimate,
    join_cost,
    preliminary_estimate,
)
from repro.core.index import LightWeightIndex
from repro.core.listener import Deadline
from repro.core.result import EnumerationStats, Phase

__all__ = ["Plan", "choose_plan", "DEFAULT_TAU"]

#: Threshold used in the paper's experiments (Section 6.2): queries whose
#: preliminary search-space estimate is below this value skip optimization.
DEFAULT_TAU = 1e5


@dataclass(frozen=True)
class Plan:
    """The evaluation plan chosen for one query."""

    #: ``"dfs"`` for the left-deep plan, ``"join"`` for the bushy plan.
    kind: str
    #: Cut position ``i*`` (only meaningful for join plans).
    cut_position: Optional[int]
    #: Search-space size predicted by the preliminary estimator.
    preliminary: float
    #: Whether the full-fledged estimator ran.
    used_full_estimator: bool
    #: Modelled cost of the left-deep plan (``None`` when not computed).
    dfs_cost: Optional[float] = None
    #: Modelled cost of the bushy plan (``None`` when not computed).
    join_cost: Optional[float] = None
    #: The DP tables of the full estimator (``None`` when it did not run).
    estimate: Optional[CardinalityEstimate] = None


def choose_plan(
    index: LightWeightIndex,
    *,
    tau: float = DEFAULT_TAU,
    deadline: Optional[Deadline] = None,
    stats: Optional[EnumerationStats] = None,
    force: Optional[str] = None,
) -> Plan:
    """Select the evaluation plan for the indexed query.

    ``force`` can pin the decision to ``"dfs"`` or ``"join"`` — that is how
    the standalone IDX-DFS and IDX-JOIN algorithms of the evaluation are
    expressed — while still recording the estimator outputs in ``stats``.
    """
    # An empty index (t unreachable within k) implies an empty partition set
    # and therefore a zero estimate; skip both estimators outright.  Forced
    # join plans keep the full path so their stats stay comparable.
    if force != "join" and index.is_empty:
        if stats is not None:
            stats.preliminary_estimate = 0.0
            stats.add_phase(Phase.PRELIMINARY, 0.0)
        return Plan(kind="dfs", cut_position=None, preliminary=0.0, used_full_estimator=False)

    started = time.perf_counter()
    preliminary = preliminary_estimate(index)
    preliminary_seconds = time.perf_counter() - started
    if stats is not None:
        stats.preliminary_estimate = preliminary
        stats.add_phase(Phase.PRELIMINARY, preliminary_seconds)

    if force == "dfs":
        return Plan(kind="dfs", cut_position=None, preliminary=preliminary, used_full_estimator=False)

    needs_full = force == "join" or preliminary > tau
    if not needs_full:
        return Plan(kind="dfs", cut_position=None, preliminary=preliminary, used_full_estimator=False)

    optimization_started = time.perf_counter()
    estimate = full_estimate(index, deadline=deadline)
    cut = find_cut_position(estimate)
    cost_dfs = dfs_cost(estimate)
    cost_join = join_cost(estimate, cut)
    optimization_seconds = time.perf_counter() - optimization_started
    if stats is not None:
        stats.full_estimate = float(estimate.walk_count)
        stats.add_phase(Phase.OPTIMIZATION, optimization_seconds)

    if force == "join":
        kind = "join"
    else:
        kind = "dfs" if cost_dfs < cost_join else "join"
    return Plan(
        kind=kind,
        cut_position=cut if kind == "join" else cut,
        preliminary=preliminary,
        used_full_estimator=True,
        dfs_cost=cost_dfs,
        join_cost=cost_join,
        estimate=estimate,
    )
