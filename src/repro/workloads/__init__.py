"""Workloads: the datasets and query sets of the paper's evaluation.

* :mod:`repro.workloads.datasets` — a registry of fifteen synthetic graphs
  standing in for the real-world datasets of Table 2;
* :mod:`repro.workloads.queries` — query-set generation following Section
  7.1 (degree-based vertex split, four endpoint settings, distance(s, t)
  <= 3) and target-centric sets, plus the target-affine partitioning the
  executor shards by, the consistent hash the router places targets with
  and open-loop arrival schedules;
* :mod:`repro.workloads.dynamic` — the dynamic-graph workload of Figure 8
  (10 % held-out edges replayed as insertions, one cycle query each).
"""

from repro.workloads.datasets import (
    DEFAULT_REPRESENTATIVES,
    DatasetSpec,
    dataset_names,
    dataset_spec,
    load_dataset,
    registry,
)
from repro.workloads.dynamic import DynamicWorkload, build_dynamic_workload
from repro.workloads.queries import (
    QuerySetting,
    QueryWorkload,
    generate_query_set,
    poisson_arrival_times,
    split_by_degree,
)

__all__ = [
    "DatasetSpec",
    "registry",
    "dataset_names",
    "dataset_spec",
    "load_dataset",
    "DEFAULT_REPRESENTATIVES",
    "QuerySetting",
    "QueryWorkload",
    "generate_query_set",
    "poisson_arrival_times",
    "split_by_degree",
    "DynamicWorkload",
    "build_dynamic_workload",
]
