"""Compare PathEnum against the baselines on a synthetic workload.

A miniature version of the paper's Table 3: generates a hard (hub-to-hub)
query set on one of the registry datasets, evaluates it with every
paper algorithm through a ``Database`` and prints query time, throughput
and response time.  Useful as a template for benchmarking the library on
your own graphs.

Run with:

    python examples/algorithm_comparison.py [dataset] [k]
"""

from __future__ import annotations

import sys
from statistics import mean

from repro import Database
from repro.baselines.registry import PAPER_ALGORITHMS, get_algorithm
from repro.cli import format_table
from repro.workloads import QuerySetting, generate_query_set, load_dataset


def main() -> None:
    dataset_name = sys.argv[1] if len(sys.argv) > 1 else "gg"
    k = int(sys.argv[2]) if len(sys.argv) > 2 else 4

    graph = load_dataset(dataset_name)
    print(f"dataset {dataset_name}: {graph.num_vertices} vertices, {graph.num_edges} edges")
    workload = generate_query_set(
        graph, count=10, k=k, setting=QuerySetting.HIGH_HIGH, seed=0, graph_name=dataset_name
    )
    print(f"workload: {len(workload)} hub-to-hub queries, k={k}\n")

    rows = []
    for name in PAPER_ALGORITHMS:
        with Database(graph, algorithm=get_algorithm(name)) as db:
            results = db.batch(
                workload.queries, store_paths=False, deadline=2.0, response_k=100
            ).results()
        rows.append({
            "algorithm": name,
            "query_ms": mean(r.query_millis for r in results),
            "throughput": mean(r.throughput for r in results),
            # Queries with fewer than 100 results respond when they finish.
            "response_ms": mean(
                (r.response_seconds if r.response_seconds is not None else r.query_seconds) * 1e3
                for r in results
            ),
            "timeout_frac": sum(r.stats.timed_out for r in results) / len(results),
            "results": sum(r.count for r in results),
        })
    print(format_table(rows, title=f"Overall comparison on {dataset_name} (k={k})"))

    fastest = min(rows, key=lambda row: row["query_ms"])
    slowest = max(rows, key=lambda row: row["query_ms"])
    speedup = slowest["query_ms"] / max(fastest["query_ms"], 1e-9)
    print(f"\n{fastest['algorithm']} is {speedup:.1f}x faster than {slowest['algorithm']} "
          f"on this workload")


if __name__ == "__main__":
    main()
