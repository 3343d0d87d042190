"""Command-line interface: ``repro`` / ``pathenum`` (or ``python -m repro``).

Sub-commands
------------

``query``
    Evaluate a single HcPE query on an edge-list file or a named synthetic
    dataset and print the paths (or just the count).

``batch-query``
    Evaluate a whole query set as one unit through the batch execution
    engine (shared reverse-BFS distances, optional thread pool) and print
    per-query counts plus the batch cache statistics.

``datasets``
    List the synthetic dataset registry with Table 2 style properties.

``info``
    Print a graph's size, storage backend and per-array memory footprint —
    for snapshots also resident vs. mapped bytes, bytes/edge and the
    compression ratio of each storage backend.

``convert``
    Convert any graph source (edge list, ``.npz``, snapshot, dataset) into
    a page-aligned binary snapshot — raw (memory-mappable) or compressed
    (gap/varint block-coded neighbour lists) — for millisecond cold starts.

``serve``
    Boot the asyncio query service on a TCP port: a persistent worker pool
    (threads, or processes over a shared-memory graph image) streaming
    per-query result frames over the length-prefixed JSON protocol of
    :mod:`repro.server.protocol`.  Runs until SIGINT/SIGTERM.

``route``
    Boot the distributed shard router: a graph-free front end that
    consistent-hashes queries by target across a fleet of ``repro serve``
    shard hosts (``--shard`` entries or a ``--shard-map`` file), merges the
    per-shard result streams back into workload order, and layers replica
    failover plus hedged requests on top.  Speaks the same wire protocol as
    ``serve``, so every client works against it unchanged.

``client``
    Scripted load against a running server *or router*: submit one workload
    and print the streamed results, drive an open-loop Poisson arrival
    process (``--rate``/``--connections``) and print the latency
    percentiles, or fetch server statistics (``--server-stats`` — for a
    router this includes the per-shard health probe).

``batch-query`` accepts ``--processes`` to fan the
batch out over target-sharded worker processes attached to a
shared-memory copy of the graph; ``--workers`` keeps selecting the in-process
thread pool.

Every execution command routes through the :class:`repro.api.Database`
façade — the flags select its backend (``inline`` / ``threads`` /
``processes`` locally, ``remote`` for ``client``), so the CLI exercises
exactly the code paths library users get.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.api import Database, Q
from repro.baselines.registry import available_algorithms, get_algorithm
from repro.errors import VertexNotFoundError
from repro.core.query import Query
from repro.graph.io import _load_npz, read_edge_list
from repro.graph.snapshot import load_snapshot, save_snapshot, snapshot_codec
from repro.server.protocol import DEFAULT_PORT as SERVE_DEFAULT_PORT
from repro.server.protocol import DEFAULT_ROUTER_PORT as ROUTE_DEFAULT_PORT
from repro.graph.properties import summarize
from repro.workloads.datasets import dataset_names, load_dataset, registry
from repro.workloads.queries import generate_target_centric_set

__all__ = ["main", "build_parser", "format_table", "latency_summary"]

#: Snapshot storage backends selectable from the command line.
STORE_CHOICES = ("auto", "mmap", "compressed", "heap", "shared_memory")

#: Percentiles reported by :func:`latency_summary`.
SUMMARY_PERCENTILES = (50.0, 95.0, 99.0, 99.9)


def format_value(value: object, *, scientific: bool = True) -> str:
    """Render one table cell the way the paper's tables do (``2.28e-01``)."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if scientific:
            return f"{value:.2e}"
        return f"{value:.3f}"
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, object]],
    *,
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
    scientific: bool = True,
) -> str:
    """Render rows of dicts as an aligned plain-text table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered: List[List[str]] = [[str(c) for c in columns]]
    for row in rows:
        rendered.append([format_value(row.get(c), scientific=scientific) for c in columns])
    widths = [max(len(r[i]) for r in rendered) for i in range(len(columns))]
    lines = [title] if title else []
    header, *body = rendered
    lines.append("  ".join(cell.ljust(width) for cell, width in zip(header, widths)))
    lines.append("  ".join("-" * width for width in widths))
    for row_cells in body:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row_cells, widths)))
    return "\n".join(lines)


def latency_summary(
    latencies_ms: Sequence[float],
    *,
    percentiles: Sequence[float] = SUMMARY_PERCENTILES,
) -> Dict[str, float]:
    """Count, mean, percentiles and max of a millisecond latency series.

    Keys: ``count``, ``mean_ms``, one ``pXX_ms`` per percentile (``99.9``
    renders as ``p99_9_ms``) and ``max_ms``.
    """
    if len(latencies_ms) == 0:
        raise ValueError("cannot summarise an empty latency sequence")
    values = np.sort(np.asarray(latencies_ms, dtype=np.float64))
    points = np.percentile(values, list(percentiles))
    summary: Dict[str, float] = {"count": int(values.size), "mean_ms": float(values.mean())}
    for percentile, point in zip(percentiles, points):
        label = f"{percentile:g}".replace(".", "_")
        summary[f"p{label}_ms"] = float(point)
    summary["max_ms"] = float(values[-1])
    return summary


def format_latency_summary(
    summary: Mapping[str, float], *, title: Optional[str] = None, scientific: bool = False
) -> str:
    """Render one :func:`latency_summary` dict as a one-row table."""
    return format_table([dict(summary)], title=title, scientific=scientific)


def _is_snapshot_file(path: str) -> bool:
    from repro.graph.snapshot import SNAPSHOT_MAGIC

    try:
        with open(path, "rb") as handle:
            return handle.read(len(SNAPSHOT_MAGIC)) == SNAPSHOT_MAGIC
    except OSError:
        return False


def _load_graph_source(source: str, *, store: str = "auto"):
    """Load a dataset name or a graph file of any supported format."""
    if source in dataset_names():
        return load_dataset(source)
    if _is_snapshot_file(source):
        return load_snapshot(source, store=store)
    if source.endswith(".npz"):
        return _load_npz(source)
    return read_edge_list(source)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="pathenum",
        description="Hop-constrained s-t path enumeration (PathEnum, SIGMOD 2021).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    query_parser = subparsers.add_parser("query", help="evaluate a single HcPE query")
    source_group = query_parser.add_mutually_exclusive_group(required=True)
    source_group.add_argument("--edge-list", help="path to a SNAP-style edge list file")
    source_group.add_argument(
        "--dataset", choices=dataset_names(), help="name of a synthetic dataset"
    )
    query_parser.add_argument("--source", required=True, help="source vertex id")
    query_parser.add_argument("--target", required=True, help="target vertex id")
    query_parser.add_argument("-k", "--hops", type=int, required=True, help="hop constraint")
    query_parser.add_argument(
        "--algorithm",
        default="PathEnum",
        help=f"algorithm to use (default PathEnum; available: {', '.join(sorted(available_algorithms()))})",
    )
    query_parser.add_argument("--count-only", action="store_true", help="print only the count")
    query_parser.add_argument("--limit", type=int, default=None, help="stop after N results")
    query_parser.add_argument(
        "--time-limit", type=float, default=None, help="per-query time limit in seconds"
    )

    batch_parser = subparsers.add_parser(
        "batch-query", help="evaluate a query set through the batch execution engine"
    )
    batch_source_group = batch_parser.add_mutually_exclusive_group(required=True)
    batch_source_group.add_argument("--edge-list", help="path to a SNAP-style edge list file")
    batch_source_group.add_argument(
        "--dataset", choices=dataset_names(), help="name of a synthetic dataset"
    )
    batch_parser.add_argument(
        "--pair",
        action="append",
        default=None,
        metavar="SOURCE,TARGET",
        help="explicit query endpoints (repeatable); omit to generate a workload",
    )
    batch_parser.add_argument("-k", "--hops", type=int, required=True, help="hop constraint")
    batch_parser.add_argument(
        "--queries", type=int, default=20, help="generated workload size (without --pair)"
    )
    batch_parser.add_argument(
        "--targets", type=int, default=4,
        help="distinct targets of the generated workload (repeated-target traffic shape)",
    )
    batch_parser.add_argument(
        "--algorithm", default="PathEnum",
        help="algorithm to use (default PathEnum)",
    )
    batch_parser.add_argument(
        "--workers", type=int, default=1, help="thread-pool size (1 = sequential)"
    )
    batch_parser.add_argument(
        "--processes", type=int, default=1,
        help="worker processes sharing the graph via shared memory (1 = in-process)",
    )
    batch_parser.add_argument(
        "--start-method", choices=("fork", "spawn", "forkserver"), default=None,
        help="multiprocessing start method for --processes (default: fork if available)",
    )
    batch_parser.add_argument("--time-limit", type=float, default=None)
    batch_parser.add_argument("--limit", type=int, default=None, help="result cap per query")
    batch_parser.add_argument("--seed", type=int, default=0)

    datasets_parser = subparsers.add_parser("datasets", help="list the synthetic dataset registry")
    datasets_parser.add_argument(
        "--build", action="store_true", help="build each graph and report measured properties"
    )

    info_parser = subparsers.add_parser(
        "info", help="print size, backend and memory footprint of a graph"
    )
    info_parser.add_argument(
        "graph",
        help="a synthetic dataset name or a path to an edge-list / .npz / "
             "binary snapshot file",
    )
    info_parser.add_argument(
        "--store", choices=STORE_CHOICES, default="auto",
        help="storage backend to load a snapshot into (default: the zero-copy "
             "mapping matching the snapshot's codec)",
    )

    convert_parser = subparsers.add_parser(
        "convert",
        help="convert a graph source into a mappable binary snapshot",
    )
    convert_parser.add_argument(
        "source",
        help="a dataset name or a path to an edge-list / .npz / snapshot file",
    )
    convert_parser.add_argument("output", help="snapshot file to write")
    convert_parser.add_argument(
        "--codec", choices=("raw", "compressed"), default="raw",
        help="raw = flat arrays for mmap attach; compressed = gap/varint "
             "block-coded neighbour lists (smaller file and resident set)",
    )

    serve_parser = subparsers.add_parser(
        "serve", help="run the asyncio query service on a TCP port"
    )
    serve_source_group = serve_parser.add_mutually_exclusive_group(required=True)
    serve_source_group.add_argument("--edge-list", help="path to a SNAP-style edge list file")
    serve_source_group.add_argument(
        "--dataset", choices=dataset_names(), help="name of a synthetic dataset"
    )
    serve_source_group.add_argument(
        "--snapshot",
        help="path to a binary snapshot (`repro convert`): attaches in "
             "milliseconds and shares one page cache across replicas",
    )
    serve_parser.add_argument(
        "--store", choices=STORE_CHOICES, default="auto",
        help="storage backend for --snapshot (default: match the codec)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=None,
        help=f"TCP port (default {SERVE_DEFAULT_PORT}; 0 picks a free port)",
    )
    serve_parser.add_argument(
        "--algorithm", default="PathEnum", help="algorithm to serve (default PathEnum)"
    )
    serve_parser.add_argument(
        "--processes", type=int, default=1,
        help="worker processes over a shared-memory graph (1 = in-process threads)",
    )
    serve_parser.add_argument(
        "--threads", type=int, default=2,
        help="worker threads when --processes is 1",
    )
    serve_parser.add_argument(
        "--start-method", choices=("fork", "spawn", "forkserver"), default=None,
        help="multiprocessing start method for --processes (default: fork on Linux)",
    )
    serve_parser.add_argument(
        "--shard-id", type=int, default=None,
        help="identity of this host in a routed deployment (reported in stats/pong)",
    )
    serve_parser.add_argument(
        "--delay-ms", type=float, default=0.0,
        help="fixed artificial service delay per query (capacity experiments)",
    )
    serve_parser.add_argument(
        "--max-pending-queries", type=int, default=None,
        help="admission budget: reject submits once this many queries are "
             "pending (overloaded frame with a retry-after hint)",
    )
    serve_parser.add_argument(
        "--max-queue-delay-ms", type=float, default=None,
        help="shed jobs that waited longer than this in the queue instead "
             "of running them late",
    )

    route_parser = subparsers.add_parser(
        "route", help="run the distributed shard router (holds no graph)"
    )
    route_source_group = route_parser.add_mutually_exclusive_group(required=True)
    route_source_group.add_argument(
        "--shard", action="append", metavar="HOST:PORT[,HOST:PORT...]",
        help="one shard's replica list (repeat once per shard, in shard order)",
    )
    route_source_group.add_argument(
        "--shard-map", help="path to a JSON shard-map file ({'shards': [...]})"
    )
    route_parser.add_argument("--host", default="127.0.0.1")
    route_parser.add_argument(
        "--port", type=int, default=None,
        help=f"TCP port (default {ROUTE_DEFAULT_PORT}; 0 picks a free port)",
    )
    route_parser.add_argument(
        "--no-hedge", action="store_true",
        help="disable hedged requests (duplicate straggling sub-batches)",
    )
    route_parser.add_argument(
        "--hedge-percentile", type=float, default=95.0,
        help="latency percentile of winning attempts that sets the hedge delay",
    )
    route_parser.add_argument(
        "--hedge-min-delay-ms", type=float, default=25.0,
        help="lower clamp of the hedge delay",
    )
    route_parser.add_argument(
        "--hedge-max-delay-ms", type=float, default=2000.0,
        help="upper clamp of the hedge delay",
    )
    route_parser.add_argument(
        "--max-attempts", type=int, default=4,
        help="replica attempts per shard sub-batch before the job fails",
    )
    route_parser.add_argument(
        "--connect-retries", type=int, default=2,
        help="redial attempts per shard connection (exponential backoff + jitter)",
    )
    route_parser.add_argument(
        "--breaker-threshold", type=int, default=3,
        help="consecutive failures that trip a replica's circuit breaker",
    )
    route_parser.add_argument(
        "--breaker-cooldown-ms", type=float, default=5000.0,
        help="how long a tripped breaker stays open before a half-open probe",
    )

    client_parser = subparsers.add_parser(
        "client", help="drive a running query server with a scripted workload"
    )
    client_parser.add_argument("--host", default="127.0.0.1")
    client_parser.add_argument("--port", type=int, default=SERVE_DEFAULT_PORT)
    client_parser.add_argument(
        "--server-stats", action="store_true",
        help="print the server's statistics snapshot and exit",
    )
    client_parser.add_argument(
        "--dataset", choices=dataset_names(), default=None,
        help="dataset to generate the workload from (must match the server's)",
    )
    client_parser.add_argument(
        "--pair", action="append", default=None, metavar="SOURCE,TARGET",
        help="explicit external-id query endpoints (repeatable); omit to generate",
    )
    client_parser.add_argument("-k", "--hops", type=int, default=4, help="hop constraint")
    client_parser.add_argument(
        "--queries", type=int, default=20, help="generated workload size (without --pair)"
    )
    client_parser.add_argument(
        "--targets", type=int, default=4,
        help="distinct targets of the generated workload",
    )
    client_parser.add_argument("--seed", type=int, default=0)
    client_parser.add_argument(
        "--rate", type=float, default=None,
        help="open-loop mode: offered load in queries/second (Poisson arrivals)",
    )
    client_parser.add_argument(
        "--connections", type=int, default=1,
        help="concurrent client connections in open-loop mode",
    )
    client_parser.add_argument("--limit", type=int, default=None, help="result cap per query")
    client_parser.add_argument("--time-limit", type=float, default=None)
    client_parser.add_argument(
        "--count-only", action="store_true", help="do not stream paths back"
    )
    client_parser.add_argument(
        "--updates", type=int, default=None,
        help="live-update replay mode: remove and re-insert N edges sampled "
             "from --dataset through `update` frames (the server's graph "
             "ends unchanged) and report per-mutation latency",
    )
    client_parser.add_argument(
        "--update-seed", type=int, default=0,
        help="seed of the sampled update edges (default 0)",
    )
    return parser


def _command_query(args: argparse.Namespace) -> int:
    if args.edge_list:
        graph = read_edge_list(args.edge_list)
    else:
        graph = load_dataset(args.dataset)
    try:
        source = graph.to_internal(int(args.source))
        target = graph.to_internal(int(args.target))
    except (ValueError, KeyError):
        source = graph.to_internal(args.source)
        target = graph.to_internal(args.target)
    spec = (
        Q(source, target, args.hops)
        .limit(args.limit)
        .deadline(args.time_limit)
        .store_paths(not args.count_only)
    )
    with Database(graph, algorithm=get_algorithm(args.algorithm)) as db:
        result = db.query(spec).result()
    print(f"algorithm: {result.algorithm}")
    print(f"query: q({args.source}, {args.target}, {args.hops})")
    print(f"paths: {result.count}")
    print(f"query time: {result.query_millis:.3f} ms")
    if result.stats.plan:
        print(f"plan: {result.stats.plan}")
    if not args.count_only and result.paths is not None:
        for path in result.paths:
            print(" -> ".join(str(graph.to_external(v)) for v in path))
    return 0


def _load_graph(args: argparse.Namespace):
    if getattr(args, "snapshot", None):
        return load_snapshot(args.snapshot, store=getattr(args, "store", "auto"))
    if args.edge_list:
        return read_edge_list(args.edge_list)
    return load_dataset(args.dataset)


def _split_pair(pair: str):
    """Split one ``--pair SOURCE,TARGET`` argument; raises ``ValueError``."""
    raw_source, raw_target = pair.split(",", 1)
    return raw_source.strip(), raw_target.strip()


def _command_batch_query(args: argparse.Namespace) -> int:
    if args.workers < 1:
        print("--workers must be at least 1", file=sys.stderr)
        return 2
    if args.processes < 1:
        print("--processes must be at least 1", file=sys.stderr)
        return 2
    if args.processes > 1 and args.workers > 1:
        print("--workers and --processes are mutually exclusive", file=sys.stderr)
        return 2
    graph = _load_graph(args)
    if args.pair:
        queries = []
        for pair in args.pair:
            try:
                raw_source, raw_target = _split_pair(pair)
            except ValueError:
                print(f"invalid --pair {pair!r}: expected SOURCE,TARGET", file=sys.stderr)
                return 2
            queries.append(
                Query.from_external(
                    graph,
                    _coerce_vertex(graph, raw_source),
                    _coerce_vertex(graph, raw_target),
                    args.hops,
                )
            )
    else:
        workload = generate_target_centric_set(
            graph,
            count=args.queries,
            k=args.hops,
            num_targets=args.targets,
            seed=args.seed,
            graph_name=args.dataset or args.edge_list,
        )
        queries = list(workload)

    if args.processes > 1:
        backend, workers = "processes", args.processes
    elif args.workers > 1:
        backend, workers = "threads", args.workers
    else:
        backend, workers = "inline", None
    with Database(
        graph,
        backend=backend,
        algorithm=get_algorithm(args.algorithm),
        workers=workers,
        start_method=args.start_method,
    ) as db:
        stream = db.batch(
            queries,
            store_paths=False,
            limit=args.limit,
            deadline=args.time_limit,
        )
        results = stream.results()
        stats = stream.stats()
    rows = [
        {
            "source": graph.to_external(result.source),
            "target": graph.to_external(result.target),
            "k": result.k,
            "paths": result.count,
            "query_ms": round(result.query_millis, 3),
            "plan": result.stats.plan,
            "bfs_cached": result.stats.bfs_cache_hit,
        }
        for result in results
    ]
    print(format_table(rows, title=f"Batch of {len(queries)} queries ({args.algorithm})",
                       scientific=False))
    row = stats.as_row()
    throughput = stats.total_paths / stats.wall_seconds if stats.wall_seconds > 0 else 0.0
    print(f"total paths: {stats.total_paths}")
    print(f"batch wall time: {row['wall_ms']} ms "
          f"({throughput:.0f} paths/s)")
    print(
        f"reverse BFS runs: {row['reverse_bfs_runs']} for {row['queries']} queries "
        f"(cache hit rate {stats.hit_rate:.0%})"
    )
    return 0


def _coerce_vertex(graph, raw: str):
    """External vertex ids on the command line may be ints or strings."""
    try:
        candidate = int(raw)
    except ValueError:
        return raw
    try:
        graph.to_internal(candidate)
        return candidate
    except VertexNotFoundError:
        return raw


def _command_datasets(args: argparse.Namespace) -> int:
    rows = []
    for name, spec in registry().items():
        row = {
            "name": name,
            "dataset": spec.full_name,
            "type": spec.category,
            "paper |V|": spec.paper_vertices,
            "paper |E|": spec.paper_edges,
            "paper d_avg": spec.paper_avg_degree,
        }
        if args.build:
            summary = summarize(load_dataset(name))
            row.update({"|V|": summary.num_vertices, "|E|": summary.num_edges,
                        "d_avg": round(summary.avg_degree, 1)})
        rows.append(row)
    print(format_table(rows, title="Synthetic dataset registry (Table 2 stand-ins)",
                       scientific=False))
    return 0


def _command_info(args: argparse.Namespace) -> int:
    from pathlib import Path

    if args.graph in dataset_names():
        graph = load_dataset(args.graph)
        origin = f"dataset {args.graph!r}"
    elif Path(args.graph).exists():
        graph = _load_graph_source(args.graph, store=args.store)
        origin = args.graph
        if _is_snapshot_file(args.graph):
            origin += f" (snapshot, codec={snapshot_codec(args.graph)})"
    else:
        print(
            f"unknown graph {args.graph!r}: not a dataset name "
            f"({', '.join(dataset_names())}) and not an existing file",
            file=sys.stderr,
        )
        return 2
    usage = graph.memory_usage()
    print(repr(graph))
    print(f"source: {origin}")
    summary = summarize(graph)
    print(format_table([summary.as_row()], title="Graph properties", scientific=False))
    num_edges = max(1, graph.num_edges)
    rows = [
        {"array": name, "bytes": nbytes, "bytes/edge": round(nbytes / num_edges, 2)}
        for name, nbytes in usage["arrays"].items()
    ]
    rows.append({
        "array": "total",
        "bytes": usage["total_bytes"],
        "bytes/edge": round(usage["total_bytes"] / num_edges, 2),
    })
    print(format_table(
        rows, title=f"Storage ({usage['backend']} backend)", scientific=False
    ))
    accounting = [
        {"measure": "resident bytes (private heap/segment)", "value": usage["resident_bytes"]},
        {"measure": "mapped bytes (snapshot page cache)", "value": usage["mapped_bytes"]},
        {"measure": "logical bytes (flat int64 CSR)", "value": usage["logical_bytes"]},
        {"measure": "compression ratio (stored/logical)",
         "value": round(usage["compression_ratio"], 3)},
    ]
    print(format_table(accounting, title="Byte accounting", scientific=False))
    graph.close_store()
    return 0


def _command_convert(args: argparse.Namespace) -> int:
    from pathlib import Path

    if args.source not in dataset_names() and not Path(args.source).exists():
        print(f"source {args.source!r} does not exist", file=sys.stderr)
        return 2
    graph = _load_graph_source(args.source)
    path = save_snapshot(graph, args.output, codec=args.codec)
    size = path.stat().st_size
    num_edges = max(1, graph.num_edges)
    usage = graph.memory_usage()
    print(
        f"wrote {path} ({args.codec}): {size} bytes, "
        f"{size / num_edges:.2f} bytes/edge on disk "
        f"(flat CSR in memory: {usage['logical_bytes'] / num_edges:.2f} bytes/edge)"
    )
    print(
        f"open it with Database({str(path)!r}), `repro serve --snapshot {path}` "
        f"or `repro info {path}`"
    )
    graph.close_store()
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.core.algorithm import DelayedAlgorithm
    from repro.server.server import serve_forever
    from repro.server.service import QueryService

    graph = _load_graph(args)
    algorithm = get_algorithm(args.algorithm)
    if args.delay_ms:
        # Capacity-experiment mode: a fixed per-query service delay makes
        # a shard's throughput a known constant (results are unchanged).
        algorithm = DelayedAlgorithm(algorithm, args.delay_ms / 1e3)
    service = QueryService(
        graph,
        algorithm=algorithm,
        processes=args.processes,
        threads=args.threads,
        start_method=args.start_method,
        shard_id=args.shard_id,
        max_pending_queries=args.max_pending_queries,
        max_queue_delay=(
            None if args.max_queue_delay_ms is None else args.max_queue_delay_ms / 1e3
        ),
    )
    port = SERVE_DEFAULT_PORT if args.port is None else args.port
    try:
        return asyncio.run(serve_forever(service, host=args.host, port=port))
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        return 0


def _command_route(args: argparse.Namespace) -> int:
    import asyncio

    from repro.server.client import ReconnectPolicy
    from repro.server.router import ShardMap, ShardRouter, route_forever

    if args.shard_map:
        shard_map = ShardMap.from_file(args.shard_map)
    else:
        shard_map = ShardMap.from_entries(args.shard)
    router = ShardRouter(
        shard_map,
        hedge=not args.no_hedge,
        hedge_percentile=args.hedge_percentile,
        hedge_min_delay=args.hedge_min_delay_ms / 1e3,
        hedge_max_delay=args.hedge_max_delay_ms / 1e3,
        max_attempts=args.max_attempts,
        policy=ReconnectPolicy(attempts=1 + max(0, args.connect_retries)),
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown_ms / 1e3,
    )
    port = ROUTE_DEFAULT_PORT if args.port is None else args.port
    try:
        return asyncio.run(route_forever(router, host=args.host, port=port))
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        return 0


def _client_queries(args: argparse.Namespace):
    """The workload to submit: explicit pairs, or a generated target-centric set."""
    if args.pair:
        queries = []
        for pair in args.pair:
            try:
                raw_source, raw_target = _split_pair(pair)
            except ValueError:
                print(f"invalid --pair {pair!r}: expected SOURCE,TARGET", file=sys.stderr)
                raise SystemExit(2)
            # The server resolves external ids against its own graph (both
            # int and string spellings are tried there), so the raw strings
            # can travel as-is.
            queries.append([raw_source, raw_target, args.hops])
        return queries, True
    if not args.dataset:
        raise SystemExit("either --pair or --dataset is required (workload source)")
    graph = load_dataset(args.dataset)
    workload = generate_target_centric_set(
        graph,
        count=args.queries,
        k=args.hops,
        num_targets=args.targets,
        seed=args.seed,
        graph_name=args.dataset,
    )
    return [[q.source, q.target, q.k] for q in workload], False


def _client_update_replay(args: argparse.Namespace) -> int:
    """Replay a remove / re-insert cycle over sampled edges (``--updates``).

    Each sampled edge is removed and immediately re-inserted through
    ``update`` frames, so the run is idempotent — the served graph ends
    exactly where it started — while every cycle still publishes two real
    epochs (CSR rebuild, distance repair, segment republish) whose
    round-trip latency is what gets reported.
    """
    import asyncio
    import random as random_module

    from repro.server.client import QueryClient

    if args.updates < 1:
        print("--updates must be at least 1", file=sys.stderr)
        return 2
    if not args.dataset:
        print(
            "--updates needs --dataset (the edge population to sample; must "
            "match the server's graph)",
            file=sys.stderr,
        )
        return 2
    graph = load_dataset(args.dataset)
    rng = random_module.Random(args.update_seed)
    sources = graph.edge_sources()
    targets = graph.out_csr()[1]
    picks = rng.sample(range(graph.num_edges), min(args.updates, graph.num_edges))
    edges = [[int(sources[i]), int(targets[i])] for i in picks]

    async def _replay():
        client = await QueryClient.connect(args.host, args.port)
        async with client:
            loop = asyncio.get_running_loop()
            latencies = []
            last = {}
            for edge in edges:
                for batch in ({"remove": [edge]}, {"add": [edge]}):
                    started = loop.time()
                    last = await client.update(**batch)
                    latencies.append((loop.time() - started) * 1e3)
            return latencies, last

    try:
        latencies, last = asyncio.run(_replay())
    except (RuntimeError, ConnectionError, OSError) as error:
        print(f"update replay failed: {error}", file=sys.stderr)
        return 1
    print(
        f"replayed {len(edges)} edges (remove + re-insert) against "
        f"{args.host}:{args.port}: {len(latencies)} mutations, final epoch "
        f"{last.get('epoch')}"
    )
    stats = last.get("stats") or {}
    if stats:
        print(
            f"live counters: {stats.get('epochs_published')} epochs published, "
            f"{stats.get('compactions')} compactions, "
            f"{stats.get('distance_repairs_incremental')} incremental repairs, "
            f"{stats.get('distance_repairs_full')} full recomputes"
        )
    if latencies:
        print(format_latency_summary(
            latency_summary(latencies), title="Update latency (ms)"
        ))
    return 0


def _command_client(args: argparse.Namespace) -> int:
    import asyncio

    from repro.server.client import QueryClient, open_loop_load
    from repro.workloads.queries import poisson_arrival_times

    if args.server_stats:
        async def _stats():
            client = await QueryClient.connect(args.host, args.port)
            async with client:
                return await client.stats()

        stats = asyncio.run(_stats())
        # A router's snapshot nests a per-shard health probe under "shards";
        # render it as its own table instead of a flat value.
        shard_probe = stats.pop("shards", None)
        rows = [
            {"statistic": key, "value": value}
            for key, value in sorted(stats.items())
        ]
        title = "Router statistics" if stats.get("role") == "router" else "Server statistics"
        print(format_table(rows, title=title, scientific=False))
        if shard_probe:
            shard_rows = []
            for shard in shard_probe:
                for replica in shard["replicas"]:
                    shard_rows.append(
                        {
                            "shard": shard["shard"],
                            "address": replica.get("address"),
                            "connected": replica.get("connected"),
                            "shard_id": replica.get("shard_id"),
                            "version": replica.get("server_version"),
                            "rtt_ms": replica.get("rtt_ms"),
                            "jobs_active": replica.get("jobs_active"),
                            "queries_done": replica.get("queries_completed"),
                        }
                    )
            print(format_table(shard_rows, title="Shard health", scientific=False))
        return 0

    if args.updates is not None:
        return _client_update_replay(args)

    queries, external = _client_queries(args)
    if args.rate is not None:
        arrivals = poisson_arrival_times(len(queries), args.rate, seed=args.seed)
        report = asyncio.run(
            open_loop_load(
                queries,
                arrivals.tolist(),
                host=args.host,
                port=args.port,
                connections=args.connections,
                store_paths=False,
                result_limit=args.limit,
                time_limit_seconds=args.time_limit,
                external=external,
            )
        )
        if report.errors:
            print(f"{report.errors} of {len(queries)} queries failed", file=sys.stderr)
        print(
            f"open loop: {report.completed} queries over {report.wall_seconds:.2f} s "
            f"(offered {report.offered_rate:.1f} q/s, achieved "
            f"{report.achieved_qps:.1f} q/s, {report.concurrency} connections, "
            f"{report.total_paths} paths)"
        )
        if report.shed or report.retried or report.reassigned:
            print(
                f"overload: {report.shed} shed, {report.retried} retried after "
                f"server backpressure, {report.reassigned} arrivals reassigned "
                f"off dead connections"
            )
        if report.latencies_ms:
            print(format_latency_summary(
                latency_summary(report.latencies_ms), title="Completion latency (ms)"
            ))
        return 1 if report.errors else 0

    # One-shot batch mode goes through the same façade as local execution:
    # the remote backend ships the specs (run options included) as one
    # submit frame and rebuilds the streamed result frames.
    try:
        with Database(f"{args.host}:{args.port}") as db:
            stream = db.batch(
                queries,
                external=external,
                store_paths=not args.count_only,
                limit=args.limit,
                deadline=args.time_limit,
            )
            results = stream.results()
            stats = stream.stats()
    except (RuntimeError, ConnectionError, OSError) as error:
        print(f"job failed: {error}", file=sys.stderr)
        return 1
    # Label each row with the endpoints it was submitted with: results carry
    # internal ids, which differ from the external ids of a --pair.
    rows = [
        {
            "source": source,
            "target": target,
            "k": result.k,
            "paths": result.count,
            "query_ms": round(result.query_millis, 3),
            "plan": result.stats.plan,
            "bfs_cached": result.stats.bfs_cache_hit,
        }
        for (source, target, _), result in zip(queries, results)
    ]
    print(format_table(
        rows, title=f"Batch of {len(queries)} queries via {args.host}:{args.port}",
        scientific=False,
    ))
    print(f"total paths: {stats.total_paths}")
    print(f"job done after {stats.wall_seconds * 1e3:.1f} ms (client clock)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    if args.command == "query":
        return _command_query(args)
    if args.command == "batch-query":
        return _command_batch_query(args)
    if args.command == "datasets":
        return _command_datasets(args)
    if args.command == "info":
        return _command_info(args)
    if args.command == "convert":
        return _command_convert(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "route":
        return _command_route(args)
    if args.command == "client":
        return _command_client(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
