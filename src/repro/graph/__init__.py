"""Directed-graph substrate used by every algorithm in the package.

The central type is :class:`~repro.graph.digraph.DiGraph`, an immutable
CSR-encoded directed graph over dense integer vertex ids.  Graphs are built
either with :class:`~repro.graph.builder.GraphBuilder`, loaded from an edge
list with :func:`~repro.graph.io.read_edge_list`, or produced by one of the
synthetic generators in :mod:`repro.graph.generators`.
"""

from repro.graph.builder import GraphBuilder
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    chain_graph,
    complete_graph,
    erdos_renyi,
    grid_graph,
    layered_graph,
    power_law_graph,
    small_world_graph,
)
from repro.graph.io import read_edge_list, write_edge_list
from repro.graph.properties import GraphSummary, summarize
from repro.graph.traversal import (
    UNREACHABLE,
    bfs_distances,
    bfs_distances_bounded,
    distance,
    has_path_within,
    shortest_path,
)

__all__ = [
    "DiGraph",
    "GraphBuilder",
    "GraphSummary",
    "summarize",
    "read_edge_list",
    "write_edge_list",
    "UNREACHABLE",
    "bfs_distances",
    "bfs_distances_bounded",
    "distance",
    "has_path_within",
    "shortest_path",
    "erdos_renyi",
    "power_law_graph",
    "small_world_graph",
    "complete_graph",
    "chain_graph",
    "grid_graph",
    "layered_graph",
]
