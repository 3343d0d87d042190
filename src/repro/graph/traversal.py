"""Breadth-first traversals used for index construction and baselines.

The paper relies on BFS in three places:

* Algorithm 3 performs one BFS from ``s`` on ``G - {t}`` and one BFS from
  ``t`` on the reversed graph ``G^r - {s}`` to obtain ``v.s`` and ``v.t``.
* BC-DFS / T-DFS use single-source distances to ``t`` for pruning.
* Query generation requires ``S(s, t) <= 3`` to guarantee non-empty result
  sets.

All functions operate on internal vertex ids and accept an optional
``excluded`` vertex which is treated as removed from the graph (``G - {v}``),
avoiding materialising vertex-deleted copies in hot paths.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence

import numpy as np

from repro._clib import CORRUPT, _library, int64_ready
from repro.errors import GraphError
from repro.graph.digraph import DiGraph, _ragged_positions, ragged_targets

__all__ = [
    "UNREACHABLE",
    "bfs_distances",
    "bfs_distances_bounded",
    "multi_source_bfs_distances_bounded",
    "distance",
    "has_path_within",
    "shortest_path",
]

#: Sentinel distance for vertices that cannot be reached.
UNREACHABLE: int = -1


def bfs_distances(
    graph: DiGraph,
    source: int,
    *,
    reverse: bool = False,
    excluded: Optional[int] = None,
    no_expand: Optional[int] = None,
) -> np.ndarray:
    """Single-source unweighted distances from ``source``.

    When ``reverse`` is true the traversal follows in-edges, i.e. it computes
    the distance *to* ``source`` along the original edge directions.  The
    optional ``excluded`` vertex is skipped entirely, which implements the
    ``G - {v}`` semantics of the paper without copying the graph.  The
    optional ``no_expand`` vertex can receive a distance but is never
    expanded — this is the "no intermediate s / t" semantics of walks from
    ``s`` to ``t`` (Definition 2.1) used by the light-weight index.

    Returns an ``int64`` array of length ``|V|`` with :data:`UNREACHABLE` for
    vertices that cannot be reached.
    """
    return bfs_distances_bounded(
        graph, source, cutoff=None, reverse=reverse, excluded=excluded, no_expand=no_expand
    )


def bfs_distances_bounded(
    graph: DiGraph,
    source: int,
    *,
    cutoff: Optional[int] = None,
    reverse: bool = False,
    excluded: Optional[int] = None,
    no_expand: Optional[int] = None,
    edge_filter=None,
) -> np.ndarray:
    """Like :func:`bfs_distances` but stops expanding beyond ``cutoff`` hops.

    Bounding the traversal at ``k`` hops is what keeps index construction
    cheap on large graphs: vertices further than ``k`` from ``s`` or ``t``
    can never participate in a result.  ``edge_filter(u, v)`` (ids in the
    *original* edge direction, regardless of ``reverse``) can drop edges on
    the fly, which is how predicate constraints restrict the traversal
    without materialising a filtered graph.

    Unfiltered traversals over flat int64 CSR arrays run the compiled queue
    BFS (``repro_sweep``) when the C library is loaded, and otherwise a
    vectorised level-synchronous pass over the CSR arrays (one ragged gather
    per BFS level), which stays the reference; both return the same array.
    The per-edge Python loop only remains for the ``edge_filter`` case,
    where a Python callback has to see every edge anyway.  A neighbour id
    outside the graph (a corrupt store) raises :class:`GraphError`.
    """
    graph._check_vertex(source)
    n = graph.num_vertices
    if edge_filter is None:
        indptr, indices = graph.in_csr() if reverse else graph.out_csr()
        lib = _library()
        if lib is not None and int64_ready(indptr, indices):
            dist = np.empty(n, dtype=np.int64)
            _sweep_native(
                lib, indptr, indices, source, cutoff, excluded, no_expand,
                dist, np.empty(n, dtype=np.int64),
            )
            return dist
        return _bfs_levels_vectorised(
            indptr, indices, n, source, cutoff=cutoff, excluded=excluded, no_expand=no_expand
        )
    dist = np.full(n, UNREACHABLE, dtype=np.int64)
    if excluded is not None and excluded == source:
        return dist
    dist[source] = 0
    queue: deque = deque([source])
    neighbor_fn = graph.in_neighbors if reverse else graph.neighbors
    while queue:
        v = queue.popleft()
        if no_expand is not None and v == no_expand and v != source:
            continue
        d = int(dist[v])
        if cutoff is not None and d >= cutoff:
            continue
        for w in neighbor_fn(v):
            w = int(w)
            if w == excluded:
                continue
            if edge_filter is not None:
                u_orig, w_orig = (w, v) if reverse else (v, w)
                if not edge_filter(u_orig, w_orig):
                    continue
            if dist[w] == UNREACHABLE:
                dist[w] = d + 1
                queue.append(w)
    return dist


def _vertex_arg(v: Optional[int], n: int) -> int:
    """``v`` as the C sweep's int64 argument: ``-1`` for ``None`` and for
    ids outside the graph, which can never match a vertex anyway."""
    return int(v) if v is not None and 0 <= v < n else -1


def _sweep_native(lib, indptr, indices, source, cutoff, excluded, no_expand, dist, queue) -> None:
    """One ``repro_sweep`` call filling ``dist`` (``queue`` is scratch).

    Lengths are checked once here; the C loop checks every offset and
    neighbour id it reads and reports a corrupt array instead of reading
    past it.
    """
    n = len(indptr) - 1
    if len(dist) != n or len(queue) < n or int(indptr[n]) > len(indices):
        raise GraphError("BFS arrays do not match the graph's CSR shape")
    status = lib.repro_sweep(
        indptr.ctypes.data, indices.ctypes.data, n, len(indices), int(source),
        n if cutoff is None else min(max(int(cutoff), 0), n),
        _vertex_arg(excluded, n), _vertex_arg(no_expand, n),
        dist.ctypes.data, queue.ctypes.data,
    )
    if status == CORRUPT:
        raise _corrupt_csr()


def _corrupt_csr() -> GraphError:
    return GraphError(
        "corrupt graph store: a CSR offset or neighbour id lies outside the graph"
    )


def _bfs_levels_vectorised(
    indptr: np.ndarray,
    indices: np.ndarray,
    n: int,
    source: int,
    *,
    cutoff: Optional[int],
    excluded: Optional[int],
    no_expand: Optional[int],
    prune: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Level-synchronous BFS over the CSR arrays (no per-edge Python loop).

    ``prune`` (distances to ``t``, with a ``cutoff``) records a vertex ``w``
    reached from depth ``d`` only if ``prune[w] >= 0`` and
    ``d + 1 + prune[w] <= cutoff``, as ``repro_prepare``'s sweep does.
    """
    dist = np.full(n, UNREACHABLE, dtype=np.int64)
    if excluded is not None and excluded == source:
        return dist
    dist[source] = 0
    frontier = np.asarray([source], dtype=np.int64)
    depth = 0
    while len(frontier) and (cutoff is None or depth < cutoff):
        if no_expand is not None and depth > 0:
            frontier = frontier[frontier != no_expand]
            if not len(frontier):
                break
        reached = ragged_targets(indptr, indices, frontier)
        if not len(reached):
            break
        _check_ids(reached, n)
        reached = reached[dist[reached] == UNREACHABLE]
        if excluded is not None:
            reached = reached[reached != excluded]
        if prune is not None:
            to_t = prune[reached]
            reached = reached[(to_t >= 0) & (to_t <= cutoff - 1 - depth)]
        frontier = np.unique(reached)
        depth += 1
        dist[frontier] = depth
    return dist


def _check_ids(ids: np.ndarray, n: int) -> None:
    """Raise on a neighbour id outside ``[0, n)`` — as unsigned, a negative
    id is huge, so one reduction covers both ends."""
    if int(np.asarray(ids, dtype=np.int64).view(np.uint64).max()) >= n:
        raise _corrupt_csr()


#: Sources per sweep of :func:`multi_source_bfs_distances_bounded`.  Chunking
#: caps the live distance sub-matrix at ``32 * |V| * 8`` bytes, which keeps
#: the per-level scans cache-resident; larger groups gain nothing past the
#: point where numpy call overhead is amortised.
DEFAULT_SOURCE_CHUNK = 32


def multi_source_bfs_distances_bounded(
    graph: DiGraph,
    sources: Sequence[int],
    *,
    cutoff: int,
    reverse: bool = False,
    no_expand: Optional[int] = None,
    chunk_sources: Optional[int] = DEFAULT_SOURCE_CHUNK,
) -> np.ndarray:
    """Bounded BFS distances from several sources in one synchronous sweep.

    Returns an ``(len(sources), |V|)`` int64 matrix whose row ``i`` equals
    ``bfs_distances_bounded(graph, sources[i], cutoff=cutoff, reverse=reverse,
    no_expand=no_expand)`` exactly — BFS distances are unique, so the level
    order cannot differ.  All sources advance level by level through *one*
    set of numpy operations per level, which amortises the per-call numpy
    overhead that dominates single-source BFS on small frontiers.  Its
    level loop (pruned to each query's ``X``) is how
    :meth:`~repro.core.index.LightWeightIndex.build_group` grows the forward
    sweeps of a target-sharing group together.

    Sweeps run over ``chunk_sources`` rows at a time (rows are mutually
    independent, so chunking cannot change any row); ``None`` disables
    chunking.  With the C library loaded each row is one compiled
    single-source sweep instead, which is faster still.
    """
    indptr, indices = graph.in_csr() if reverse else graph.out_csr()
    n = graph.num_vertices
    source_array = np.asarray(sources, dtype=np.int64)
    num_sources = len(source_array)
    for s in source_array:
        graph._check_vertex(int(s))
    lib = _library()
    if lib is not None and int64_ready(indptr, indices):
        dist = np.empty((num_sources, n), dtype=np.int64)
        queue = np.empty(n, dtype=np.int64)
        for row, s in zip(dist, source_array):
            _sweep_native(lib, indptr, indices, s, cutoff, None, no_expand, row, queue)
        return dist
    dist = np.full((num_sources, n), UNREACHABLE, dtype=np.int64)
    if num_sources == 0:
        return dist
    step = num_sources if chunk_sources is None else max(1, int(chunk_sources))
    for start in range(0, num_sources, step):
        _multi_source_sweep(
            indptr,
            indices,
            dist[start : start + step],
            source_array[start : start + step],
            cutoff=cutoff,
            no_expand=no_expand,
        )
    return dist


def _multi_source_sweep(
    indptr: np.ndarray,
    indices: np.ndarray,
    dist: np.ndarray,
    sources: np.ndarray,
    *,
    cutoff: int,
    no_expand: Optional[int],
    prune: Optional[np.ndarray] = None,
) -> None:
    """Level-synchronous sweep filling one chunk of the distance matrix
    (``prune`` as in :func:`_bfs_levels_vectorised`)."""
    dist[np.arange(len(sources), dtype=np.int64), sources] = 0
    # The frontier is re-derived from the distance matrix each level
    # (``dist == depth``), which both deduplicates (source, vertex) pairs
    # discovered through several edges — the level write is idempotent — and
    # avoids an O(frontier log frontier) unique per level.  A full-matrix
    # scan is a predictable sequential pass, far cheaper than hashing the
    # combined frontiers once the group grows.
    frontier_rows, frontier_cols = np.nonzero(dist == 0)
    depth = 0
    while len(frontier_cols) and depth < cutoff:
        if no_expand is not None and depth > 0:
            keep = frontier_cols != no_expand
            frontier_rows = frontier_rows[keep]
            frontier_cols = frontier_cols[keep]
            if not len(frontier_cols):
                break
        positions, degrees = _ragged_positions(indptr, frontier_cols)
        if not len(positions):
            break
        reached_rows = np.repeat(frontier_rows, degrees)
        reached_cols = indices[positions]
        _check_ids(reached_cols, dist.shape[1])
        unvisited = dist[reached_rows, reached_cols] == UNREACHABLE
        if prune is not None:
            to_t = prune[reached_cols]
            unvisited &= (to_t >= 0) & (to_t <= cutoff - 1 - depth)
        reached_rows = reached_rows[unvisited]
        reached_cols = reached_cols[unvisited]
        if not len(reached_cols):
            break
        depth += 1
        dist[reached_rows, reached_cols] = depth
        frontier_rows, frontier_cols = np.nonzero(dist == depth)


def distance(
    graph: DiGraph,
    source: int,
    target: int,
    *,
    excluded: Optional[int] = None,
    cutoff: Optional[int] = None,
) -> int:
    """Length of the shortest path ``S(source, target | G - {excluded})``.

    Returns :data:`UNREACHABLE` when no path exists (or none within
    ``cutoff`` hops).  Uses an early-exit BFS rather than the full
    single-source computation.
    """
    graph._check_vertex(source)
    graph._check_vertex(target)
    if source == target:
        return 0
    if excluded is not None and excluded in (source, target):
        return UNREACHABLE
    visited = {source}
    frontier = [source]
    depth = 0
    while frontier:
        depth += 1
        if cutoff is not None and depth > cutoff:
            return UNREACHABLE
        next_frontier: List[int] = []
        for v in frontier:
            for w in graph.neighbors(v):
                w = int(w)
                if w == excluded or w in visited:
                    continue
                if w == target:
                    return depth
                visited.add(w)
                next_frontier.append(w)
        frontier = next_frontier
    return UNREACHABLE


def has_path_within(
    graph: DiGraph,
    source: int,
    target: int,
    max_hops: int,
    *,
    excluded: Optional[int] = None,
) -> bool:
    """``True`` when a path of length at most ``max_hops`` exists."""
    d = distance(graph, source, target, excluded=excluded, cutoff=max_hops)
    return d != UNREACHABLE and d <= max_hops


def shortest_path(
    graph: DiGraph,
    source: int,
    target: int,
    *,
    excluded: Optional[int] = None,
    forbidden: Optional[Sequence[int]] = None,
) -> Optional[List[int]]:
    """One shortest path from ``source`` to ``target`` as a vertex list.

    ``forbidden`` vertices are treated as removed (in addition to
    ``excluded``); T-DFS uses this to certify that a partial result can still
    be extended into a full result.  Returns ``None`` when no path exists.
    """
    graph._check_vertex(source)
    graph._check_vertex(target)
    banned = set(forbidden or ())
    if excluded is not None:
        banned.add(excluded)
    if source in banned or target in banned:
        return None
    if source == target:
        return [source]
    parent = {source: source}
    queue: deque = deque([source])
    while queue:
        v = queue.popleft()
        for w in graph.neighbors(v):
            w = int(w)
            if w in banned or w in parent:
                continue
            parent[w] = v
            if w == target:
                path = [w]
                while path[-1] != source:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            queue.append(w)
    return None
