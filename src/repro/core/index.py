"""The light-weight, query-dependent index of PathEnum (Algorithm 3).

Given a query ``q(s, t, k)`` the index stores, for every vertex ``v`` that
can possibly appear on a result path (Proposition 4.3):

* ``v.s`` — the length of the shortest walk from ``s`` to ``v`` that does
  not pass through ``t`` as an intermediate vertex;
* ``v.t`` — the length of the shortest walk from ``v`` to ``t`` that does
  not pass through ``s`` as an intermediate vertex;
* the out-neighbours ``v'`` of ``v`` with ``v.s + v'.t + 1 <= k``, sorted by
  ascending ``v'.t`` together with an offset array indexed by distance —
  the Neighbors / Offset layout of Figure 4.

The storage is flat compressed-sparse-row form, mirroring the CSR encoding
:class:`~repro.graph.digraph.DiGraph` itself uses:

* ``_indptr`` / ``_indices`` — int64 arrays; the retained out-neighbours of
  the vertex in row ``r`` are ``_indices[_indptr[r] : _indptr[r + 1]]``,
  sorted by ascending distance to ``t``;
* ``_offsets`` — a single ``(|X|, k + 1)`` int64 matrix; ``_offsets[r, b]``
  is the number of neighbours in row ``r`` within distance ``b`` of ``t``;
* ``_row_of`` — int64 array of length ``|V|`` mapping a vertex id to its row
  (``-1`` outside the index), so no hash lookup is ever needed;
* ``_part_indptr`` / ``_part_members`` — the candidate partitions ``C_i``
  in the same CSR shape.

The two lookup operations of the paper are then O(1) array slices:

* :meth:`LightWeightIndex.members` — ``I(i)``, the candidate set ``C_i`` of
  vertices that may appear at position ``i`` of a result;
* :meth:`LightWeightIndex.neighbors_within` — ``I_t(v, b)``, the neighbours
  of ``v`` whose distance to ``t`` is at most ``b`` (returned as a numpy
  slice backed by the sorted neighbour array).

Construction is vectorised: the per-vertex collect/sort/offset-scan loop of
Algorithm 3 becomes one ragged gather over the graph's CSR arrays, one
``np.lexsort`` and two ``np.bincount`` passes.  The enumeration loops
(:mod:`repro.core.dfs`, :mod:`repro.core.join`, :mod:`repro.core.estimator`)
read the same layout through :meth:`LightWeightIndex.flat_adjacency`, which
mirrors the arrays into plain Python lists once per query so the recursive
inner loops pay neither hash lookups nor numpy scalar boxing.

Following the join model of Section 3.1 the target ``t`` carries a single
self-loop (``H[t] = {t}``) so that join-based enumeration can pad walks
shorter than ``k`` up to full length.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro._clib import CORRUPT, NEED, ThreadScratch, _library, int64_ready
from repro.core.listener import Deadline
from repro.core.query import Query
from repro.core.result import EnumerationStats, Phase
from repro.errors import GraphError
from repro.graph.digraph import DiGraph, ragged_gather
from repro.graph.traversal import (
    UNREACHABLE,
    _bfs_levels_vectorised,
    _check_ids,
    _corrupt_csr,
    _multi_source_sweep,
    bfs_distances_bounded,
)

__all__ = ["LightWeightIndex"]

EdgeFilter = Callable[[int, int], bool]

_EMPTY = np.empty(0, dtype=np.int64)


class LightWeightIndex:
    """Query-dependent index over the vertices that can appear on a result.

    ``dist_from_s`` (``v.s``) is exact on ``X = {v : v.s + v.t <= k}`` and
    :data:`~repro.graph.traversal.UNREACHABLE` outside it when the build
    swept it itself; an injected forward array, pruned or full, is kept as
    given.  Every other array depends only on ``v.s`` over ``X``.
    """

    __slots__ = (
        "graph",
        "query",
        "dist_from_s",
        "dist_to_t",
        "_rows",
        "_row_of",
        "_indptr",
        "_indices",
        "_offsets",
        "_part_indptr",
        "_part_members",
        "_part_rows",
        "_gamma",
        "_flat",
        "_kernel",
        "_native",
        "_native_ptrs",
        "_in_csr",
        "num_index_edges",
        "build_seconds",
        "bfs_seconds",
        "used_cached_distances",
        "swept_vertices",
    )

    def __init__(
        self,
        graph: DiGraph,
        query: Query,
        dist_from_s: np.ndarray,
        dist_to_t: np.ndarray,
        rows: np.ndarray,
        row_of: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        offsets: np.ndarray,
        part_indptr: np.ndarray,
        part_members: np.ndarray,
        gamma: np.ndarray,
        build_seconds: float,
        bfs_seconds: float,
        used_cached_distances: bool = False,
        swept_vertices: int = 0,
    ) -> None:
        self.graph = graph
        self.query = query
        self.dist_from_s = dist_from_s
        self.dist_to_t = dist_to_t
        self._rows = rows
        self._row_of = row_of
        self._indptr = indptr
        self._indices = indices
        self._offsets = offsets
        self._part_indptr = part_indptr
        self._part_members = part_members
        self._part_rows: Optional[np.ndarray] = None
        self._gamma = gamma
        self._flat: Optional[tuple] = None
        self._kernel: Optional[tuple] = None
        self._native: Optional[tuple] = None
        self._native_ptrs: Optional[tuple] = None
        self._in_csr: Optional[tuple] = None
        self.num_index_edges = int(len(indices))
        self.build_seconds = build_seconds
        self.bfs_seconds = bfs_seconds
        self.used_cached_distances = used_cached_distances
        self.swept_vertices = swept_vertices

    # ------------------------------------------------------------------ #
    # construction (Algorithm 3, vectorised)
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        graph: DiGraph,
        query: Query,
        *,
        edge_filter: Optional[EdgeFilter] = None,
        deadline: Optional[Deadline] = None,
        stats: Optional[EnumerationStats] = None,
        dist_to_t: Optional[np.ndarray] = None,
        dist_from_s: Optional[np.ndarray] = None,
    ) -> "LightWeightIndex":
        """Build the index for ``query`` on ``graph``.

        ``edge_filter(u, v)`` restricts the graph on the fly (predicate
        constraints, Appendix E).  When ``stats`` is given the BFS and index
        construction phases are recorded in it.

        ``dist_to_t`` injects a precomputed reverse-BFS distance array (as
        produced by :class:`~repro.core.engine.QuerySession`); any sound
        under-approximation of the restricted distances — in particular the
        unrestricted distances to ``t`` — yields a superset index and
        therefore identical result sets, at the cost of slightly weaker
        pruning.  When provided, the reverse BFS is skipped entirely, which
        removes roughly half of the build cost for target-sharing workloads.

        Without ``dist_from_s`` an unconstrained build sweeps forward from
        ``s`` pruned by ``dist_to_t``: a vertex ``w`` reached at depth
        ``d + 1`` is recorded and expanded only if ``w.t + d + 1 <= k``, so
        the sweep visits ``X = {v : v.s + v.t <= k}`` and nothing else.  The
        index's ``dist_from_s`` is then exact on ``X`` and
        :data:`~repro.graph.traversal.UNREACHABLE` outside it.  With the C
        library loaded that sweep and the whole index fill are one
        ``repro_prepare`` call, and the sweep's time counts as index
        construction, not BFS.  A constrained build sweeps the filtered
        graph unpruned.  An injected ``dist_from_s`` may be pruned like that
        or full (the restricted forward BFS, ``no_expand=t``, same edge
        filter); it is kept as given, and every other index array is the
        same either way.
        """
        query.validate(graph)
        started = time.perf_counter()
        s, t, k = query.source, query.target, query.k
        n = graph.num_vertices
        _checked_out_csr(graph)
        swept = 0

        bfs_started = time.perf_counter()
        used_cache = dist_to_t is not None
        if dist_to_t is None:
            dist_to_t = bfs_distances_bounded(
                graph, t, cutoff=k, reverse=True, no_expand=s, edge_filter=edge_filter
            )
            swept += _swept(dist_to_t)
        if len(dist_to_t) != n or (dist_from_s is not None and len(dist_from_s) != n):
            raise GraphError("distance arrays do not match the graph's vertex count")
        lib = _native_builder(graph) if edge_filter is None else None
        if lib is None and dist_from_s is None:
            if edge_filter is None:
                dist_from_s = _pruned_forward_rows(graph, [s], t, k, dist_to_t)[0]
            else:
                dist_from_s = bfs_distances_bounded(
                    graph, s, cutoff=k, no_expand=t, edge_filter=edge_filter
                )
            swept += _swept(dist_from_s)
        bfs_seconds = time.perf_counter() - bfs_started
        if deadline is not None:
            deadline.check()

        if lib is not None:
            dist_from_s, forward_swept, arrays = _prepare_native(
                lib, graph, query, dist_to_t, dist_from_s
            )
            swept += forward_swept
        else:
            arrays = _build_arrays_numpy(
                graph, query, dist_from_s, dist_to_t, edge_filter, deadline
            )
        index = cls(
            graph,
            query,
            dist_from_s,
            dist_to_t,
            *arrays,
            time.perf_counter() - started,
            bfs_seconds,
            used_cached_distances=used_cache,
            swept_vertices=swept,
        )
        if stats is not None:
            index.record_stats(stats)
        return index

    @classmethod
    def build_group(
        cls,
        graph: DiGraph,
        queries: Sequence[Query],
        *,
        dist_to_t: np.ndarray,
        dist_from_s_rows: Optional[np.ndarray] = None,
    ) -> List["LightWeightIndex"]:
        """Build the indexes of a target-sharing query group in one fused sweep.

        All ``queries`` must share the same target ``t`` and hop constraint
        ``k``, and ``dist_to_t`` is their shared reverse distances.  Without
        ``dist_from_s_rows`` the forward sweeps of every query run together,
        level by level, pruned to each query's ``X`` as in :meth:`build`.
        Given, it is the ``(len(queries), |V|)`` forward matrix, each row
        pruned or full.  The candidate masks, the ragged neighbour gather,
        the edge filtering and the ``(source, distance)`` sort all run once
        over the whole group with a query-id sort column; each query's
        segment then assembles into an index equal to what :meth:`build`
        produces from the same ``dist_to_t``, every array but
        ``dist_from_s`` outside ``X`` byte for byte.  This is the NumPy
        reference of a batch; with the C library loaded a batch builds
        each query through :meth:`build` instead.
        """
        if not len(queries):
            return []
        t = queries[0].target
        k = queries[0].k
        for query in queries:
            if query.target != t or query.k != k:
                raise ValueError("build_group requires a target- and k-sharing group")
            query.validate(graph)
        started = time.perf_counter()
        m = len(queries)
        dt = dist_to_t
        sources = np.asarray([q.source for q in queries], dtype=np.int64)
        out_indptr, out_indices = _checked_out_csr(graph)
        if len(dt) != graph.num_vertices:
            raise GraphError("distance arrays do not match the graph's vertex count")
        if dist_from_s_rows is None:
            ds_m = _pruned_forward_rows(graph, sources, t, k, dt)
            swept = [_swept(row) for row in ds_m]
        else:
            ds_m = dist_from_s_rows
            swept = [0] * m

        # Partition X per query, as one boolean matrix.
        in_x = (
            (ds_m != UNREACHABLE)
            & (dt != UNREACHABLE)[None, :]
            & (ds_m + dt[None, :] <= k)
        )
        q_of_row, rows_flat = np.nonzero(in_x)
        q_of_row = q_of_row.astype(np.int64, copy=False)
        rows_flat = rows_flat.astype(np.int64, copy=False)
        row_counts = np.bincount(q_of_row, minlength=m)
        row_bounds = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(row_counts, out=row_bounds[1:])
        local_row = np.arange(len(rows_flat), dtype=np.int64) - np.repeat(
            row_bounds[:-1], row_counts
        )
        row_of_m = np.full((m, graph.num_vertices), -1, dtype=np.int64)
        row_of_m[q_of_row, rows_flat] = local_row

        # Fused candidate-edge gather: every query's member sources in one
        # ragged expansion, tagged with a per-edge query id.
        src_sel = rows_flat != t
        gather_src = rows_flat[src_sel]
        gather_qid = q_of_row[src_sel]
        widths = out_indptr[gather_src + 1] - out_indptr[gather_src]
        edge_src, edge_dst = ragged_gather(out_indptr, out_indices, gather_src)
        edge_qid = np.repeat(gather_qid, widths)
        if len(edge_src):
            _check_ids(edge_dst, graph.num_vertices)
            dt_dst = dt[edge_dst]
            keep = (
                (edge_dst != sources[edge_qid])
                & (dt_dst != UNREACHABLE)
                & (ds_m[edge_qid, edge_src] + dt_dst + 1 <= k)
            )
            edge_src = edge_src[keep]
            edge_dst = edge_dst[keep]
            edge_qid = edge_qid[keep]

        # Per-query t self-loops (join padding), fed through the shared sort.
        loop_qids = np.flatnonzero(in_x[:, t]).astype(np.int64)
        if len(loop_qids):
            loop_vertices = np.full(len(loop_qids), t, dtype=np.int64)
            edge_src = np.concatenate([edge_src, loop_vertices])
            edge_dst = np.concatenate([edge_dst, loop_vertices])
            edge_qid = np.concatenate([edge_qid, loop_qids])

        # One stable sort for the whole group: the query-id major key keeps
        # each segment in exactly the (source, distance, adjacency) order of
        # the per-query sort in :meth:`build`.
        if len(edge_src):
            order = np.lexsort((dt[edge_dst], edge_src, edge_qid))
            edge_src = edge_src[order]
            edge_dst = edge_dst[order]
            edge_qid = edge_qid[order]
        edge_counts = np.bincount(edge_qid, minlength=m)
        edge_bounds = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(edge_counts, out=edge_bounds[1:])

        # The shared sweep is charged evenly across the group; each query
        # additionally pays for its own assembly.
        shared_share = (time.perf_counter() - started) / m
        indexes: List["LightWeightIndex"] = []
        for i, query in enumerate(queries):
            q_started = time.perf_counter()
            lo, hi = int(edge_bounds[i]), int(edge_bounds[i + 1])
            arrays = _assemble_arrays(
                k,
                ds_m[i],
                dt,
                rows_flat[row_bounds[i] : row_bounds[i + 1]],
                row_of_m[i],
                edge_src[lo:hi],
                edge_dst[lo:hi],
            )
            indexes.append(cls(
                graph, query, ds_m[i], dt, *arrays,
                time.perf_counter() - q_started + shared_share, 0.0,
                used_cached_distances=True, swept_vertices=swept[i],
            ))
        return indexes

    def record_stats(self, stats: EnumerationStats) -> None:
        """Record the build phases and index sizes into ``stats``.

        Used by :meth:`build` and by engines receiving a prebuilt index
        (group-fused batch execution), so both paths report identically.
        """
        stats.add_phase(Phase.BFS, self.bfs_seconds)
        stats.add_phase(Phase.INDEX, self.build_seconds)
        stats.index_edges = self.num_index_edges
        stats.index_vertices = self.num_index_vertices
        stats.index_bytes = self.estimated_bytes()
        stats.bfs_cache_hit = self.used_cached_distances
        stats.swept_vertices = self.swept_vertices

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    @property
    def k(self) -> int:
        """The hop constraint of the indexed query."""
        return self.query.k

    @property
    def num_index_vertices(self) -> int:
        """Number of vertices retained by the index (|X|)."""
        return int(len(self._rows))

    @property
    def is_empty(self) -> bool:
        """``True`` when the query provably has no results.

        The index is empty exactly when ``t`` is further than ``k`` hops from
        ``s`` (or unreachable), in which case no path can satisfy the hop
        constraint.
        """
        t = self.query.target
        d = int(self.dist_from_s[t])
        return d == UNREACHABLE or d > self.k

    def contains(self, v: int) -> bool:
        """``True`` when ``v`` survived the distance-based pruning."""
        return 0 <= v < len(self._row_of) and self._row_of[v] >= 0

    def members(self, i: int) -> np.ndarray:
        """``I(i)``: vertices that may appear at position ``i`` of a result.

        Returns a read-only numpy slice of the flat partition array, in
        ascending vertex order.
        """
        if i < 0 or i > self.k:
            return _EMPTY
        return self._part_members[self._part_indptr[i] : self._part_indptr[i + 1]]

    def neighbors_within(self, v: int, budget: int) -> np.ndarray:
        """``I_t(v, b)``: neighbours of ``v`` with distance to ``t`` at most ``b``.

        Returns a numpy slice of the sorted neighbour array; callers must not
        mutate it.  Vertices outside the index and negative budgets yield an
        empty array.
        """
        if budget < 0 or not (0 <= v < len(self._row_of)):
            return _EMPTY
        row = self._row_of[v]
        if row < 0:
            return _EMPTY
        if budget > self.k:
            budget = self.k
        start = self._indptr[row]
        return self._indices[start : start + self._offsets[row, budget]]

    def count_neighbors_within(self, v: int, budget: int) -> int:
        """``|I_t(v, b)|`` without materialising the slice."""
        if budget < 0 or not (0 <= v < len(self._row_of)):
            return 0
        row = self._row_of[v]
        if row < 0:
            return 0
        if budget > self.k:
            budget = self.k
        return int(self._offsets[row, budget])

    # ------------------------------------------------------------------ #
    # flat views for the enumeration inner loops
    # ------------------------------------------------------------------ #
    def flat_adjacency(self) -> tuple:
        """Plain-Python mirrors of the CSR arrays for the hot recursion.

        Returns ``(vertex_of, row_of, row_neighbors, row_offsets)``:

        * ``vertex_of`` — list mapping a row id back to its vertex id;
        * ``row_of`` — the int64 vertex-to-row array (used once per query to
          locate the start row);
        * ``row_neighbors[r]`` — Python list of the neighbour *row* ids of
          row ``r``, sorted by ascending distance to ``t``;
        * ``row_offsets[r][b]`` — the matching offset row, so the candidates
          within budget ``b`` are ``row_neighbors[r][: row_offsets[r][b]]``.

        The enumeration loops therefore run entirely in row space — one list
        slice per search-tree node and plain-int set membership per edge, no
        hash lookups and no numpy scalar boxing.  Materialised once per
        query and cached.
        """
        if self._flat is None:
            # Derived from the kernel mirrors so the expensive tolist() over
            # the neighbour array happens once per query even when both the
            # estimator (presliced rows) and a kernel (flat rows) run.
            vertex_of, _, neighbor_rows, bounds, _ = self.kernel_csr()
            row_neighbors = [
                neighbor_rows[bounds[r] : bounds[r + 1]]
                for r in range(len(self._rows))
            ]
            self._flat = (
                vertex_of,
                self._row_of,
                row_neighbors,
                self._offsets.tolist(),
            )
        return self._flat

    def kernel_csr(self) -> tuple:
        """Flat mirrors of the CSR arrays for the iterative kernels.

        Returns ``(vertex_of, row_of, neighbor_rows, indptr, offsets)``:

        * ``vertex_of`` — list mapping a row id back to its vertex id;
        * ``row_of`` — the int64 vertex-to-row array (used once per query to
          locate the start row);
        * ``neighbor_rows`` — ONE flat Python list of neighbour row ids in
          CSR order (no per-row sublists);
        * ``indptr`` — row bounds into ``neighbor_rows`` as a Python list;
        * ``offsets`` — the ``(|X|, k + 1)`` offset matrix flattened
          row-major, so the candidates of row ``r`` under budget ``b`` are
          ``neighbor_rows[indptr[r] : indptr[r] + offsets[r * (k + 1) + b]]``.

        Unlike :meth:`flat_adjacency` nothing is presliced: the kernels read
        candidate ranges straight off ``indptr``/``offsets``, and the only
        per-query cost is one ``tolist`` per array (plain Python ints, so
        the iterative inner loop never boxes a numpy scalar).  Materialised
        once per query and cached.
        """
        if self._kernel is None:
            neighbor_rows = (
                self._row_of[self._indices].tolist() if len(self._indices) else []
            )
            self._kernel = (
                self._rows.tolist(),
                self._row_of,
                neighbor_rows,
                self._indptr.tolist(),
                self._offsets.ravel().tolist(),
            )
        return self._kernel

    def native_csr(self) -> tuple:
        """Int64 numpy views of the CSR arrays for the compiled engine.

        Returns ``(vertex_of, row_of, neighbor_rows, indptr, offsets)`` with
        the same meaning as :meth:`kernel_csr`, except every component stays
        a numpy array (``offsets`` keeps its ``(|X|, k + 1)`` shape): the
        native engine hands their raw pointers to the compiled loops, so no
        Python-int mirror is ever materialised.  The only derived array —
        neighbour *row* ids — is computed once per query and cached.  Every
        array is C-contiguous (a group-fused build's ``_rows`` is a strided
        view until here), so the compiled loops can take raw pointers.
        """
        if self._native is None:
            neighbor_rows = (
                self._row_of[self._indices] if len(self._indices) else _EMPTY
            )
            self._native = tuple(
                np.ascontiguousarray(array, dtype=np.int64)
                for array in (
                    self._rows, self._row_of, neighbor_rows, self._indptr, self._offsets
                )
            )
        return self._native

    def native_pointers(self) -> tuple:
        """Raw addresses ``(vertex_of, neighbor_rows, indptr, offsets)`` of
        :meth:`native_csr`'s arrays, taken once per index.  The arrays
        belong to the index, so the addresses hold as long as it lives."""
        if self._native_ptrs is None:
            vertex_of, _, neighbor_rows, indptr, offsets = self.native_csr()
            self._native_ptrs = tuple(
                a.ctypes.data for a in (vertex_of, neighbor_rows, indptr, offsets)
            )
        return self._native_ptrs

    def partition_indptr(self) -> np.ndarray:
        """CSR bounds of the flat partition array: ``C_i`` spans
        ``partition_rows()[indptr[i] : indptr[i + 1]]``."""
        return self._part_indptr

    def partition_rows(self) -> np.ndarray:
        """Row ids of the flat partition array (parallel to ``members``)."""
        if self._part_rows is None:
            self._part_rows = (
                self._row_of[self._part_members] if len(self._part_members) else _EMPTY
            )
        return self._part_rows

    @property
    def rows(self) -> np.ndarray:
        """The indexed vertices in row order (ascending vertex id)."""
        return self._rows

    @property
    def row_of(self) -> np.ndarray:
        """Vertex-to-row translation array (``-1`` for pruned vertices)."""
        return self._row_of

    def in_neighbors_within(self, v: int, budget: int) -> np.ndarray:
        """``I_s(v, b)``: in-neighbours of ``v`` with distance from ``s`` at most ``b``.

        Built lazily because only the reverse-direction enumeration and a few
        tests need it; the optimizer's forward DP works on ``I_t`` instead.
        """
        if self._in_csr is None:
            self._build_in_index()
        in_indptr, in_indices, in_offsets = self._in_csr
        if budget < 0 or not (0 <= v < len(self._row_of)):
            return _EMPTY
        row = self._row_of[v]
        if row < 0:
            return _EMPTY
        if budget > self.k:
            budget = self.k
        start = in_indptr[row]
        return in_indices[start : start + in_offsets[row, budget]]

    def _build_in_index(self) -> None:
        """Mirror the forward CSR into an ``I_s`` CSR sorted by ``v.s``."""
        k = self.k
        num_rows = len(self._rows)
        edge_src = np.repeat(self._rows, np.diff(self._indptr))
        edge_dst = self._indices
        mask = edge_src != edge_dst  # the t self-loop has no reverse counterpart
        edge_src = edge_src[mask]
        edge_dst = edge_dst[mask]
        in_indptr = np.zeros(num_rows + 1, dtype=np.int64)
        in_offsets = np.zeros((num_rows, k + 1), dtype=np.int64)
        if len(edge_src):
            ds_src = self.dist_from_s[edge_src]
            dst_rows = self._row_of[edge_dst]
            order = np.lexsort((ds_src, dst_rows))
            edge_src = edge_src[order]
            dst_rows = dst_rows[order]
            np.cumsum(np.bincount(dst_rows, minlength=num_rows), out=in_indptr[1:])
            clamped = np.minimum(self.dist_from_s[edge_src], k)
            histogram = np.bincount(
                dst_rows * (k + 1) + clamped, minlength=num_rows * (k + 1)
            ).reshape(num_rows, k + 1)
            np.cumsum(histogram, axis=1, out=in_offsets)
        self._in_csr = (in_indptr, edge_src, in_offsets)

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    def gamma(self, i: int) -> float:
        """Average branching factor at position ``i`` (preliminary estimator)."""
        if i < 0 or i >= len(self._gamma):
            return 0.0
        return float(self._gamma[i])

    def gamma_array(self) -> np.ndarray:
        """All ``gamma_hat_i`` values as one float64 array (Eq. 5)."""
        return self._gamma

    def candidate_counts(self) -> List[int]:
        """``|C_i|`` for ``i`` in ``0..k``."""
        return np.diff(self._part_indptr).tolist()

    def distance_from_s(self, v: int) -> int:
        """``v.s`` — shortest distance from ``s`` avoiding ``t`` as intermediate."""
        return int(self.dist_from_s[v])

    def distance_to_t(self, v: int) -> int:
        """``v.t`` — shortest distance to ``t`` avoiding ``s`` as intermediate."""
        return int(self.dist_to_t[v])

    def index_edge_list(self) -> List[tuple]:
        """Materialise the index edges as ``(u, v)`` pairs (tests, ablation)."""
        sources = np.repeat(self._rows, np.diff(self._indptr))
        return list(zip(sources.tolist(), self._indices.tolist()))

    def estimated_bytes(self) -> int:
        """Approximate memory footprint of the index structures (Table 7).

        Counts 8 bytes per stored integer: neighbour entries, offset slots
        and partition membership.  The distance arrays are excluded because
        the paper's index-size accounting is per surviving vertex/edge.
        """
        neighbor_ints = len(self._indices)
        offset_ints = len(self._rows) * (self.k + 1)
        partition_ints = len(self._part_members)
        return 8 * (neighbor_ints + offset_ints + partition_ints)


# ---------------------------------------------------------------------- #
# Algorithm 3's arrays: compiled, and the NumPy reference
# ---------------------------------------------------------------------- #
# Both return ``(rows, row_of, indptr, indices, offsets, part_indptr,
# part_members, gamma)``, the constructor's array arguments in order.
def _native_builder(graph: DiGraph):
    """The C library when it can build indexes over ``graph``'s CSR, else
    ``None`` (not loaded, or a store whose neighbour array is not flat int64,
    such as the compressed one)."""
    lib = _library()
    return lib if lib is not None and int64_ready(*graph.out_csr()) else None


def _swept(distances: np.ndarray) -> int:
    """The vertices a sweep gave a distance, as ``swept_vertices`` counts."""
    return int(np.count_nonzero(distances >= 0))


def _checked_out_csr(graph: DiGraph) -> tuple:
    """``graph``'s out-CSR after the O(1) shape checks both tiers make: one
    offset per vertex plus one, and no more edges promised than stored."""
    indptr, indices = graph.out_csr()
    n = graph.num_vertices
    if len(indptr) != n + 1 or int(indptr[n]) > len(indices):
        raise _corrupt_csr()
    return indptr, indices


def _pruned_forward_rows(graph: DiGraph, sources, t: int, k: int, dt: np.ndarray) -> np.ndarray:
    """The NumPy reference of ``repro_prepare``'s forward sweep, one row per
    source: ``no_expand=t``, pruned by ``dt`` to ``X``, and ``UNREACHABLE``
    at a source outside ``X``."""
    indptr, indices = graph.out_csr()
    sources = np.asarray(sources, dtype=np.int64)
    if len(sources) == 1:
        rows = _bfs_levels_vectorised(
            indptr, indices, graph.num_vertices, int(sources[0]),
            cutoff=k, excluded=None, no_expand=t, prune=dt,
        )[None, :]
    else:
        rows = np.full((len(sources), graph.num_vertices), UNREACHABLE, dtype=np.int64)
        _multi_source_sweep(indptr, indices, rows, sources, cutoff=k, no_expand=t, prune=dt)
    outside = (dt[sources] < 0) | (dt[sources] > k)
    rows[np.flatnonzero(outside), sources[outside]] = UNREACHABLE
    return rows


class _PrepareScratch:
    """One thread's output buffers for ``repro_prepare``, grown on demand.

    ``bound`` is the call's scratch arguments with the pointers taken once
    per allocation: ``ds``, ``row_of`` and the sweep queue (``n`` entries
    each), ``part_indptr``, ``gamma`` and the bucket scratch (sized by
    ``k``), then the row, cell and edge buffers with their capacities, and
    ``sizes``.  The results are copied out of it into exact-size arrays.
    """

    def __init__(self) -> None:
        self.n = self.k = -1
        self.row_cap, self.cell_cap, self.edge_cap = 256, 1024, 2048
        self.sizes = np.zeros(3, dtype=np.int64)
        self.vertex = self.small = self.gamma = None
        self.rowbuf = self.cellbuf = self.edgebuf = None
        self.bound: tuple = ()

    def fit(self, n: int, k: int) -> None:
        """Make room for a graph of ``n`` vertices and hop bound ``k``."""
        if n > self.n or k > self.k:
            self.n, self.k = max(n, self.n), max(k, self.k)
            self.vertex = np.empty((3, self.n), dtype=np.int64)
            self.small = np.empty(3 * self.k + 4, dtype=np.int64)
            self.gamma = np.empty(max(self.k, 1), dtype=np.float64)
            self._allocate()

    def grow(self, k: int) -> None:
        """Make room for the sizes the last call reported."""
        rows, edges, members = (int(x) for x in self.sizes)
        self.row_cap = max(rows, 2 * self.row_cap)
        self.cell_cap = max(rows * (k + 1), members, 2 * self.cell_cap)
        self.edge_cap = max(edges, 2 * self.edge_cap)
        self._allocate()

    def _allocate(self) -> None:
        self.rowbuf = np.empty(2 * self.row_cap + 1, dtype=np.int64)
        self.cellbuf = np.empty(2 * self.cell_cap, dtype=np.int64)
        self.edgebuf = np.empty(self.edge_cap, dtype=np.int64)
        vertex, small, row, cell = (
            a.ctypes.data for a in (self.vertex, self.small, self.rowbuf, self.cellbuf)
        )
        self.bound = (
            vertex, vertex + 8 * self.n, vertex + 16 * self.n,
            small, self.gamma.ctypes.data, small + 8 * (self.k + 2),
            row, row + 8 * self.row_cap, self.row_cap,
            cell, cell + 8 * self.cell_cap, self.cell_cap,
            self.edgebuf.ctypes.data, self.edge_cap, self.sizes.ctypes.data,
        )

    def arrays(self, n: int, k: int) -> tuple:
        """Exact-size copies of the index arrays the last call wrote."""
        rows, edges, members = (int(x) for x in self.sizes)
        return (
            self.rowbuf[:rows].copy(),
            self.vertex[1, :n].copy(),
            self.rowbuf[self.row_cap : self.row_cap + rows + 1].copy(),
            self.edgebuf[:edges].copy(),
            self.cellbuf[: rows * (k + 1)].reshape(rows, k + 1).copy(),
            self.small[: k + 2].copy(),
            self.cellbuf[self.cell_cap : self.cell_cap + members].copy(),
            self.gamma[:k].copy(),
        )


_PREPARE_SCRATCH = ThreadScratch(_PrepareScratch)


def _prepare_native(lib, graph: DiGraph, query: Query, dt, ds) -> tuple:
    """Algorithm 3 in one ``repro_prepare`` call: the forward sweep pruned to
    ``X`` (unless ``ds`` injects it) and the index fill.

    A call whose scratch is too small reports the sizes it needs and is
    issued once more on grown scratch, reusing its sweep; a second shortfall
    means the CSR changed under the build.  Returns ``(dist_from_s,
    vertices swept, arrays)``.  The C loop checks every offset and
    neighbour id it reads.
    """
    indptr, indices = graph.out_csr()
    n, k = graph.num_vertices, int(query.k)
    dt = np.ascontiguousarray(dt, dtype=np.int64)
    fwd = None if ds is None else np.ascontiguousarray(ds, dtype=np.int64)
    scratch = _PREPARE_SCRATCH.take()
    try:
        scratch.fit(n, k)
        head = (indptr.ctypes.data, indices.ctypes.data, n, len(indices), dt.ctypes.data)
        tail = (int(query.source), int(query.target), k)
        status = lib.repro_prepare(
            *head, None if fwd is None else fwd.ctypes.data, *tail, *scratch.bound
        )
        if status == NEED:
            scratch.grow(k)
            swept_into = scratch.bound[0] if fwd is None else fwd.ctypes.data
            status = lib.repro_prepare(*head, swept_into, *tail, *scratch.bound)
            if status == NEED:
                raise GraphError(
                    "corrupt graph store: its neighbour arrays changed during an index build"
                )
        if status == CORRUPT:
            raise _corrupt_csr()
        arrays = scratch.arrays(n, k)
        if fwd is None:
            return scratch.vertex[0, :n].copy(), len(arrays[0]), arrays
        return ds, 0, arrays
    finally:
        _PREPARE_SCRATCH.give(scratch)


def _build_arrays_numpy(
    graph: DiGraph,
    query: Query,
    ds: np.ndarray,
    dt: np.ndarray,
    edge_filter: Optional[EdgeFilter],
    deadline: Optional[Deadline],
) -> tuple:
    """Algorithm 3 vectorised: the reference of :func:`_prepare_native`'s
    index fill and the only path for edge-filtered (constrained) builds."""
    s, t, k = query.source, query.target, query.k

    # Partition X: vertices with v.s + v.t <= k (Lines 2-4 of Algorithm 3).
    in_x = (ds != UNREACHABLE) & (dt != UNREACHABLE) & (ds + dt <= k)
    rows = np.flatnonzero(in_x).astype(np.int64)
    row_of = np.full(graph.num_vertices, -1, dtype=np.int64)
    row_of[rows] = np.arange(len(rows), dtype=np.int64)

    # Candidate edges: one ragged gather over the graph CSR restricted to
    # the member sources (t is handled by its padding self-loop below).
    out_indptr, out_indices = graph.out_csr()
    edge_src, edge_dst = ragged_gather(out_indptr, out_indices, rows[rows != t])
    if len(edge_src):
        _check_ids(edge_dst, graph.num_vertices)
        dt_dst = dt[edge_dst]
        keep = (
            (edge_dst != s)
            & (dt_dst != UNREACHABLE)
            & (ds[edge_src] + dt_dst + 1 <= k)
        )
        edge_src = edge_src[keep]
        edge_dst = edge_dst[keep]
    if edge_filter is not None and len(edge_src):
        kept = np.fromiter(
            (edge_filter(int(u), int(v)) for u, v in zip(edge_src, edge_dst)),
            dtype=bool,
            count=len(edge_src),
        )
        edge_src = edge_src[kept]
        edge_dst = edge_dst[kept]
    if deadline is not None:
        deadline.check()

    # The target keeps a single self-loop so that join padding works
    # (Line 10 of Algorithm 3, property (3) of the join model).  Feeding
    # it through the shared sort keeps every row in one layout.
    if in_x[t]:
        edge_src = np.concatenate([edge_src, np.asarray([t], dtype=np.int64)])
        edge_dst = np.concatenate([edge_dst, np.asarray([t], dtype=np.int64)])

    # Sort rows by (source, neighbour distance to t); the stable lexsort
    # reproduces the paper's tie order (graph adjacency order).
    if len(edge_src):
        order = np.lexsort((dt[edge_dst], edge_src))
        edge_src = edge_src[order]
        edge_dst = edge_dst[order]
    return _assemble_arrays(k, ds, dt, rows, row_of, edge_src, edge_dst)


def _assemble_arrays(
    k: int,
    ds: np.ndarray,
    dt: np.ndarray,
    rows: np.ndarray,
    row_of: np.ndarray,
    edge_src: np.ndarray,
    edge_dst: np.ndarray,
) -> tuple:
    """Index arrays from presorted candidate edges.

    Shared tail of the NumPy :meth:`LightWeightIndex.build` and
    :meth:`LightWeightIndex.build_group`: ``edge_src`` / ``edge_dst`` must
    already be filtered and sorted by ``(source, neighbour distance to t)``.
    """
    num_rows = len(rows)
    edge_rows = row_of[edge_src]

    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    offsets = np.zeros((num_rows, k + 1), dtype=np.int64)
    if len(edge_rows):
        np.cumsum(np.bincount(edge_rows, minlength=num_rows), out=indptr[1:])
        # Offset matrix: a (row, distance) histogram cumulated over the
        # distance axis gives ends[b] = #neighbours with distance <= b.
        histogram = np.bincount(
            edge_rows * (k + 1) + dt[edge_dst], minlength=num_rows * (k + 1)
        ).reshape(num_rows, k + 1)
        np.cumsum(histogram, axis=1, out=offsets)

    # Candidate partitions C_i: vertex v belongs to positions
    # v.s .. k - v.t, again one ragged expansion plus a stable sort.
    if num_rows:
        first = ds[rows]
        span = (k - dt[rows]) - first + 1
        total = int(span.sum())
        shifts = np.cumsum(span) - span
        flat_positions = (
            np.repeat(first - shifts, span) + np.arange(total, dtype=np.int64)
        )
        flat_vertices = np.repeat(rows, span)
        part_order = np.argsort(flat_positions, kind="stable")
        part_members = flat_vertices[part_order]
        part_indptr = np.zeros(k + 2, dtype=np.int64)
        np.cumsum(np.bincount(flat_positions, minlength=k + 1), out=part_indptr[1:])
    else:
        flat_positions = flat_vertices = _EMPTY
        part_members = _EMPTY
        part_indptr = np.zeros(k + 2, dtype=np.int64)

    # gamma_hat_i statistics for the preliminary estimator (Eq. 5):
    # the mean branching factor offsets[., k - i - 1] over C_i.
    gamma = np.zeros(max(k, 0), dtype=np.float64)
    if num_rows and k > 0:
        interior = flat_positions < k
        positions = flat_positions[interior]
        branch = offsets[row_of[flat_vertices[interior]], k - 1 - positions]
        sums = np.bincount(positions, weights=branch, minlength=k)[:k]
        counts = np.bincount(positions, minlength=k)[:k]
        np.divide(sums, counts, out=gamma, where=counts > 0)
    return rows, row_of, indptr, edge_dst, offsets, part_indptr, part_members, gamma
