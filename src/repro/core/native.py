"""Compiled native enumeration engine: the default tier of unconstrained queries.

The iterative kernels of :mod:`repro.core.kernels` removed the recursion and
the per-path tuples, but still execute one interpreted Python iteration per
candidate over Python-int mirrors of the index.  This module removes the
interpreter from the hot path as well.  It runs the inner loops of IDX-DFS
and IDX-JOIN in C (``_cfill.c``, shipped beside this module), built on first
use and loaded through :mod:`ctypes` by :mod:`repro._clib`, which releases
the GIL for every call.  The loops operate **directly on the index's int64
numpy CSR buffers** (:meth:`LightWeightIndex.native_csr` — no
``kernel_csr()`` Python-int mirrors) and emit paths as whole numpy blocks
into the collector's columnar :class:`~repro.core.result.PathBuffer`
(:meth:`~repro.core.listener.ResultCollector.emit_array_block`), so no
vertex ever round-trips through a Python int.

Each loop is resumable: it fills preallocated output arrays, keeps its whole
search state in one int64 vector and *returns a status code*
(``DFS_DONE`` / ``DFS_OUT_FULL`` / ``DFS_TICKS``) instead of calling back;
the Python driver flushes the block, polls the deadline and resumes, so
result-limit and deadline interruption stay exact.  :func:`warmup` loads
(or compiles) the library ahead of time so no query pays for it.

Without the library (no compiler, or ``REPRO_NATIVE=off``) every entry point
*is* its kernel: :func:`run_dfs_native` runs
:func:`~repro.core.kernels.run_dfs_kernel` and :func:`run_join_native` runs
:func:`~repro.core.kernels.run_join_kernel`.  Either way the tier emits the
same paths in the same order as the recursive engines and charges the same
statistics counters; ``tests/core/test_native.py`` asserts this over
randomised graphs.  Constrained queries never reach this module (see
:class:`repro.core.engine._IndexedAlgorithm`).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro._clib import _LIB, ThreadScratch, _library, jit_ready
from repro.core.index import LightWeightIndex
from repro.core.kernels import (
    KERNEL_CHECK_TICKS,
    run_dfs_kernel,
    run_join_kernel,
    run_subquery_kernel,
)
from repro.core.listener import Deadline, ResultCollector
from repro.core.result import EnumerationStats

__all__ = [
    "NATIVE_FLUSH_PATHS",
    "NATIVE_CHECK_TICKS",
    "DFS_DONE",
    "DFS_OUT_FULL",
    "DFS_TICKS",
    "jit_ready",
    "warmup",
    "run_dfs_native",
    "run_join_native",
    "run_subquery_native",
]

#: Paths buffered before a block is flushed to the collector.
NATIVE_FLUSH_PATHS = 4096

#: Work units (candidate expansions) between deadline polls.
NATIVE_CHECK_TICKS = 2048

#: Status codes returned by the resumable cores.
DFS_DONE = 0
DFS_OUT_FULL = 1
DFS_TICKS = 2

#: ``max_ticks`` of a run whose deadline can never fire.
_NO_TICKS = 2**62


def _max_ticks(deadline: Optional[Deadline], ticks: int) -> int:
    """``ticks`` when ``deadline`` can fire, else a bound never reached."""
    return _NO_TICKS if deadline is None or deadline.units_until_poll() is None else ticks


class _FillScratch:
    """One thread's buffers for the DFS and pairing loops, reused query
    after query.

    ``state``, one output block (``out_data`` / ``out_bounds``) and, for
    the DFS, ``on_path`` and the five ``k + 2``-entry search stacks, with
    their pointers taken once per allocation (``block``, ``dfs``).  Emitted
    blocks are copies, so nothing a query returns aliases these buffers.
    :data:`_FILL_SCRATCH` lends one to each call on its own thread.
    """

    def __init__(self) -> None:
        self.state = np.zeros(_STATE_SLOTS, dtype=np.int64)
        self.out_bounds = np.empty(NATIVE_FLUSH_PATHS, dtype=np.int64)
        self.out_data = np.empty(0, dtype=np.int64)
        self.on_path = np.zeros(0, dtype=np.uint8)
        self.stacks = np.zeros((5, 0), dtype=np.int64)
        self.block = self.dfs = None

    def fit(self, data_cap: int) -> None:
        """Zero the state and make room for an output block of ``data_cap``."""
        if data_cap > len(self.out_data) or self.block is None:
            self.out_data = np.empty(max(data_cap, len(self.out_data)), dtype=np.int64)
            self.block = (
                self.state.ctypes.data, self.out_data.ctypes.data, self.out_bounds.ctypes.data
            )
        self.state.fill(0)

    def fit_dfs(self, k: int, rows: int) -> None:
        """Also make room for a ``k``-hop search over ``rows`` index rows,
        with ``on_path`` cleared."""
        width = self.stacks.shape[1]
        if k + 2 > width or rows > len(self.on_path) or self.dfs is None:
            if k + 2 > width:
                self.stacks = np.zeros((5, k + 2), dtype=np.int64)
            if rows > len(self.on_path):
                self.on_path = np.zeros(max(rows, 2 * len(self.on_path)), dtype=np.uint8)
            stride = 8 * self.stacks.shape[1]
            base = self.stacks.ctypes.data
            self.dfs = (self.on_path.ctypes.data, *(base + i * stride for i in range(5)))
        self.on_path[:rows] = 0


_FILL_SCRATCH = ThreadScratch(_FillScratch)


# --------------------------------------------------------------------- #
# sub-queries and join (IDX-JOIN, Algorithm 6)
# --------------------------------------------------------------------- #
# State-vector slots of ``repro_walks_fill`` / ``repro_join_pair`` that the
# drivers read (the full layouts are the enums in ``_cfill.c``).
_W_SLOTS = 14
_W_EDGES, _W_PARTIAL, _W_TICKS, _W_OUT_LEN = 6, 7, 8, 9
_P_INVALID, _P_USED, _P_EMITTED, _P_TICKS, _P_OUT_LEN, _P_OUT_PATHS = 6, 7, 8, 9, 10, 11


def _walks(lib, index, start_rows, offset, length, deadline, stats):
    """Every walk of ``length`` edges from each row of ``start_rows`` in turn.

    Returns ``(data, seg)``: the walks as one flat vertex array of stride
    ``length + 1`` in :func:`run_subquery_kernel` order, start after start,
    and ``seg[i]`` = the number of walks before start ``i``.  Counters and
    deadline polls match one kernel call per start.
    """
    vertex_of, nbr, indptr, off = index.native_pointers()
    k = index.k
    width = length + 1
    starts = np.ascontiguousarray(start_rows, dtype=np.int64)
    seg = np.zeros(len(starts) + 1, dtype=np.int64)
    walk, stack_cur, stack_end = (np.zeros(width, dtype=np.int64) for _ in range(3))
    state = np.zeros(_W_SLOTS, dtype=np.int64)
    out = np.empty(width * 1024, dtype=np.int64)
    max_ticks = _max_ticks(deadline, KERNEL_CHECK_TICKS)
    try:
        while True:
            status = lib.repro_walks_fill(
                nbr, indptr, off, k + 1, vertex_of, starts.ctypes.data, len(starts),
                k - offset - 1, length, walk.ctypes.data, stack_cur.ctypes.data,
                stack_end.ctypes.data, seg.ctypes.data, state.ctypes.data,
                out.ctypes.data, len(out), max_ticks,
            )
            if status == DFS_DONE:
                break
            if status == DFS_OUT_FULL:
                grown = np.empty(2 * len(out), dtype=np.int64)
                grown[: len(out)] = out
                out = grown
            else:
                deadline.check_every(int(state[_W_TICKS]))
                state[_W_TICKS] = 0
    finally:
        stats.edges_accessed += int(state[_W_EDGES])
        stats.partial_results_generated += int(state[_W_PARTIAL])
    return out[: int(state[_W_OUT_LEN])], seg


def run_subquery_native(
    index: LightWeightIndex,
    *,
    start: int,
    offset: int,
    length: int,
    deadline: Optional[Deadline] = None,
    stats: Optional[EnumerationStats] = None,
) -> Tuple[np.ndarray, int]:
    """Sub-query evaluation (the Search procedure of Algorithm 6).

    Returns ``(data, width)`` like :func:`repro.core.kernels.run_subquery_kernel`
    but with ``data`` as one flat int64 array: walked in C when the library
    is loaded, by the kernel otherwise.  Same walks, same counters.
    """
    stats = stats if stats is not None else EnumerationStats()
    lib = _library()
    row_of = index.native_csr()[1]
    if lib is None or length == 0 or not 0 <= start < len(row_of) or row_of[start] < 0:
        data, width = run_subquery_kernel(
            index, start=start, offset=offset, length=length, deadline=deadline, stats=stats
        )
        return np.asarray(data, dtype=np.int64), width
    return _walks(lib, index, [row_of[start]], offset, length, deadline, stats)[0], length + 1


def run_join_native(
    index: LightWeightIndex,
    cut_position: int,
    collector: ResultCollector,
    *,
    deadline: Optional[Deadline] = None,
    stats: Optional[EnumerationStats] = None,
) -> int:
    """IDX-JOIN with its sub-query walks and its pairing loop in C.

    Byte-identical to :func:`repro.core.kernels.run_join_kernel` (and hence
    to the recursive :func:`repro.core.join.run_idx_join`): same paths,
    same order, same statistics counters, and the pairing returns to poll
    the deadline exactly where the kernel's per-left-walk poll would read
    the clock.  Without the compiled library this *is* the kernel.
    """
    lib = _library()
    if lib is None:
        return run_join_kernel(index, cut_position, collector, deadline=deadline, stats=stats)
    stats = stats if stats is not None else EnumerationStats()
    query = index.query
    s, t, k = query.source, query.target, query.k
    if not 1 <= cut_position <= k - 1:
        raise ValueError(f"cut position must lie in [1, {k - 1}], got {cut_position}")
    if index.is_empty:
        return 0
    stats.cut_position = cut_position
    row_of = index.native_csr()[1]

    lw = cut_position + 1
    left, _ = _walks(lib, index, [row_of[s]], 0, cut_position, deadline, stats)
    left_count = len(left) // lw
    # Right sub-queries per cut vertex, ascending — np.unique == sorted(set).
    heads = np.unique(left[lw - 1 :: lw])
    rw = k - cut_position + 1
    right, seg = _walks(lib, index, row_of[heads], cut_position, k - cut_position, deadline, stats)
    right_count = len(right) // rw

    stats.peak_partial_result_tuples = max(
        stats.peak_partial_result_tuples, left_count + right_count
    )
    stats.peak_partial_result_bytes = max(
        stats.peak_partial_result_bytes,
        8 * (left_count * lw + right_count * rw),
    )

    plen = np.empty(right_count, dtype=np.int64)
    lib.repro_join_tails(right.ctypes.data, right_count, rw, t, plen.ctypes.data)
    used = np.zeros(right_count, dtype=np.uint8)
    head = (
        left.ctypes.data, left_count, lw, right.ctypes.data, rw, plen.ctypes.data,
        heads.ctypes.data, seg.ctypes.data, len(heads), t, used.ctypes.data,
    )
    data_cap = NATIVE_FLUSH_PATHS * (k + 1)
    scratch = _FILL_SCRATCH.take()
    scratch.fit(data_cap)
    state, out_data, out_bounds = scratch.state, scratch.out_data, scratch.out_bounds
    state_p, data_p, bounds_p = scratch.block
    try:
        while True:
            cap = collector.remaining_before_flush()
            max_paths = NATIVE_FLUSH_PATHS if cap is None else min(NATIVE_FLUSH_PATHS, cap)
            polls = None if deadline is None else deadline.units_until_poll()
            status = lib.repro_join_pair(
                *head, state_p, data_p, data_cap, bounds_p, max_paths,
                _NO_TICKS if polls is None else polls,
            )
            out_paths = int(state[_P_OUT_PATHS])
            if out_paths:
                collector.emit_array_block(
                    out_data[: int(state[_P_OUT_LEN])].copy(), out_bounds[:out_paths].copy()
                )
            if status == DFS_TICKS:
                deadline.check_every(int(state[_P_TICKS]))
                state[_P_TICKS] = 0
            elif status == DFS_DONE:
                break
    finally:
        stats.invalid_partial_results += int(state[_P_INVALID])
        emitted, used_rights = int(state[_P_EMITTED]), int(state[_P_USED])
        _FILL_SCRATCH.give(scratch)
    stats.invalid_partial_results += right_count - used_rights
    stats.results_emitted += emitted
    return emitted


# --------------------------------------------------------------------- #
# DFS — resumable core (Python reference of ``repro_dfs_fill``)
# --------------------------------------------------------------------- #
# State-vector slots of the resumable core (the ``ST_*`` enum of
# ``_cfill.c``).  Everything the scalar DFS needs to suspend mid-search
# lives in one int64 array so the compiled loop is a pure
# array-in/array-out function.
_ST_DEPTH = 0
_ST_ROW = 1
_ST_CUR = 2
_ST_END = 3
_ST_FOUND = 4
_ST_BUDGET = 5
_ST_EDGES = 6
_ST_PARTIAL = 7
_ST_INVALID = 8
_ST_TICKS = 9
_ST_OUT_LEN = 10
_ST_OUT_PATHS = 11
_ST_PATH_LEN = 12
_ST_INLINE = 13
_ST_I_CHILD = 14
_ST_I_CUR = 15
_ST_I_END = 16
_ST_I_FOUND = 17

_STATE_SLOTS = 18


def _dfs_fill(index, scratch, data_cap, t_row, t_vertex, max_paths, max_ticks):
    """Resumable scalar IDX-DFS core, in Python.

    Mirrors the iterative kernel's generic loop (including the budget-1
    inline scan) over ``index``'s :meth:`~LightWeightIndex.native_csr`
    arrays, but fills the ``scratch`` output block (its first ``data_cap``
    entries) instead of calling into the collector, and *returns a status
    code* instead of raising:

    * ``DFS_DONE`` — search exhausted;
    * ``DFS_OUT_FULL`` — output block full (``max_paths`` reached or data
      array nearly full).  The suspension happens either *before* any
      counter of the next candidate is charged or *immediately after* the
      emission that hit ``max_paths``, so the driver's flush lands the
      limit raise on exactly the same search-tree step as the recursive
      engine;
    * ``DFS_TICKS`` — ``max_ticks`` candidates expanded since the last
      poll; the driver flushes the block, charges the ticks against the
      deadline and resumes.

    All search state lives in the ``state`` vector (see the ``_ST_*``
    slots), so the function is trivially resumable.  ``repro_dfs_fill`` in
    ``_cfill.c`` is a line-for-line C port; this version is the reference
    the tests drive it against.
    """
    vertex_of, _, nbr, indptr, off = index.native_csr()
    off = off.ravel()
    k = index.k
    stride = k + 1
    on_path, state = scratch.on_path, scratch.state
    out_data, out_bounds = scratch.out_data, scratch.out_bounds
    stack_row, stack_cur, stack_end, stack_found, path_verts = scratch.stacks
    depth = state[_ST_DEPTH]
    row = state[_ST_ROW]
    cur = state[_ST_CUR]
    end = state[_ST_END]
    found = state[_ST_FOUND]
    budget_col = state[_ST_BUDGET]
    edges = state[_ST_EDGES]
    partial = state[_ST_PARTIAL]
    invalid = state[_ST_INVALID]
    ticks = state[_ST_TICKS]
    path_len = state[_ST_PATH_LEN]
    in_inline = state[_ST_INLINE]
    i_child = state[_ST_I_CHILD]
    i_cur = state[_ST_I_CUR]
    i_end = state[_ST_I_END]
    i_found = state[_ST_I_FOUND]
    out_len = 0
    out_paths = 0
    status = DFS_DONE
    while True:
        if in_inline == 1:
            v_child = vertex_of[i_child]
            while i_cur < i_end:
                if out_len + path_len + 3 > data_cap:
                    status = DFS_OUT_FULL
                    break
                if ticks >= max_ticks:
                    status = DFS_TICKS
                    break
                cc = nbr[i_cur]
                i_cur += 1
                if on_path[cc] != 0:
                    continue
                partial += 1
                ticks += 1
                for j in range(path_len):
                    out_data[out_len + j] = path_verts[j]
                out_len += path_len
                out_data[out_len] = v_child
                out_len += 1
                if cc != t_row:
                    edges += 1
                    partial += 1
                    out_data[out_len] = vertex_of[cc]
                    out_len += 1
                out_data[out_len] = t_vertex
                out_len += 1
                out_bounds[out_paths] = out_len
                out_paths += 1
                i_found += 1
                if out_paths >= max_paths:
                    status = DFS_OUT_FULL
                    break
            if status != DFS_DONE:
                break
            if i_found == 0 and not (depth == 0 and k == 2):
                invalid += 1
            found += i_found
            in_inline = 0
            if depth == 0 and k == 2:
                break
            continue
        if cur < end:
            if out_len + path_len + 3 > data_cap:
                status = DFS_OUT_FULL
                break
            if ticks >= max_ticks:
                status = DFS_TICKS
                break
            child = nbr[cur]
            cur += 1
            if on_path[child] != 0:
                continue
            partial += 1
            ticks += 1
            if child == t_row:
                for j in range(path_len):
                    out_data[out_len + j] = path_verts[j]
                out_len += path_len
                out_data[out_len] = t_vertex
                out_len += 1
                out_bounds[out_paths] = out_len
                out_paths += 1
                found += 1
                if out_paths >= max_paths:
                    status = DFS_OUT_FULL
                    break
                continue
            if budget_col == 1:
                i_child = child
                i_cur = indptr[child]
                i_end = i_cur + off[child * stride + 1]
                edges += i_end - i_cur
                i_found = 0
                in_inline = 1
                continue
            stack_row[depth] = row
            stack_cur[depth] = cur
            stack_end[depth] = end
            stack_found[depth] = found
            depth += 1
            path_verts[path_len] = vertex_of[child]
            path_len += 1
            on_path[child] = 1
            row = child
            cur = indptr[child]
            end = cur + off[child * stride + budget_col]
            budget_col -= 1
            edges += end - cur
            found = 0
        else:
            if depth == 0:
                break
            depth -= 1
            budget_col += 1
            on_path[row] = 0
            path_len -= 1
            row = stack_row[depth]
            cur = stack_cur[depth]
            end = stack_end[depth]
            if found == 0:
                invalid += 1
                found = stack_found[depth]
            else:
                found += stack_found[depth]
    state[_ST_DEPTH] = depth
    state[_ST_ROW] = row
    state[_ST_CUR] = cur
    state[_ST_END] = end
    state[_ST_FOUND] = found
    state[_ST_BUDGET] = budget_col
    state[_ST_EDGES] = edges
    state[_ST_PARTIAL] = partial
    state[_ST_INVALID] = invalid
    state[_ST_TICKS] = ticks
    state[_ST_OUT_LEN] = out_len
    state[_ST_OUT_PATHS] = out_paths
    state[_ST_PATH_LEN] = path_len
    state[_ST_INLINE] = in_inline
    state[_ST_I_CHILD] = i_child
    state[_ST_I_CUR] = i_cur
    state[_ST_I_END] = i_end
    state[_ST_I_FOUND] = i_found
    return status


def _c_dfs_filler(lib):
    """``repro_dfs_fill`` behind the calling convention of :func:`_dfs_fill`."""
    fill = lib.repro_dfs_fill

    def filler(index, scratch, data_cap, t_row, t_vertex, max_paths, max_ticks):
        vertex_of, nbr, indptr, off = index.native_pointers()
        k = index.k
        state, out_data, out_bounds = scratch.block
        return fill(
            nbr, indptr, off, k + 1, vertex_of, t_row, t_vertex, k, *scratch.dfs,
            state, out_data, data_cap, out_bounds, max_paths, max_ticks,
        )

    return filler


def _run_dfs_fill_loop(index, collector, *, deadline, stats, filler):
    """Drive the resumable DFS core: fill a block, flush, poll, resume.

    ``filler`` is either the compiled core (:func:`_c_dfs_filler`) or — in
    tests — :func:`_dfs_fill`, which executes the identical logic in plain
    Python.  Both work in this thread's :class:`_FillScratch`.
    """
    if index.is_empty:
        return 0
    query = index.query
    s, t, k = query.source, query.target, query.k
    vertex_of, row_of, _, indptr, off2 = index.native_csr()
    s_row = int(row_of[s])
    t_row = int(row_of[t])
    data_cap = max(NATIVE_FLUSH_PATHS * 4, (k + 4) * 4)
    max_ticks = _max_ticks(deadline, NATIVE_CHECK_TICKS)
    start_count = collector.count
    scratch = _FILL_SCRATCH.take()
    scratch.fit(data_cap)
    scratch.fit_dfs(k, len(vertex_of))
    state, out_data, out_bounds = scratch.state, scratch.out_data, scratch.out_bounds
    scratch.on_path[s_row] = 1
    if k == 2:
        # The whole search is the root's inline scan over column 1.
        state[_ST_INLINE] = 1
        state[_ST_I_CHILD] = s_row
        state[_ST_I_CUR] = int(indptr[s_row])
        state[_ST_I_END] = state[_ST_I_CUR] + int(off2[s_row, 1])
        state[_ST_EDGES] = state[_ST_I_END] - state[_ST_I_CUR]
    else:
        scratch.stacks[4, 0] = s  # path_verts
        state[_ST_PATH_LEN] = 1
        state[_ST_ROW] = s_row
        state[_ST_CUR] = int(indptr[s_row])
        state[_ST_END] = state[_ST_CUR] + int(off2[s_row, k - 1])
        state[_ST_EDGES] = state[_ST_END] - state[_ST_CUR]
        state[_ST_BUDGET] = k - 2
    try:
        while True:
            cap = collector.remaining_before_flush()
            max_paths = (
                NATIVE_FLUSH_PATHS if cap is None else min(NATIVE_FLUSH_PATHS, cap)
            )
            status = filler(index, scratch, data_cap, t_row, t, max_paths, max_ticks)
            out_len = int(state[_ST_OUT_LEN])
            out_paths = int(state[_ST_OUT_PATHS])
            if out_paths:
                collector.emit_array_block(
                    out_data[:out_len].copy(), out_bounds[:out_paths].copy()
                )
            if status == DFS_TICKS:
                deadline.check_every(int(state[_ST_TICKS]))
                state[_ST_TICKS] = 0
            elif status == DFS_DONE:
                break
    finally:
        stats.edges_accessed += int(state[_ST_EDGES])
        stats.partial_results_generated += int(state[_ST_PARTIAL])
        stats.invalid_partial_results += int(state[_ST_INVALID])
        _FILL_SCRATCH.give(scratch)
    emitted = collector.count - start_count
    stats.results_emitted += emitted
    return emitted


def run_dfs_native(
    index: LightWeightIndex,
    collector: ResultCollector,
    *,
    deadline: Optional[Deadline] = None,
    stats: Optional[EnumerationStats] = None,
) -> int:
    """IDX-DFS (Algorithm 4) with its search loop in C.

    Byte-identical to :func:`repro.core.dfs.run_idx_dfs` and the iterative
    kernel: same paths, same order, same statistics counters, same limit
    and deadline interruption points.  Without the compiled library this
    *is* the kernel.

    Returns the number of paths emitted.
    """
    lib = _library()
    if lib is None:
        return run_dfs_kernel(index, collector, deadline=deadline, stats=stats)
    stats = stats if stats is not None else EnumerationStats()
    return _run_dfs_fill_loop(
        index, collector, deadline=deadline, stats=stats, filler=_c_dfs_filler(lib)
    )


def warmup() -> bool:
    """Load the C library — compiling it on a cold cache — and run a tiny
    DFS and join through it.

    A no-op without a compiler or under ``REPRO_NATIVE=off``.  A local
    :class:`~repro.api.Database` and ``repro serve`` call this once at
    start-up, so neither the compile nor the load lands on a query.
    Returns ``True`` when the compiled tier is ready afterwards.
    """
    if not jit_ready():
        return False
    if not _LIB["warm"]:
        _LIB["warm"] = True
        from repro.core.query import Query
        from repro.graph.generators import complete_graph

        index = LightWeightIndex.build(complete_graph(4), Query(0, 3, 3))
        run_dfs_native(index, ResultCollector(store_paths=False))
        run_join_native(index, 1, ResultCollector(store_paths=False))
    return True
