"""Compiled / vectorised native enumeration engine (``engine="native"``).

The iterative kernels of :mod:`repro.core.kernels` removed the recursion and
the per-path tuples, but still execute one interpreted Python iteration per
candidate over Python-int mirrors of the index.  This module removes the
interpreter from the hot path as well.  It operates **directly on the
index's int64 numpy CSR buffers** (:meth:`LightWeightIndex.native_csr` — no
``kernel_csr()`` Python-int mirrors) and emits paths as whole numpy blocks
into the collector's columnar :class:`~repro.core.result.PathBuffer`
(:meth:`~repro.core.listener.ResultCollector.emit_array_block`), so no
vertex ever round-trips through a Python int on the fast path.

Two tiers share the entry points:

* **compiled** — the inner loops of IDX-DFS and IDX-JOIN in C
  (``_cfill.c``, shipped beside this module), built on first use and
  loaded through :mod:`ctypes` by :mod:`repro._clib`, which releases the
  GIL for every call.  Each loop is resumable: it fills preallocated
  output arrays, keeps its whole search state in one int64 vector and
  *returns a status code*
  (``DFS_DONE`` / ``DFS_OUT_FULL`` / ``DFS_TICKS``) instead of calling back;
  the Python driver flushes the block, polls the deadline and resumes, so
  result-limit and deadline interruption stay exact.  :func:`warmup` loads
  (or compiles) the library ahead of time so no query pays for it.
* **fallback** — without the library, native DFS plans run the
  subtree-vectorised NumPy expander below and join plans run the iterative
  :func:`~repro.core.kernels.run_join_kernel`.

Both tiers emit exactly the same paths in exactly the same order as the
recursive engines and the kernels, and charge the same statistics counters;
``tests/core/test_native.py`` asserts this over randomised graphs.

Like the kernels, the native engine does not support path constraints;
constrained queries fall back to the recursive engines.  The environment
knob ``REPRO_NATIVE`` selects the tier: ``off`` skips the build (``auto``
then runs the kernels), ``jit`` makes ``engine="native"`` *strict* — when
the library is missing the engine falls back to ``"kernel"`` with a
one-time warning instead of running the fallback tier.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro._clib import _LIB, _WARNED, _library, jit_ready, jit_required, warn_jit_fallback
from repro.core.index import LightWeightIndex
from repro.core.kernels import KERNEL_CHECK_TICKS, run_join_kernel, run_subquery_kernel
from repro.core.listener import Deadline, ResultCollector
from repro.core.result import EnumerationStats
from repro.errors import EnumerationTimeout

__all__ = [
    "NATIVE_FLUSH_PATHS",
    "NATIVE_CHECK_TICKS",
    "DFS_DONE",
    "DFS_OUT_FULL",
    "DFS_TICKS",
    "jit_ready",
    "jit_required",
    "warmup",
    "run_dfs_native",
    "run_join_native",
    "run_subquery_native",
]

#: Paths buffered before a block is flushed to the collector.
NATIVE_FLUSH_PATHS = 4096

#: Work units (candidate expansions) between deadline polls.
NATIVE_CHECK_TICKS = 2048

#: Subtree roots with fewer candidates than this (and depth at most
#: ``_SCALAR_DEPTH``) expand in scalar form — below it, per-level array-op
#: overhead costs more than the plain loop.
_SCALAR_WIDTH = 6
_SCALAR_DEPTH = 3

#: Cap on the *estimated* candidate count of one bulk subtree expansion;
#: wider subtrees split a scalar level at a time until the estimate fits,
#: which bounds the transient array memory of the vectorised tier.
_EXPAND_CAP = 1 << 19

#: Status codes returned by the resumable cores.
DFS_DONE = 0
DFS_OUT_FULL = 1
DFS_TICKS = 2

#: ``max_ticks`` of a run whose deadline can never fire.
_NO_TICKS = 2**62

_EMPTY = np.empty(0, dtype=np.int64)


def _max_ticks(deadline: Optional[Deadline], ticks: int) -> int:
    """``ticks`` when ``deadline`` can fire, else a bound never reached."""
    return _NO_TICKS if deadline is None or deadline.units_until_poll() is None else ticks


# --------------------------------------------------------------------- #
# block emission
# --------------------------------------------------------------------- #
class _BlockEmitter:
    """Accumulates emission blocks and flushes them as array blocks.

    ``limit_room`` tracks how many more results the collector's result
    limit allows: when a bulk block would reach it, the *caller* must not
    append in bulk — it replays that unit of work in scalar form so the
    limit raise lands on the exact path with recursive-exact counters
    (see :meth:`room_for`).  The response-time probe only needs block-edge
    accuracy (the kernels flush at the same granularity), so ``flush_cap``
    merely forces a flush near the probe without ever going scalar.
    """

    __slots__ = ("collector", "datas", "lens", "pending", "limit_room", "flush_cap")

    def __init__(self, collector: ResultCollector) -> None:
        self.collector = collector
        self.datas: List[np.ndarray] = []
        self.lens: List[np.ndarray] = []
        self.pending = 0
        self.refresh()

    def refresh(self) -> None:
        """Re-read the limit/probe boundaries from the collector."""
        limit = self.collector.result_limit
        self.limit_room = None if limit is None else limit - self.collector.count
        self.flush_cap = self.collector.remaining_before_flush()

    def room_for(self, count: int) -> bool:
        """Whether a bulk block of ``count`` paths stays strictly under the
        result limit (``True`` when no limit is set)."""
        return self.limit_room is None or self.pending + count < self.limit_room

    def append(self, data: np.ndarray, lens: np.ndarray) -> None:
        """Queue a block (``lens`` = per-path vertex counts)."""
        self.datas.append(data)
        self.lens.append(lens)
        self.pending += len(lens)
        if self.pending >= NATIVE_FLUSH_PATHS or (
            self.flush_cap is not None and self.pending >= self.flush_cap
        ):
            self.flush()

    def emit_path(self, path: List[int]) -> None:
        """Queue one scalar path, landing the limit raise on the exact path."""
        if self.limit_room is not None and self.pending + 1 >= self.limit_room:
            self.flush()
            self.collector.emit(path)
            self.refresh()
            return
        arr = np.asarray(path, dtype=np.int64)
        self.datas.append(arr)
        self.lens.append(np.asarray([len(arr)], dtype=np.int64))
        self.pending += 1
        if self.pending >= NATIVE_FLUSH_PATHS or (
            self.flush_cap is not None and self.pending >= self.flush_cap
        ):
            self.flush()

    def flush(self) -> None:
        """Emit everything queued as one array block."""
        if not self.pending:
            return
        data = self.datas[0] if len(self.datas) == 1 else np.concatenate(self.datas)
        lens = self.lens[0] if len(self.lens) == 1 else np.concatenate(self.lens)
        self.datas = []
        self.lens = []
        self.pending = 0
        self.collector.emit_array_block(data, np.cumsum(lens))
        self.refresh()


# --------------------------------------------------------------------- #
# sub-queries and join (IDX-JOIN, Algorithm 6)
# --------------------------------------------------------------------- #
# State-vector slots of ``repro_walks_fill`` / ``repro_join_pair`` that the
# drivers read (the full layouts are the enums in ``_cfill.c``).
_W_SLOTS = 14
_W_EDGES, _W_PARTIAL, _W_TICKS, _W_OUT_LEN = 6, 7, 8, 9
_P_SLOTS = 12
_P_INVALID, _P_USED, _P_EMITTED, _P_TICKS, _P_OUT_LEN, _P_OUT_PATHS = 6, 7, 8, 9, 10, 11


def _walks(lib, index, start_rows, offset, length, deadline, stats):
    """Every walk of ``length`` edges from each row of ``start_rows`` in turn.

    Returns ``(data, seg)``: the walks as one flat vertex array of stride
    ``length + 1`` in :func:`run_subquery_kernel` order, start after start,
    and ``seg[i]`` = the number of walks before start ``i``.  Counters and
    deadline polls match one kernel call per start.
    """
    vertex_of, _, nbr, indptr, off = index.native_csr()
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
                nbr.ctypes.data, indptr.ctypes.data, off.ctypes.data, k + 1,
                vertex_of.ctypes.data, starts.ctypes.data, len(starts),
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
    state = np.zeros(_P_SLOTS, dtype=np.int64)
    out_data = np.empty(NATIVE_FLUSH_PATHS * (k + 1), dtype=np.int64)
    out_bounds = np.empty(NATIVE_FLUSH_PATHS, dtype=np.int64)
    try:
        while True:
            cap = collector.remaining_before_flush()
            max_paths = NATIVE_FLUSH_PATHS if cap is None else min(NATIVE_FLUSH_PATHS, cap)
            polls = None if deadline is None else deadline.units_until_poll()
            status = lib.repro_join_pair(
                left.ctypes.data, left_count, lw, right.ctypes.data, rw,
                plen.ctypes.data, heads.ctypes.data, seg.ctypes.data, len(heads), t,
                used.ctypes.data, state.ctypes.data, out_data.ctypes.data,
                len(out_data), out_bounds.ctypes.data, max_paths,
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
    emitted = int(state[_P_EMITTED])
    stats.invalid_partial_results += right_count - int(state[_P_USED])
    stats.results_emitted += emitted
    return emitted


# --------------------------------------------------------------------- #
# DFS (IDX-DFS, Algorithm 4) — vectorised tier
# --------------------------------------------------------------------- #
def _expand_subtree(
    c, B, prefix, nbr, indptr, off, vertex_of, on_path, t_row, t, deadline=None
):
    """Expand the whole depth-``B`` subtree rooted at row ``c`` with array ops.

    ``prefix`` is the current path *including* ``c``'s vertex.  Every level
    of the subtree is one ragged gather + mask over the full frontier.  DFS
    emission order is recovered *without sorting*: each level is built
    parent-major / adjacency-minor (``repeat`` and boolean masks preserve
    order), and ``t`` is always the first candidate of any row (the index
    sorts each row's neighbours by distance-to-t, and only ``t`` is at
    distance 0), so a node's own emission precedes all of its child
    subtrees — per-level prefix sums over each subtree's emission count
    then give every emission its exact slot.

    Returns ``(count, data, lens, edges, partial, invalid, found, work)``.
    The counter deltas are NOT committed to any stats object — the caller
    discards them and replays the subtree in scalar form when the block
    would cross the collector's result limit.
    """
    length = len(prefix)
    on_path[c] = True
    edges = 0
    partial = 0
    invalid = 0
    work = 0
    nodes = np.asarray([c], dtype=np.int64)
    # Ancestor rows / path vertices of each frontier node, one contiguous
    # 1-D array per chain position (cheaper to gather than matrix rows).
    anc_cols: List[np.ndarray] = []
    vert_cols: List[np.ndarray] = []
    level_n = [1]
    level_verts: List[List[np.ndarray]] = [[]]
    level_par: List[Optional[np.ndarray]] = [None]
    level_tmask: List[np.ndarray] = []

    for d in range(B):
        n = len(nodes)
        widths = off[nodes, B - d]
        total = int(widths.sum())
        edges += total
        work += total
        if deadline is not None:
            # Interruption discards this subtree's pending emissions and
            # local counters — the driver flushes completed blocks and the
            # emitted paths stay an exact prefix of the full enumeration.
            deadline.check_every(total)
        if total == 0:
            level_tmask.append(np.zeros(n, dtype=bool))
            level_par.append(np.empty(0, dtype=np.int64))
            nodes = np.empty(0, dtype=np.int64)
            anc_cols = [np.empty(0, dtype=np.int64)] * (d + 1)
            vert_cols = [np.empty(0, dtype=np.int64)] * (d + 1)
            level_n.append(0)
            level_verts.append(vert_cols)
            continue
        starts = indptr[nodes]
        cumw = np.cumsum(widths)
        gather = np.repeat(starts - (cumw - widths), widths) + np.arange(
            total, dtype=np.int64
        )
        cands = nbr[gather]
        grp = np.repeat(np.arange(n, dtype=np.int64), widths)
        valid = ~on_path[cands]
        for col in anc_cols:
            valid &= cands != col[grp]
        partial += int(valid.sum())
        is_t = valid & (cands == t_row)
        tmask = np.zeros(n, dtype=bool)
        tmask[grp[is_t]] = True
        level_tmask.append(tmask)
        desc = valid & (cands != t_row)
        child_nodes = cands[desc]
        child_par = grp[desc]
        anc_cols = [col[child_par] for col in anc_cols]
        anc_cols.append(child_nodes)
        vert_cols = [col[child_par] for col in vert_cols]
        vert_cols.append(vertex_of[child_nodes])
        nodes = child_nodes
        level_n.append(len(child_nodes))
        level_verts.append(vert_cols)
        level_par.append(child_par)
    on_path[c] = False

    # Depth-B frontier: budget-0 nodes whose sole candidate is t (a non-t
    # candidate under budget 1 is at distance exactly 1 from t, and its
    # edge to t survives the index filter) — one emission each.
    bottom = level_n[B]
    edges += bottom
    partial += bottom
    work += bottom

    # Bottom-up emission counts per subtree; an interior node with nothing
    # below it is one invalid partial (the root c is charged by the caller).
    emit_below: List[Optional[np.ndarray]] = [None] * (B + 1)
    emit_below[B] = np.ones(bottom, dtype=np.int64)
    for d in range(B - 1, -1, -1):
        par = level_par[d + 1]
        if len(par):
            seg = np.bincount(
                par, weights=emit_below[d + 1], minlength=level_n[d]
            ).astype(np.int64)
        else:
            seg = np.zeros(level_n[d], dtype=np.int64)
        eb = level_tmask[d].astype(np.int64) + seg
        if d:
            invalid += int((eb == 0).sum())
        emit_below[d] = eb
    found = int(emit_below[0][0])
    if found == 0:
        return 0, None, None, edges, partial, invalid, 0, work

    # Top-down slot offsets: a node's own t-emission sits at its offset,
    # its children's subtrees follow in adjacency order.
    offs: List[Optional[np.ndarray]] = [None] * (B + 1)
    offs[0] = np.zeros(1, dtype=np.int64)
    for d in range(B):
        nchild = level_n[d + 1]
        if nchild == 0:
            offs[d + 1] = np.zeros(0, dtype=np.int64)
            continue
        par = level_par[d + 1]
        counts = np.bincount(par, minlength=level_n[d])
        eb_child = emit_below[d + 1]
        exclusive = np.cumsum(eb_child) - eb_child
        seg_starts = np.minimum(np.cumsum(counts) - counts, nchild - 1)
        base = np.repeat(offs[d] + level_tmask[d], counts)
        offs[d + 1] = base + exclusive - np.repeat(exclusive[seg_starts], counts)

    lens = np.empty(found, dtype=np.int64)
    for d in range(B):
        tm = level_tmask[d]
        if tm.any():
            lens[offs[d][tm]] = length + d + 1
    if bottom:
        lens[offs[B]] = length + B + 1
    bounds = np.cumsum(lens)
    starts = bounds - lens
    data = np.empty(int(bounds[-1]), dtype=np.int64)
    for i in range(length):
        data[starts + i] = prefix[i]
    for d in range(1, B):
        tm = level_tmask[d]
        if tm.any():
            rows = starts[offs[d][tm]]
            for b, col in enumerate(level_verts[d]):
                data[rows + length + b] = col[tm]
    if bottom:
        rows = starts[offs[B]]
        for b, col in enumerate(level_verts[B]):
            data[rows + length + b] = col
    data[bounds - 1] = t
    return found, data, lens, edges, partial, invalid, found, work


def _scalar_subtree(
    c, B, path, nbr, indptr, off, vertex_of, on_path, t_row, t, emit, deadline, acc
):
    """Scalar expansion of one subtree with recursive-exact charging.

    Two uses: the *replay* of a subtree whose bulk block would cross the
    result limit (``emit`` = ``collector.emit``, so the per-candidate
    emission and counter order matches the recursive engine step for step
    and the limit raise lands on exactly the same search-tree point), and
    the fast path for *small* subtrees where per-level array ops would cost
    more than a plain loop (``emit`` = the emitter's scalar queue).
    ``path`` includes ``c``'s vertex; ``acc`` is the caller's
    ``[edges, partial, invalid, ticks]`` accumulator.  Returns the number
    of results found below ``c``.
    """
    check = deadline is not None
    width = int(off[c, B])
    acc[0] += width
    base = int(indptr[c])
    found = 0
    on_path[c] = True
    try:
        for i in range(base, base + width):
            child = int(nbr[i])
            if on_path[child]:
                continue
            acc[1] += 1
            if check:
                deadline.check_every(1)
            if child == t_row:
                emit(path + [t])
                found += 1
            elif B == 1:
                acc[0] += 1
                acc[1] += 1
                emit(path + [int(vertex_of[child]), t])
                found += 1
            else:
                path.append(int(vertex_of[child]))
                below = _scalar_subtree(
                    child, B - 1, path, nbr, indptr, off, vertex_of, on_path,
                    t_row, t, emit, deadline, acc,
                )
                path.pop()
                if below == 0:
                    acc[2] += 1
                else:
                    found += below
    finally:
        on_path[c] = False
    return found


def _run_dfs_vectorised(index, collector, *, deadline, stats):
    """Subtree-vectorised IDX-DFS (the numpy tier of the native engine)."""
    if index.is_empty:
        return 0
    query = index.query
    s, t, k = query.source, query.target, query.k
    vertex_of, row_of, nbr, indptr, off = index.native_csr()
    t_row = int(row_of[t])
    s_row = int(row_of[s])
    on_path = np.zeros(len(vertex_of), dtype=bool)
    on_path[s_row] = True
    emitter = _BlockEmitter(collector)
    acc = [0, 0, 0, 0]  # edges, partial, invalid, ticks
    check = deadline is not None
    start_count = collector.count
    # Estimated candidate count of a depth-B subtree rooted at a node of
    # width w: w times the product of the per-column maximum widths the
    # deeper levels can see.  Used to cap bulk-expansion memory.
    colmax = off.max(axis=0)
    fan_products = np.ones(k + 2, dtype=np.float64)
    running = 1.0
    for b in range(1, k + 1):
        fan_products[b] = running
        running *= max(1.0, float(colmax[b]))

    def _node(c, B, path):
        """Expand the depth-``B`` subtree at row ``c`` (``path`` includes
        ``c``'s vertex); returns the number of results found below ``c``.

        Three regimes: small fan goes scalar (array-op overhead would
        dominate), bounded fan bulk-expands the whole subtree in array
        form, unbounded fan splits — one scalar level here, recursing a
        level deeper until the estimate fits.  A bulk block that would
        cross the result limit is replayed in scalar form against the
        collector so the limit raise lands on the exact path.
        """
        w = int(off[c, B])
        if w < _SCALAR_WIDTH and B <= _SCALAR_DEPTH:
            return _scalar_subtree(
                c, B, path, nbr, indptr, off, vertex_of, on_path, t_row, t,
                emitter.emit_path, deadline, acc,
            )
        if B == 1 or w * fan_products[B] <= _EXPAND_CAP:
            count, data, lens, d_edges, d_partial, d_invalid, found, work = (
                _expand_subtree(
                    c, B, np.asarray(path, dtype=np.int64), nbr, indptr, off,
                    vertex_of, on_path, t_row, t, deadline,
                )
            )
            if emitter.room_for(count):
                acc[0] += d_edges
                acc[1] += d_partial
                acc[2] += d_invalid
                if count:
                    emitter.append(data, lens)
                if check:
                    acc[3] += work
                    if acc[3] >= NATIVE_CHECK_TICKS:
                        deadline.check_every(acc[3])
                        acc[3] = 0
                return found
            emitter.flush()
            found = _scalar_subtree(
                c, B, path, nbr, indptr, off, vertex_of, on_path, t_row, t,
                collector.emit, deadline, acc,
            )
            emitter.refresh()
            return found
        # Split: walk this node's candidates in scalar form, one subtree
        # per child (charging exactly like the recursive engine's step).
        acc[0] += w
        base = int(indptr[c])
        found = 0
        on_path[c] = True
        try:
            for i in range(base, base + w):
                child = int(nbr[i])
                if on_path[child]:
                    continue
                acc[1] += 1
                if check:
                    acc[3] += 1
                    if acc[3] >= NATIVE_CHECK_TICKS:
                        deadline.check_every(acc[3])
                        acc[3] = 0
                if child == t_row:
                    emitter.emit_path(path + [t])
                    found += 1
                    continue
                path.append(int(vertex_of[child]))
                below = _node(child, B - 1, path)
                path.pop()
                if below == 0:
                    acc[2] += 1
                else:
                    found += below
        finally:
            on_path[c] = False
        return found

    try:
        # The root is never charged invalid, so the return value is dropped.
        _node(s_row, k - 1, [s])
        emitter.flush()
    except EnumerationTimeout:
        emitter.flush()
        raise
    finally:
        stats.edges_accessed += acc[0]
        stats.partial_results_generated += acc[1]
        stats.invalid_partial_results += acc[2]
    emitted = collector.count - start_count
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


def _dfs_fill(
    nbr,
    indptr,
    off,
    stride,
    vertex_of,
    t_row,
    t_vertex,
    k,
    on_path,
    stack_row,
    stack_cur,
    stack_end,
    stack_found,
    path_verts,
    state,
    out_data,
    out_bounds,
    max_paths,
    max_ticks,
):
    """Resumable scalar IDX-DFS core, in Python.

    Mirrors the iterative kernel's generic loop (including the budget-1
    inline scan) but fills preallocated ``out_data`` / ``out_bounds``
    arrays instead of calling into the collector, and *returns a status
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
    data_cap = out_data.shape[0]
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

    def filler(
        nbr, indptr, off, stride, vertex_of, t_row, t_vertex, k, on_path,
        stack_row, stack_cur, stack_end, stack_found, path_verts, state,
        out_data, out_bounds, max_paths, max_ticks,
    ):
        return fill(
            nbr.ctypes.data, indptr.ctypes.data, off.ctypes.data, stride,
            vertex_of.ctypes.data, t_row, t_vertex, k, on_path.ctypes.data,
            stack_row.ctypes.data, stack_cur.ctypes.data, stack_end.ctypes.data,
            stack_found.ctypes.data, path_verts.ctypes.data, state.ctypes.data,
            out_data.ctypes.data, len(out_data), out_bounds.ctypes.data,
            max_paths, max_ticks,
        )

    return filler


def _run_dfs_fill_loop(index, collector, *, deadline, stats, filler):
    """Drive the resumable DFS core: fill a block, flush, poll, resume.

    ``filler`` is either the compiled core (:func:`_c_dfs_filler`) or — in
    tests — :func:`_dfs_fill`, which executes the identical logic in plain
    Python.
    """
    if index.is_empty:
        return 0
    query = index.query
    s, t, k = query.source, query.target, query.k
    vertex_of, row_of, nbr, indptr, off2 = index.native_csr()
    off = off2.ravel()
    stride = k + 1
    s_row = int(row_of[s])
    on_path = np.zeros(len(vertex_of), dtype=np.uint8)
    on_path[s_row] = 1
    stack_row = np.zeros(k + 2, dtype=np.int64)
    stack_cur = np.zeros(k + 2, dtype=np.int64)
    stack_end = np.zeros(k + 2, dtype=np.int64)
    stack_found = np.zeros(k + 2, dtype=np.int64)
    path_verts = np.zeros(k + 2, dtype=np.int64)
    state = np.zeros(_STATE_SLOTS, dtype=np.int64)
    data_cap = max(NATIVE_FLUSH_PATHS * 4, (k + 4) * 4)
    out_data = np.empty(data_cap, dtype=np.int64)
    out_bounds = np.empty(NATIVE_FLUSH_PATHS, dtype=np.int64)
    if k == 2:
        # The whole search is the root's inline scan over column 1.
        state[_ST_INLINE] = 1
        state[_ST_I_CHILD] = s_row
        state[_ST_I_CUR] = int(indptr[s_row])
        state[_ST_I_END] = state[_ST_I_CUR] + int(off[s_row * stride + 1])
        state[_ST_EDGES] = state[_ST_I_END] - state[_ST_I_CUR]
    else:
        path_verts[0] = s
        state[_ST_PATH_LEN] = 1
        state[_ST_ROW] = s_row
        state[_ST_CUR] = int(indptr[s_row])
        state[_ST_END] = state[_ST_CUR] + int(off[s_row * stride + (k - 1)])
        state[_ST_EDGES] = state[_ST_END] - state[_ST_CUR]
        state[_ST_BUDGET] = k - 2
    t_row = int(row_of[t])
    max_ticks = _max_ticks(deadline, NATIVE_CHECK_TICKS)
    start_count = collector.count
    try:
        while True:
            cap = collector.remaining_before_flush()
            max_paths = (
                NATIVE_FLUSH_PATHS if cap is None else min(NATIVE_FLUSH_PATHS, cap)
            )
            status = filler(
                nbr, indptr, off, stride, vertex_of, t_row, t, k,
                on_path, stack_row, stack_cur, stack_end, stack_found,
                path_verts, state, out_data, out_bounds, max_paths, max_ticks,
            )
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
    """Array-native IDX-DFS (Algorithm 4) over the index's numpy buffers.

    Byte-identical to :func:`repro.core.dfs.run_idx_dfs` and the iterative
    kernel: same paths, same order, same statistics counters, same limit
    and deadline interruption points.  Runs the compiled resumable core
    when the C library is loaded and the vectorised subtree expander
    otherwise.

    Returns the number of paths emitted.
    """
    stats = stats if stats is not None else EnumerationStats()
    if index.is_empty:
        return 0
    lib = _library()
    if lib is not None:
        return _run_dfs_fill_loop(
            index, collector, deadline=deadline, stats=stats, filler=_c_dfs_filler(lib)
        )
    return _run_dfs_vectorised(index, collector, deadline=deadline, stats=stats)


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
