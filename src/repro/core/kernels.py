"""Array-native enumeration kernels: iterative DFS/join on flat CSR buffers.

The recursive engines (:mod:`repro.core.dfs`, :mod:`repro.core.join`) stay
close to the paper's pseudocode — one interpreter frame, one list slice and
one deadline poll per expanded vertex, plus one collector call per emitted
path.  These kernels are the production-speed reimplementation of the same
algorithms:

* the recursion becomes an explicit stack of ``(row, cursor, end, found)``
  int frames over preallocated lists — no interpreter frames, no closure
  cells, no per-step allocation;
* candidate ranges are read straight off the index's ``indptr`` / ``offsets``
  arrays (:meth:`~repro.core.index.LightWeightIndex.kernel_csr`) — no
  presliced per-row list mirrors and no slice object per search-tree node;
* the ``on_rows`` hash set becomes an ``on_path`` byte mask indexed by row;
* deadline and limit checks are amortised — the clock is polled once per
  :data:`KERNEL_CHECK_TICKS` expansions instead of once per call;
* paths are emitted in bulk: vertices accumulate in one flat list with an
  end-offset column and reach the collector as whole blocks
  (:meth:`~repro.core.listener.ResultCollector.emit_block`), which appends
  them to the run's :class:`~repro.core.result.PathBuffer` — no per-path
  object exists anywhere on the fast path.

The kernels emit exactly the same paths in exactly the same order as the
recursive engines and charge the same statistics counters (edges accessed,
partial results, invalid partials) at the same points of the search, so a
kernel run is byte-identical to a recursive run — the equivalence suite in
``tests/core/test_kernels.py`` asserts this over randomised graphs, with
and without mid-run interruption.

The constraint extensions of Appendix E (accumulative values, automaton
states) carry per-level state objects that the flat int frames cannot hold;
constrained queries run the recursive engines (the tier rule lives in
:class:`repro.core.engine._IndexedAlgorithm`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.index import LightWeightIndex
from repro.core.listener import Deadline, ResultCollector
from repro.core.result import EnumerationStats
from repro.errors import EnumerationTimeout

__all__ = [
    "KERNEL_FLUSH_PATHS",
    "KERNEL_CHECK_TICKS",
    "run_dfs_kernel",
    "run_join_kernel",
    "run_subquery_kernel",
]

#: Paths buffered before a block is flushed to the collector.  Large enough
#: that the per-flush bookkeeping amortises to nothing, small enough that a
#: streaming consumer never waits long for the first block.
KERNEL_FLUSH_PATHS = 2048

#: Candidate expansions between deadline polls.  The recursive engines poll
#: per search-tree node (with the clock read amortised inside ``Deadline``);
#: the kernels make even the countdown bookkeeping periodic.
KERNEL_CHECK_TICKS = 1024


def _flush_threshold(collector: ResultCollector) -> int:
    """How many paths the kernel may buffer before the next flush.

    Bounded by the collector's result limit and pending response-time probe
    so both stay accurate to the path, not to the block.
    """
    cap = collector.remaining_before_flush()
    return KERNEL_FLUSH_PATHS if cap is None else min(KERNEL_FLUSH_PATHS, cap)


def _flush_block(collector: ResultCollector, data: List[int], bounds: List[int]):
    """Emit the buffered block; returns a fresh ``(data, bounds, append,
    flush_at)`` quadruple for the kernel to rebind its hot-loop locals.

    Fires at most once per :data:`KERNEL_FLUSH_PATHS` emissions, so the
    call overhead never shows on the per-path profile.
    """
    collector.emit_block(data, bounds)
    data = []
    bounds = []
    return data, bounds, bounds.append, _flush_threshold(collector)


def run_dfs_kernel(
    index: LightWeightIndex,
    collector: ResultCollector,
    *,
    deadline: Optional[Deadline] = None,
    stats: Optional[EnumerationStats] = None,
) -> int:
    """Iterative IDX-DFS (Algorithm 4) over the index's flat CSR buffers.

    Byte-identical to :func:`repro.core.dfs.run_idx_dfs` without a
    constraint: same paths, same order, same statistics counters.  Returns
    the number of results emitted.
    """
    stats = stats if stats is not None else EnumerationStats()
    query = index.query
    s, t, k = query.source, query.target, query.k
    if index.is_empty:
        return 0

    vertex_of, row_of, nbr, indptr, off = index.kernel_csr()
    stride = k + 1
    t_row = int(row_of[t])
    s_row = int(row_of[s])

    on_path = bytearray(len(vertex_of))
    on_path[s_row] = 1
    path = [s]

    # Explicit stack of spilled parent frames; the ACTIVE frame lives in the
    # locals ``row`` / ``cur`` / ``end`` / ``found`` so the per-candidate
    # loop touches no stack slot at all.  Only frames with budget >= 2 are
    # ever pushed: a budget-1 frame's children are all leaves (a budget-0
    # frame's sole candidate is t, because a non-t candidate at budget 1 is
    # at distance exactly 1 from t and its edge to t survives the index
    # filter), so budget-1 subtrees are scanned inline over one C-level
    # slice of the neighbour array — the two hottest levels of the search
    # tree cost a handful of interpreter ops per path.
    depth_cap = k + 1
    stack_row = [0] * depth_cap
    stack_cur = [0] * depth_cap
    stack_end = [0] * depth_cap
    stack_found = [0] * depth_cap

    data: List[int] = []
    bounds: List[int] = []
    bounds_append = bounds.append
    flush_at = _flush_threshold(collector)

    edges = 0
    partial = 0
    invalid = 0
    emitted = 0

    check = deadline is not None
    ticks = 0

    try:
        if k == 2:
            # The root itself is a budget-1 frame: one inline scan and done.
            cur = indptr[s_row]
            end = cur + off[s_row * stride + 1]
            edges += end - cur
            for child in nbr[cur:end]:
                if on_path[child]:
                    continue
                partial += 1
                if child == t_row:
                    data += path
                    data.append(t)
                else:
                    edges += 1
                    partial += 1
                    data += path
                    data.append(vertex_of[child])
                    data.append(t)
                bounds_append(len(data))
                emitted += 1
                if len(bounds) >= flush_at:
                    data, bounds, bounds_append, flush_at = _flush_block(
                        collector, data, bounds
                    )
            if check:
                deadline.check_every(end - cur)
            if bounds:
                collector.emit_block(data, bounds)
            stats.results_emitted += emitted
            return emitted

        row = s_row
        cur = indptr[s_row]
        end = cur + off[s_row * stride + (k - 1)]
        edges += end - cur
        found = 0
        depth = 0
        budget_col = k - 2  # offset column of the NEXT depth (k - 1 - (depth + 1))
        while True:
            if cur < end:
                child = nbr[cur]
                cur += 1
                if on_path[child]:
                    continue
                partial += 1
                if check:
                    ticks += 1
                    if ticks >= KERNEL_CHECK_TICKS:
                        deadline.check_every(ticks)
                        ticks = 0
                if child == t_row:
                    data += path
                    data.append(t)
                    bounds_append(len(data))
                    found += 1
                    emitted += 1
                    if len(bounds) >= flush_at:
                        data, bounds, bounds_append, flush_at = _flush_block(
                            collector, data, bounds
                        )
                    continue
                if budget_col == 1:
                    # Inline scan of the whole budget-1 subtree under
                    # ``child``: every grandchild is either t (emit) or a
                    # leaf whose only continuation is t (emit through it).
                    c_cur = indptr[child]
                    c_end = c_cur + off[child * stride + 1]
                    edges += c_end - c_cur
                    if check:
                        ticks += c_end - c_cur
                        if ticks >= KERNEL_CHECK_TICKS:
                            deadline.check_every(ticks)
                            ticks = 0
                    cfound = 0
                    v_child = vertex_of[child]
                    for cc in nbr[c_cur:c_end]:
                        if on_path[cc]:
                            continue
                        partial += 1
                        if cc == t_row:
                            data += path
                            data.append(v_child)
                            data.append(t)
                        else:
                            edges += 1
                            partial += 1
                            data += path
                            data.append(v_child)
                            data.append(vertex_of[cc])
                            data.append(t)
                        bounds_append(len(data))
                        cfound += 1
                        emitted += 1
                        if len(bounds) >= flush_at:
                            data, bounds, bounds_append, flush_at = _flush_block(
                                collector, data, bounds
                            )
                    if cfound == 0:
                        invalid += 1
                    found += cfound
                    continue
                # Push: spill the active frame, make the child active.
                stack_row[depth] = row
                stack_cur[depth] = cur
                stack_end[depth] = end
                stack_found[depth] = found
                depth += 1
                path.append(vertex_of[child])
                on_path[child] = 1
                row = child
                cur = indptr[child]
                end = cur + off[child * stride + budget_col]
                budget_col -= 1
                edges += end - cur
                found = 0
            else:
                # Pop: fold the finished frame into its parent.
                if depth == 0:
                    break
                depth -= 1
                budget_col += 1
                on_path[row] = 0
                path.pop()
                row = stack_row[depth]
                cur = stack_cur[depth]
                end = stack_end[depth]
                if found == 0:
                    invalid += 1
                    found = stack_found[depth]
                else:
                    found += stack_found[depth]
        if bounds:
            collector.emit_block(data, bounds)
    except EnumerationTimeout:
        # The recursive engines hand over each path the moment it is found;
        # the kernel owes the collector whatever it buffered before the
        # deadline fired.
        if bounds:
            collector.emit_block(data, bounds)
        raise
    finally:
        stats.edges_accessed += edges
        stats.partial_results_generated += partial
        stats.invalid_partial_results += invalid
    stats.results_emitted += emitted
    return emitted


def run_subquery_kernel(
    index: LightWeightIndex,
    *,
    start: int,
    offset: int,
    length: int,
    deadline: Optional[Deadline] = None,
    stats: Optional[EnumerationStats] = None,
) -> Tuple[List[int], int]:
    """Iterative sub-query evaluation (the Search procedure of Algorithm 6).

    Returns ``(data, width)``: every walk of exactly ``length`` edges from
    ``start``, concatenated into one flat vertex list of fixed ``width ==
    length + 1`` stride, in the same order as
    :func:`repro.core.join.evaluate_subquery`.
    """
    stats = stats if stats is not None else EnumerationStats()
    k = index.k
    vertex_of, row_of, nbr, indptr, off = index.kernel_csr()
    width = length + 1
    start_row = int(row_of[start]) if 0 <= start < len(row_of) else -1
    if start_row < 0:
        # A start outside the index has no stored neighbours; only the
        # zero-length walk survives (matching the recursive semantics).
        return ([start], width) if length == 0 else ([], width)
    if length == 0:
        return [start], width

    stride = k + 1
    walk = [start]
    stack_cur = [0] * length
    stack_end = [0] * length

    data: List[int] = []
    edges = 0
    partial = 0
    check = deadline is not None
    ticks = 0

    # Offset column of the active frame at depth d is k - offset - (d + 1);
    # ``budget_col`` tracks the column of the NEXT depth.
    budget = k - offset - 1
    if budget < 0:
        # Out-of-range sub-chains (offset + length > k) have no candidates.
        cur = end = 0
    else:
        cur = indptr[start_row]
        end = cur + off[start_row * stride + budget]
    edges += end - cur
    depth = 0
    last = length - 1
    second_last = last - 1
    budget_col = budget - 1
    try:
        while True:
            if cur < end:
                child = nbr[cur]
                cur += 1
                partial += 1
                if check:
                    ticks += 1
                    if ticks >= KERNEL_CHECK_TICKS:
                        deadline.check_every(ticks)
                        ticks = 0
                v = vertex_of[child]
                if depth == last:
                    # Full-length walk: record it columnar, do not descend.
                    data += walk
                    data.append(v)
                    continue
                if depth == second_last:
                    # The child's candidates are all full-length walks:
                    # record the whole fan-out over one C-level slice.
                    if budget_col < 0:
                        continue
                    c_cur = indptr[child]
                    c_end = c_cur + off[child * stride + budget_col]
                    edges += c_end - c_cur
                    if c_cur < c_end:
                        prefix = walk + [v]
                        if check:
                            ticks += c_end - c_cur
                            if ticks >= KERNEL_CHECK_TICKS:
                                deadline.check_every(ticks)
                                ticks = 0
                        for cc in nbr[c_cur:c_end]:
                            partial += 1
                            data += prefix
                            data.append(vertex_of[cc])
                    continue
                stack_cur[depth] = cur
                stack_end[depth] = end
                depth += 1
                walk.append(v)
                if budget_col < 0:
                    cur = end = 0
                else:
                    cur = indptr[child]
                    end = cur + off[child * stride + budget_col]
                budget_col -= 1
                edges += end - cur
            else:
                if depth == 0:
                    break
                depth -= 1
                budget_col += 1
                walk.pop()
                cur = stack_cur[depth]
                end = stack_end[depth]
    finally:
        stats.edges_accessed += edges
        stats.partial_results_generated += partial
    return data, width


def run_join_kernel(
    index: LightWeightIndex,
    cut_position: int,
    collector: ResultCollector,
    *,
    deadline: Optional[Deadline] = None,
    stats: Optional[EnumerationStats] = None,
) -> int:
    """Iterative IDX-JOIN (Algorithm 6) with columnar partial results.

    Byte-identical to :func:`repro.core.join.run_idx_join` without a
    constraint: both sub-queries run through :func:`run_subquery_kernel`
    (fixed-width flat buffers instead of one tuple per walk), the hash join
    keys right walks by index into the flat buffer, and joined paths are
    emitted in blocks.
    """
    stats = stats if stats is not None else EnumerationStats()
    query = index.query
    s, t, k = query.source, query.target, query.k
    if not 1 <= cut_position <= k - 1:
        raise ValueError(f"cut position must lie in [1, {k - 1}], got {cut_position}")
    if index.is_empty:
        return 0
    stats.cut_position = cut_position

    # Left sub-query Q[0:i*]: walks from s with exactly i* edges.
    left_data, lw = run_subquery_kernel(
        index, start=s, offset=0, length=cut_position, deadline=deadline, stats=stats
    )
    left_count = len(left_data) // lw

    # Right sub-query Q[i*:k]: walks from each cut vertex with k - i* edges.
    cut_vertices = sorted(set(left_data[lw - 1 :: lw]))
    right_data: List[int] = []
    for v in cut_vertices:
        segment, _ = run_subquery_kernel(
            index,
            start=v,
            offset=cut_position,
            length=k - cut_position,
            deadline=deadline,
            stats=stats,
        )
        right_data += segment
    rw = k - cut_position + 1
    right_count = len(right_data) // rw

    peak_tuples = left_count + right_count
    stats.peak_partial_result_tuples = max(stats.peak_partial_result_tuples, peak_tuples)
    stats.peak_partial_result_bytes = max(
        stats.peak_partial_result_bytes,
        8 * (left_count * lw + right_count * rw),
    )

    # Hash join on the cut vertex: head vertex -> indices into the flat
    # right buffer.  Per right walk, the pair loop only ever needs the
    # walk's simple-path contribution: the tail (walk minus its head) cut
    # at the first occurrence of t — every right walk ends at t, so the
    # padding boundary always lies in the tail — plus that prefix's vertex
    # set and internal-distinctness flag.  Precomputing all three turns a
    # join pair into one C-level ``isdisjoint`` and two list extends: no
    # per-pair concatenation, scan or set build.
    right_by_head: Dict[int, List[int]] = {}
    tail_prefix: List[List[int]] = []
    tail_set: List[frozenset] = []
    tail_ok: List[bool] = []
    for idx in range(right_count):
        base = idx * rw
        right_by_head.setdefault(right_data[base], []).append(idx)
        tail = right_data[base + 1 : base + rw]
        prefix = tail[: tail.index(t) + 1]
        vertex_set = frozenset(prefix)
        tail_prefix.append(prefix)
        tail_set.append(vertex_set)
        tail_ok.append(len(vertex_set) == len(prefix))

    used = bytearray(right_count)
    used_count = 0
    emitted = 0
    invalid_left = 0
    data: List[int] = []
    bounds: List[int] = []
    bounds_append = bounds.append
    flush_at = _flush_threshold(collector)
    check = deadline is not None

    try:
        for li in range(left_count):
            if check:
                deadline.check_every(1)
            lbase = li * lw
            head = left_data[lbase + lw - 1]
            matches = right_by_head.get(head)
            produced = 0
            if matches is not None:
                lwalk = left_data[lbase : lbase + lw]
                lset = set(lwalk)
                if t in lset:
                    # The padding boundary already lies in the left walk (t
                    # only ever continues to t, so head == t): each match
                    # joins to the same prefix of the left walk.
                    stop = lwalk.index(t) + 1
                    lprefix = lwalk[:stop]
                    if len(set(lprefix)) == stop:
                        for ri in matches:
                            data += lprefix
                            bounds_append(len(data))
                            emitted += 1
                            produced += 1
                            if not used[ri]:
                                used[ri] = 1
                                used_count += 1
                            if len(bounds) >= flush_at:
                                data, bounds, bounds_append, flush_at = _flush_block(
                                    collector, data, bounds
                                )
                elif len(lset) == lw:
                    for ri in matches:
                        if tail_ok[ri] and lset.isdisjoint(tail_set[ri]):
                            data += lwalk
                            data += tail_prefix[ri]
                            bounds_append(len(data))
                            emitted += 1
                            produced += 1
                            if not used[ri]:
                                used[ri] = 1
                                used_count += 1
                            if len(bounds) >= flush_at:
                                data, bounds, bounds_append, flush_at = _flush_block(
                                    collector, data, bounds
                                )
                # A left walk with an internal duplicate (and no t) can
                # never join into a simple path; its matches all fail.
            if produced == 0:
                invalid_left += 1
        if bounds:
            collector.emit_block(data, bounds)
    except EnumerationTimeout:
        if bounds:
            collector.emit_block(data, bounds)
        raise
    finally:
        stats.invalid_partial_results += invalid_left
    stats.invalid_partial_results += right_count - used_count
    stats.results_emitted += emitted
    return emitted
