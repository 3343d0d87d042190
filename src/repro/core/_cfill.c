/* Compiled loops of the native tier (built and loaded by repro._clib).
 *
 * Scalar loops over int64 CSR arrays, each a direct port of a Python
 * reference in the same package:
 *
 *   repro_sweep         bounded BFS             <- traversal._bfs_levels_vectorised
 *   repro_prepare       Algorithm 3: the forward sweep pruned to X, then the
 *                       index fill              <- index._pruned_forward_rows
 *                                                  + index._build_arrays_numpy
 *   repro_dfs_fill      IDX-DFS (Algorithm 4)   <- native._dfs_fill
 *   repro_walks_fill    sub-query walks         <- kernels.run_subquery_kernel
 *   repro_join_pair     IDX-JOIN pairing        <- kernels.run_join_kernel
 *
 * None of them calls back into Python.  The three enumeration loops are
 * resumable: all search state lives in a caller-owned int64 state vector and
 * every call returns a status code: DONE, OUT_FULL (the output arrays are
 * full, or the path limit was reached) or TICKS (the deadline must be
 * polled).  The Python driver flushes, polls and calls again, so
 * result-limit and deadline interruption land on the same search-tree step
 * as the Python kernels.  The sweep and the index build read graph CSR
 * arrays straight from a store, so they bounds-check every offset and
 * neighbour id they read and return CORRUPT instead of reading past them;
 * repro_prepare returns NEED when its caller's scratch is too small.
 * Built with `cc -O2 -shared -fPIC` and loaded through ctypes, which
 * releases the GIL for the call.
 */
#include <stddef.h>
#include <stdint.h>

#define DONE 0
#define OUT_FULL 1
#define TICKS 2
#define CORRUPT 3

/* ------------------------------------------------------------------ */
/* Bounded BFS sweep (v.s and v.t of Algorithm 3)                     */
/* ------------------------------------------------------------------ */
/* dist[0..n) := hop distance from `source` along the CSR, -1 when
 * unreachable.  A vertex at distance < cutoff is expanded unless it is
 * `no_expand` (the source itself always is); `excluded` never receives a
 * distance, and an excluded source leaves every vertex unreachable.  Pass -1
 * for no excluded / no_expand vertex.  With `prune` (distances to t), a
 * vertex w reached from depth d is recorded, and so later expanded, only if
 * prune[w] >= 0 and d + 1 + prune[w] <= cutoff.  `queue` holds n entries.
 * Returns the number of vertices given a distance, or -1 for a corrupt
 * CSR. */
static int64_t bfs(
    const int64_t *indptr, const int64_t *indices, int64_t n, int64_t nnz,
    int64_t source, int64_t cutoff, int64_t excluded, int64_t no_expand,
    const int64_t *prune, int64_t *dist, int64_t *queue)
{
    for (int64_t v = 0; v < n; v++) dist[v] = -1;
    if (source == excluded) return 0;
    int64_t head = 0, tail = 0;
    dist[source] = 0;
    queue[tail++] = source;
    while (head < tail) {
        int64_t v = queue[head++], d = dist[v];
        if (d >= cutoff) break; /* FIFO order: every later vertex is as deep */
        if (v == no_expand && v != source) continue;
        int64_t lo = indptr[v], hi = indptr[v + 1];
        if (lo < 0 || hi < lo || hi > nnz) return -1;
        for (int64_t i = lo; i < hi; i++) {
            int64_t w = indices[i];
            if ((uint64_t)w >= (uint64_t)n) return -1;
            if (dist[w] >= 0 || w == excluded) continue;
            if (prune != NULL && (prune[w] < 0 || prune[w] > cutoff - 1 - d)) continue;
            dist[w] = d + 1;
            queue[tail++] = w;
        }
    }
    return tail;
}

int64_t repro_sweep(
    const int64_t *indptr, const int64_t *indices, int64_t n, int64_t nnz,
    int64_t source, int64_t cutoff, int64_t excluded, int64_t no_expand,
    int64_t *dist, int64_t *queue)
{
    return bfs(indptr, indices, n, nnz, source, cutoff, excluded, no_expand,
               NULL, dist, queue) < 0 ? CORRUPT : DONE;
}

/* ------------------------------------------------------------------ */
/* Algorithm 3: forward sweep and light-weight index in one call      */
/* ------------------------------------------------------------------ */
/* X = {v : v.s + v.t <= k}; row r of the index is the r-th vertex of X in
 * ascending id order.  Row v keeps the out-neighbours w != s with
 * v.s + w.t + 1 <= k, stably sorted by w.t (ties keep adjacency order), and
 * t's row is its single self-loop.  offsets[r * (k+1) + b] counts the kept
 * neighbours with w.t <= b.  Vertex v is a candidate at positions
 * v.s .. k - v.t; part_members lists each position's candidates in
 * ascending id order.  gamma[i] is the mean of offsets[., k-1-i] over the
 * candidates at position i, summed in ascending row order as np.bincount
 * sums it, so the doubles are bit-identical to the NumPy build.
 *
 * dt holds v.t.  When fwd is NULL the call first sweeps v.s from s into ds
 * (no_expand = t), pruned by dt: X is closed under shortest-path prefixes,
 * so the pruned sweep reaches exactly X with exact distances, and ds[s] is
 * reset to -1 when s itself is outside X.  Otherwise fwd is the caller's
 * forward array, pruned or full.
 *
 * The caller hands n entries each of ds, row_of and queue, k + 2 of
 * part_indptr, k of gamma and 2 * (k + 1) of bucket; the other outputs are
 * per-thread scratch of the given capacities: row_cap rows (row_cap + 1
 * out_indptr entries), cell_cap offsets and part_members entries and
 * edge_cap out_indices entries.  sizes := {|X|, index edges, partition
 * members}.  A call whose scratch is too small still counts everything and
 * returns NEED; the caller grows the scratch and calls again (with ds as
 * fwd, so the sweep is not repeated).  Every offset and neighbour id read
 * is bounds-checked (CORRUPT), and a neighbour list that changes between
 * its two reads within one row returns CORRUPT rather than writing past
 * the row. */
#define NEED 4

static inline int kept(const int64_t *dt, int64_t w, int64_t s, int64_t budget)
{
    return w != s && dt[w] >= 0 && dt[w] <= budget;
}

int64_t repro_prepare(
    const int64_t *indptr, const int64_t *indices, int64_t n, int64_t nnz,
    const int64_t *dt, const int64_t *fwd, int64_t s, int64_t t, int64_t k,
    int64_t *ds, int64_t *row_of, int64_t *queue, int64_t *part_indptr,
    double *gamma, int64_t *bucket,
    int64_t *rows, int64_t *out_indptr, int64_t row_cap,
    int64_t *offsets, int64_t *part_members, int64_t cell_cap,
    int64_t *out_indices, int64_t edge_cap, int64_t *sizes)
{
    const int64_t stride = k + 1;
    int64_t *cursor = bucket + stride;

    if (fwd == NULL) {
        if (bfs(indptr, indices, n, nnz, s, k, -1, t, dt, ds, queue) < 0) return CORRUPT;
        if (dt[s] < 0 || dt[s] > k) ds[s] = -1;
        fwd = ds;
    }

    /* Pass 1: X, its rows and the partition sizes. */
    int64_t nx = 0;
    for (int64_t p = 0; p <= k; p++) cursor[p] = 0;
    for (int64_t v = 0; v < n; v++) {
        int64_t a = fwd[v], b = dt[v];
        if (a < 0 || b < 0 || a > k || b > k - a) {
            row_of[v] = -1;
            continue;
        }
        if (nx < row_cap) rows[nx] = v;
        row_of[v] = nx++;
        for (int64_t p = a; p <= k - b; p++) cursor[p]++;
    }
    part_indptr[0] = 0;
    for (int64_t p = 0; p <= k; p++) part_indptr[p + 1] = part_indptr[p] + cursor[p];
    for (int64_t p = 0; p <= k; p++) cursor[p] = part_indptr[p];
    for (int64_t p = 0; p < k; p++) gamma[p] = 0.0;
    const int have_rows = nx <= row_cap;
    int write = have_rows && nx <= cell_cap / stride;

    /* Pass 2: each row's kept neighbours, counting-sorted by w.t. */
    int64_t e = 0, v = -1;
    if (write) out_indptr[0] = 0;
    for (int64_t r = 0; r < nx; r++) {
        if (have_rows) {
            v = rows[r];
        } else {
            do v++; while (row_of[v] < 0);
        }
        int64_t a = fwd[v], b = dt[v], budget = k - 1 - a;
        int64_t lo = 0, hi = 0;
        if (a < 0 || b < 0 || a > k || b > k - a) return CORRUPT;
        for (int64_t j = 0; j <= k; j++) bucket[j] = 0;
        if (v == t) {
            bucket[b]++;
        } else {
            lo = indptr[v];
            hi = indptr[v + 1];
            if (lo < 0 || hi < lo || hi > nnz) return CORRUPT;
            for (int64_t i = lo; i < hi; i++) {
                int64_t w = indices[i];
                if ((uint64_t)w >= (uint64_t)n) return CORRUPT;
                if (kept(dt, w, s, budget)) bucket[dt[w]]++;
            }
        }
        int64_t total = 0;
        for (int64_t j = 0; j <= k; j++) total += bucket[j];
        if (total > edge_cap - e) write = 0;
        if (!write) {
            e += total;
            continue;
        }
        /* bucket[j] becomes the first slot of distance j. */
        int64_t *off = offsets + r * stride, end = e + total, written = 0;
        total = 0;
        for (int64_t j = 0; j <= k; j++) {
            int64_t c = bucket[j];
            bucket[j] = e + total;
            total += c;
            off[j] = total;
        }
        if (v == t) {
            out_indices[bucket[b]++] = t;
            written++;
        }
        for (int64_t i = lo; i < hi; i++) {
            int64_t w = indices[i];
            if ((uint64_t)w >= (uint64_t)n) return CORRUPT;
            if (!kept(dt, w, s, budget)) continue;
            int64_t slot = bucket[dt[w]]++;
            if (slot >= end) return CORRUPT;
            out_indices[slot] = w;
            written++;
        }
        if (written != total) return CORRUPT;
        e = end;
        out_indptr[r + 1] = e;
        for (int64_t p = a; p <= k - b; p++) {
            if (cursor[p] >= part_indptr[p + 1]) return CORRUPT;
            part_members[cursor[p]++] = v;
            if (p < k) gamma[p] += (double)off[k - 1 - p];
        }
    }
    sizes[0] = nx;
    sizes[1] = e;
    sizes[2] = part_indptr[k + 1];
    if (!write) return NEED;
    for (int64_t p = 0; p <= k; p++)
        if (cursor[p] != part_indptr[p + 1]) return CORRUPT;
    for (int64_t p = 0; p < k; p++) {
        int64_t c = part_indptr[p + 1] - part_indptr[p];
        gamma[p] = c ? gamma[p] / (double)c : 0.0;
    }
    return DONE;
}

/* ------------------------------------------------------------------ */
/* IDX-DFS                                                            */
/* ------------------------------------------------------------------ */
enum {
    ST_DEPTH, ST_ROW, ST_CUR, ST_END, ST_FOUND, ST_BUDGET, ST_EDGES,
    ST_PARTIAL, ST_INVALID, ST_TICKS, ST_OUT_LEN, ST_OUT_PATHS, ST_PATH_LEN,
    ST_INLINE, ST_I_CHILD, ST_I_CUR, ST_I_END, ST_I_FOUND
};

int64_t repro_dfs_fill(
    const int64_t *nbr, const int64_t *indptr, const int64_t *off, int64_t stride,
    const int64_t *vertex_of, int64_t t_row, int64_t t_vertex, int64_t k,
    uint8_t *on_path, int64_t *stack_row, int64_t *stack_cur, int64_t *stack_end,
    int64_t *stack_found, int64_t *path_verts, int64_t *state,
    int64_t *out_data, int64_t data_cap, int64_t *out_bounds,
    int64_t max_paths, int64_t max_ticks)
{
    int64_t depth = state[ST_DEPTH], row = state[ST_ROW];
    int64_t cur = state[ST_CUR], end = state[ST_END];
    int64_t found = state[ST_FOUND], budget_col = state[ST_BUDGET];
    int64_t edges = state[ST_EDGES], partial = state[ST_PARTIAL];
    int64_t invalid = state[ST_INVALID], ticks = state[ST_TICKS];
    int64_t path_len = state[ST_PATH_LEN], in_inline = state[ST_INLINE];
    int64_t i_child = state[ST_I_CHILD], i_cur = state[ST_I_CUR];
    int64_t i_end = state[ST_I_END], i_found = state[ST_I_FOUND];
    int64_t out_len = 0, out_paths = 0, status = DONE;

    for (;;) {
        if (in_inline) {
            int64_t v_child = vertex_of[i_child];
            while (i_cur < i_end) {
                if (out_len + path_len + 3 > data_cap) { status = OUT_FULL; break; }
                if (ticks >= max_ticks) { status = TICKS; break; }
                int64_t cc = nbr[i_cur++];
                if (on_path[cc]) continue;
                partial++;
                ticks++;
                for (int64_t j = 0; j < path_len; j++) out_data[out_len + j] = path_verts[j];
                out_len += path_len;
                out_data[out_len++] = v_child;
                if (cc != t_row) {
                    edges++;
                    partial++;
                    out_data[out_len++] = vertex_of[cc];
                }
                out_data[out_len++] = t_vertex;
                out_bounds[out_paths++] = out_len;
                i_found++;
                if (out_paths >= max_paths) { status = OUT_FULL; break; }
            }
            if (status != DONE) break;
            if (i_found == 0 && !(depth == 0 && k == 2)) invalid++;
            found += i_found;
            in_inline = 0;
            if (depth == 0 && k == 2) break;
            continue;
        }
        if (cur < end) {
            if (out_len + path_len + 3 > data_cap) { status = OUT_FULL; break; }
            if (ticks >= max_ticks) { status = TICKS; break; }
            int64_t child = nbr[cur++];
            if (on_path[child]) continue;
            partial++;
            ticks++;
            if (child == t_row) {
                for (int64_t j = 0; j < path_len; j++) out_data[out_len + j] = path_verts[j];
                out_len += path_len;
                out_data[out_len++] = t_vertex;
                out_bounds[out_paths++] = out_len;
                found++;
                if (out_paths >= max_paths) { status = OUT_FULL; break; }
                continue;
            }
            if (budget_col == 1) {
                i_child = child;
                i_cur = indptr[child];
                i_end = i_cur + off[child * stride + 1];
                edges += i_end - i_cur;
                i_found = 0;
                in_inline = 1;
                continue;
            }
            stack_row[depth] = row;
            stack_cur[depth] = cur;
            stack_end[depth] = end;
            stack_found[depth] = found;
            depth++;
            path_verts[path_len++] = vertex_of[child];
            on_path[child] = 1;
            row = child;
            cur = indptr[child];
            end = cur + off[child * stride + budget_col];
            budget_col--;
            edges += end - cur;
            found = 0;
        } else {
            if (depth == 0) break;
            depth--;
            budget_col++;
            on_path[row] = 0;
            path_len--;
            row = stack_row[depth];
            cur = stack_cur[depth];
            end = stack_end[depth];
            if (found == 0) {
                invalid++;
                found = stack_found[depth];
            } else {
                found += stack_found[depth];
            }
        }
    }
    state[ST_DEPTH] = depth; state[ST_ROW] = row;
    state[ST_CUR] = cur; state[ST_END] = end;
    state[ST_FOUND] = found; state[ST_BUDGET] = budget_col;
    state[ST_EDGES] = edges; state[ST_PARTIAL] = partial;
    state[ST_INVALID] = invalid; state[ST_TICKS] = ticks;
    state[ST_OUT_LEN] = out_len; state[ST_OUT_PATHS] = out_paths;
    state[ST_PATH_LEN] = path_len; state[ST_INLINE] = in_inline;
    state[ST_I_CHILD] = i_child; state[ST_I_CUR] = i_cur;
    state[ST_I_END] = i_end; state[ST_I_FOUND] = i_found;
    return status;
}

/* ------------------------------------------------------------------ */
/* Sub-query walks (the Search procedure of Algorithm 6)              */
/* ------------------------------------------------------------------ */
/* Every walk of exactly `length` edges from each start row in turn, written
 * as fixed-width vertex rows after `out[state[W_OUT_LEN]]`; seg[i] is the
 * number of walks written before start i, seg[n_starts] the total.  Ticks
 * are charged at the points where run_subquery_kernel polls its deadline
 * and reset per start, as each kernel call starts its own count.  A TICKS
 * return may leave one candidate consumed (W_PENDING 1) or one fan-out
 * charged (W_PENDING 2) but not yet written; the next call finishes it. */
enum {
    W_START, W_INIT, W_DEPTH, W_CUR, W_END, W_BUDGET, W_EDGES, W_PARTIAL,
    W_TICKS, W_OUT_LEN, W_PENDING, W_CHILD, W_FAN_CUR, W_FAN_END
};

int64_t repro_walks_fill(
    const int64_t *nbr, const int64_t *indptr, const int64_t *off, int64_t stride,
    const int64_t *vertex_of, const int64_t *start_rows, int64_t n_starts,
    int64_t budget, int64_t length, int64_t *walk, int64_t *stack_cur,
    int64_t *stack_end, int64_t *seg, int64_t *state,
    int64_t *out, int64_t cap, int64_t max_ticks)
{
    const int64_t width = length + 1, last = length - 1, second_last = length - 2;
    int64_t si = state[W_START], depth = state[W_DEPTH];
    int64_t cur = state[W_CUR], end = state[W_END], budget_col = state[W_BUDGET];
    int64_t edges = state[W_EDGES], partial = state[W_PARTIAL], ticks = state[W_TICKS];
    int64_t out_len = state[W_OUT_LEN], pending = state[W_PENDING];
    int64_t child = state[W_CHILD];
    int64_t fan_cur = state[W_FAN_CUR], fan_end = state[W_FAN_END];
    int64_t status = DONE;

    if (!state[W_INIT]) {
        state[W_INIT] = 1;
        goto start;
    }
    for (;;) {
        if (pending == 2) {
            while (fan_cur < fan_end) {
                if (out_len + width > cap) { status = OUT_FULL; goto suspend; }
                partial++;
                for (int64_t j = 0; j <= depth; j++) out[out_len + j] = walk[j];
                out[out_len + depth + 1] = vertex_of[child];
                out[out_len + depth + 2] = vertex_of[nbr[fan_cur++]];
                out_len += width;
            }
            pending = 0;
            continue;
        }
        if (pending == 1) {
            pending = 0;
        } else if (cur < end) {
            if (out_len + width > cap) { status = OUT_FULL; break; }
            child = nbr[cur++];
            partial++;
            if (++ticks >= max_ticks) { pending = 1; status = TICKS; break; }
        } else if (depth > 0) {
            depth--;
            budget_col++;
            cur = stack_cur[depth];
            end = stack_end[depth];
            continue;
        } else {
            si++;
        start:
            seg[si] = out_len / width;
            if (si == n_starts) break;
            ticks = 0;
            depth = 0;
            walk[0] = vertex_of[start_rows[si]];
            if (budget < 0) {
                cur = end = 0;
            } else {
                cur = indptr[start_rows[si]];
                end = cur + off[start_rows[si] * stride + budget];
            }
            edges += end - cur;
            budget_col = budget - 1;
            continue;
        }
        /* process `child`, a candidate at `depth` */
        if (depth == last) {
            for (int64_t j = 0; j <= depth; j++) out[out_len + j] = walk[j];
            out[out_len + depth + 1] = vertex_of[child];
            out_len += width;
            continue;
        }
        if (depth == second_last) {
            if (budget_col < 0) continue;
            fan_cur = indptr[child];
            fan_end = fan_cur + off[child * stride + budget_col];
            edges += fan_end - fan_cur;
            if (fan_cur < fan_end) {
                pending = 2;
                ticks += fan_end - fan_cur;
                if (ticks >= max_ticks) { status = TICKS; break; }
            }
            continue;
        }
        stack_cur[depth] = cur;
        stack_end[depth] = end;
        depth++;
        walk[depth] = vertex_of[child];
        if (budget_col < 0) {
            cur = end = 0;
        } else {
            cur = indptr[child];
            end = cur + off[child * stride + budget_col];
        }
        budget_col--;
        edges += end - cur;
    }
suspend:
    state[W_START] = si; state[W_DEPTH] = depth;
    state[W_CUR] = cur; state[W_END] = end; state[W_BUDGET] = budget_col;
    state[W_EDGES] = edges; state[W_PARTIAL] = partial; state[W_TICKS] = ticks;
    state[W_OUT_LEN] = out_len; state[W_PENDING] = pending; state[W_CHILD] = child;
    state[W_FAN_CUR] = fan_cur; state[W_FAN_END] = fan_end;
    return status;
}

/* ------------------------------------------------------------------ */
/* IDX-JOIN pairing                                                   */
/* ------------------------------------------------------------------ */
/* Per right walk: the length of its tail (the walk minus its head) up to
 * and including the first t, or 0 when that prefix repeats a vertex and so
 * can never join into a simple path. */
static int64_t distinct(const int64_t *walk, int64_t n)
{
    for (int64_t a = 0; a < n; a++)
        for (int64_t b = a + 1; b < n; b++)
            if (walk[a] == walk[b]) return 0;
    return 1;
}

void repro_join_tails(const int64_t *right, int64_t count, int64_t rw,
                      int64_t t, int64_t *plen)
{
    for (int64_t r = 0; r < count; r++) {
        const int64_t *tail = right + r * rw + 1;
        int64_t n = 0;
        while (n < rw - 1 && tail[n] != t) n++;
        plen[r] = n < rw - 1 && distinct(tail, n + 1) ? n + 1 : 0;
    }
}

/* Pair every left walk with the right walks that start at its head.
 * heads[0..n_heads) are the sorted cut vertices; the right walks of
 * heads[h] are rows seg[h]..seg[h+1] of `right`.  A left walk holding t
 * joins every match to its own prefix up to t; a simple left walk joins
 * the matches whose tail prefix is simple and disjoint from it.  One tick
 * is charged as each left walk begins (run_join_kernel polls its deadline
 * there); at max_ticks the call returns before pairing that walk. */
enum {
    P_LEFT, P_MODE, P_RI, P_HI, P_STOP, P_PRODUCED, P_INVALID, P_USED,
    P_EMITTED, P_TICKS, P_OUT_LEN, P_OUT_PATHS
};
#define MODE_NEXT 0   /* the walk at P_LEFT has not begun */
#define MODE_BEGUN 1  /* its tick is charged, its matches not yet found */
#define MODE_PREFIX 2 /* pairing: emit the left prefix up to t */
#define MODE_TAIL 3   /* pairing: emit left walk + disjoint tail prefix */

int64_t repro_join_pair(
    const int64_t *left, int64_t left_count, int64_t lw,
    const int64_t *right, int64_t rw, const int64_t *plen,
    const int64_t *heads, const int64_t *seg, int64_t n_heads, int64_t t,
    uint8_t *used, int64_t *state,
    int64_t *out_data, int64_t data_cap, int64_t *out_bounds,
    int64_t max_paths, int64_t max_ticks)
{
    int64_t li = state[P_LEFT], mode = state[P_MODE];
    int64_t ri = state[P_RI], hi = state[P_HI], stop = state[P_STOP];
    int64_t produced = state[P_PRODUCED], invalid = state[P_INVALID];
    int64_t used_count = state[P_USED], emitted = state[P_EMITTED];
    int64_t ticks = state[P_TICKS];
    int64_t out_len = 0, out_paths = 0, status = DONE;

    while (li < left_count) {
        const int64_t *lwalk = left + li * lw;
        if (mode == MODE_NEXT) {
            mode = MODE_BEGUN;
            if (++ticks >= max_ticks) { status = TICKS; break; }
        }
        if (mode == MODE_BEGUN) {
            int64_t head = lwalk[lw - 1], lo = 0, top = n_heads, tpos = 0;
            produced = 0;
            ri = hi = 0;
            while (lo < top) {
                int64_t mid = lo + (top - lo) / 2;
                if (heads[mid] < head) lo = mid + 1; else top = mid;
            }
            if (lo < n_heads && heads[lo] == head) {
                ri = seg[lo];
                hi = seg[lo + 1];
            }
            while (tpos < lw && lwalk[tpos] != t) tpos++;
            if (tpos < lw) {
                stop = tpos + 1;
                mode = distinct(lwalk, stop) ? MODE_PREFIX : MODE_NEXT;
            } else {
                stop = lw;
                mode = distinct(lwalk, lw) ? MODE_TAIL : MODE_NEXT;
            }
            if (mode == MODE_NEXT) ri = hi;
        }
        for (; ri < hi; ri++) {
            const int64_t *tail = right + ri * rw + 1;
            int64_t n = 0;
            if (mode == MODE_TAIL) {
                n = plen[ri];
                if (!n) continue;
                int64_t clash = 0;
                for (int64_t a = 0; a < lw && !clash; a++)
                    for (int64_t b = 0; b < n; b++)
                        if (lwalk[a] == tail[b]) { clash = 1; break; }
                if (clash) continue;
            }
            if (out_len + stop + n > data_cap) { status = OUT_FULL; break; }
            for (int64_t j = 0; j < stop; j++) out_data[out_len++] = lwalk[j];
            for (int64_t j = 0; j < n; j++) out_data[out_len++] = tail[j];
            out_bounds[out_paths++] = out_len;
            emitted++;
            produced++;
            if (!used[ri]) { used[ri] = 1; used_count++; }
            if (out_paths >= max_paths) { ri++; status = OUT_FULL; break; }
        }
        if (status != DONE) break;
        if (produced == 0) invalid++;
        produced = 0;
        mode = MODE_NEXT;
        li++;
    }
    state[P_LEFT] = li; state[P_MODE] = mode;
    state[P_RI] = ri; state[P_HI] = hi; state[P_STOP] = stop;
    state[P_PRODUCED] = produced; state[P_INVALID] = invalid;
    state[P_USED] = used_count; state[P_EMITTED] = emitted;
    state[P_TICKS] = ticks; state[P_OUT_LEN] = out_len;
    state[P_OUT_PATHS] = out_paths;
    return status;
}
