"""Delta overlay on top of an immutable CSR graph.

A :class:`DeltaOverlay` batches edge insertions and removals against a base
:class:`~repro.graph.digraph.DiGraph` without touching the base's arrays.
Reads go through a merged-adjacency seam (base row minus removed plus
added); :meth:`materialize` folds the whole delta into a fresh CSR graph
using the vectorised rebuild paths (`_from_edge_mask` / `copy_with_edges`),
so compaction never loops per edge in Python.

Only edges between *existing* vertices can be added — the vertex set is
fixed at build time (dense internal ids are load-bearing for the CSR layout
and the shared-memory publication path).  Self-loops and duplicates are
dropped, mirroring :class:`~repro.graph.builder.GraphBuilder` semantics.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

import numpy as np

from repro.graph.digraph import DiGraph

__all__ = ["DeltaOverlay"]

_EMPTY = np.empty(0, dtype=np.int64)


class DeltaOverlay:
    """Added/removed edge sets batched on top of an immutable base graph."""

    def __init__(self, base: DiGraph, *, compact_threshold: int = 4096) -> None:
        if compact_threshold < 1:
            raise ValueError("compact_threshold must be at least 1")
        self.base = base
        self.compact_threshold = int(compact_threshold)
        self._added: Set[Tuple[int, int]] = set()
        self._removed: Set[Tuple[int, int]] = set()
        # Per-vertex views of the same delta, so the adjacency seam does not
        # scan the flat sets on every row merge.
        self._added_out: Dict[int, Set[int]] = {}
        self._added_in: Dict[int, Set[int]] = {}
        self._removed_out: Dict[int, Set[int]] = {}
        self._removed_in: Dict[int, Set[int]] = {}

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def add_edges(self, edges: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
        """Record edge insertions; return the pairs actually applied.

        Self-loops, edges already present in the merged view and duplicates
        within the batch are skipped.  Re-adding an edge whose removal is
        still pending simply cancels the removal (the base edge reappears
        with its original attributes).
        """
        applied: List[Tuple[int, int]] = []
        for source, target in edges:
            u, v = int(source), int(target)
            self.base._check_vertex(u)
            self.base._check_vertex(v)
            if u == v:
                continue
            pair = (u, v)
            if pair in self._removed:
                self._removed.discard(pair)
                self._removed_out[u].discard(v)
                self._removed_in[v].discard(u)
                applied.append(pair)
                continue
            if pair in self._added or self.base.has_edge(u, v):
                continue
            self._added.add(pair)
            self._added_out.setdefault(u, set()).add(v)
            self._added_in.setdefault(v, set()).add(u)
            applied.append(pair)
        return applied

    def remove_edges(self, edges: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
        """Record edge removals; return the pairs actually applied.

        Removing an edge that only exists in the pending-add set cancels the
        addition; removing an edge absent from the merged view is a no-op.
        """
        applied: List[Tuple[int, int]] = []
        for source, target in edges:
            u, v = int(source), int(target)
            self.base._check_vertex(u)
            self.base._check_vertex(v)
            pair = (u, v)
            if pair in self._added:
                self._added.discard(pair)
                self._added_out[u].discard(v)
                self._added_in[v].discard(u)
                applied.append(pair)
                continue
            if pair in self._removed or not self.base.has_edge(u, v):
                continue
            self._removed.add(pair)
            self._removed_out.setdefault(u, set()).add(v)
            self._removed_in.setdefault(v, set()).add(u)
            applied.append(pair)
        return applied

    # ------------------------------------------------------------------ #
    # merged-adjacency seam
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        return self.base.num_vertices

    @property
    def num_edges(self) -> int:
        return self.base.num_edges + len(self._added) - len(self._removed)

    @property
    def added(self) -> frozenset:
        return frozenset(self._added)

    @property
    def removed(self) -> frozenset:
        return frozenset(self._removed)

    @property
    def delta_size(self) -> int:
        """Number of pending delta entries (added plus removed)."""
        return len(self._added) + len(self._removed)

    @property
    def needs_compaction(self) -> bool:
        """Whether the delta crossed the compaction threshold."""
        return self.delta_size >= self.compact_threshold

    def has_edge(self, u: int, v: int) -> bool:
        pair = (int(u), int(v))
        if pair in self._added:
            return True
        if pair in self._removed:
            return False
        return self.base.has_edge(*pair)

    def _merged_row(
        self, base_row: np.ndarray, removed: Set[int], added: Set[int]
    ) -> np.ndarray:
        if not removed and not added:
            return base_row
        merged = (set(int(x) for x in base_row) - removed) | added
        if not merged:
            return _EMPTY
        return np.fromiter(sorted(merged), dtype=np.int64, count=len(merged))

    def in_neighbors(self, v: int) -> np.ndarray:
        """Merged in-adjacency row of ``v`` (sorted, like a CSR row)."""
        v = int(v)
        return self._merged_row(
            self.base.in_neighbors(v),
            self._removed_in.get(v, set()),
            self._added_in.get(v, set()),
        )

    # ------------------------------------------------------------------ #
    # compaction
    # ------------------------------------------------------------------ #
    def materialize(self) -> DiGraph:
        """Fold the delta into a fresh immutable CSR graph.

        Removals become a boolean mask over the base's CSR slots
        (:meth:`DiGraph._from_edge_mask` keeps surviving attributes
        aligned); additions go through :meth:`DiGraph.copy_with_edges` in
        deterministic sorted order, so two overlays holding the same edge
        set always materialise byte-identical graphs.  An empty delta (every
        change undone) still yields a copy, never the base itself: an epoch
        owns its graph's shared-memory store and releases it on retirement.
        """
        graph = self.base
        if not self._removed and not self._added:
            return graph._from_edge_mask(np.ones(graph.num_edges, dtype=bool))
        if self._removed:
            n = graph.num_vertices
            keys = graph.edge_sources() * n + graph.out_csr()[1]
            removed_keys = np.fromiter(
                (u * n + v for u, v in self._removed),
                dtype=np.int64,
                count=len(self._removed),
            )
            keep = ~np.isin(keys, removed_keys)
            graph = graph._from_edge_mask(keep)
        if self._added:
            graph = graph.copy_with_edges(sorted(self._added))
        return graph
