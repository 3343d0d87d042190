"""Immutable CSR-encoded directed graph.

The paper's algorithms traverse the graph in two directions: forwards during
enumeration and backwards (on the reversed graph) when computing distances to
the target.  :class:`DiGraph` therefore stores both the out-adjacency and the
in-adjacency in compressed sparse row (CSR) form:

* ``out_indptr`` / ``out_indices`` — for vertex ``v`` the out-neighbours are
  ``out_indices[out_indptr[v]:out_indptr[v + 1]]``;
* ``in_indptr`` / ``in_indices`` — likewise for in-neighbours.

Vertices are dense integers ``0 .. n - 1``.  The optional ``vertex_ids``
sequence maps internal ids back to the external ids used when the graph was
built (account numbers, entity names, ...), and :meth:`DiGraph.to_internal` /
:meth:`DiGraph.to_external` translate between the two.

Edges may carry a float weight and a string label; both are optional and are
stored aligned with ``out_indices`` so that constraint-aware enumeration
(Appendix E of the paper) can read them without a hash lookup per edge.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import EdgeNotFoundError, GraphError, VertexNotFoundError
from repro.graph.store import GraphStore, SharedMemoryStore, StoreHandle, open_store

__all__ = ["DiGraph", "ragged_gather", "ragged_targets"]

_EMPTY = np.empty(0, dtype=np.int64)


def _ragged_positions(indptr: np.ndarray, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """CSR slot positions of every edge leaving ``rows``, plus the degrees."""
    starts = indptr[rows]
    degrees = indptr[rows + 1] - starts
    total = int(degrees.sum())
    if total == 0:
        return _EMPTY, degrees
    shifts = np.cumsum(degrees) - degrees
    positions = np.repeat(starts - shifts, degrees) + np.arange(total, dtype=np.int64)
    return positions, degrees


def ragged_gather(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Expand CSR ``rows`` into parallel ``(source, target)`` edge arrays.

    The vectorised equivalent of ``for u in rows: for v in neighbors(u)``,
    shared by the index builder and the level-synchronous BFS.
    """
    positions, degrees = _ragged_positions(indptr, rows)
    if len(positions) == 0:
        return _EMPTY, _EMPTY
    return np.repeat(rows, degrees), indices[positions]


def ragged_targets(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Like :func:`ragged_gather` but without materialising the sources."""
    positions, _ = _ragged_positions(indptr, rows)
    if len(positions) == 0:
        return _EMPTY
    return indices[positions]


def _rows_sorted(indptr: np.ndarray, indices: np.ndarray) -> bool:
    """``True`` when every CSR row of ``indices`` is sorted ascending.

    Sorted rows are the invariant behind the binary-search edge lookup
    (:meth:`DiGraph._edge_index`); :class:`~repro.graph.builder.GraphBuilder`
    guarantees it by lexsorting edges at build time.
    """
    if len(indices) < 2:
        return True
    non_decreasing = indices[1:] >= indices[:-1]
    # Positions where a new row begins are exempt from the comparison.
    boundaries = indptr[1:-1]
    boundaries = boundaries[(boundaries > 0) & (boundaries < len(indices))]
    non_decreasing[boundaries - 1] = True
    return bool(non_decreasing.all())


class DiGraph:
    """An immutable directed graph in CSR form.

    Instances are normally produced by :class:`repro.graph.builder.GraphBuilder`
    or by the generators; the constructor below accepts already validated CSR
    arrays and is considered an implementation detail of those factories.
    """

    __slots__ = (
        "_num_vertices",
        "_out_indptr",
        "_out_indices",
        "_in_indptr",
        "_in_indices",
        "_edge_weights",
        "_edge_labels",
        "_vertex_ids",
        "_id_index",
        "_store",
        "_reverse_view",
    )

    def __init__(
        self,
        num_vertices: int,
        out_indptr: np.ndarray,
        out_indices: np.ndarray,
        in_indptr: np.ndarray,
        in_indices: np.ndarray,
        *,
        edge_weights: Optional[np.ndarray] = None,
        edge_labels: Optional[Sequence[Optional[str]]] = None,
        vertex_ids: Optional[Sequence[Hashable]] = None,
        store: Optional[Union[str, GraphStore]] = None,
    ) -> None:
        if num_vertices < 0:
            raise GraphError("number of vertices must be non-negative")
        if len(out_indptr) != num_vertices + 1 or len(in_indptr) != num_vertices + 1:
            raise GraphError("indptr arrays must have length num_vertices + 1")
        if out_indptr[-1] != len(out_indices):
            raise GraphError("out_indptr is inconsistent with out_indices")
        if in_indptr[-1] != len(in_indices):
            raise GraphError("in_indptr is inconsistent with in_indices")
        if len(out_indices) != len(in_indices):
            raise GraphError("out and in adjacency encode different edge counts")
        if edge_weights is not None and len(edge_weights) != len(out_indices):
            raise GraphError("edge_weights must align with out_indices")
        if edge_labels is not None and len(edge_labels) != len(out_indices):
            raise GraphError("edge_labels must align with out_indices")
        if vertex_ids is not None and len(vertex_ids) != num_vertices:
            raise GraphError("vertex_ids must have one entry per vertex")

        self._num_vertices = int(num_vertices)
        self._out_indptr = np.asarray(out_indptr, dtype=np.int64)
        self._out_indices = np.asarray(out_indices, dtype=np.int64)
        self._in_indptr = np.asarray(in_indptr, dtype=np.int64)
        self._in_indices = np.asarray(in_indices, dtype=np.int64)
        self._edge_weights = (
            None if edge_weights is None else np.asarray(edge_weights, dtype=np.float64)
        )
        self._edge_labels = None if edge_labels is None else list(edge_labels)
        self._vertex_ids = None if vertex_ids is None else list(vertex_ids)
        self._id_index: Optional[Dict[Hashable, int]] = None
        if self._vertex_ids is not None:
            self._id_index = {vid: i for i, vid in enumerate(self._vertex_ids)}
        if not _rows_sorted(self._out_indptr, self._out_indices):
            raise GraphError(
                "out-adjacency rows must be sorted ascending; build graphs "
                "through GraphBuilder, which guarantees the invariant"
            )
        self._reverse_view: Optional["DiGraph"] = None
        self._store: Optional[GraphStore] = None
        if isinstance(store, GraphStore):
            self._bind_store(store)
        elif store is not None and store != "heap":
            self._bind_store(open_store(store, self._csr_arrays(), self._store_meta()))

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V(G)|``."""
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        """Number of directed edges ``|E(G)|``."""
        return int(self._out_indptr[-1])

    def __len__(self) -> int:
        return self._num_vertices

    def __repr__(self) -> str:
        extras = []
        if self.has_edge_weights:
            extras.append("weighted")
        if self.has_edge_labels:
            extras.append("labeled")
        if self.has_external_ids:
            extras.append("external_ids")
        suffix = f", {'+'.join(extras)}" if extras else ""
        return (
            f"DiGraph(num_vertices={self.num_vertices}, num_edges={self.num_edges}, "
            f"backend={self.store_backend!r}{suffix})"
        )

    # ------------------------------------------------------------------ #
    # storage backends
    # ------------------------------------------------------------------ #
    def _csr_arrays(self) -> Dict[str, np.ndarray]:
        """The numpy arrays that constitute the graph's bulk storage."""
        arrays = {
            "out_indptr": self._out_indptr,
            "out_indices": self._out_indices,
            "in_indptr": self._in_indptr,
            "in_indices": self._in_indices,
        }
        if self._edge_weights is not None:
            arrays["edge_weights"] = self._edge_weights
        return arrays

    def _store_meta(self) -> Dict[str, object]:
        """Small picklable extras that ride a store handle's pickle.

        Labels and external ids are per-element Python objects; they travel
        with the handle rather than the segment, so only the O(|V| + |E|)
        integer arrays need zero-copy treatment.
        """
        return {
            "num_vertices": self._num_vertices,
            "edge_labels": self._edge_labels,
            "vertex_ids": self._vertex_ids,
        }

    def _bind_store(self, store: GraphStore) -> None:
        """Rebind the CSR arrays to the views owned by ``store``."""
        arrays = store.arrays()
        self._out_indptr = arrays["out_indptr"]
        self._out_indices = arrays["out_indices"]
        self._in_indptr = arrays["in_indptr"]
        self._in_indices = arrays["in_indices"]
        if "edge_weights" in arrays:
            self._edge_weights = arrays["edge_weights"]
        self._store = store

    @property
    def store_backend(self) -> str:
        """Name of the storage backend holding the CSR arrays."""
        return "heap" if self._store is None else self._store.backend

    @property
    def store(self) -> Optional[GraphStore]:
        """The backing :class:`GraphStore`, or ``None`` for plain heap arrays."""
        return self._store

    def share(self) -> StoreHandle:
        """Publish the graph into shared memory and return a picklable handle.

        The first call packs the CSR arrays into one shared-memory segment
        and rebinds this graph to views of it, so the publishing process
        keeps exactly one copy of the data; later calls reuse the segment.
        Worker processes rebuild the graph with :meth:`from_handle` at the
        cost of a page-table mapping, never a copy.  The publisher owns the
        segment and must call :meth:`close_store` (with ``unlink=True``)
        when every attacher is done with it.
        """
        store = self._store
        stale = (
            store is None
            or not store.shareable
            or getattr(store, "is_unlinked", False)
        )
        if stale:
            # Also covers re-publishing after a previous segment was
            # unlinked: the old views are still readable, so packing from
            # them into a fresh segment is safe.
            self._bind_store(
                SharedMemoryStore.pack(self._csr_arrays(), self._store_meta())
            )
        return self._store.handle()

    @classmethod
    def from_handle(cls, handle: StoreHandle) -> "DiGraph":
        """Attach a graph published by :meth:`share` in another process.

        Shared-memory handles map the owner's segment; file-backed handles
        (``mmap`` / ``compressed``) re-map the snapshot, so a worker attach
        costs page tables and a header parse, never a copy.
        """
        store = handle.attach()
        return cls._from_store(store)

    @staticmethod
    def _check_store_arrays(num_vertices: int, arrays: Mapping[str, object]) -> None:
        """Cheap O(|V|) structural checks on attached store arrays.

        Database / CLI auto-sniff any file with the snapshot magic, so a
        truncated or corrupt-but-parseable snapshot must fail here with a
        clear error instead of surfacing later as wrong results or deep
        IndexErrors.  Only the indptr / length invariants are checked — the
        O(|E|) sorted-rows decode stays skipped (see :meth:`_from_store`).
        """
        if num_vertices < 0:
            raise GraphError("corrupt graph store: negative vertex count")
        out_indices = arrays["out_indices"]
        in_indices = arrays["in_indices"]
        if len(out_indices) != len(in_indices):
            raise GraphError(
                "corrupt graph store: out and in adjacency encode different "
                "edge counts"
            )
        for direction in ("out", "in"):
            indptr = np.asarray(arrays[f"{direction}_indptr"])
            if len(indptr) != num_vertices + 1:
                raise GraphError(
                    f"corrupt graph store: {direction}_indptr length does not "
                    "match the vertex count"
                )
            if int(indptr[0]) != 0 or (np.diff(indptr) < 0).any():
                raise GraphError(
                    f"corrupt graph store: {direction}_indptr is not a "
                    "monotone offset array starting at 0"
                )
            if int(indptr[-1]) != len(arrays[f"{direction}_indices"]):
                raise GraphError(
                    f"corrupt graph store: {direction}_indptr does not cover "
                    f"the {direction}_indices array (truncated snapshot?)"
                )
        weights = arrays.get("edge_weights")
        if weights is not None and len(weights) != len(out_indices):
            raise GraphError(
                "corrupt graph store: edge_weights do not align with "
                "out_indices"
            )

    @classmethod
    def _from_store(cls, store: GraphStore) -> "DiGraph":
        """Bind a graph directly to an attached store's views (trusted path).

        Snapshot writers and :meth:`share` publishers only ever emit arrays
        that already passed the constructor's invariants, so re-validating
        the sorted-rows invariant — which would force a full decode of
        compressed neighbour arrays via ``__array__`` — is skipped; the
        O(|V|) structural checks of :meth:`_check_store_arrays` still run so
        a damaged snapshot fails at attach time.
        """
        arrays = store.arrays()
        meta = getattr(store, "meta", None) or {}
        num_vertices = int(meta["num_vertices"])
        cls._check_store_arrays(num_vertices, arrays)
        graph = object.__new__(cls)
        graph._num_vertices = num_vertices
        graph._out_indptr = arrays["out_indptr"]
        graph._out_indices = arrays["out_indices"]
        graph._in_indptr = arrays["in_indptr"]
        graph._in_indices = arrays["in_indices"]
        graph._edge_weights = arrays.get("edge_weights")
        labels = meta.get("edge_labels")
        graph._edge_labels = None if labels is None else list(labels)
        ids = meta.get("vertex_ids")
        graph._vertex_ids = None if ids is None else list(ids)
        if graph._vertex_ids is not None and len(graph._vertex_ids) != num_vertices:
            raise GraphError(
                "corrupt graph store: vertex_ids do not match the vertex count"
            )
        graph._id_index = None
        if graph._vertex_ids is not None:
            graph._id_index = {vid: i for i, vid in enumerate(graph._vertex_ids)}
        graph._reverse_view = None
        graph._store = store
        return graph

    def close_store(self, *, unlink: bool = False) -> None:
        """Release the backing store mapping (no-op for heap graphs).

        After closing, the CSR views are stale — the graph must not be used
        again.  Owners pass ``unlink=True`` to also destroy the segment.
        """
        if self._store is not None:
            self._store.close(unlink=unlink)

    def memory_usage(self) -> Dict[str, object]:
        """Node/edge counts plus per-array byte accounting of the storage.

        ``arrays`` holds *stored* bytes per array (compressed size for
        block-coded neighbour arrays).  ``resident_bytes`` is what sits in
        this process's private heap / shared segment, ``mapped_bytes`` what
        is served from a memory-mapped snapshot (page cache, shared across
        processes, reclaimable).  ``logical_bytes`` is the flat-CSR
        equivalent, so ``compression_ratio = total / logical`` < 1 for
        compressed storage and 1.0 for flat backends.
        """
        file_backed = self._store is not None and getattr(self._store, "path", None) is not None
        per_array: Dict[str, int] = {}
        logical = 0
        for name, array in self._csr_arrays().items():
            per_array[name] = int(array.nbytes)
            logical += int(getattr(array, "logical_nbytes", array.nbytes))
        total = sum(per_array.values())
        return {
            "backend": self.store_backend,
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "arrays": per_array,
            "total_bytes": total,
            "resident_bytes": 0 if file_backed else total,
            "mapped_bytes": total if file_backed else 0,
            "logical_bytes": logical,
            "compression_ratio": (total / logical) if logical else 1.0,
        }

    def vertices(self) -> range:
        """Iterate over the internal vertex ids ``0 .. n - 1``."""
        return range(self._num_vertices)

    def has_vertex(self, v: int) -> bool:
        """Return ``True`` when ``v`` is a valid internal vertex id."""
        return 0 <= v < self._num_vertices

    def _check_vertex(self, v: int) -> None:
        if not self.has_vertex(v):
            raise VertexNotFoundError(v)

    # ------------------------------------------------------------------ #
    # adjacency
    # ------------------------------------------------------------------ #
    def neighbors(self, v: int) -> np.ndarray:
        """Out-neighbours ``N(v)`` as a read-only numpy view."""
        self._check_vertex(v)
        return self._out_indices[self._out_indptr[v] : self._out_indptr[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        """In-neighbours of ``v`` (out-neighbours in the reversed graph)."""
        self._check_vertex(v)
        return self._in_indices[self._in_indptr[v] : self._in_indptr[v + 1]]

    def out_degree(self, v: int) -> int:
        """Out-degree ``d(v)``."""
        self._check_vertex(v)
        return int(self._out_indptr[v + 1] - self._out_indptr[v])

    def in_degree(self, v: int) -> int:
        """In-degree of ``v``."""
        self._check_vertex(v)
        return int(self._in_indptr[v + 1] - self._in_indptr[v])

    def degree(self, v: int) -> int:
        """Total degree (in + out) of ``v``."""
        return self.out_degree(v) + self.in_degree(v)

    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` when the directed edge ``(u, v)`` exists."""
        if not self.has_vertex(u) or not self.has_vertex(v):
            return False
        return self._edge_index(u, v) is not None

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over all directed edges as ``(u, v)`` pairs."""
        indptr = self._out_indptr
        indices = self._out_indices
        for u in range(self._num_vertices):
            for pos in range(indptr[u], indptr[u + 1]):
                yield u, int(indices[pos])

    def out_degrees(self) -> np.ndarray:
        """Vector of out-degrees for every vertex."""
        return np.diff(self._out_indptr)

    def in_degrees(self) -> np.ndarray:
        """Vector of in-degrees for every vertex."""
        return np.diff(self._in_indptr)

    def out_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """The raw ``(indptr, indices)`` pair of the out-adjacency.

        The arrays are the graph's own storage — callers must treat them as
        read-only.  This is the entry point the traversal and index layers
        use for vectorised bulk operations.
        """
        return self._out_indptr, self._out_indices

    def in_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """The raw ``(indptr, indices)`` pair of the in-adjacency."""
        return self._in_indptr, self._in_indices

    # ------------------------------------------------------------------ #
    # edge attributes
    # ------------------------------------------------------------------ #
    def _edge_index(self, u: int, v: int) -> Optional[int]:
        """CSR position of edge ``(u, v)`` via binary search of ``u``'s row.

        Rows are sorted ascending (a :class:`GraphBuilder` invariant checked
        by the constructor), so no O(E) position dictionary is ever built.
        """
        start = int(self._out_indptr[u])
        stop = int(self._out_indptr[u + 1])
        pos = start + int(np.searchsorted(self._out_indices[start:stop], v))
        if pos < stop and self._out_indices[pos] == v:
            return pos
        return None

    @property
    def has_edge_weights(self) -> bool:
        """``True`` when the graph was built with per-edge weights."""
        return self._edge_weights is not None

    @property
    def has_edge_labels(self) -> bool:
        """``True`` when the graph was built with per-edge labels."""
        return self._edge_labels is not None

    def edge_weight(self, u: int, v: int, default: Optional[float] = None) -> float:
        """Weight of edge ``(u, v)``.

        Raises :class:`EdgeNotFoundError` when the edge does not exist and no
        ``default`` is given.  Unweighted graphs report a weight of ``1.0``
        for every existing edge so accumulative-value constraints degrade
        gracefully to hop counting.
        """
        pos = self._edge_index(u, v) if (self.has_vertex(u) and self.has_vertex(v)) else None
        if pos is None:
            if default is not None:
                return default
            raise EdgeNotFoundError(u, v)
        if self._edge_weights is None:
            return 1.0
        return float(self._edge_weights[pos])

    def edge_label(self, u: int, v: int, default: Optional[str] = None) -> Optional[str]:
        """Label of edge ``(u, v)`` or ``default`` / ``None`` when unlabelled."""
        pos = self._edge_index(u, v) if (self.has_vertex(u) and self.has_vertex(v)) else None
        if pos is None:
            if default is not None:
                return default
            raise EdgeNotFoundError(u, v)
        if self._edge_labels is None:
            return default
        return self._edge_labels[pos]

    # ------------------------------------------------------------------ #
    # external ids
    # ------------------------------------------------------------------ #
    @property
    def has_external_ids(self) -> bool:
        """``True`` when the builder recorded external vertex identifiers."""
        return self._vertex_ids is not None

    def to_internal(self, external_id: Hashable) -> int:
        """Translate an external vertex id into the internal dense id."""
        if self._id_index is None:
            if isinstance(external_id, (int, np.integer)) and self.has_vertex(int(external_id)):
                return int(external_id)
            raise VertexNotFoundError(external_id)
        try:
            return self._id_index[external_id]
        except KeyError:
            raise VertexNotFoundError(external_id) from None

    def to_external(self, internal_id: int) -> Hashable:
        """Translate an internal dense id back to the external id."""
        self._check_vertex(internal_id)
        if self._vertex_ids is None:
            return internal_id
        return self._vertex_ids[internal_id]

    def translate_path(self, path: Sequence[int]) -> Tuple[Hashable, ...]:
        """Translate a path of internal ids into external ids."""
        return tuple(self.to_external(v) for v in path)

    # ------------------------------------------------------------------ #
    # derived graphs
    # ------------------------------------------------------------------ #
    def reverse_view(self) -> "DiGraph":
        """``G^r`` as a zero-copy view sharing this graph's arrays.

        The transpose is stored permanently alongside the forward graph (the
        ``BidirectionalImmutableGraph`` pattern), so reversing is a swap of
        the in/out CSR pairs — no copy, no re-sort, valid for every storage
        backend including memory-mapped and compressed snapshots.  The view
        is cached; its own :meth:`reverse_view` is the original graph.  Edge
        weights and labels are not carried over (they are aligned with the
        *forward* out-adjacency), matching :meth:`reverse` semantics.
        """
        if self._reverse_view is None:
            rev = object.__new__(DiGraph)
            rev._num_vertices = self._num_vertices
            rev._out_indptr = self._in_indptr
            rev._out_indices = self._in_indices
            rev._in_indptr = self._out_indptr
            rev._in_indices = self._out_indices
            rev._edge_weights = None
            rev._edge_labels = None
            rev._vertex_ids = self._vertex_ids
            rev._id_index = self._id_index
            rev._store = None
            rev._reverse_view = self
            self._reverse_view = rev
        return self._reverse_view

    def reverse(self) -> "DiGraph":
        """Return ``G^r``, the graph with every edge direction flipped.

        Edge weights and labels are dropped: the reverse graph is only used
        for distance computations, which do not consult them.  This copies;
        prefer :meth:`reverse_view` when a shared-storage view suffices.
        """
        return DiGraph(
            self._num_vertices,
            self._in_indptr.copy(),
            self._in_indices.copy(),
            self._out_indptr.copy(),
            self._out_indices.copy(),
            vertex_ids=None if self._vertex_ids is None else list(self._vertex_ids),
        )

    def edge_sources(self) -> np.ndarray:
        """Source vertex of every CSR edge slot (row-expanded ``indptr``)."""
        return np.repeat(
            np.arange(self._num_vertices, dtype=np.int64), np.diff(self._out_indptr)
        )

    def _from_edge_mask(self, keep: np.ndarray) -> "DiGraph":
        """Rebuild the graph keeping only the CSR slots selected by ``keep``.

        The mask preserves CSR order, so the surviving rows stay sorted and
        the aligned weight/label arrays can be masked directly — no builder
        round trip, no per-edge Python loop.
        """
        sources = self.edge_sources()[keep]
        targets = self._out_indices[keep]
        out_indptr = np.zeros(self._num_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(sources, minlength=self._num_vertices), out=out_indptr[1:])
        in_order = np.lexsort((sources, targets))
        in_indptr = np.zeros(self._num_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(targets, minlength=self._num_vertices), out=in_indptr[1:])

        edge_weights = None if self._edge_weights is None else self._edge_weights[keep]
        edge_labels = None
        if self._edge_labels is not None:
            edge_labels = [self._edge_labels[int(pos)] for pos in np.flatnonzero(keep)]
            if not any(label is not None for label in edge_labels):
                edge_labels = None
        if edge_weights is not None and len(edge_weights) == 0:
            edge_weights = None
        return DiGraph(
            self._num_vertices,
            out_indptr,
            targets,
            in_indptr,
            sources[in_order],
            edge_weights=edge_weights,
            edge_labels=edge_labels,
            vertex_ids=None if self._vertex_ids is None else list(self._vertex_ids),
        )

    def filter_edges(self, predicate) -> "DiGraph":
        """Return a copy that keeps only edges for which ``predicate`` is true.

        ``predicate(u, v, weight, label)`` is evaluated for every edge with
        internal ids.  Vertex ids and external-id mapping are preserved so
        queries keep working on the filtered graph — this is the materialised
        form of the predicate-constrained evaluation of Appendix E.  The
        rebuild itself is a numpy boolean mask over the CSR arrays.
        """
        num_edges = self.num_edges
        sources = self.edge_sources()
        weights = self._edge_weights
        labels = self._edge_labels
        keep = np.fromiter(
            (
                bool(
                    predicate(
                        int(sources[pos]),
                        int(self._out_indices[pos]),
                        1.0 if weights is None else float(weights[pos]),
                        None if labels is None else labels[pos],
                    )
                )
                for pos in range(num_edges)
            ),
            dtype=bool,
            count=num_edges,
        )
        return self._from_edge_mask(keep)

    def edge_list(self) -> Iterable[Tuple[int, int]]:
        """Materialise the edge list as a list of ``(u, v)`` tuples."""
        return list(self.edges())

    def copy_with_edges(self, extra_edges: Iterable[Tuple[int, int]]) -> "DiGraph":
        """Return a new graph with ``extra_edges`` added (ids are internal).

        Existing edges keep their weights and labels and the external-id
        mapping is preserved; added edges carry no attributes (they default
        to weight 1.0 on weighted graphs).  Duplicates of existing edges and
        self-loops among ``extra_edges`` are dropped, mirroring
        :class:`GraphBuilder` semantics.
        """
        extra = [(int(u), int(v)) for u, v in extra_edges]
        for u, v in extra:
            self._check_vertex(u)
            self._check_vertex(v)
        seen: set = set()
        fresh = []
        for u, v in extra:
            if u == v or (u, v) in seen or self.has_edge(u, v):
                continue
            seen.add((u, v))
            fresh.append((u, v))
        old_sources = self.edge_sources()
        old_targets = self._out_indices
        if fresh:
            add = np.asarray(fresh, dtype=np.int64)
            sources = np.concatenate([old_sources, add[:, 0]])
            targets = np.concatenate([old_targets, add[:, 1]])
        else:
            sources = old_sources
            targets = old_targets
        n = self._num_vertices
        out_order = np.lexsort((targets, sources))
        out_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(sources, minlength=n), out=out_indptr[1:])
        in_order = np.lexsort((sources, targets))
        in_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(targets, minlength=n), out=in_indptr[1:])

        edge_weights = None
        edge_labels = None
        if self._edge_weights is not None:
            raw = np.concatenate(
                [self._edge_weights, np.ones(len(fresh), dtype=np.float64)]
            )
            edge_weights = raw[out_order]
        if self._edge_labels is not None:
            raw_labels = list(self._edge_labels) + [None] * len(fresh)
            edge_labels = [raw_labels[int(pos)] for pos in out_order]
        return DiGraph(
            n,
            out_indptr,
            targets[out_order],
            in_indptr,
            sources[in_order],
            edge_weights=edge_weights,
            edge_labels=edge_labels,
            vertex_ids=None if self._vertex_ids is None else list(self._vertex_ids),
        )
