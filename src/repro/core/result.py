"""Result and statistics containers shared by every enumeration algorithm.

The paper's evaluation reports, per query, far more than the set of paths:
query time, preprocessing vs. enumeration breakdown, throughput, response
time (time to the first 1 000 results), number of edges accessed, number of
invalid partial results, and peak memory of the materialised partial
results.  :class:`EnumerationStats` collects all of those counters so the
benchmark harness never needs external profiling, and :class:`QueryResult`
bundles the stats with the (optional) discovered paths.

Stored paths have one physical form, whichever engine tier produced them: a
:class:`PathBuffer` of internal vertex ids — two flat columns
(``paths_data`` holding every vertex of every path concatenated, and
``paths_indptr`` holding the path boundaries, CSR style).  The recursive
engines append to it one path at a time, the iterative kernels
(:mod:`repro.core.kernels`) and the compiled tier whole blocks.
``result.paths`` reads it as the familiar list of tuples (materialised
lazily), while ``result.path_buffer`` is the buffer itself, which the
process workers' shared-memory result segments
(:mod:`repro.core.result_segments`), compact pickling and the query
server's columnar ``result`` frames ship as is; a remote client wraps the
frame's columns back into a buffer without a per-path object on either
side.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["EnumerationStats", "PathBuffer", "QueryResult", "Phase"]

Path = Tuple[int, ...]

_INT32_MAX = 2**31 - 1


def _fits_int32(column: Union[List[int], np.ndarray]) -> bool:
    if isinstance(column, list):
        return max(column, default=0) <= _INT32_MAX
    return column.dtype == np.int32 or len(column) == 0 or int(column.max()) <= _INT32_MAX


class PathBuffer:
    """Columnar storage for a sequence of paths.

    Layout mirrors CSR: ``data`` is every vertex of every path, back to
    back; ``indptr`` has one entry per path boundary (``indptr[0] == 0``),
    so path ``i`` is ``data[indptr[i] : indptr[i + 1]]``.  While being
    filled the columns are plain Python int lists (cheap appends from the
    enumeration kernels); :meth:`arrays` seals them into int64 numpy arrays.
    The wire form (:meth:`wire_arrays`: pickling, result segments, columnar
    frames) is the same two primitive columns, int32 when the ids fit,
    instead of one tuple object per path.

    The compiled native engine grows a buffer from whole numpy blocks
    instead (:meth:`extend_array_block`): segments accumulate in a side list
    and are concatenated into the sealed columns the first time anything
    reads the buffer, so appends stay O(block) and no vertex ever round-trips
    through a Python int.
    """

    __slots__ = ("_data", "_indptr", "_segments")

    def __init__(
        self,
        data: Optional[Union[List[int], np.ndarray]] = None,
        indptr: Optional[Union[List[int], np.ndarray]] = None,
    ) -> None:
        if (data is None) != (indptr is None):
            raise ValueError("data and indptr must be given together")
        self._data = [] if data is None else data
        self._indptr = [0] if indptr is None else indptr
        #: Pending numpy blocks from :meth:`extend_array_block`, merged into
        #: the main columns lazily: ``[data_arrays, indptr_arrays, vertices,
        #: paths]`` or ``None`` when nothing is pending.
        self._segments = None
        if len(self._indptr) == 0:
            raise ValueError("indptr must start with 0")

    # -- construction --------------------------------------------------- #
    @classmethod
    def from_paths(cls, paths: Sequence[Sequence[int]]) -> "PathBuffer":
        """Build a buffer from an iterable of paths."""
        data: List[int] = []
        indptr = [0]
        for path in paths:
            data.extend(map(int, path))
            indptr.append(len(data))
        return cls(data, indptr)

    def append_path(self, path: Sequence[int]) -> None:
        """Append one path (slow per-path entry point)."""
        self._unseal()
        self._data.extend(map(int, path))
        self._indptr.append(len(self._data))

    def extend_block(
        self, data: Sequence[int], bounds: Sequence[int], take: Optional[int] = None
    ) -> None:
        """Append a block of paths stored columnar.

        ``data`` holds the block's vertices concatenated and ``bounds`` the
        *end* offset of each path within the block (no leading zero).
        ``take`` keeps only the first that many paths — the result-limit
        truncation path of :meth:`ResultCollector.emit_block`.
        """
        self._unseal()
        count = len(bounds) if take is None else min(take, len(bounds))
        if count <= 0:
            return
        stop = bounds[count - 1]
        base = len(self._data)
        if stop == len(data):
            self._data.extend(data)
        else:
            self._data.extend(data[:stop])
        indptr = self._indptr
        for i in range(count):
            indptr.append(base + bounds[i])

    def extend_array_block(self, data, bounds, take: Optional[int] = None) -> None:
        """Append a block of paths given as numpy int64 arrays.

        Same ``(data, bounds)`` contract as :meth:`extend_block`, but the
        block is kept as a pending array segment (O(1) bookkeeping, no
        per-vertex conversion); segments merge into the sealed columns the
        first time the buffer is read.
        """
        count = len(bounds) if take is None else min(take, len(bounds))
        if count <= 0:
            return
        data = np.asarray(data, dtype=np.int64)
        bounds = np.asarray(bounds, dtype=np.int64)
        if count != len(bounds):
            bounds = bounds[:count]
        stop = int(bounds[-1])
        if stop != len(data):
            data = data[:stop]
        if self._segments is None:
            self._segments = [[], [], 0, 0]
        segments = self._segments
        base = int(self._indptr[-1]) + segments[2]
        segments[0].append(data)
        segments[1].append(bounds + base if base else bounds)
        segments[2] += stop
        segments[3] += count

    def _consolidate(self) -> None:
        """Merge pending array segments into the sealed columns."""
        if self._segments is None:
            return
        seg_data, seg_indptr, _, _ = self._segments
        self._segments = None
        if isinstance(self._data, list):
            head_data = np.asarray(self._data, dtype=np.int64)
            head_indptr = np.asarray(self._indptr, dtype=np.int64)
        else:
            head_data = self._data.astype(np.int64, copy=False)
            head_indptr = self._indptr.astype(np.int64, copy=False)
        # Segment indptr entries are already absolute end offsets, so the
        # concatenation below is a valid indptr (head keeps the leading 0).
        self._data = np.concatenate([head_data] + seg_data)
        self._indptr = np.concatenate([head_indptr] + seg_indptr)

    def _unseal(self) -> None:
        """Return the columns to list mode so they can grow again."""
        self._consolidate()
        if not isinstance(self._data, list):
            self._data = self._data.tolist()
            self._indptr = self._indptr.tolist()

    # -- access --------------------------------------------------------- #
    def __len__(self) -> int:
        pending = self._segments[3] if self._segments is not None else 0
        return len(self._indptr) - 1 + pending

    @property
    def total_vertices(self) -> int:
        """Total number of vertex slots across all stored paths."""
        pending = self._segments[2] if self._segments is not None else 0
        return int(self._indptr[-1]) + pending

    def path(self, i: int) -> Path:
        """The ``i``-th stored path as a tuple."""
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"path index {i} out of range")
        self._consolidate()
        start, stop = int(self._indptr[i]), int(self._indptr[i + 1])
        chunk = self._data[start:stop]
        if not isinstance(chunk, list):
            chunk = chunk.tolist()
        return tuple(chunk)

    def __getitem__(self, i: int) -> Path:
        return self.path(i)

    def __iter__(self) -> Iterator[Path]:
        for i in range(len(self)):
            yield self.path(i)

    def to_paths(self) -> List[Path]:
        """Materialise the buffer as the classic list of path tuples."""
        self._consolidate()
        data = self._data if isinstance(self._data, list) else self._data.tolist()
        indptr = self._indptr if isinstance(self._indptr, list) else self._indptr.tolist()
        return [
            tuple(data[indptr[i] : indptr[i + 1]]) for i in range(len(indptr) - 1)
        ]

    def to_lists(self) -> List[List[int]]:
        """Paths as plain lists — the JSON wire shape, no tuple detour."""
        self._consolidate()
        data = self._data if isinstance(self._data, list) else self._data.tolist()
        indptr = self._indptr if isinstance(self._indptr, list) else self._indptr.tolist()
        return [data[indptr[i] : indptr[i + 1]] for i in range(len(indptr) - 1)]

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Seal and return the columns as ``(paths_data, paths_indptr)`` int64
        arrays — the columnar wire format."""
        self._consolidate()
        if isinstance(self._data, list):
            self._data = np.asarray(self._data, dtype=np.int64)
            self._indptr = np.asarray(self._indptr, dtype=np.int64)
        elif self._data.dtype != np.int64:
            # Unpickled buffers may carry the downcast wire dtype.
            self._data = self._data.astype(np.int64)
            self._indptr = self._indptr.astype(np.int64)
        return self._data, self._indptr

    @property
    def nbytes(self) -> int:
        """Approximate footprint of the columns (8 bytes per slot)."""
        return 8 * (len(self) + 1 + self.total_vertices)

    # -- equality / serialisation --------------------------------------- #
    def __eq__(self, other: object) -> bool:
        if isinstance(other, PathBuffer):
            if len(self) != len(other):
                return False
            return self.to_paths() == other.to_paths()
        if isinstance(other, (list, tuple)):
            return self.to_paths() == [tuple(p) for p in other]
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PathBuffer(paths={len(self)}, vertices={self.total_vertices})"

    def wire_dtypes(self, vertex_bound: Optional[int] = None) -> Tuple[np.dtype, np.dtype]:
        """The dtypes of :meth:`wire_arrays`: each column int32 when every
        value fits, else int64.

        The one downcast rule for everything that ships a buffer — pickling,
        the process workers' result segments and the server's columnar
        ``result`` frames.  For realistic vertex-id ranges it halves the
        bytes.  Seals nothing: pending blocks are scanned where they lie,
        unless ``vertex_bound`` (every id is below it — a graph's vertex
        count) already settles the answer.
        """
        narrow, wide = np.dtype(np.int32), np.dtype(np.int64)
        indptr_dtype = narrow if self.total_vertices <= _INT32_MAX else wide
        if vertex_bound is not None and vertex_bound - 1 <= _INT32_MAX:
            return narrow, indptr_dtype
        columns = [self._data] + (self._segments[0] if self._segments is not None else [])
        return (narrow if all(map(_fits_int32, columns)) else wide), indptr_dtype

    def write_wire(self, data_out: np.ndarray, indptr_out: np.ndarray) -> None:
        """Write the columns into ``data_out`` (``total_vertices`` slots) and
        ``indptr_out`` (``len(self) + 1`` slots) in one pass.

        The destinations carry the :meth:`wire_dtypes`; pending int64 blocks
        are cast straight into them, with no consolidated int64 copy in
        between.
        """
        vertices = len(self._data)
        paths = len(self._indptr)
        data_out[:vertices] = self._data
        indptr_out[:paths] = self._indptr
        if self._segments is not None:
            for block, bounds in zip(self._segments[0], self._segments[1]):
                data_out[vertices : vertices + len(block)] = block
                indptr_out[paths : paths + len(bounds)] = bounds
                vertices += len(block)
                paths += len(bounds)

    def wire_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The columns in their :meth:`wire_dtypes`.

        Sealed columns that already carry the wire dtype — an unpickled
        buffer, a protocol-4 client's result, a process worker's result
        segment — come back unchanged (no copy, no upcast).
        """
        data_dtype, indptr_dtype = self.wire_dtypes()
        data, indptr = self._data, self._indptr
        if self._segments is None and not isinstance(data, list):
            return (
                data if data.dtype == data_dtype else data.astype(data_dtype),
                indptr if indptr.dtype == indptr_dtype else indptr.astype(indptr_dtype),
            )
        data = np.empty(self.total_vertices, dtype=data_dtype)
        indptr = np.empty(len(self) + 1, dtype=indptr_dtype)
        self.write_wire(data, indptr)
        return data, indptr

    def __getstate__(self):
        """Pickle as the two :meth:`wire_arrays` (compact IPC form):
        unpickling is two buffer copies instead of one object per path."""
        return self.wire_arrays()

    def __setstate__(self, state) -> None:
        self._data, self._indptr = state
        self._segments = None


class Phase:
    """Canonical names of the timing phases reported by the paper."""

    BFS = "bfs"
    INDEX = "index_construction"
    PRELIMINARY = "preliminary_estimation"
    OPTIMIZATION = "join_order_optimization"
    ENUMERATION = "enumeration"
    JOIN = "join"
    TOTAL = "total"

    ALL = (BFS, INDEX, PRELIMINARY, OPTIMIZATION, ENUMERATION, JOIN, TOTAL)


@dataclass
class EnumerationStats:
    """Counters and timings gathered while evaluating one query."""

    #: Number of directed edges touched by the enumeration loops (Figure 6).
    edges_accessed: int = 0
    #: Partial results that do not appear in any final path (Figure 6).
    invalid_partial_results: int = 0
    #: Total partial results generated (internal nodes of the search tree).
    partial_results_generated: int = 0
    #: Number of results emitted.
    results_emitted: int = 0
    #: Peak number of materialised partial-result tuples (IDX-JOIN, BC-JOIN).
    peak_partial_result_tuples: int = 0
    #: Estimated peak bytes of materialised partial results.
    peak_partial_result_bytes: int = 0
    #: Number of edges stored in the light-weight index (Figure 10).
    index_edges: int = 0
    #: Number of vertices stored in the light-weight index.
    index_vertices: int = 0
    #: Estimated bytes used by the index (Table 7).
    index_bytes: int = 0
    #: Vertices the query's own BFS sweeps gave a distance: the forward
    #: sweep (pruned to ``X`` on unconstrained builds) plus the reverse
    #: sweep when this query paid for it rather than reading it cached.
    swept_vertices: int = 0
    #: Search-space size predicted by the preliminary estimator (Eq. 5).
    preliminary_estimate: Optional[float] = None
    #: Result-count estimate from the full-fledged estimator.
    full_estimate: Optional[float] = None
    #: The plan executed: ``"dfs"`` or ``"join"``.
    plan: Optional[str] = None
    #: The cut position chosen by Algorithm 5 (join plans only).
    cut_position: Optional[int] = None
    #: Whether the index was built from a cached reverse-BFS distance array
    #: (batch execution over target-sharing workloads).
    bfs_cache_hit: bool = False
    #: Whether the cooperative deadline expired before completion.
    timed_out: bool = False
    #: Whether enumeration stopped early because of a result limit.
    truncated: bool = False
    #: Wall-clock seconds per phase (:class:`Phase` names).
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def __getstate__(self):
        """Pickle as a positional tuple instead of a per-instance dict.

        Batch results cross a process boundary once per shard in the
        process-parallel executor; dropping the repeated field-name strings
        shrinks that traffic severalfold without changing equality.
        """
        return tuple(getattr(self, f.name) for f in fields(self))

    def __setstate__(self, state) -> None:
        for f, value in zip(fields(self), state):
            setattr(self, f.name, value)

    # ------------------------------------------------------------------ #
    # phase helpers
    # ------------------------------------------------------------------ #
    def add_phase(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` into the named timing phase."""
        self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds

    def phase(self, name: str) -> float:
        """Seconds spent in phase ``name`` (0.0 when the phase never ran)."""
        return self.phase_seconds.get(name, 0.0)

    @property
    def total_seconds(self) -> float:
        """Total query time in seconds."""
        return self.phase_seconds.get(Phase.TOTAL, 0.0)

    @property
    def preprocessing_seconds(self) -> float:
        """Preprocessing time as reported in Figure 7.

        For index-based algorithms this is the index-construction phase
        (which already includes its BFS sub-phase); baselines that only run
        a BFS report that instead.
        """
        index_seconds = self.phase(Phase.INDEX)
        return index_seconds if index_seconds > 0.0 else self.phase(Phase.BFS)

    @property
    def enumeration_seconds(self) -> float:
        """Enumeration time (DFS or join), as reported in Figure 7."""
        return self.phase(Phase.ENUMERATION) + self.phase(Phase.JOIN)

    def merge(self, other: "EnumerationStats") -> None:
        """Accumulate the counters of ``other`` into this object (in place)."""
        self.edges_accessed += other.edges_accessed
        self.invalid_partial_results += other.invalid_partial_results
        self.partial_results_generated += other.partial_results_generated
        self.results_emitted += other.results_emitted
        self.peak_partial_result_tuples = max(
            self.peak_partial_result_tuples, other.peak_partial_result_tuples
        )
        self.peak_partial_result_bytes = max(
            self.peak_partial_result_bytes, other.peak_partial_result_bytes
        )
        self.index_edges = max(self.index_edges, other.index_edges)
        self.index_vertices = max(self.index_vertices, other.index_vertices)
        self.index_bytes = max(self.index_bytes, other.index_bytes)
        self.swept_vertices += other.swept_vertices
        self.timed_out = self.timed_out or other.timed_out
        self.truncated = self.truncated or other.truncated
        for name, seconds in other.phase_seconds.items():
            self.add_phase(name, seconds)


class QueryResult:
    """The outcome of evaluating a single HcPE query.

    The ``paths`` argument is the :class:`PathBuffer` of stored paths, or
    ``None`` when storage was off; anything else raises ``TypeError``.  The
    :attr:`paths` attribute reads it as a list of tuples (materialised and
    cached on first access) while :attr:`path_buffer` keeps the columnar
    form for compact pickling and wire serialisation.
    """

    __slots__ = (
        "source",
        "target",
        "k",
        "algorithm",
        "count",
        "stats",
        "response_seconds",
        "response_k",
        "_paths",
        "_path_buffer",
    )

    def __init__(
        self,
        source: int,
        target: int,
        k: int,
        algorithm: str,
        count: int,
        paths: Optional[PathBuffer],
        stats: EnumerationStats,
        response_seconds: Optional[float] = None,
        response_k: int = 1000,
    ) -> None:
        #: The query that was evaluated (kept as plain ints to avoid import cycles).
        self.source = source
        self.target = target
        self.k = k
        #: Name of the algorithm that produced the result.
        self.algorithm = algorithm
        #: Number of paths found (always populated, even when paths are not stored).
        self.count = count
        #: Per-query statistics.
        self.stats = stats
        #: Seconds from query start until the first ``response_k`` results were
        #: found (the paper's response time); ``None`` when fewer results exist.
        self.response_seconds = response_seconds
        #: The number of results the response time refers to.
        self.response_k = response_k
        self.paths = paths

    @property
    def paths(self) -> Optional[List[Path]]:
        """The discovered paths when storage was enabled, otherwise ``None``.

        Materialised (and cached) from the columnar buffer on first access.
        """
        if self._paths is None and self._path_buffer is not None:
            self._paths = self._path_buffer.to_paths()
        return self._paths

    @paths.setter
    def paths(self, value: Optional[PathBuffer]) -> None:
        if value is not None and not isinstance(value, PathBuffer):
            raise TypeError(
                f"QueryResult paths must be a PathBuffer or None, "
                f"not {type(value).__name__}"
            )
        self._paths: Optional[List[Path]] = None
        self._path_buffer = value

    @property
    def path_buffer(self) -> Optional[PathBuffer]:
        """The stored paths' columnar storage, ``None`` when storage was off."""
        return self._path_buffer

    def __getstate__(self):
        """Tuple pickling, mirroring :meth:`EnumerationStats.__getstate__`.

        The columnar buffer rides, not the cached tuple view, so a pickled
        result carries two wire-dtype arrays rather than one Python object
        per path.
        """
        return (
            self.source,
            self.target,
            self.k,
            self.algorithm,
            self.count,
            self._path_buffer,
            self.stats,
            self.response_seconds,
            self.response_k,
        )

    def __setstate__(self, state) -> None:
        (
            self.source,
            self.target,
            self.k,
            self.algorithm,
            self.count,
            paths,
            self.stats,
            self.response_seconds,
            self.response_k,
        ) = state
        self.paths = paths

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueryResult(algorithm={self.algorithm!r}, "
            f"q=({self.source}, {self.target}, {self.k}), count={self.count})"
        )

    @property
    def query_seconds(self) -> float:
        """Total query time in seconds."""
        return self.stats.total_seconds

    @property
    def query_millis(self) -> float:
        """Total query time in milliseconds, the unit used by the paper."""
        return self.stats.total_seconds * 1e3

    @property
    def throughput(self) -> float:
        """Results found per second (the paper's throughput metric).

        Timed-out queries still report throughput based on the results found
        before the deadline, mirroring Section 7.1.
        """
        seconds = self.stats.total_seconds
        if seconds <= 0.0:
            return float(self.count)
        return self.count / seconds

    @property
    def completed(self) -> bool:
        """``True`` when the query ran to completion (no timeout, no truncation)."""
        return not self.stats.timed_out and not self.stats.truncated

    def path_lengths(self) -> List[int]:
        """Lengths (edge counts) of the stored paths."""
        if self.paths is None:
            return []
        return [len(p) - 1 for p in self.paths]

    def paths_as_external(self, graph) -> List[Tuple[object, ...]]:
        """Translate stored paths back to external vertex ids."""
        if self.paths is None:
            return []
        return [graph.translate_path(p) for p in self.paths]

    def summary(self) -> Dict[str, object]:
        """Flat dict used by the benchmark reporting layer."""
        return {
            "algorithm": self.algorithm,
            "source": self.source,
            "target": self.target,
            "k": self.k,
            "count": self.count,
            "query_ms": self.query_millis,
            "throughput": self.throughput,
            "response_ms": None if self.response_seconds is None else self.response_seconds * 1e3,
            "timed_out": self.stats.timed_out,
            "plan": self.stats.plan,
        }


def paths_are_valid(paths: Sequence[Path], source: int, target: int, k: int) -> bool:
    """Check the HcPE invariants on a set of paths (used by tests and examples).

    Every path must start at ``source``, end at ``target``, contain no
    duplicate vertices and have at most ``k`` edges; the collection must not
    contain duplicates.
    """
    seen = set()
    for path in paths:
        if len(path) < 2 or path[0] != source or path[-1] != target:
            return False
        if len(path) - 1 > k:
            return False
        if len(set(path)) != len(path):
            return False
        if path in seen:
            return False
        seen.add(path)
    return True
