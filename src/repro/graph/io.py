"""Reading and writing graphs: SNAP-style edge lists and binary snapshots.

The paper's datasets are distributed as whitespace-separated edge lists with
``#`` comment headers (SNAP) or ``%`` headers (networkrepository).  The
reader accepts both, plus optional per-edge weight and label columns, and
transparently handles gzip-compressed files.

For serving deployments the text formats are the wrong tool: parsing and
builder relabelling dominate start-up.  The binary image format of choice is
the page-aligned snapshot (:mod:`repro.graph.snapshot`), which memory-maps
in milliseconds.  The older compressed-``.npz`` image is still read (the
CLI's ``info``/``convert`` and ``Database("graph.npz")`` accept it) through
the private :func:`_save_npz` / :func:`_load_npz` pair.  The loader
decompresses each member *directly into* the target store's buffers
(``readinto`` on preallocated heap or shared-memory views) rather than
materialising a private heap copy first and packing it afterwards.
"""

from __future__ import annotations

import gzip
import zipfile
from pathlib import Path
from typing import IO, Dict, Iterable, Optional, Tuple, Union

import numpy as np
from numpy.lib import format as npy_format

from repro.errors import GraphError
from repro.graph.builder import GraphBuilder
from repro.graph.digraph import DiGraph
from repro.graph.store import SharedMemoryStore

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "parse_edge_lines",
]

PathLike = Union[str, Path]
_COMMENT_PREFIXES = ("#", "%", "//")


def _open_text(path: PathLike, mode: str) -> IO[str]:
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def parse_edge_lines(
    lines: Iterable[str],
    *,
    weighted: bool = False,
    labeled: bool = False,
) -> Iterable[Tuple[str, str, Optional[float], Optional[str]]]:
    """Yield ``(source, target, weight, label)`` tuples from raw text lines.

    Lines that are empty or start with a comment prefix are skipped.  Columns
    beyond the requested ones are ignored, matching the loose formats found
    in the wild.
    """
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith(_COMMENT_PREFIXES):
            continue
        parts = line.replace(",", " ").split()
        if len(parts) < 2:
            raise GraphError(f"line {line_number}: expected at least two columns, got {line!r}")
        source, target = parts[0], parts[1]
        weight: Optional[float] = None
        label: Optional[str] = None
        column = 2
        if weighted:
            if len(parts) <= column:
                raise GraphError(f"line {line_number}: missing weight column")
            try:
                weight = float(parts[column])
            except ValueError as exc:
                raise GraphError(f"line {line_number}: invalid weight {parts[column]!r}") from exc
            column += 1
        if labeled:
            if len(parts) <= column:
                raise GraphError(f"line {line_number}: missing label column")
            label = parts[column]
        yield source, target, weight, label


def read_edge_list(
    path: PathLike,
    *,
    weighted: bool = False,
    labeled: bool = False,
    as_int_ids: bool = True,
    allow_self_loops: bool = False,
) -> DiGraph:
    """Load a directed graph from a SNAP-style edge list file.

    ``as_int_ids`` converts vertex tokens to integers when possible, which
    keeps the external-id mapping compact for the common numeric datasets.
    """
    builder = GraphBuilder(allow_self_loops=allow_self_loops)
    with _open_text(path, "r") as handle:
        for source, target, weight, label in parse_edge_lines(
            handle, weighted=weighted, labeled=labeled
        ):
            if as_int_ids:
                try:
                    source = int(source)  # type: ignore[assignment]
                    target = int(target)  # type: ignore[assignment]
                except ValueError:
                    pass
            builder.add_edge(source, target, weight=weight, label=label)
    if builder.num_vertices == 0:
        raise GraphError(f"no edges found in {path}")
    return builder.build()


def _save_npz(graph: DiGraph, path: PathLike) -> Path:
    """Persist ``graph`` as a compressed ``.npz`` CSR image.

    External vertex ids are stored when they are all integers or all
    strings (the shapes produced by the edge-list readers); exotic hashable
    ids do not fit an npz array and raise :class:`GraphError`.  Edge labels
    travel as a string column plus a missing-value mask, so ``None`` and
    ``""`` stay distinguishable.
    """
    path = Path(path)
    out_indptr, out_indices = graph.out_csr()
    in_indptr, in_indices = graph.in_csr()
    payload = {
        "num_vertices": np.asarray([graph.num_vertices], dtype=np.int64),
        "out_indptr": out_indptr,
        "out_indices": out_indices,
        "in_indptr": in_indptr,
        "in_indices": in_indices,
    }
    if graph.has_edge_weights:
        # The CSR-aligned weights array exists as-is; no per-edge loop.
        payload["edge_weights"] = graph._csr_arrays()["edge_weights"]
    if graph.has_external_ids:
        ids = [graph.to_external(v) for v in graph.vertices()]
        if all(isinstance(vid, (int, np.integer)) for vid in ids):
            payload["vertex_ids"] = np.asarray(ids, dtype=np.int64)
            payload["vertex_id_kind"] = np.asarray(["int"])
        elif all(isinstance(vid, str) for vid in ids):
            payload["vertex_ids"] = np.asarray(ids, dtype=np.str_)
            payload["vertex_id_kind"] = np.asarray(["str"])
        else:
            raise GraphError(
                "save_npz supports integer or string vertex ids only; "
                "write an edge list for graphs with other id types"
            )
    if graph.has_edge_labels:
        labels = graph._edge_labels  # CSR-aligned, same layout the writer needs
        payload["edge_label_mask"] = np.asarray(
            [label is not None for label in labels], dtype=bool
        )
        payload["edge_labels"] = np.asarray(
            [label if label is not None else "" for label in labels], dtype=np.str_
        )
    with open(path, "wb") as handle:
        np.savez_compressed(handle, **payload)
    return path


#: The O(|V| + |E|) members that belong in a graph store; everything else in
#: an ``.npz`` image is per-element metadata read onto the heap.
_BULK_MEMBERS = ("out_indptr", "out_indices", "in_indptr", "in_indices", "edge_weights")


def _npy_header(fp) -> Tuple[Tuple[int, ...], bool, np.dtype]:
    """Parse one ``.npy`` member header: ``(shape, fortran_order, dtype)``."""
    version = npy_format.read_magic(fp)
    if version == (1, 0):
        return npy_format.read_array_header_1_0(fp)
    if version == (2, 0):
        return npy_format.read_array_header_2_0(fp)
    raise GraphError(f"unsupported .npy member version {version}")


#: Decompression chunk for :func:`_readinto_exact` — bounds the transient
#: buffer (``ZipExtFile.readinto`` would otherwise ``read()`` the whole
#: member into a throwaway bytes object, the very copy this path removes).
_READ_CHUNK = 4 << 20


def _readinto_exact(fp, view: memoryview) -> bool:
    """Fill ``view`` completely from ``fp``; ``False`` on short read."""
    filled = 0
    while filled < len(view):
        count = fp.readinto(view[filled : filled + _READ_CHUNK])
        if not count:
            return False
        filled += count
    return True


def _load_npz(path: PathLike, *, store: Optional[str] = None) -> DiGraph:
    """Load an :func:`_save_npz` image, optionally into a store.

    The bulk CSR members are decompressed *directly into* their final
    buffers — preallocated heap arrays, or views of a freshly allocated
    shared-memory segment (``store="shared_memory"``) — via ``readinto``,
    so loading costs exactly one copy of each array regardless of the
    target store.  (``store="compressed"`` necessarily decodes to the heap
    first and then block-codes.)
    """
    path = Path(path)
    with zipfile.ZipFile(path) as archive:
        members = {
            name[:-4] if name.endswith(".npy") else name: name
            for name in archive.namelist()
        }
        specs: Dict[str, Tuple[Tuple[int, ...], bool, np.dtype]] = {}
        for key in _BULK_MEMBERS:
            if key not in members:
                continue
            with archive.open(members[key]) as fp:
                specs[key] = _npy_header(fp)

        seg = None
        if store in ("shared_memory", "shm"):
            seg = SharedMemoryStore.allocate(
                {key: (shape, dtype.str) for key, (shape, _, dtype) in specs.items()}
            )
            bulk = seg.arrays()
        else:
            bulk = {
                key: np.empty(shape, dtype=dtype)
                for key, (shape, _, dtype) in specs.items()
            }
        try:
            for key, (shape, fortran, dtype) in specs.items():
                with archive.open(members[key]) as fp:
                    _npy_header(fp)  # skip past the header bytes
                    if fortran and len(shape) > 1:  # pragma: no cover - 1-D in practice
                        bulk[key][...] = npy_format.read_array(fp, allow_pickle=False)
                        continue
                    view = memoryview(bulk[key].reshape(-1)).cast("B")
                    if not _readinto_exact(fp, view):
                        raise GraphError(f"truncated member {key!r} in {path}")

            def read_small(key: str) -> Optional[np.ndarray]:
                if key not in members:
                    return None
                with archive.open(members[key]) as fp:
                    return npy_format.read_array(fp, allow_pickle=False)

            num_vertices = int(read_small("num_vertices")[0])
            vertex_ids = None
            raw_ids = read_small("vertex_ids")
            if raw_ids is not None:
                kind_member = read_small("vertex_id_kind")
                kind = str(kind_member[0]) if kind_member is not None else "int"
                vertex_ids = (
                    [int(vid) for vid in raw_ids]
                    if kind == "int"
                    else [str(vid) for vid in raw_ids]
                )
            edge_labels = None
            raw_labels = read_small("edge_labels")
            if raw_labels is not None:
                mask = read_small("edge_label_mask")
                edge_labels = [
                    str(label) if present else None
                    for label, present in zip(raw_labels, mask)
                ]
            if seg is not None:
                seg.meta.update(
                    {
                        "num_vertices": num_vertices,
                        "edge_labels": edge_labels,
                        "vertex_ids": vertex_ids,
                    }
                )
            return DiGraph(
                num_vertices,
                bulk["out_indptr"],
                bulk["out_indices"],
                bulk["in_indptr"],
                bulk["in_indices"],
                edge_weights=bulk.get("edge_weights"),
                edge_labels=edge_labels,
                vertex_ids=vertex_ids,
                store=seg if seg is not None else store,
            )
        except BaseException:
            if seg is not None:
                seg.close(unlink=True)
            raise


def write_edge_list(
    graph: DiGraph,
    path: PathLike,
    *,
    include_weights: bool = False,
    include_labels: bool = False,
    header: Optional[str] = None,
) -> int:
    """Write the graph as an edge list; return the number of edges written."""
    count = 0
    with _open_text(path, "w") as handle:
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        handle.write(f"# vertices: {graph.num_vertices} edges: {graph.num_edges}\n")
        for u, v in graph.edges():
            fields = [str(graph.to_external(u)), str(graph.to_external(v))]
            if include_weights:
                fields.append(repr(graph.edge_weight(u, v)))
            if include_labels:
                fields.append(str(graph.edge_label(u, v, default="-")))
            handle.write(" ".join(fields) + "\n")
            count += 1
    return count
