"""Result segments: how process workers hand path columns to the parent.

A process worker streams each shard's results in chunks over a pipe to the
parent.  Pickling the path columns through it costs about as much as
enumerating them, so the columns travel through shared memory instead:
:func:`pack_chunk` writes every stored path column of one chunk into one
fresh POSIX shared-memory segment, in the wire dtypes of
:meth:`~repro.core.result.PathBuffer.wire_dtypes`, in one pass, and only the
segment name, one small slot per result and the path-less
:class:`~repro.core.result.QueryResult` objects ride the pipe.  The
parent's router thread calls :func:`unpack_chunk`, which maps the segment
read-only, unlinks it at once and wraps each result's columns with
``np.frombuffer``: the results are buffer-backed views that stay valid for
as long as they are referenced, even after the executor is closed.  One
live result keeps its whole chunk's mapping alive.

Segment layout: for each result with at least one stored path, its data
column and then its indptr column, each starting at an 8-byte-aligned
offset.  A result's slot is ``None`` (no stored paths) or ``(offset,
vertices, paths, data_dtype, indptr_dtype)``.  Results with zero paths take
no bytes, and a chunk that needs no bytes creates no segment.

Lifecycle.  Segments are untracked, like the attachments of
:func:`repro.graph.store._open_untracked`: no process's resource tracker
ever sees them, and ownership passes from the worker that creates one to
the parent that unlinks it.  Names are ``<prefix><worker pid>-<counter>``,
the prefix starting with a per-executor part (:func:`new_prefix`), so an
executor can :func:`sweep` whatever its workers left behind — a worker
killed between creating a segment and handing its name over leaves an
orphan nothing else would remove.  The sweep lists ``/dev/shm`` and so
exists on Linux only; elsewhere it is a no-op.
"""

from __future__ import annotations

import itertools
import mmap
import os
import secrets
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.result import PathBuffer, QueryResult

try:  # POSIX shared memory, the same primitive multiprocessing.shared_memory uses
    import _posixshmem
except ImportError:  # pragma: no cover - non-POSIX platform
    _posixshmem = None

__all__ = ["SEGMENT_PREFIX", "discard_chunk", "new_prefix", "pack_chunk", "sweep", "unpack_chunk"]

#: Every result segment's name starts with this.
SEGMENT_PREFIX = "repro-res-"

#: Where Linux exposes POSIX shared-memory names.
_SHM_DIR = "/dev/shm"

_ALIGNMENT = 8

#: Per-process segment counter; names also carry the pid, so a forked child
#: continuing its parent's count cannot collide with it.
_COUNTER = itertools.count()

Slot = Optional[Tuple[int, int, int, str, str]]


def _aligned(size: int) -> int:
    return (size + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


def new_prefix() -> str:
    """A fresh name prefix for the segments of one executor's workers."""
    return f"{SEGMENT_PREFIX}{secrets.token_hex(4)}-"


def _shm():
    if _posixshmem is None:  # pragma: no cover - non-POSIX platform
        raise OSError("process result segments need POSIX shared memory")
    return _posixshmem


def _unlink(name: str) -> bool:
    """Remove a segment name; ``False`` when it was already gone."""
    try:
        _shm().shm_unlink("/" + name)
    except FileNotFoundError:
        return False
    return True


def _create(prefix: str, size: int) -> Tuple[str, mmap.mmap]:
    """Create, size and map a fresh segment named ``prefix<pid>-<n>``."""
    shm = _shm()
    while True:
        name = f"{prefix}{os.getpid():x}-{next(_COUNTER):x}"
        try:
            fd = shm.shm_open("/" + name, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o600)
        except FileExistsError:  # a stale name from a recycled pid
            continue
        break
    try:
        try:
            # Reserve the pages now: a full /dev/shm then raises ENOSPC
            # here instead of killing the worker with SIGBUS on first write.
            os.posix_fallocate(fd, 0, size)
        except AttributeError:  # pragma: no cover - no posix_fallocate (macOS)
            os.ftruncate(fd, size)
        return name, mmap.mmap(fd, size)
    except BaseException:
        _unlink(name)
        raise
    finally:
        os.close(fd)


def pack_chunk(
    prefix: str,
    chunk: Sequence[Tuple[int, QueryResult]],
    vertex_bound: Optional[int] = None,
) -> Tuple[Optional[str], List[Tuple[int, QueryResult, Slot]]]:
    """Worker side: move the path columns of ``chunk`` into one segment.

    ``chunk`` is a list of ``(position, result)`` pairs; their results lose
    their paths.  ``vertex_bound`` (the graph's vertex count) spares the
    scan that picks each data column's wire dtype.  Returns the message
    payload ``(segment_name, items)`` with ``items`` a list of ``(position,
    result, slot)``; the name is ``None`` when no result stored a path.
    """
    items: List[Tuple[int, QueryResult, Slot]] = []
    pending: List[Tuple[PathBuffer, Tuple[int, int, int, str, str]]] = []
    size = 0
    for position, result in chunk:
        buffer = result.path_buffer
        slot: Slot = None
        if buffer is not None:
            result.paths = None
            data_dtype, indptr_dtype = buffer.wire_dtypes(vertex_bound)
            vertices, paths = buffer.total_vertices, len(buffer)
            slot = (-1, 0, 0, data_dtype.str, indptr_dtype.str)
            if paths:
                slot = (size, vertices, paths, data_dtype.str, indptr_dtype.str)
                size = _aligned(size + vertices * data_dtype.itemsize)
                size = _aligned(size + (paths + 1) * indptr_dtype.itemsize)
                pending.append((buffer, slot))
        items.append((position, result, slot))
    if not size:
        return None, items
    name, segment = _create(prefix, size)
    try:
        for buffer, slot in pending:
            data, indptr = _columns(segment, slot)
            buffer.write_wire(data, indptr)
        del data, indptr  # the mapping cannot close while views export it
    except BaseException:
        _unlink(name)
        raise
    finally:
        try:
            segment.close()
        except BufferError:  # pragma: no cover - a view escaped on error
            pass
    return name, items


def _columns(segment, slot) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(data, indptr)`` views a slot describes inside ``segment``."""
    offset, vertices, paths, data_dtype, indptr_dtype = slot
    data_dtype, indptr_dtype = np.dtype(data_dtype), np.dtype(indptr_dtype)
    data = np.frombuffer(segment, dtype=data_dtype, count=vertices, offset=offset)
    end = _aligned(offset + vertices * data_dtype.itemsize)
    indptr = np.frombuffer(segment, dtype=indptr_dtype, count=paths + 1, offset=end)
    return data, indptr


def _map_and_unlink(name: str) -> mmap.mmap:
    """Map a worker's segment read-only and remove its name at once."""
    shm = _shm()
    fd = shm.shm_open("/" + name, os.O_RDONLY, 0o600)
    try:
        _unlink(name)
        return mmap.mmap(fd, os.fstat(fd).st_size, prot=mmap.PROT_READ)
    finally:
        os.close(fd)


def unpack_chunk(payload) -> List[Tuple[int, QueryResult]]:
    """Parent side: the ``(position, result)`` list :func:`pack_chunk` took
    apart, each result's paths now read-only views into the segment.

    Raises ``FileNotFoundError`` when the segment was swept already.
    """
    name, items = payload
    segment = None if name is None else _map_and_unlink(name)
    chunk: List[Tuple[int, QueryResult]] = []
    for position, result, slot in items:
        if slot is not None:
            if slot[2]:
                data, indptr = _columns(segment, slot)
            else:
                data = np.zeros(0, dtype=slot[3])
                indptr = np.zeros(1, dtype=slot[4])
                data.flags.writeable = indptr.flags.writeable = False
            result.paths = PathBuffer(data, indptr)
        chunk.append((position, result))
    return chunk


def discard_chunk(payload) -> None:
    """Parent side: drop a chunk nobody will read, unlinking its segment."""
    name = payload[0]
    if name is not None:
        _unlink(name)


def sweep(prefix: str) -> int:
    """Unlink every leftover segment whose name starts with ``prefix``.

    Returns how many were removed.  Linux only (it lists ``/dev/shm``);
    elsewhere it removes nothing.
    """
    try:
        names = os.listdir(_SHM_DIR)
    except OSError:
        return 0
    return sum(1 for name in names if name.startswith(prefix) and _unlink(name))
