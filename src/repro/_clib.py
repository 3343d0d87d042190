"""Build and load the compiled C library behind the native tier.

``core/_cfill.c`` holds every compiled loop of the package: the IDX-DFS and
IDX-JOIN inner loops of :mod:`repro.core.native`, the bounded BFS sweep of
:mod:`repro.graph.traversal` and Algorithm 3 (the pruned forward sweep and
the CSR fill) of :class:`repro.core.index.LightWeightIndex`.  On first use the source is
compiled with ``cc -O2 -shared -fPIC`` into
``$XDG_CACHE_HOME/repro/_cfill-<hash>.so`` (``~/.cache/repro`` by default;
the hash covers the source, so an edited source rebuilds) and loaded through
:mod:`ctypes`, which releases the GIL for every call.

This module imports nothing from :mod:`repro`, so the graph layer can call
into C without importing the enumeration engine.  ``REPRO_NATIVE=off``
skips the build and every caller keeps its NumPy / Python reference path
(the native enumeration tier then runs the kernels); a library that fails
to build or load is logged once and handled the same way.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
from importlib import resources
from pathlib import Path

import numpy as np

__all__ = ["jit_ready", "int64_ready", "ThreadScratch"]

# The tier's records keep the logger name they have always had.
logger = logging.getLogger("repro.core.native")

_SOURCE = "_cfill.c"
_CFLAGS = ("-O2", "-shared", "-fPIC")
_LIB = {"checked": False, "lib": None, "warm": False}

_P, _I = ctypes.c_void_p, ctypes.c_int64
_SIGNATURES = {
    "repro_dfs_fill": (_I, [_P, _P, _P, _I, _P, _I, _I, _I, _P, _P, _P, _P, _P, _P, _P, _P, _I, _P, _I, _I]),
    "repro_walks_fill": (_I, [_P, _P, _P, _I, _P, _P, _I, _I, _I, _P, _P, _P, _P, _P, _P, _I, _I]),
    "repro_join_tails": (None, [_P, _I, _I, _I, _P]),
    "repro_join_pair": (_I, [_P, _I, _I, _P, _I, _P, _P, _P, _I, _I, _P, _P, _P, _I, _P, _I, _I]),
    "repro_sweep": (_I, [_P, _P, _I, _I, _I, _I, _I, _I, _P, _P]),
    "repro_prepare": (_I, [_P, _P, _I, _I, _P, _P, _I, _I, _I] + [_P] * 8
                      + [_I, _P, _P, _I, _P, _I, _P]),
}

#: Status returned by ``repro_sweep`` / ``repro_prepare`` when a CSR array
#: holds an offset or a neighbour id outside the graph.
CORRUPT = 3
#: Status returned by ``repro_prepare`` when the caller's scratch is too
#: small for the index; the sizes it needs are in its ``sizes`` output.
NEED = 4


def _cache_dir() -> Path:
    """Where compiled libraries live: the user cache dir's ``repro``."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "repro"


def _build(source: bytes) -> Path:
    """The library compiled from ``source``, building it when absent.

    The file name carries a hash of the source, flags and platform, so it
    is built once per content.  Concurrent builders each compile into
    their own temporary name and ``os.replace`` it into place, which is
    atomic: whichever lands last wins and a reader never sees a partial
    file.
    """
    tag = f"{sys.platform}-{platform.machine()}"
    digest = hashlib.sha256(source + " ".join(_CFLAGS).encode() + tag.encode()).hexdigest()[:16]
    target = _cache_dir() / f"_cfill-{digest}.so"
    if target.exists():
        return target
    compiler = shutil.which("cc")
    if compiler is None:
        raise OSError("no C compiler (cc) on PATH")
    target.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=target.parent, prefix=".build-") as scratch:
        src = Path(scratch) / _SOURCE
        src.write_bytes(source)
        built = Path(scratch) / target.name
        subprocess.run(
            [compiler, *_CFLAGS, "-o", str(built), str(src)],
            check=True, capture_output=True, timeout=120,
        )
        os.replace(built, target)
    return target


def _library():
    """The loaded C library, or ``None`` (built, loaded and logged once).

    Deliberately lock-free: a thread that arrives while another is still
    building sees ``None`` and runs the reference paths, whose outputs are
    identical, and a lock held over a build could be inherited locked by a
    process forked meanwhile.
    """
    if not _LIB["checked"]:
        _LIB["checked"] = True
        if os.environ.get("REPRO_NATIVE", "").strip().lower() == "off":
            logger.info("REPRO_NATIVE=off: compiled native tier disabled")
            return None
        try:
            source = resources.files("repro").joinpath("core").joinpath(_SOURCE).read_bytes()
            lib = ctypes.CDLL(str(_build(source)))
            for name, (restype, argtypes) in _SIGNATURES.items():
                fn = getattr(lib, name)
                fn.restype = restype
                fn.argtypes = argtypes
            _LIB["lib"] = lib
        except (OSError, subprocess.SubprocessError) as exc:
            logger.warning("compiled native tier unavailable (%s); using the Python kernels", exc)
    return _LIB["lib"]


def jit_ready() -> bool:
    """``True`` when the compiled C library is loaded (built on first call)."""
    return _library() is not None


def int64_ready(*arrays) -> bool:
    """``True`` when every array is a C-contiguous native int64 ndarray,
    i.e. when the C loops may take its raw pointer."""
    return all(
        isinstance(a, np.ndarray) and a.dtype == np.int64 and a.flags.c_contiguous
        for a in arrays
    )


class ThreadScratch:
    """Per-thread scratch objects, lent to one call at a time.

    :meth:`take` hands the calling thread its idle scratch (``factory()``
    the first time) and :meth:`give` returns it.  Scratch is never shared
    between threads, and a nested call on the same thread (a callback that
    runs another query) finds none idle and gets a fresh one, so no two
    live calls ever write the same buffers.  A scratch holds only its own
    buffers and their pointers, never a graph's.
    """

    def __init__(self, factory) -> None:
        self._factory = factory
        self._local = threading.local()

    def take(self):
        held = getattr(self._local, "idle", None)
        if held is None:
            return self._factory()
        self._local.idle = None
        return held

    def give(self, scratch) -> None:
        self._local.idle = scratch
