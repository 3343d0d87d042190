"""Measurement plumbing shared by every workload of the end-to-end benchmark.

Nothing here knows what a workload does: this module owns the statistics
(median / quartiles across windows), the span recorder of traced runs, the
result digest of the equivalence gate, server-process lifecycle and the
process-hygiene checks (children, ``/dev/shm`` segments, peak RSS).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent.parent
SRC_DIR = REPO_ROOT / "src"
#: Scratch space of a run (snapshots, server logs, span files).  Relative to
#: the working directory, which the driver sets to the checkout root.
WORK_DIR = Path(".bench_work")

SHM_DIR = Path("/dev/shm")


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def summarise(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count of one per-window statistic."""
    data = [float(v) for v in values]
    if len(data) >= 2:
        q1, _, q3 = statistics.quantiles(data, n=4, method="inclusive")
    else:
        q1 = q3 = data[0]
    return {"value": median(data), "q1": q1, "q3": q3, "windows": len(data), "series": data}


# --------------------------------------------------------------------- #
# spans (traced runs only)
# --------------------------------------------------------------------- #
class Tracer:
    """In-memory span recorder; written as JSON lines when the run ends.

    A span is ``(id, name, parent id, op id, start, end)``.  Spans nest by
    call order on one thread, so the parent is whatever span is open when a
    new one starts.  A disabled tracer hands out one shared no-op context
    manager, which is what the untraced end-to-end runs use.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[list] = []
        self._open: List[int] = []

    @contextmanager
    def _record(self, name: str, op: Optional[int]) -> Iterator[None]:
        span_id = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [span_id, name, parent, op, time.perf_counter(), None]
        self.spans.append(record)
        self._open.append(span_id)
        try:
            yield
        finally:
            record[5] = time.perf_counter()
            self._open.pop()

    def span(self, name: str, op: Optional[int] = None):
        return self._record(name, op) if self.enabled else _NO_SPAN

    def self_times(self) -> Dict[int, float]:
        """Seconds each span spent outside its child spans, by span id."""
        own = {s[0]: s[5] - s[4] for s in self.spans}
        for span_id, _, parent, _, start, end in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def mean_self_ms(self, name: str) -> float:
        """Mean self time of the spans called ``name``, in milliseconds."""
        own = self.self_times()
        picked = [own[s[0]] for s in self.spans if s[1] == name]
        return 1e3 * sum(picked) / len(picked) if picked else 0.0

    def write(self, path: Path) -> None:
        own = self.self_times()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, parent, op, start, end in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "parent": parent, "op": op,
                    "start": start, "end": end, "self_ms": own[span_id] * 1e3,
                }) + "\n")


class _NoSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


_NO_SPAN = _NoSpan()


# --------------------------------------------------------------------- #
# the equivalence gate
# --------------------------------------------------------------------- #
def result_digest(result) -> str:
    """SHA-256 over exactly the fields ``ResultStream.payload()`` carries.

    Two results have equal digests iff their ``payload_bytes()`` entries are
    byte-identical: endpoints, hop budget, count, plan, timeout flag and the
    ordered path sequence.  The paths are hashed in their columnar form
    (flat vertex column plus per-path lengths), so a million-path result is
    checked in milliseconds where rendering it through JSON takes seconds.
    Accepts a ``QueryResult`` (local or rebuilt from frames) or a
    ``RemoteResult`` of ``QueryClient.collect``.
    """
    stats = getattr(result, "stats", None)
    plan = stats.plan if stats is not None else result.plan
    timed_out = stats.timed_out if stats is not None else result.timed_out
    head = json.dumps(
        [int(result.source), int(result.target), int(result.k),
         int(result.count), plan, bool(timed_out)]
    ).encode("utf-8")
    digest = hashlib.sha256(head)
    buffer = getattr(result, "path_buffer", None)
    if buffer is not None:
        data, indptr = buffer.arrays()
        lengths = np.diff(indptr)
    elif result.paths is None:
        digest.update(b"no-paths")
        return digest.hexdigest()
    else:
        paths = result.paths
        lengths = np.fromiter((len(p) for p in paths), dtype=np.int64, count=len(paths))
        data = np.fromiter(
            itertools.chain.from_iterable(paths), dtype=np.int64, count=int(lengths.sum())
        )
    digest.update(np.ascontiguousarray(data, dtype=np.int64))  # hashed in place, no copy
    digest.update(np.ascontiguousarray(lengths, dtype=np.int64))
    return digest.hexdigest()


def count_mismatches(want: Sequence, got: Sequence) -> int:
    """How many results differ from their reference (``None`` = missing)."""
    return sum(
        1 for w, g in itertools.zip_longest(want, got)
        if w is None or g is None or result_digest(w) != result_digest(g)
    )


def sha256_json(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


def graph_digest(graph) -> str:
    """SHA-256 of the forward CSR (vertex count, row pointers, neighbours)."""
    indptr, indices = graph.out_csr()
    digest = hashlib.sha256(str(graph.num_vertices).encode("ascii"))
    digest.update(np.ascontiguousarray(indptr, dtype=np.int64))
    digest.update(np.ascontiguousarray(indices, dtype=np.int64))
    return digest.hexdigest()


# --------------------------------------------------------------------- #
# processes
# --------------------------------------------------------------------- #
class ServerProcess:
    """One ``repro serve`` / ``repro route`` child bound to a free port."""

    def __init__(self, arguments: Sequence[str], banner: str, label: str) -> None:
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR)
        self.label = label
        self._log = open(WORK_DIR / f"{label}.log", "w", encoding="utf-8")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", *arguments, "--port", "0"],
            stdout=subprocess.PIPE, stderr=self._log, text=True, env=env,
        )
        line = self.process.stdout.readline()
        match = re.search(banner + r" [\d.]+:(\d+)", line)
        if not match:
            self.process.kill()
            self.process.wait()
            self._log.close()
            raise RuntimeError(f"{label} failed to boot: {line!r}")
        self.port = int(match.group(1))

    def stop(self) -> int:
        """SIGTERM the child and wait; returns its exit code (0 = clean)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = self.process.wait()
        self.process.stdout.close()
        self._log.close()
        return code


def serve(dataset: str, threads: int, label: str, shard_id: Optional[int] = None) -> ServerProcess:
    arguments = ["serve", "--dataset", dataset, "--threads", str(threads)]
    if shard_id is not None:
        arguments += ["--shard-id", str(shard_id)]
    return ServerProcess(arguments, "serving on", label)


def route(shard_ports: Sequence[int], label: str) -> ServerProcess:
    arguments = ["route", "--no-hedge"]
    for port in shard_ports:
        arguments += ["--shard", f"127.0.0.1:{port}"]
    return ServerProcess(arguments, "routing on", label)


def _process_table() -> Dict[int, Tuple[int, float]]:
    """``pid -> (parent pid, peak RSS in MB)`` of every visible process."""
    table: Dict[int, Tuple[int, float]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            text = Path("/proc", entry, "status").read_text()
        except OSError:
            continue  # the process ended while we were listing
        parent = re.search(r"^PPid:\s+(\d+)", text, re.M)
        peak = re.search(r"^VmHWM:\s+(\d+) kB", text, re.M)
        state = re.search(r"^State:\s+(\S)", text, re.M)
        if parent is None or (state is not None and state.group(1) == "Z"):
            continue
        table[int(entry)] = (int(parent.group(1)), int(peak.group(1)) / 1024.0 if peak else 0.0)
    return table


def descendants(table: Optional[Dict[int, Tuple[int, float]]] = None) -> Dict[int, float]:
    """Live descendants of this process: ``pid -> peak RSS in MB``."""
    table = _process_table() if table is None else table
    found: Dict[int, float] = {}
    frontier = [os.getpid()]
    while frontier:
        parent = frontier.pop()
        for pid, (ppid, peak) in table.items():
            if ppid == parent and pid not in found:
                found[pid] = peak
                frontier.append(pid)
    return found


def stop_resource_tracker() -> None:
    """End the interpreter's ``multiprocessing.resource_tracker`` and wait.

    The tracker is spawned by the first shared-memory segment and ends only
    when the interpreter's end of its pipe closes, i.e. *after* this process
    has exited: whoever started the benchmark would find it still running
    (or a zombie, reparented to init).  Closing the pipe ourselves lets us
    wait for it.  A later segment would start a fresh tracker, so this is
    called once everything is closed.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def leftover_children() -> List[int]:
    """Descendants still alive (zombies excepted: they hold nothing)."""
    return sorted(descendants())


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of every live descendant, in MB."""
    table = _process_table()
    return table[os.getpid()][1] + sum(descendants(table).values())


def shm_segments() -> set:
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


def environment() -> Dict[str, object]:
    """Where the numbers were taken; printed and stored with every report."""
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    cores = os.cpu_count() or 1
    load = os.getloadavg()[0]
    return {
        "cpu_count": cores,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": has_numba,
        "load_avg_1m": round(load, 2),
        "overloaded": load > cores,
        "git_commit": commit,
        "machine": platform.machine(),
    }
