"""The wire format of the query service: length-prefixed frames.

Every message — in both directions — is one *frame*: a 4-byte big-endian
unsigned length followed by that many bytes of body.  A body is UTF-8 JSON
encoding one object, except for the columnar ``result`` frame below.
Framing first keeps the protocol trivially incremental (a stream reader
never needs to re-scan for delimiters) and JSON keeps it inspectable with
``nc`` and a hexdump.  Every decoded frame carries a string ``type``.

Client → server messages (``type`` field):

``submit``
    ``{"type": "submit", "id": <client job id>, "queries": [[s, t, k], ...],
    "opts": {...}, "protocol"?: <submitter protocol version>}``.
    Recognised options: ``store_paths`` (bool, default
    true), ``result_limit`` (int), ``time_limit_seconds`` (float),
    ``response_k`` (int), ``external`` (bool — the query endpoints are
    external vertex ids, resolved server-side; results always carry
    internal ids).  Unknown options are ignored.  ``protocol`` announces
    the version of frames the submitter reads (absent ⇒ version 1); see
    *Columnar result frames* below.
``cancel``
    ``{"type": "cancel", "id": <job id>}``.
``update``
    ``{"type": "update", "id"?: <client request id>, "add": [[u, v], ...],
    "remove": [[u, v], ...], "external"?: bool}`` — apply one edge batch to
    the served graph (protocol version 3).  The batch publishes a new graph
    epoch atomically: jobs already streaming keep reading the epoch they
    started on, jobs submitted after the ``updated`` reply see every
    change.  ``external`` says the endpoint pairs are external vertex ids,
    translated server-side.
``stats``
    ``{"type": "stats"}`` — service statistics snapshot.
``ping``
    ``{"type": "ping", "protocol"?: <client protocol version>, "t"?: <opaque
    client clock>}`` — liveness probe; answered with ``pong``.  ``t`` is
    echoed back verbatim so the client can compute the round-trip latency
    from its own clock; ``protocol`` announces the client's protocol
    version for negotiation (absent ⇒ version 1).

Server → client messages:

``result``
    One completed query: ``{"type": "result", "id", "position", "source",
    "target", "k", "count", "paths", "query_ms", "plan", "timed_out",
    "bfs_cache_hit"}``, every vertex an internal id.  ``paths`` is omitted
    when path storage is off.  Results of one job stream as each
    query completes — a client sorting frames by ``position`` reconstructs
    workload order.  For a version-4 submitter the paths travel as raw
    columns instead (next section).
``done``
    Job completion: ``{"type": "done", "id", "queries", "total_paths",
    "wall_ms"}``.  Always the job's final frame.
``cancelled``
    ``{"type": "cancelled", "id", "delivered"}`` — terminal frame of a
    cancelled job.
``updated``
    Reply to ``update``: ``{"type": "updated", "id"?, "epoch", "added",
    "removed", "repair", "stats"}``.  ``epoch`` is the id of the snapshot
    new jobs run against; ``added`` / ``removed`` count the pairs that
    actually took effect; ``repair`` breaks down how the warm distance
    cache was fixed up (``repaired`` incrementally, ``recomputed`` from
    scratch, ``invalidated``); ``stats`` carries the live-graph counters.
``overloaded``
    ``{"type": "overloaded", "id", "retry_after_ms", "pending"?,
    "limit"?}`` — the server shed the job instead of admitting it
    (pending-work budget exhausted, or the queue delay budget elapsed
    before a drive slot came up).  Terminal for the job; ``retry_after_ms``
    is the server's own estimate of when capacity frees up, so a client
    backs off by at least that long before retrying.
``error``
    ``{"type": "error", "error": <message>, "id"?}`` — malformed input or a
    failed job; terminal when ``id`` is present.
``stats`` / ``pong``
    Responses to the matching requests.  A ``pong`` carries ``protocol``
    (the server's :data:`PROTOCOL_VERSION`), ``server_version`` (the repro
    package version), ``shard_id`` (when the server was started as one
    shard of a routed deployment) and the echoed ``t``; a ``stats`` reply's
    payload likewise includes ``shard_id``, ``server_version`` and
    ``protocol`` so a router can report per-shard health.

Columnar result frames (protocol version 4)
-------------------------------------------

A ``result`` frame for a version-4 submitter carries the result's
:class:`~repro.core.result.PathBuffer` columns raw instead of a JSON
``paths`` list.  Its body is::

    0x01                      marker (a JSON body starts with "{")
    u32 big-endian            header length H
    H bytes of UTF-8 JSON     every field of the JSON ``result`` frame except
                              ``paths``, plus ``paths_dtype`` ("int32" or
                              "int64"), ``paths_count`` (P) and
                              ``paths_vertices`` (V)
    V little-endian ints      ``paths_data``: every vertex of every path
    P + 1 little-endian ints  ``paths_indptr``: path ``i`` is
                              ``paths_data[indptr[i]:indptr[i + 1]]``

Both columns share ``paths_dtype``: int32 when every value fits
(:meth:`PathBuffer.wire_arrays <repro.core.result.PathBuffer.wire_arrays>`,
the rule pickling and the process workers' result segments use too), else
int64.  :func:`decode_frame` returns the header dict with ``paths_data`` /
``paths_indptr`` as read-only arrays over the frame's own bytes (the three layout fields are consumed), so nothing
per path exists between the server's enumeration loop and the client's
buffer-backed result; :func:`frame_paths` is the one reader of either
shape.

Negotiation is per job (:func:`sends_columns`): the server sends columns
whenever the submit frame announces ``protocol`` ≥ 4 and ``store_paths``
is on.  Every other submit — a raw ``nc``-style JSON submit with no
version included — gets the JSON ``paths`` list.  Every other frame type
stays JSON.  ``repro route`` relays its client's announced version to the
shards and writes the columns back out untouched.

Protocol versioning
-------------------

:data:`PROTOCOL_VERSION` is bumped whenever the frame vocabulary changes;
version 2 added the ``pong`` / ``stats`` identity fields above, version 3
the ``update`` / ``updated`` live-mutation pair, version 4 the columnar
``result`` frame.  Servers
stay backward compatible down to :data:`MIN_SUPPORTED_PROTOCOL`, and
negotiation is pull-based: a client pings, reads the server's ``protocol``
(a missing field means a version-1 server) and decides with
:func:`negotiate_protocol` whether it can speak to it.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import struct
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.result import PathBuffer
from repro.testing import faults

__all__ = [
    "DEFAULT_PORT",
    "DEFAULT_ROUTER_PORT",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "MIN_SUPPORTED_PROTOCOL",
    "FrameError",
    "ProtocolMismatch",
    "negotiate_protocol",
    "encode_frame",
    "decode_frame",
    "read_frame",
    "write_frame",
    "render_result_paths",
    "result_columns",
    "sends_columns",
    "submit_queries",
    "submit_options",
    "frame_paths",
]

#: Default TCP port of ``repro serve`` (unassigned range, PATH on a phone pad).
DEFAULT_PORT = 7284

#: Default TCP port of ``repro route`` (one above the serve port, so a
#: single-host demo topology needs no flags).
DEFAULT_ROUTER_PORT = 7285

#: Version of the frame vocabulary this build speaks.  2 added ``protocol``
#: / ``server_version`` / ``shard_id`` to ``pong`` and ``stats`` replies and
#: the ``t`` echo on ``ping``; 3 added the ``update`` / ``updated`` pair
#: for live edge-batch mutation; 4 added columnar ``result`` frames for
#: submitters that announce it.
PROTOCOL_VERSION = 4

#: First submitter version that reads columnar ``result`` frames.
COLUMNAR_PROTOCOL = 4

#: Oldest peer protocol version this build can still talk to.  Version-1
#: peers simply lack the identity fields — every frame they do send is
#: understood — so the floor stays at 1 until a breaking change.
MIN_SUPPORTED_PROTOCOL = 1

#: Upper bound on one frame's body.  Generous — a frame carries at most
#: one query's paths — but finite, so a corrupt length prefix cannot make the
#: reader allocate gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")

#: First byte of a columnar body; a JSON object body starts with ``{``.
_COLUMNAR = b"\x01"
_COLUMNS = ("paths_data", "paths_indptr")
_LAYOUT = ("paths_dtype", "paths_count", "paths_vertices")
_WIRE_DTYPES = {"int32": np.dtype("<i4"), "int64": np.dtype("<i8")}


class FrameError(ValueError):
    """A malformed frame: oversized, truncated or undecodable."""


class ProtocolMismatch(FrameError):
    """The peer speaks a protocol version outside our supported window."""


def negotiate_protocol(peer_version: Optional[object]) -> int:
    """Validate a peer's announced protocol version; returns it as an int.

    ``None`` (the field is absent from the peer's frame) means a version-1
    peer — the field itself arrived with version 2.  Raises
    :class:`ProtocolMismatch` when the peer is older than
    :data:`MIN_SUPPORTED_PROTOCOL` or newer than :data:`PROTOCOL_VERSION`
    (a newer peer may depend on frames this build does not emit).
    """
    version = 1 if peer_version is None else int(peer_version)
    if version < MIN_SUPPORTED_PROTOCOL or version > PROTOCOL_VERSION:
        raise ProtocolMismatch(
            f"peer speaks protocol {version}, supported range is "
            f"[{MIN_SUPPORTED_PROTOCOL}, {PROTOCOL_VERSION}]"
        )
    return version


def render_result_paths(result) -> Optional[List[List[int]]]:
    """The JSON shape of one result's paths: a list of vertex-id lists.

    Sliced straight out of the result's
    :attr:`~repro.core.result.QueryResult.path_buffer` — no per-path tuple
    is ever materialised between the enumeration loop and ``json.dumps``.
    Returns ``None`` when the result stored no paths.
    """
    buffer = result.path_buffer
    return None if buffer is None else buffer.to_lists()


def result_columns(result) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """One result's paths as wire columns ``(paths_data, paths_indptr)``.

    The columnar counterpart of :func:`render_result_paths`: the result's
    own buffer in its wire dtype.  ``None`` when the result stored no
    paths.
    """
    buffer = result.path_buffer
    return None if buffer is None else buffer.wire_arrays()


def sends_columns(submit: Dict[str, object]) -> bool:
    """Whether a job's ``result`` frames go out columnar (the v4 rule).

    True only when the submit frame announces ``protocol`` ≥
    :data:`COLUMNAR_PROTOCOL` and asks for stored paths; everything else
    keeps the JSON ``paths`` list.
    """
    version = submit.get("protocol")
    if not isinstance(version, int) or isinstance(version, bool):
        return False
    opts = submit.get("opts")
    opts = opts if isinstance(opts, dict) else {}
    return version >= COLUMNAR_PROTOCOL and bool(opts.get("store_paths", True))


def submit_queries(submit: Dict[str, object]) -> List[Tuple[object, object, int]]:
    """A submit frame's ``queries``, shape-checked: ``(source, target, k)``.

    Every entry must be a ``[source, target, k]`` triple with ``k`` ≥ 1;
    the endpoints pass through as sent (a server holding the graph checks
    or resolves them).  Raises :class:`ValueError` naming the first bad
    entry.
    """
    raw = submit.get("queries")
    if not isinstance(raw, list):
        raise ValueError("'queries' must be a list of [source, target, k] triples")
    queries: List[Tuple[object, object, int]] = []
    for entry in raw:
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ValueError(f"malformed query {entry!r}: expected [source, target, k]")
        source, target, k = entry
        k = int(k)
        if k < 1:
            raise ValueError(f"hop budget must be positive, got {k}")
        queries.append((source, target, k))
    return queries


def submit_options(submit: Dict[str, object]) -> Dict[str, object]:
    """A submit frame's recognised ``opts``, typed, with their defaults.

    The keys are :meth:`QueryClient.submit
    <repro.server.client.QueryClient.submit>`'s keywords, so a router
    forwards the dict as is.  Unknown options are dropped; a value of the
    wrong type raises :class:`ValueError` / :class:`TypeError`.
    """
    opts = submit.get("opts")
    opts = opts if isinstance(opts, dict) else {}
    limit = opts.get("result_limit")
    deadline = opts.get("time_limit_seconds")
    return {
        "store_paths": bool(opts.get("store_paths", True)),
        "result_limit": None if limit is None else int(limit),
        "time_limit_seconds": None if deadline is None else float(deadline),
        "response_k": int(opts.get("response_k", 1000)),
        "external": bool(opts.get("external", False)),
    }


def frame_paths(frame: Dict[str, object]) -> Optional[PathBuffer]:
    """The paths one ``result`` frame carries, as a :class:`PathBuffer`.

    A columnar frame yields a buffer over its decoded columns (no copy, no
    per-path object), a JSON frame one packed from its ``paths`` list; a
    frame without paths yields ``None``.
    """
    if "paths_data" in frame:
        return PathBuffer(frame["paths_data"], frame["paths_indptr"])
    raw = frame.get("paths")
    return None if raw is None else PathBuffer.from_paths(raw)


def encode_frame(message: Dict[str, object]) -> bytes:
    """Serialise one message to its on-wire bytes (length prefix included).

    A message holding ``paths_data`` / ``paths_indptr`` arrays is written
    as a columnar frame; every other message as JSON.
    """
    if "paths_data" in message:
        body = _encode_columnar(message)
    else:
        body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return _LENGTH.pack(len(body)) + body


def _encode_columnar(message: Dict[str, object]) -> bytes:
    data = np.asarray(message["paths_data"])
    indptr = np.asarray(message["paths_indptr"])
    dtype = np.promote_types(data.dtype, indptr.dtype)
    name = dtype.name
    if name not in _WIRE_DTYPES or data.ndim != 1 or indptr.ndim != 1 or len(indptr) == 0:
        raise FrameError(f"unencodable path columns ({data.dtype}, {indptr.dtype})")
    wire = _WIRE_DTYPES[name]
    header = {key: value for key, value in message.items() if key not in _COLUMNS}
    header["paths_dtype"] = name
    header["paths_count"] = len(indptr) - 1
    header["paths_vertices"] = len(data)
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return b"".join(
        (
            _COLUMNAR,
            _LENGTH.pack(len(head)),
            head,
            data.astype(wire, copy=False).tobytes(),
            indptr.astype(wire, copy=False).tobytes(),
        )
    )


def decode_frame(body: bytes) -> Dict[str, object]:
    """Decode one frame *body* (the bytes after the length prefix).

    Raises :class:`FrameError` — never another exception, never an
    allocation beyond the body — for anything that is not a well-formed
    JSON object or columnar frame with a string ``type``.
    """
    if body[:1] == _COLUMNAR:
        message = _decode_columnar(body)
    else:
        message = _decode_json(body)
    if not isinstance(message.get("type"), str):
        raise FrameError("frame has no string 'type'")
    return message


def _decode_json(body: bytes) -> Dict[str, object]:
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as error:
        raise FrameError(f"undecodable frame body: {error}") from None
    if not isinstance(message, dict):
        raise FrameError("frame body must encode a JSON object")
    return message


def _decode_columnar(body: bytes) -> Dict[str, object]:
    start = len(_COLUMNAR) + _LENGTH.size
    if len(body) < start:
        raise FrameError("columnar frame truncated inside its header length")
    (head_length,) = _LENGTH.unpack_from(body, len(_COLUMNAR))
    end = start + head_length
    if end > len(body):
        raise FrameError("columnar header overruns the frame body")
    header = _decode_json(body[start:end])
    name, count, vertices = (header.pop(key, None) for key in _LAYOUT)
    wire = _WIRE_DTYPES.get(name) if isinstance(name, str) else None
    if wire is None:
        raise FrameError(f"unknown paths_dtype {name!r}")
    for field, value in (("paths_count", count), ("paths_vertices", vertices)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise FrameError(f"{field} must be a non-negative integer, got {value!r}")
    if len(body) - end != (vertices + count + 1) * wire.itemsize:
        raise FrameError(
            f"{count} paths over {vertices} vertices do not fill the "
            f"{len(body) - end} column bytes"
        )
    data = np.frombuffer(body, dtype=wire, count=vertices, offset=end)
    indptr = np.frombuffer(
        body, dtype=wire, count=count + 1, offset=end + vertices * wire.itemsize
    )
    if indptr[0] != 0 or indptr[-1] != vertices:
        raise FrameError("paths_indptr must run from 0 to len(paths_data)")
    if count and bool((indptr[1:] < indptr[:-1]).any()):
        raise FrameError("paths_indptr decreases")
    if vertices and int(data.min()) < 0:
        raise FrameError("paths_data holds a negative vertex id")
    header["paths_data"] = data
    header["paths_indptr"] = indptr
    return header


async def read_frame(reader: asyncio.StreamReader) -> Optional[Dict[str, object]]:
    """Read one frame from ``reader``; ``None`` on a clean EOF.

    A connection closed mid-frame raises :class:`FrameError` — the peer
    vanished with bytes on the wire, which is worth distinguishing from a
    deliberate shutdown between frames.
    """
    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise FrameError("connection closed inside a frame length prefix") from None
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise FrameError("connection closed inside a frame body") from None
    return decode_frame(body)


async def write_frame(
    writer: asyncio.StreamWriter,
    message: Dict[str, object],
    *,
    lock: Optional[asyncio.Lock] = None,
    site: Optional[str] = None,
) -> None:
    """Write one frame and drain.

    ``lock`` serialises concurrent writers on one connection (a server
    streams several jobs to the same client); frames must never interleave
    on the wire.

    ``site`` names a :mod:`repro.testing.faults` injection site (servers
    pass ``"server.frame.out"``); when a fault plan is installed the frame
    may be dropped, delayed or truncated before hitting the wire.  The
    no-plan cost is one environment lookup.
    """
    data = encode_frame(message)
    if site is not None:
        fault = faults.hit(site, frame_type=str(message.get("type")))
        if fault is not None:
            if fault.op == "drop":
                return
            if fault.op == "delay":
                await asyncio.sleep(fault.delay_ms / 1e3)
            elif fault.op == "truncate":
                # Write a partial frame, then sever the connection: the peer
                # sees bytes on the wire followed by EOF mid-frame.
                async with (lock or asyncio.Lock()):
                    writer.write(data[: max(0, fault.keep_bytes)])
                    with contextlib.suppress(ConnectionError, OSError):
                        await writer.drain()
                    writer.close()
                raise ConnectionResetError("injected truncated frame")
    if lock is None:
        writer.write(data)
        await writer.drain()
        return
    async with lock:
        writer.write(data)
        await writer.drain()
