"""The asyncio TCP front end: ``repro serve``.

One :class:`QueryServer` wraps one :class:`~repro.server.service.QueryService`
behind ``asyncio.start_server``.  Every connection speaks the
length-prefixed frame protocol of :mod:`repro.server.protocol`; a connection
may run any number of jobs concurrently — their frames interleave on the
wire (serialised per frame by a connection lock) and clients demultiplex by
job id.  Closing a connection cancels its outstanding jobs.

:func:`serve_forever` adds the process-level glue (signal handlers, clean
shutdown) used by the CLI.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import signal
from typing import Dict, List, Optional, Set, Tuple

from repro.core.listener import RunConfig
from repro.core.query import Query
from repro.errors import ReproError, ServiceOverloaded, VertexNotFoundError
from repro.server.protocol import (
    DEFAULT_PORT,
    FrameError,
    read_frame,
    render_result_paths,
    result_columns,
    sends_columns,
    write_frame,
)
from repro.server.service import QueryService, ServiceJob

__all__ = ["QueryServer", "serve_forever"]

#: Fault-injection site of every frame this server writes
#: (see :mod:`repro.testing.faults`).
_FRAME_SITE = "server.frame.out"


def _config_from_opts(opts: Dict[str, object]) -> RunConfig:
    """Build the per-job :class:`RunConfig` from a submit frame's options."""
    result_limit = opts.get("result_limit")
    time_limit = opts.get("time_limit_seconds")
    return RunConfig(
        store_paths=bool(opts.get("store_paths", True)),
        result_limit=None if result_limit is None else int(result_limit),
        time_limit_seconds=None if time_limit is None else float(time_limit),
        response_k=int(opts.get("response_k", 1000)),
    )


class QueryServer:
    """TCP server streaming query results over the frame protocol."""

    def __init__(
        self,
        service: QueryService,
        *,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[asyncio.Task] = set()
        #: Fallback ids for submits without one; monotonic, never reused
        #: (``len(jobs)`` would collide once an earlier job finished).
        self._anon_ids = itertools.count()

    async def start(self) -> None:
        """Bind and start accepting connections (``port=0`` picks a free one)."""
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        """Stop accepting connections, drop live ones, wait for the listener.

        Open connections are cancelled, not waited out: since Python 3.12.1
        ``Server.wait_closed()`` blocks until every connection handler
        returns, and a handler reads until its client hangs up — an idle
        client would stall shutdown forever.
        """
        if self._server is not None:
            self._server.close()
            for task in list(self._connections):
                task.cancel()
            if self._connections:
                await asyncio.gather(*self._connections, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "QueryServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- connection handling ------------------------------------------- #
    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._connections.add(asyncio.current_task())
        lock = asyncio.Lock()
        jobs: Dict[str, ServiceJob] = {}
        streams: Set[asyncio.Task] = set()
        try:
            while True:
                try:
                    message = await read_frame(reader)
                except FrameError as error:
                    with contextlib.suppress(ConnectionError):
                        await write_frame(
                            writer, {"type": "error", "error": str(error)}, lock=lock, site=_FRAME_SITE
                        )
                    break
                if message is None:
                    break
                await self._dispatch(message, writer, lock, jobs, streams)
        except ConnectionError:
            pass
        except asyncio.CancelledError:
            # Server shutdown cancelled this handler; fall through to the
            # cleanup below so wait_closed() can complete.
            pass
        finally:
            self._connections.discard(asyncio.current_task())
            # A vanished client must not keep its jobs burning workers.
            for job in jobs.values():
                job.cancel()
            for task in streams:
                task.cancel()
            if streams:
                await asyncio.gather(*streams, return_exceptions=True)
            writer.close()
            with contextlib.suppress(ConnectionError, asyncio.CancelledError):
                await writer.wait_closed()

    async def _dispatch(
        self,
        message: Dict[str, object],
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        jobs: Dict[str, ServiceJob],
        streams: Set[asyncio.Task],
    ) -> None:
        kind = message.get("type")
        if kind == "submit":
            await self._handle_submit(message, writer, lock, jobs, streams)
        elif kind == "cancel":
            # Cancellation is an idempotent, advisory request: a job that
            # already finished (its id left the map) needs no reply — the
            # client saw its terminal frame, and an error here would race
            # completion on every cancel.
            job = jobs.get(str(message.get("id")))
            if job is not None:
                job.cancel()
        elif kind == "update":
            await self._handle_update(message, writer, lock)
        elif kind == "stats":
            await write_frame(
                writer, {"type": "stats", "stats": self.service.stats()}, lock=lock, site=_FRAME_SITE
            )
        elif kind == "ping":
            from repro._version import __version__
            from repro.server.protocol import PROTOCOL_VERSION

            pong: Dict[str, object] = {
                "type": "pong",
                "protocol": PROTOCOL_VERSION,
                "server_version": __version__,
                "shard_id": self.service.shard_id,
            }
            # Echo the client's clock sample verbatim: the round trip is
            # then measured entirely on the client's clock, no cross-host
            # clock agreement needed.
            if "t" in message:
                pong["t"] = message["t"]
            await write_frame(writer, pong, lock=lock, site=_FRAME_SITE)
        else:
            await write_frame(
                writer,
                {"type": "error", "error": f"unknown message type {kind!r}"},
                lock=lock, site=_FRAME_SITE,
            )

    def _parse_edges(self, raw: object, external: bool, field: str) -> List[Tuple[int, int]]:
        """Parse one ``update`` frame's edge list into internal-id pairs."""
        if raw is None:
            return []
        if not isinstance(raw, list):
            raise ValueError(f"{field!r} must be a list of [u, v] pairs")
        graph = self.service.graph
        pairs: List[Tuple[int, int]] = []
        for entry in raw:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ValueError(f"malformed edge {entry!r}: expected [u, v]")
            u, v = entry
            if external:
                pairs.append((self._resolve_external(u), self._resolve_external(v)))
                continue
            u, v = int(u), int(v)
            for vertex in (u, v):
                if not 0 <= vertex < graph.num_vertices:
                    raise ValueError(
                        f"vertex {vertex} out of range (graph has "
                        f"{graph.num_vertices} vertices)"
                    )
            pairs.append((u, v))
        return pairs

    async def _handle_update(
        self,
        message: Dict[str, object],
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
    ) -> None:
        """Apply one edge batch and answer with an ``updated`` frame.

        The mutation itself is blocking (CSR rebuild, distance repair), so
        it runs on the default executor; the event loop keeps streaming
        in-flight jobs — which read their own pinned epoch — meanwhile.
        """
        client_id = message.get("id")
        external = bool(message.get("external", False))
        try:
            add = self._parse_edges(message.get("add"), external, "add")
            remove = self._parse_edges(message.get("remove"), external, "remove")
            loop = asyncio.get_running_loop()
            info = await loop.run_in_executor(
                None, lambda: self.service.mutate(add=add, remove=remove)
            )
        except (ValueError, TypeError, ReproError) as error:
            frame: Dict[str, object] = {"type": "error", "error": str(error)}
            if client_id is not None:
                frame["id"] = client_id
            await write_frame(writer, frame, lock=lock, site=_FRAME_SITE)
            return
        reply: Dict[str, object] = {"type": "updated", **info}
        if client_id is not None:
            reply["id"] = client_id
        await write_frame(writer, reply, lock=lock, site=_FRAME_SITE)

    def _resolve_external(self, value: object) -> int:
        """Map one external vertex id to its internal id.

        JSON (and remote clients without the graph at hand) cannot tell a
        numeric-string external id from an integer one, so both spellings
        are tried before giving up — the server is the only party that
        actually knows the id type.
        """
        graph = self.service.graph
        candidates = [value]
        if isinstance(value, int):
            candidates.append(str(value))
        elif isinstance(value, str):
            try:
                candidates.append(int(value))
            except ValueError:
                pass
        for candidate in candidates[:-1]:
            try:
                return graph.to_internal(candidate)
            except VertexNotFoundError:
                continue
        return graph.to_internal(candidates[-1])

    def _parse_queries(
        self, raw: object, external: bool
    ) -> List[Query]:
        if not isinstance(raw, list):
            raise ValueError("'queries' must be a list of [source, target, k] triples")
        graph = self.service.graph
        queries: List[Query] = []
        for entry in raw:
            if not isinstance(entry, (list, tuple)) or len(entry) != 3:
                raise ValueError(f"malformed query {entry!r}: expected [source, target, k]")
            source, target, k = entry
            k = int(k)
            if k < 1:
                raise ValueError(f"hop budget must be positive, got {k}")
            if external:
                queries.append(
                    Query(
                        self._resolve_external(source),
                        self._resolve_external(target),
                        k,
                    )
                )
                continue
            source, target = int(source), int(target)
            for vertex in (source, target):
                if not 0 <= vertex < graph.num_vertices:
                    raise ValueError(
                        f"vertex {vertex} out of range (graph has "
                        f"{graph.num_vertices} vertices)"
                    )
            queries.append(Query(source, target, k))
        return queries

    async def _handle_submit(
        self,
        message: Dict[str, object],
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        jobs: Dict[str, ServiceJob],
        streams: Set[asyncio.Task],
    ) -> None:
        client_id = str(message.get("id", f"anon-{next(self._anon_ids)}"))
        opts = message.get("opts") or {}
        if not isinstance(opts, dict):
            opts = {}
        external = bool(opts.get("external", False))
        columnar = sends_columns(message)
        if client_id in jobs:
            # Overwriting an in-flight id would orphan the first job: it
            # could no longer be cancelled, burning workers past the
            # connection's lifetime.
            await write_frame(
                writer,
                {
                    "type": "error",
                    "id": client_id,
                    "error": f"job id {client_id!r} is already in flight",
                },
                lock=lock, site=_FRAME_SITE,
            )
            return
        try:
            queries = self._parse_queries(message.get("queries"), external)
            config = _config_from_opts(opts)
        except (ValueError, TypeError, ReproError) as error:
            await write_frame(
                writer, {"type": "error", "id": client_id, "error": str(error)}, lock=lock, site=_FRAME_SITE
            )
            return
        try:
            job = await self.service.submit(queries, config)
        except ServiceOverloaded as error:
            frame: Dict[str, object] = {
                "type": "overloaded",
                "id": client_id,
                "retry_after_ms": round(error.retry_after * 1e3, 3),
            }
            if error.pending is not None:
                frame["pending"] = error.pending
            if error.limit is not None:
                frame["limit"] = error.limit
            await write_frame(writer, frame, lock=lock, site=_FRAME_SITE)
            return
        except Exception as error:  # noqa: BLE001 - e.g. service shutting down
            await write_frame(
                writer,
                {"type": "error", "id": client_id, "error": f"submit failed: {error}"},
                lock=lock, site=_FRAME_SITE,
            )
            return
        jobs[client_id] = job

        def _forget(_task: asyncio.Task) -> None:
            streams.discard(_task)
            if jobs.get(client_id) is job:
                del jobs[client_id]

        task = asyncio.create_task(
            self._stream_job(client_id, job, writer, lock, columnar)
        )
        streams.add(task)
        task.add_done_callback(_forget)

    async def _stream_job(
        self,
        client_id: str,
        job: ServiceJob,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        columnar: bool,
    ) -> None:
        try:
            async for event in job.events():
                kind = event[0]
                if kind == "result":
                    _, position, result = event
                    frame: Dict[str, object] = {
                        "type": "result",
                        "id": client_id,
                        "position": position,
                        "source": result.source,
                        "target": result.target,
                        "k": result.k,
                        "count": result.count,
                        "query_ms": round(result.query_millis, 3),
                        "plan": result.stats.plan,
                        "timed_out": result.stats.timed_out,
                        "bfs_cache_hit": result.stats.bfs_cache_hit,
                    }
                    if columnar:
                        # v4 submitter: the result's own buffer goes out
                        # raw, no per-path list or JSON token.
                        columns = result_columns(result)
                        if columns is not None:
                            frame["paths_data"], frame["paths_indptr"] = columns
                    else:
                        rendered = render_result_paths(result)
                        if rendered is not None:
                            frame["paths"] = rendered
                    await write_frame(writer, frame, lock=lock, site=_FRAME_SITE)
                elif kind == "done":
                    await write_frame(
                        writer, {"type": "done", "id": client_id, **event[1]}, lock=lock, site=_FRAME_SITE
                    )
                elif kind == "cancelled":
                    await write_frame(
                        writer,
                        {"type": "cancelled", "id": client_id, "delivered": event[1]},
                        lock=lock, site=_FRAME_SITE,
                    )
                elif kind == "overloaded":
                    # Admitted but shed before execution (queue delay past
                    # the budget): the job's terminal frame is the same
                    # typed reject a budget-exhausted submit gets.
                    await write_frame(
                        writer,
                        {"type": "overloaded", "id": client_id, **event[1]},
                        lock=lock, site=_FRAME_SITE,
                    )
                elif kind == "error":
                    await write_frame(
                        writer,
                        {"type": "error", "id": client_id, "error": event[1]},
                        lock=lock, site=_FRAME_SITE,
                    )
        except (ConnectionError, asyncio.CancelledError):
            # The client went away (or the connection handler is tearing
            # down): stop the job, frames have nowhere to go.
            job.cancel()
            raise
        except Exception as error:  # noqa: BLE001 - e.g. an unencodable frame
            # A dead stream task must not strand the client without a
            # terminal frame (it would await the job queue forever) or
            # leave the job burning workers.
            job.cancel()
            with contextlib.suppress(Exception):
                await write_frame(
                    writer,
                    {
                        "type": "error",
                        "id": client_id,
                        "error": f"stream failed: {type(error).__name__}: {error}",
                    },
                    lock=lock, site=_FRAME_SITE,
                )


async def serve_forever(
    service: QueryService,
    *,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    ready: Optional[asyncio.Event] = None,
) -> int:
    """Run a server until SIGINT/SIGTERM, then shut down cleanly.

    Prints one ``serving on HOST:PORT`` line once the socket is bound (the
    CLI / CI handshake), sets ``ready`` if given, and returns 0 after both
    the listener and the service released their resources.
    """
    server = QueryServer(service, host=host, port=port)
    await server.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    registered = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
            registered.append(signum)
        except (NotImplementedError, RuntimeError):  # pragma: no cover - non-Unix
            pass
    print(
        f"serving on {server.host}:{server.port} "
        f"({service.backend} backend, {service.workers} workers, "
        f"|V|={service.graph.num_vertices}, |E|={service.graph.num_edges})",
        flush=True,
    )
    if ready is not None:
        ready.set()
    try:
        await stop.wait()
    finally:
        for signum in registered:
            loop.remove_signal_handler(signum)
        await server.close()
        await service.close()
    print("shutdown complete", flush=True)
    return 0
