"""The asyncio TCP front end of ``repro serve`` and ``repro route``.

One :class:`QueryServer` exposes one backend behind ``asyncio.start_server``:
a :class:`~repro.server.service.QueryService` (``repro serve``, one graph)
or a :class:`~repro.server.router.ShardRouter` (``repro route``, a shard
fleet).  Every connection speaks the length-prefixed frame protocol of
:mod:`repro.server.protocol`; a connection may run any number of jobs
concurrently — their frames interleave on the wire (serialised per frame by
a connection lock) and clients demultiplex by job id.  Closing a connection
cancels its outstanding jobs.

The front end owns the connection loop, the per-connection job ids and the
frame dispatch; the backend answers through a small surface of its own:

* ``await open_job(submit, job_id)`` — parse one submit frame and start the
  job; returns ``(job, frames)``, ``frames`` an async iterator of the job's
  outgoing frames, already carrying ``job_id``.  Raises
  :class:`~repro.errors.ServiceOverloaded` to shed the job,
  ``ValueError`` / ``TypeError`` / :class:`~repro.errors.ReproError` for a
  malformed frame, anything else for a failed submit;
* ``await cancel(job)``;
* ``stats()`` — the ``stats`` frame's payload (a router's is awaitable: it
  probes its shards);
* ``identity`` — the backend's fields of a ``pong`` frame;
* ``banner(host, port)`` / ``SHUTDOWN_BANNER`` — the lines
  :func:`serve_forever` prints once bound and once shut down;
* ``await close()``.

Only a backend with an ``update`` method (the service, which holds a graph)
answers ``update`` frames; to any other they are an unknown message type.
:func:`job_frames` is the service's codec from job events to frames.
"""

from __future__ import annotations

import asyncio
import contextlib
import inspect
import itertools
import signal
from typing import AsyncIterator, Dict, Optional, Set

from repro._version import __version__
from repro.errors import ReproError, ServiceOverloaded
from repro.server.protocol import (
    DEFAULT_PORT,
    PROTOCOL_VERSION,
    FrameError,
    read_frame,
    render_result_paths,
    result_columns,
    write_frame,
)

__all__ = ["QueryServer", "serve_forever", "job_frames"]

#: Fault-injection site of every frame this server writes
#: (see :mod:`repro.testing.faults`).
_FRAME_SITE = "server.frame.out"


async def job_frames(job, job_id: str, columnar: bool) -> AsyncIterator[Dict[str, object]]:
    """The protocol frames of one :class:`~repro.server.service.ServiceJob`.

    One ``result`` frame per result event — its paths as raw columns for a
    ``columnar`` (version-4) submitter, else a JSON ``paths`` list — then
    the job's terminal frame.
    """
    async for event in job.events():
        kind = event[0]
        if kind == "result":
            _, position, result = event
            frame: Dict[str, object] = {
                "type": "result",
                "id": job_id,
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
                # v4 submitter: the result's own buffer goes out raw, no
                # per-path list or JSON token.
                columns = result_columns(result)
                if columns is not None:
                    frame["paths_data"], frame["paths_indptr"] = columns
            else:
                rendered = render_result_paths(result)
                if rendered is not None:
                    frame["paths"] = rendered
            yield frame
        elif kind in ("done", "overloaded"):
            # An ``overloaded`` job was admitted but shed before execution
            # (queue delay past the budget): its terminal frame is the same
            # typed reject a budget-exhausted submit gets.
            yield {"type": kind, "id": job_id, **event[1]}
        elif kind == "cancelled":
            yield {"type": "cancelled", "id": job_id, "delivered": event[1]}
        elif kind == "error":
            yield {"type": "error", "id": job_id, "error": event[1]}


class QueryServer:
    """TCP server streaming one backend's jobs over the frame protocol."""

    def __init__(
        self,
        service,
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
        jobs: Dict[str, object] = {}
        streams: Set[asyncio.Task] = set()
        try:
            while True:
                try:
                    message = await read_frame(reader)
                except FrameError as error:
                    with contextlib.suppress(ConnectionError):
                        await self._write(writer, lock, {"type": "error", "error": str(error)})
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
            # A vanished client must not keep its jobs burning workers (a
            # stream task cancelled before it started never cancels its job).
            for task in streams:
                task.cancel()
            await asyncio.gather(
                *streams,
                *(self.service.cancel(job) for job in jobs.values()),
                return_exceptions=True,
            )
            writer.close()
            with contextlib.suppress(ConnectionError, asyncio.CancelledError):
                await writer.wait_closed()

    @staticmethod
    async def _write(
        writer: asyncio.StreamWriter, lock: asyncio.Lock, frame: Dict[str, object]
    ) -> None:
        await write_frame(writer, frame, lock=lock, site=_FRAME_SITE)

    async def _dispatch(
        self,
        message: Dict[str, object],
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        jobs: Dict[str, object],
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
                await self.service.cancel(job)
        elif kind == "update" and hasattr(self.service, "update"):
            await self._write(writer, lock, await self.service.update(message))
        elif kind == "stats":
            stats = self.service.stats()
            if inspect.isawaitable(stats):
                stats = await stats
            await self._write(writer, lock, {"type": "stats", "stats": stats})
        elif kind == "ping":
            pong: Dict[str, object] = {
                "type": "pong",
                "protocol": PROTOCOL_VERSION,
                "server_version": __version__,
                **self.service.identity,
            }
            # Echo the client's clock sample verbatim: the round trip is
            # then measured entirely on the client's clock, no cross-host
            # clock agreement needed.
            if "t" in message:
                pong["t"] = message["t"]
            await self._write(writer, lock, pong)
        else:
            await self._write(
                writer, lock, {"type": "error", "error": f"unknown message type {kind!r}"}
            )

    async def _handle_submit(
        self,
        message: Dict[str, object],
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        jobs: Dict[str, object],
        streams: Set[asyncio.Task],
    ) -> None:
        client_id = str(message.get("id", f"anon-{next(self._anon_ids)}"))
        if client_id in jobs:
            # Overwriting an in-flight id would orphan the first job: it
            # could no longer be cancelled, burning workers past the
            # connection's lifetime.
            await self._write(
                writer,
                lock,
                {
                    "type": "error",
                    "id": client_id,
                    "error": f"job id {client_id!r} is already in flight",
                },
            )
            return
        try:
            job, frames = await self.service.open_job(message, client_id)
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
            await self._write(writer, lock, frame)
            return
        except (ValueError, TypeError, ReproError) as error:
            await self._write(writer, lock, {"type": "error", "id": client_id, "error": str(error)})
            return
        except Exception as error:  # noqa: BLE001 - e.g. shutting down
            await self._write(
                writer,
                lock,
                {"type": "error", "id": client_id, "error": f"submit failed: {error}"},
            )
            return
        jobs[client_id] = job

        def _forget(_task: asyncio.Task) -> None:
            streams.discard(_task)
            if jobs.get(client_id) is job:
                del jobs[client_id]

        task = asyncio.create_task(self._stream_job(client_id, job, frames, writer, lock))
        streams.add(task)
        task.add_done_callback(_forget)

    async def _stream_job(
        self,
        client_id: str,
        job,
        frames: AsyncIterator[Dict[str, object]],
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
    ) -> None:
        try:
            async for frame in frames:
                await self._write(writer, lock, frame)
        except (ConnectionError, asyncio.CancelledError):
            # The client went away (or the connection handler is tearing
            # down): stop the job, frames have nowhere to go.
            await self.service.cancel(job)
            raise
        except Exception as error:  # noqa: BLE001 - e.g. an unencodable frame
            # A dead stream task must not strand the client without a
            # terminal frame (it would await the job queue forever) or
            # leave the job burning workers.
            await self.service.cancel(job)
            with contextlib.suppress(Exception):
                await self._write(
                    writer,
                    lock,
                    {
                        "type": "error",
                        "id": client_id,
                        "error": f"stream failed: {type(error).__name__}: {error}",
                    },
                )


async def serve_forever(
    service,
    *,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    ready: Optional[asyncio.Event] = None,
) -> int:
    """Serve one backend until SIGINT/SIGTERM, then shut down cleanly.

    Prints the backend's banner (``serving on HOST:PORT …`` or ``routing on
    HOST:PORT …``, the CLI / CI handshake) once the socket is bound, sets
    ``ready`` if given, and returns 0 after both the listener and the
    backend released their resources.
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
    print(service.banner(server.host, server.port), flush=True)
    if ready is not None:
        ready.set()
    try:
        await stop.wait()
    finally:
        for signum in registered:
            loop.remove_signal_handler(signum)
        await server.close()
        await service.close()
    print(service.SHUTDOWN_BANNER, flush=True)
    return 0
