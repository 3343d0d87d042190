"""Async query serving: a long-lived TCP front end over the batch engine.

The paper's headline claim is *real-time* hop-constrained s-t path
enumeration; this package turns the engine into a service that can actually
be measured under open-loop concurrent traffic instead of one-shot CLI
batches:

* :mod:`repro.server.protocol` — the length-prefixed wire format
  (``submit`` / streamed ``result`` frames / ``done`` /
  ``cancel`` / ``stats``), JSON except for the columnar ``result`` frames
  that version-4 submitters read, versioned for fleet rollouts;
* :mod:`repro.server.service` — :class:`QueryService`, the asyncio-facing
  core: it owns a shared graph image, a warm reverse-BFS distance cache and
  a persistent worker pool (threads or processes) through
  :class:`~repro.core.engine.ExecutorCore`, and streams per-query results to
  submitted jobs as workers produce them;
* :mod:`repro.server.server` — :class:`QueryServer`, the one asyncio TCP
  front end: ``repro serve`` serves a :class:`QueryService` through it,
  ``repro route`` a :class:`ShardRouter`;
* :mod:`repro.server.client` — :class:`QueryClient` plus the open-loop
  load driver behind ``repro client``, with
  backoff-based reconnection (:class:`~repro.server.client.ReconnectPolicy`);
* :mod:`repro.server.router` — the distributed tier: :class:`ShardRouter`
  consistent-hashes queries by target across per-shard serve hosts, merges
  the streamed results back into workload order, and layers replica
  failover plus hedged requests on top.
"""

from repro.server.client import (
    LoadReport,
    Pong,
    QueryClient,
    ReconnectPolicy,
    open_loop_load,
    run_queries,
)
from repro.server.protocol import (
    DEFAULT_PORT,
    DEFAULT_ROUTER_PORT,
    MIN_SUPPORTED_PROTOCOL,
    PROTOCOL_VERSION,
    FrameError,
    MAX_FRAME_BYTES,
    ProtocolMismatch,
    decode_frame,
    encode_frame,
    negotiate_protocol,
    read_frame,
    write_frame,
)
from repro.server.router import (
    RouterJob,
    ShardChannel,
    ShardMap,
    ShardRouter,
    parse_address,
)
from repro.server.server import QueryServer, serve_forever
from repro.server.service import JobState, QueryService, ServiceJob

__all__ = [
    "DEFAULT_PORT",
    "DEFAULT_ROUTER_PORT",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "MIN_SUPPORTED_PROTOCOL",
    "FrameError",
    "ProtocolMismatch",
    "encode_frame",
    "decode_frame",
    "read_frame",
    "write_frame",
    "negotiate_protocol",
    "QueryService",
    "ServiceJob",
    "JobState",
    "QueryServer",
    "serve_forever",
    "QueryClient",
    "ReconnectPolicy",
    "Pong",
    "run_queries",
    "open_loop_load",
    "LoadReport",
    "parse_address",
    "ShardMap",
    "ShardChannel",
    "RouterJob",
    "ShardRouter",
]
