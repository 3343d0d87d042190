"""Shared helpers of the chaos suite (importable from every test module).

The suite runs every scenario that touches query execution against both
service backends — in-process threads and forked worker processes — unless
``REPRO_CHAOS_BACKENDS`` restricts the list (the CI matrix uses this to
give each backend its own job).
"""

from __future__ import annotations

import asyncio
import os
import time

from repro.core.algorithm import Algorithm
from repro.core.result import EnumerationStats, PathBuffer, QueryResult
from repro.server.client import QueryClient
from repro.server.server import QueryServer
from repro.server.service import QueryService


def _chaos_backends():
    backends = ["thread", "process"]
    requested = os.environ.get("REPRO_CHAOS_BACKENDS")
    if requested:
        wanted = [b.strip() for b in requested.split(",")]
        backends = [b for b in backends if b in wanted]
    return backends or ["thread"]


CHAOS_BACKENDS = _chaos_backends()


def backend_kwargs(backend: str) -> dict:
    """``QueryService`` worker arguments for one chaos backend."""
    if backend == "process":
        return {"processes": 2}
    return {"processes": 1, "threads": 2}


class SlowAlgorithm(Algorithm):
    """Fixed service time per query — makes capacity a known constant."""

    name = "SLOW"

    def __init__(self, delay: float = 0.04) -> None:
        self.delay = delay

    def run(self, graph, query, config=None):
        time.sleep(self.delay)
        return QueryResult(
            source=query.source, target=query.target, k=query.k,
            algorithm=self.name, count=1,
            paths=PathBuffer.from_paths([(query.source, query.target)]),
            stats=EnumerationStats(),
        )


def serve_scenario(graph, scenario, **service_kwargs):
    """Run ``scenario(client, server, service)`` against a fresh server."""

    async def runner():
        service = QueryService(graph, **service_kwargs)
        server = QueryServer(service, port=0)
        await server.start()
        try:
            client = await QueryClient.connect(port=server.port)
            async with client:
                return await scenario(client, server, service)
        finally:
            await server.close()
            await service.close()

    return asyncio.run(runner())
