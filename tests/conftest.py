"""Shared pytest fixtures for the whole test suite."""

from __future__ import annotations

import time

import pytest

from repro._clib import jit_ready
from repro.core import result_segments
from repro.core.query import Query
from repro.graph.generators import erdos_renyi, grid_graph, power_law_graph

from tests.helpers import (
    PAPER_FIGURE5_G0_EDGES,
    PAPER_FIGURE5_G1_EDGES,
    build_graph,
    numpy_reference,
    paper_figure1_graph,
    result_segment_names,
    shared_memory_names,
)


@pytest.fixture(autouse=True)
def _no_leaked_result_segments():
    """Fail any test that leaves a shared-memory segment in ``/dev/shm``.

    Two kinds are checked: process-result segments and the
    ``multiprocessing.shared_memory`` (``psm_*``) segments holding shared
    graph images and packed distance caches.  A chunk's result segment
    lives from its worker's write until the parent's router thread maps (or
    discards) it, so a few may still be in flight when a test returns; they
    get five seconds to go.  Whatever is left is a leak: reported, then
    unlinked so the next test starts clean.  Segments a module-scoped
    fixture holds across tests predate every test's snapshot; such a
    fixture checks its own segments at teardown.
    """
    before = result_segment_names() | shared_memory_names()
    yield
    deadline = time.monotonic() + 5.0
    leaked = (result_segment_names() | shared_memory_names()) - before
    while leaked and time.monotonic() < deadline:
        time.sleep(0.05)
        leaked = (result_segment_names() | shared_memory_names()) - before
    if leaked:
        for name in leaked:
            result_segments._unlink(name)
        pytest.fail(f"shared-memory segments outlived the test: {sorted(leaked)}")


@pytest.fixture
def without_library():
    """Run the test as on a machine where the C library cannot load: every
    unconstrained query runs the kernel tier.  Reaches the calling thread,
    thread pools, in-process servers and process workers forked inside the
    test; ``REPRO_NATIVE=off`` covers every backend."""
    with numpy_reference():
        yield


@pytest.fixture(params=("compiled", "numpy"))
def tier(request):
    """Run the test on the compiled C sweep and index build, then on their
    NumPy reference (the compiled run is skipped without the library)."""
    if request.param == "numpy":
        with numpy_reference():
            yield request.param
        return
    if not jit_ready():
        pytest.skip("compiled C library not loaded (no cc, or REPRO_NATIVE=off)")
    yield request.param


@pytest.fixture(scope="session")
def paper_graph():
    """The paper's Figure 1 example graph."""
    return paper_figure1_graph()


@pytest.fixture(scope="session")
def paper_query(paper_graph):
    """The paper's example query q(s, t, 4) in internal ids."""
    return Query.from_external(paper_graph, "s", "t", 4)


@pytest.fixture(scope="session")
def figure5_g0():
    """Graph G0 of Figure 5 (every walk is a path)."""
    return build_graph(PAPER_FIGURE5_G0_EDGES)


@pytest.fixture(scope="session")
def figure5_g1():
    """Graph G1 of Figure 5 (most walks are not paths)."""
    return build_graph(PAPER_FIGURE5_G1_EDGES)


@pytest.fixture(scope="session")
def random_graph():
    """A moderately dense seeded random graph for cross-algorithm checks."""
    return erdos_renyi(80, 4.0, seed=42)


@pytest.fixture(scope="session")
def skewed_graph():
    """A power-law graph with heavy hubs (hard-query topology)."""
    return power_law_graph(150, 5.0, exponent=2.0, seed=7)


@pytest.fixture(scope="session")
def dag_grid():
    """A 4x5 directed grid: path counts are binomial coefficients."""
    return grid_graph(4, 5)
