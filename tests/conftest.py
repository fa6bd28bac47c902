"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from repro.graphs.generators import gnm_random_graph, powerlaw_social_graph
from repro.graphs.graph import Graph


def _probe_shared_memory(size: int = 1 << 16) -> str | None:
    """Why POSIX shared memory is unusable on this host, or ``None``.

    Creates, writes, and unlinks a small segment once at collection
    time so shm-dependent tests skip with the real failure reason
    (missing ``/dev/shm``, undersized tmpfs, sandbox denial) instead
    of erroring mid-test.
    """
    try:
        from multiprocessing import shared_memory
    except ImportError as exc:  # pragma: no cover - stdlib module missing
        return f"multiprocessing.shared_memory unavailable: {exc}"
    block = None
    try:
        block = shared_memory.SharedMemory(create=True, size=size)
        block.buf[0] = 1
    except (OSError, ValueError) as exc:
        return f"POSIX shared memory unavailable or undersized: {exc}"
    finally:
        if block is not None:
            block.close()
            try:
                block.unlink()
            except OSError:  # pragma: no cover - already gone
                pass
    return None


#: ``None`` when POSIX shared memory works here, else the reason it doesn't.
SHM_UNAVAILABLE: str | None = _probe_shared_memory()

#: Marker for tests that genuinely need a shared-memory segment (the
#: algorithms themselves fall back to serial when shm is missing).
needs_shm = pytest.mark.skipif(
    SHM_UNAVAILABLE is not None,
    reason=f"needs POSIX shared memory: {SHM_UNAVAILABLE}",
)


@pytest.fixture
def triangle() -> Graph:
    return Graph.from_edges([(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def path4() -> Graph:
    return Graph.from_edges([(0, 1), (1, 2), (2, 3)])


def pin_chunk_size(monkeypatch: pytest.MonkeyPatch, size: int) -> None:
    """Pin the candidate-scan pool's tasks per chunk (clamped to the dispatch)."""
    from repro.parallel.pool import CandidateScanPool

    monkeypatch.setattr(
        CandidateScanPool, "_chunk_tasks", lambda self, n: max(1, min(size, n))
    )


def small_random_graph(seed: int, n: int = 40, m: int = 90) -> Graph:
    """A deterministic small random graph for cross-validation tests."""
    if seed % 2 == 0:
        return gnm_random_graph(n, m, seed)
    return powerlaw_social_graph(n, 2 * m / n, seed)


@st.composite
def graph_strategy(draw, max_vertices: int = 24, max_extra_edges: int = 40):
    """Hypothesis strategy producing small connected-ish simple graphs.

    Builds a random spanning-ish backbone plus extra random edges so the
    generated graphs have interesting core structure (pure uniform edge
    sets are almost always 1-degenerate at this size).
    """
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    graph = Graph()
    for u in range(n):
        graph.add_vertex(u)
    # backbone: attach vertex i to a random earlier vertex
    for i in range(1, n):
        j = draw(st.integers(min_value=0, max_value=i - 1))
        graph.add_edge_if_absent(i, j)
    extra = draw(st.integers(min_value=0, max_value=max_extra_edges))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            graph.add_edge_if_absent(u, v)
    return graph


@st.composite
def graph_and_vertex(draw, max_vertices: int = 24):
    """A random graph plus one of its vertices (the candidate anchor)."""
    graph = draw(graph_strategy(max_vertices=max_vertices))
    x = draw(st.integers(min_value=0, max_value=graph.num_vertices - 1))
    return graph, x
