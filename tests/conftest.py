"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import contextlib
import multiprocessing
from collections.abc import Iterator
from unittest import mock

import pytest
from hypothesis import strategies as st

from repro import obs
from repro.core.decomposition import CoreDecomposition, peel_decomposition
from repro.core.tree import CoreComponentTree
from repro.graphs.generators import gnm_random_graph, powerlaw_social_graph
from repro.graphs.graph import Graph


#: The parallel scan forks its workers from the live state; where the
#: platform has no ``fork`` the pool is unavailable and runs stay serial.
HAS_FORK: bool = "fork" in multiprocessing.get_all_start_methods()

#: Marker for tests that need the pool to actually run.
needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="the parallel scan needs the fork start method"
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


class Killed(Exception):
    """The simulated process death raised by :func:`kill_after_round`."""


@contextlib.contextmanager
def kill_after_round(n: int) -> Iterator[None]:
    """Die right after the ``n``-th round checkpoint is written.

    Wraps ``repro.checkpoint.commit`` (GAC and OLAK call it as a module
    attribute), calls through, and raises :class:`Killed` on the
    ``n``-th call, where a SIGKILL after the write would land. The count
    is of checkpoint commits, so a caller that means "round ``n``"
    checkpoints every round. A context manager rather than a fixture so
    a Hypothesis example can arm it afresh.
    """
    from repro import checkpoint

    commit = checkpoint.commit
    calls = 0

    def commit_then_die(*args, **kwargs):
        nonlocal calls
        commit(*args, **kwargs)
        calls += 1
        if calls == n:
            raise Killed(f"killed after round checkpoint {n}")

    with mock.patch.object(checkpoint, "commit", commit_then_die):
        yield


def small_random_graph(seed: int, n: int = 40, m: int = 90) -> Graph:
    """A deterministic small random graph for cross-validation tests."""
    if seed % 2 == 0:
        return gnm_random_graph(n, m, seed)
    return powerlaw_social_graph(n, 2 * m / n, seed)


def string_labeled(graph: Graph) -> Graph:
    """``graph`` with every vertex ``u`` renamed ``f"v{u}"``.

    Sorted interning then orders ``"v10"`` before ``"v2"``, so CSR ids
    and labels disagree: a test on this graph catches a label used
    where an id belongs (and back).
    """
    out = Graph()
    for u in sorted(graph.vertices()):
        out.add_vertex(f"v{u}")
    for u, v in graph.edges():
        out.add_edge(f"v{u}", f"v{v}")
    return out


def label_oracle(
    graph: Graph, anchors=()
) -> tuple[CoreDecomposition, CoreComponentTree]:
    """The from-scratch label-keyed peel and core component tree.

    What an :class:`~repro.anchors.state.AnchoredState` with ``anchors``
    must agree with; built with counters muted, so a test comparing
    counter windows can call it mid-window.
    """
    with obs.suspended():
        decomposition = peel_decomposition(graph, anchors)
        return decomposition, CoreComponentTree.build(graph, decomposition)


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
