"""Independent reference implementations used as verification oracles.

These deliberately share no code with :mod:`repro.core.decomposition`:
the production path is the paper's batched frontier peel
(:func:`repro.graphs.csr.peel_layers` on the CSR view), while
:func:`reference_coreness` is a textbook lazy-heap min-degree peel over
the adjacency sets. Agreement between two structurally different
implementations is the point — a bug in shared machinery cannot cancel
out.
"""

from __future__ import annotations

import heapq

from repro.core.decomposition import _sort_key
from repro.graphs.graph import Graph, Vertex


def reference_coreness(
    graph: Graph, anchors: frozenset[Vertex] = frozenset()
) -> dict[Vertex, int]:
    """Coreness of every vertex by heap-based min-degree peeling.

    Anchors are never peeled (infinite degree) and receive the standard
    effective coreness: the maximum coreness among non-anchor
    neighbors, 0 if none.
    """
    degree: dict[Vertex, int] = {u: graph.degree(u) for u in graph.vertices()}
    alive: set[Vertex] = {u for u in graph.vertices() if u not in anchors}
    heap: list[tuple[int, object, Vertex]] = [
        (degree[u], _sort_key(u), u) for u in alive
    ]
    heapq.heapify(heap)
    coreness: dict[Vertex, int] = {}
    k = 0
    while heap:
        d, _, u = heapq.heappop(heap)
        if u not in alive or d != degree[u]:
            continue  # stale heap entry
        alive.discard(u)
        k = max(k, d)
        coreness[u] = k
        for v in graph.neighbors(u):  # lint: order-ok commutative decrements
            if v in alive:
                degree[v] -= 1
                heapq.heappush(heap, (degree[v], _sort_key(v), v))
    for a in sorted(anchors, key=_sort_key):
        coreness[a] = max(
            (coreness[v] for v in graph.neighbors(a) if v not in anchors),
            default=0,
        )
    return coreness


def reference_followers(
    graph: Graph,
    x: Vertex,
    anchors: frozenset[Vertex] = frozenset(),
    base: dict[Vertex, int] | None = None,
) -> set[Vertex]:
    """Followers of anchoring ``x`` by diffing two reference peels."""
    if base is None:
        base = reference_coreness(graph, anchors)
    after = reference_coreness(graph, anchors | {x})
    return {
        u
        for u in graph.vertices()
        if u != x and u not in anchors and after[u] > base[u]
    }


def reference_gain(
    graph: Graph,
    anchors: frozenset[Vertex],
    base: dict[Vertex, int] | None = None,
) -> int:
    """The coreness gain ``g(A, G)`` via reference peels only."""
    if base is None:
        base = reference_coreness(graph)
    anchored = reference_coreness(graph, anchors)
    return sum(
        anchored[u] - base[u] for u in graph.vertices() if u not in anchors
    )
