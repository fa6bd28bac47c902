"""Test-only oracle: the dict-bucket batch peel of Algorithm 1.

This is the pre-CSR production peel, kept verbatim so the flat-array
kernel :func:`repro.graphs.csr.peel_layers` (shell layers and deletion
order included) is compared against an implementation that walks the
adjacency-set :class:`~repro.graphs.graph.Graph` and never touches the
CSR view; it carries its own label-keyed copy of the anchor
effective-coreness rule, so it shares no code with production.
Coreness alone is checked against the independent heap peel in
:mod:`repro.verify.reference`, which does not produce layers.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.decomposition import CoreDecomposition, ShellLayer, _sort_key
from repro.graphs.graph import Graph, Vertex


def dict_batch_peel(
    graph: Graph, anchor_set: frozenset[Vertex]
) -> tuple[dict[Vertex, int], dict[Vertex, ShellLayer], list[Vertex]]:
    """The dict-bucket batch peel (pre-CSR implementation).

    Returns non-anchor coreness, shell layers, and deletion order;
    callers append the anchor epilogue.
    """
    coreness: dict[Vertex, int] = {}
    shell_layer: dict[Vertex, ShellLayer] = {}
    order: list[Vertex] = []

    degree: dict[Vertex, int] = {
        u: graph.degree(u) for u in graph.vertices() if u not in anchor_set
    }
    # Vertices bucketed by *current* degree; round k consumes bucket k-1
    # (survivors of round k-1 all have degree >= k-1).
    buckets: dict[int, set[Vertex]] = {}
    for u, d in degree.items():
        buckets.setdefault(d, set()).add(u)

    remaining = len(degree)
    alive = set(degree)
    k = 1
    while remaining > 0:
        frontier = sorted(buckets.pop(k - 1, ()), key=_sort_key)
        layer = 0
        while frontier:
            layer += 1
            for u in frontier:
                coreness[u] = k - 1
                shell_layer[u] = (k - 1, layer)
                order.append(u)
                alive.discard(u)
            remaining -= len(frontier)
            next_frontier: list[Vertex] = []
            for u in frontier:
                # next_frontier is deduplicated and sorted before use, so
                # the neighbor scan order below never reaches the output.
                for v in graph.neighbors(u):  # lint: order-ok resorted below
                    if v not in alive:
                        continue
                    dv = degree[v]
                    buckets[dv].discard(v)
                    degree[v] = dv - 1
                    buckets.setdefault(dv - 1, set()).add(v)
                    if dv - 1 == k - 1:
                        next_frontier.append(v)
            # A vertex may be decremented past the threshold by several
            # frontier neighbors; deduplicate while keeping determinism.
            frontier = sorted(set(next_frontier), key=_sort_key)
        k += 1

    return coreness, shell_layer, order


def effective_anchor_coreness(
    graph: Graph, anchor_set: frozenset[Vertex], coreness: dict[Vertex, int]
) -> None:
    """Assign each anchor the max coreness among its non-anchor neighbors."""
    for a in sorted(anchor_set, key=_sort_key):
        coreness[a] = max(
            (coreness[v] for v in graph.neighbors(a) if v not in anchor_set),
            default=0,
        )


def dict_peel_decomposition(
    graph: Graph, anchors: Iterable[Vertex] = ()
) -> CoreDecomposition:
    """End-to-end dict-path peel decomposition, anchors appended last."""
    anchor_set = frozenset(anchors)
    coreness, shell_layer, order = dict_batch_peel(graph, anchor_set)
    effective_anchor_coreness(graph, anchor_set, coreness)
    for a in sorted(anchor_set, key=_sort_key):
        shell_layer[a] = (coreness[a], 0)
        order.append(a)
    return CoreDecomposition(
        coreness=coreness, shell_layer=shell_layer, order=order, anchors=anchor_set
    )
