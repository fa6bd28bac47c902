"""Core decomposition with anchor support (Algorithm 1 of the paper).

Both entry points run the paper's batched min-degree peel on the
graph's interned CSR view (:func:`repro.graphs.csr.peel_layers`, the
package's one coreness kernel):

* :func:`core_decomposition` — coreness only;
* :func:`peel_decomposition` — also the *shell-layer pair*
  ``P(u) = (k, i)`` of every vertex (Section 4.4) and the deletion
  (degeneracy) order.

Anchored vertices are treated as having degree ``+inf``: they are never
deleted, so they remain in the k-core for every k and permanently support
their neighbors. Their *effective coreness* — used to place them in the
core component tree — is the maximum coreness among their non-anchor
neighbors (:func:`repro.graphs.csr.effective_coreness`; DESIGN.md §3).

Every label-keyed result lists its vertices in ascending CSR id order
(= :func:`~repro.graphs.graph.vertex_sort_key` order), so no dict or
list depends on set iteration order.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Sequence
from dataclasses import dataclass, field

from repro import obs as _obs
from repro.errors import AnchorNotFoundError
from repro.graphs.csr import CSRGraph, csr_view, effective_coreness, peel_layers
from repro.graphs.graph import Graph, Vertex, vertex_sort_key
from repro.verify import enabled as _verify_enabled
from repro.verify import verification as _verification

ShellLayer = tuple[int, int]


@dataclass(frozen=True)
class CoreDecomposition:
    """The result of decomposing a graph, possibly with anchors.

    Attributes:
        coreness: coreness of every vertex; for anchors this is the
            *effective* coreness (max over neighbors, 0 if none).
        shell_layer: ``P(u) = (k, i)`` — vertex ``u`` is deleted in the
            ``i``-th batch of the ``k``-shell peel (1-based ``i``).
            Anchors get layer 0 in their effective shell, which sorts
            before every genuine member of that shell. Empty when
            produced by :func:`core_decomposition`.
        order: vertex deletion order (anchors, never deleted, appear at
            the end). Empty when produced by :func:`core_decomposition`.
        anchors: the anchor set the decomposition was computed with.
    """

    coreness: dict[Vertex, int]
    shell_layer: dict[Vertex, ShellLayer] = field(default_factory=dict)
    order: list[Vertex] = field(default_factory=list)
    anchors: frozenset[Vertex] = frozenset()

    @property
    def max_coreness(self) -> int:
        """``k_max``: the largest coreness over non-anchor vertices (0 if none)."""
        values = [c for u, c in self.coreness.items() if u not in self.anchors]
        return max(values, default=0)

    def k_core_members(self, k: int) -> set[Vertex]:
        """Vertices of the k-core: coreness >= k plus every anchor."""
        return {u for u, c in self.coreness.items() if c >= k or u in self.anchors}

    def shell(self, k: int) -> set[Vertex]:
        """The k-shell: non-anchor vertices with coreness exactly ``k``."""
        return {u for u, c in self.coreness.items() if c == k and u not in self.anchors}

    def layer_of(self, u: Vertex) -> int:
        """The layer index ``i`` of ``P(u) = (k, i)``."""
        return self.shell_layer[u][1]


def _require_anchors_present(graph: Graph, anchors: Collection[Vertex]) -> None:
    """Reject anchor sets naming vertices outside the graph.

    Raises:
        AnchorNotFoundError: listing every absent anchor, instead of the
            bare ``KeyError`` a deep neighbor lookup would produce.
    """
    missing = [a for a in anchors if a not in graph]
    if missing:
        raise AnchorNotFoundError(sorted(missing, key=_sort_key))


def _peel(
    graph: Graph, anchors: frozenset[Vertex]
) -> tuple[CSRGraph, list[int], list[int], list[int], bytearray]:
    """Algorithm 1 on CSR ids: the view, per-id coreness and shell
    layer, the deletion order and the per-id anchor flag.

    Anchors are never deleted: they are missing from the order, keep
    layer 0 and get their effective coreness.

    Raises:
        AnchorNotFoundError: if any anchor vertex is absent from the graph.
        GraphError: if the vertex labels are mutually unorderable.
    """
    _require_anchors_present(graph, anchors)
    with _obs.span("decomposition.peel", n=graph.num_vertices):
        csr = csr_view(graph)
        anchor_ids = sorted(csr.index[a] for a in anchors)
        core, layer, order = peel_layers(csr, anchor_ids)
    # The peel deletes each non-anchor vertex exactly once.
    _obs.add(_obs.PEEL_POPS, csr.num_vertices - len(anchor_ids))
    is_anchor = bytearray(csr.num_vertices)
    for a in anchor_ids:
        is_anchor[a] = 1
    rows = csr.rows()
    for a in anchor_ids:
        core[a] = effective_coreness(rows[a], core, is_anchor)
    return csr, core, layer, order, is_anchor


def _labelled(
    labels: Sequence[Vertex],
    anchors: frozenset[Vertex],
    core: Sequence[int],
    layer: Sequence[int] | None = None,
    order: Iterable[int] | None = None,
) -> CoreDecomposition:
    """The label-keyed :class:`CoreDecomposition` of per-id values.

    The dicts list ``labels`` in ascending id order; ``shell_layer`` is
    filled only with ``layer``. ``order`` holds deletion-order ids, and
    the anchors are appended to it in ascending order.
    """
    coreness = dict(zip(labels, core))
    if layer is None:
        return CoreDecomposition(coreness=coreness, anchors=anchors)
    return CoreDecomposition(
        coreness=coreness,
        shell_layer=dict(zip(labels, zip(core, layer))),
        order=[]
        if order is None
        else [labels[i] for i in order] + sorted(anchors, key=_sort_key),
        anchors=anchors,
    )


def core_decomposition(
    graph: Graph, anchors: Iterable[Vertex] = (), *, verify: bool | None = None
) -> CoreDecomposition:
    """Coreness of every vertex (Algorithm 1), anchors never deleted.

    Runs the batch peel over the graph's interned CSR view (see
    :mod:`repro.graphs.csr`). The returned decomposition has empty
    ``shell_layer`` and ``order``; use :func:`peel_decomposition` when
    those are needed. ``verify=True`` force-enables the runtime
    invariant checks for this call (``None`` defers to
    ``REPRO_VERIFY``).

    Raises:
        AnchorNotFoundError: if any anchor vertex is absent from the graph.
        GraphError: if the vertex labels are mutually unorderable.
    """
    anchor_set = frozenset(anchors)
    csr, core, _, _, _ = _peel(graph, anchor_set)
    result = _labelled(csr.labels, anchor_set, core)
    with _verification(verify):
        if _verify_enabled():
            from repro.verify.invariants import verify_decomposition

            verify_decomposition(graph, anchor_set, result)
    return result


def peel_decomposition(
    graph: Graph, anchors: Iterable[Vertex] = (), *, verify: bool | None = None
) -> CoreDecomposition:
    """Algorithm 1 peeling with shell layers and deletion order.

    Simulates the paper's CoreDecomp: for k = 1, 2, ... repeatedly delete
    *batches* of vertices with degree < k. Each vertex's shell-layer pair
    ``P(u) = (c(u), i)`` records the 1-based batch ``i`` within its shell
    in which it was deleted — the ordering that drives upstair paths
    (Definition 4.12) and the follower search (Algorithm 4).
    ``verify=True`` force-enables the runtime invariant checks for this
    call (``None`` defers to ``REPRO_VERIFY``).

    Raises:
        AnchorNotFoundError: if any anchor vertex is absent from the graph.
        GraphError: if the vertex labels are mutually unorderable.
    """
    anchor_set = frozenset(anchors)
    csr, core, layer, order, _ = _peel(graph, anchor_set)
    result = _labelled(csr.labels, anchor_set, core, layer, order)
    with _verification(verify):
        if _verify_enabled():
            from repro.verify.invariants import (
                verify_decomposition,
                verify_shell_layers,
            )

            verify_decomposition(graph, anchor_set, result)
            verify_shell_layers(graph, result)
    return result


# The package-wide deterministic vertex ordering key; re-exported here
# because every order-sensitive module historically imports it from this
# module (the canonical definition lives with the Graph substrate).
_sort_key = vertex_sort_key


def k_core(graph: Graph, k: int, anchors: Iterable[Vertex] = ()) -> Graph:
    """The k-core of ``graph`` as an induced subgraph (anchors always kept)."""
    decomposition = core_decomposition(graph, anchors)
    return graph.subgraph(decomposition.k_core_members(k))


def degeneracy(graph: Graph) -> int:
    """The degeneracy of the graph (= maximum coreness, ``k_max``)."""
    return core_decomposition(graph).max_coreness


def coreness_gain(
    graph: Graph,
    anchors: Collection[Vertex],
    base: CoreDecomposition | None = None,
) -> int:
    """The coreness gain ``g(A, G)`` of Definition 2.4.

    Sum over non-anchor vertices of the coreness increase caused by
    anchoring ``anchors``. ``base`` may carry a precomputed decomposition
    of the unanchored graph to avoid recomputing it.
    """
    if base is None:
        base = core_decomposition(graph)
    anchored = core_decomposition(graph, anchors)
    anchor_set = set(anchors)
    return sum(
        anchored.coreness[u] - base.coreness[u]
        for u in graph.vertices()
        if u not in anchor_set
    )
