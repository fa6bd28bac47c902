"""Core decomposition with anchor support (Algorithm 1 of the paper).

Two implementations are provided:

* :func:`core_decomposition` — the O(m + n) Batagelj–Zaveršnik bucket
  algorithm, used when only coreness values are needed.
* :func:`peel_decomposition` — a faithful simulation of the paper's
  Algorithm 1 (batched min-degree peeling), which additionally yields the
  *shell-layer pair* ``P(u) = (k, i)`` of every vertex (Section 4.4) and
  the deletion (degeneracy) order. This costs the same asymptotically but
  with a larger constant, so the bucket algorithm is preferred when
  layers are not needed.

Anchored vertices are treated as having degree ``+inf``: they are never
deleted, so they remain in the k-core for every k and permanently support
their neighbors. Their *effective coreness* — used to place them in the
core component tree — is the maximum coreness among their neighbors
(see DESIGN.md §3).
"""

from __future__ import annotations

from collections.abc import Collection, Iterable
from dataclasses import dataclass, field

from repro import obs as _obs
from repro.errors import AnchorNotFoundError
from repro.graphs.csr import bucket_coreness, csr_view, peel_layers
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


def _effective_anchor_coreness(
    graph: Graph, anchors: Collection[Vertex], coreness: dict[Vertex, int]
) -> None:
    """Assign each anchor the max coreness among its *non-anchor* neighbors.

    Restricting to non-anchor neighbors makes the value order-independent
    (anchor-anchor chains would otherwise depend on assignment order) and
    locally computable (an anchor's placement never depends on another
    anchor's placement), which the in-place subtree rebuild relies on.
    """
    anchor_set = anchors if isinstance(anchors, (set, frozenset)) else set(anchors)
    # lint waivers: the docstring above proves per-anchor independence,
    # and the inner max-accumulation is commutative.
    for a in anchor_set:  # lint: order-ok per-anchor values are independent
        best = 0
        for v in graph.neighbors(a):  # lint: order-ok commutative max
            if v in anchor_set:
                continue
            c = coreness.get(v, 0)
            if c > best:
                best = c
        coreness[a] = best


def _require_anchors_present(graph: Graph, anchors: Collection[Vertex]) -> None:
    """Reject anchor sets naming vertices outside the graph.

    Raises:
        AnchorNotFoundError: listing every absent anchor, instead of the
            bare ``KeyError`` a deep neighbor lookup would produce.
    """
    missing = [a for a in anchors if a not in graph]
    if missing:
        raise AnchorNotFoundError(sorted(missing, key=_sort_key))


def core_decomposition(
    graph: Graph, anchors: Iterable[Vertex] = (), *, verify: bool | None = None
) -> CoreDecomposition:
    """Coreness of every vertex via the Batagelj–Zaveršnik bucket algorithm.

    Anchors are never deleted (degree treated as infinite). Runs in
    O(m + n) on the flat-array kernel over the graph's interned CSR view
    (see :mod:`repro.graphs.csr`). The returned decomposition has empty ``shell_layer`` and ``order``;
    use :func:`peel_decomposition` when those are needed. ``verify=True``
    force-enables the runtime invariant checks for this call (``None``
    defers to ``REPRO_VERIFY``).

    Raises:
        AnchorNotFoundError: if any anchor vertex is absent from the graph.
        GraphError: if the vertex labels are mutually unorderable.
    """
    anchor_set = frozenset(anchors)
    _require_anchors_present(graph, anchor_set)
    if graph.num_vertices == 0:
        return CoreDecomposition(coreness={}, anchors=anchor_set)

    with _obs.span("decomposition.bucket", n=graph.num_vertices):
        csr = csr_view(graph)
        anchor_ids = sorted(csr.index[a] for a in anchor_set)
        coreness = dict(zip(csr.labels, bucket_coreness(csr, anchor_ids)))
    # The bucket pass processes each non-anchor vertex exactly once.
    _obs.add(_obs.BUCKET_POPS, graph.num_vertices - len(anchor_set))

    _effective_anchor_coreness(graph, anchor_set, coreness)
    result = CoreDecomposition(coreness=coreness, anchors=anchor_set)
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
    _require_anchors_present(graph, anchor_set)

    with _obs.span("decomposition.peel", n=graph.num_vertices):
        csr = csr_view(graph)
        anchor_ids = sorted(csr.index[a] for a in anchor_set)
        core, layer_of, id_order = peel_layers(csr, anchor_ids)
        labels = csr.labels
        coreness: dict[Vertex, int] = {}
        shell_layer: dict[Vertex, ShellLayer] = {}
        order: list[Vertex] = []
        for i in id_order:
            u = labels[i]
            coreness[u] = core[i]
            shell_layer[u] = (core[i], layer_of[i])
            order.append(u)
    # The peel deletes each non-anchor vertex exactly once.
    _obs.add(_obs.PEEL_POPS, graph.num_vertices - len(anchor_set))

    _effective_anchor_coreness(graph, anchor_set, coreness)
    for a in sorted(anchor_set, key=_sort_key):
        shell_layer[a] = (coreness[a], 0)
        order.append(a)
    result = CoreDecomposition(
        coreness=coreness, shell_layer=shell_layer, order=order, anchors=anchor_set
    )
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
