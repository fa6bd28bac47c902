"""The anchored state: a graph, its anchors, and the per-id tables.

Everything the greedy algorithms read for the current graph + anchor
set — coreness, shell-layer pairs, tree-node ids, the ``tca``/``sn``/
``pn`` rows and the follower support tables — lives once, in the per-id
:class:`~repro.anchors.kernels.flat_backend.FlatTables` over the
graph's interned CSR ids. :meth:`AnchoredState.build` computes it from
scratch on ids; :func:`repro.anchors.incremental.apply_anchor` (the
paper's local subtree rebuild, Algorithm 3 lines 7–10) keeps it current
with the same helpers, :func:`~repro.graphs.csr.effective_coreness` and
:func:`node_ids`, and edge-delta patches (DESIGN.md §6).

Labels enter only through the label views below, which read the
tables. The label-keyed ``peel_decomposition``, ``CoreComponentTree``
and ``TreeAdjacency`` build the same facts from scratch and are their
oracles.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.anchors.kernels.flat_backend import FlatTables
from repro.core.decomposition import CoreDecomposition, _labelled, _peel
from repro.core.tree import NodeId
from repro.errors import VertexNotFoundError
from repro.graphs.graph import Graph, Vertex
from repro.verify import enabled as _verify_enabled


class AnchoredState:
    """Graph + anchors + the per-id tables the algorithms read.

    Attributes:
        graph: the underlying (never-mutated) graph.
        anchors: the current anchor set.
        tables: per-id coreness, shell layer, anchor flag and tree node
            id, the ``tca`` / ``sn`` / ``pn`` rows and the follower
            support tables over the graph's interned CSR ids.
    """

    __slots__ = ("graph", "anchors", "tables")

    def __init__(
        self, graph: Graph, anchors: frozenset[Vertex], tables: FlatTables
    ) -> None:
        self.graph = graph
        self.anchors = anchors
        self.tables = tables

    @classmethod
    def build(cls, graph: Graph, anchors: Iterable[Vertex] = ()) -> "AnchoredState":
        """Compute the tables for ``graph`` with ``anchors`` from scratch.

        Raises:
            AnchorNotFoundError: if any anchor vertex is absent from the graph.
            GraphError: if the vertex labels are mutually unorderable.
        """
        anchor_set = frozenset(anchors)
        csr, core, layer, order, is_anchor = _peel(graph, anchor_set)
        rows = csr.rows()
        anchor_ids = sorted(csr.index[a] for a in anchor_set)
        members = [i for i in range(csr.num_vertices) if not is_anchor[i]]
        nid: "list[int | None]" = [None] * csr.num_vertices
        for i, node in node_ids(rows, members, core, anchor_ids).items():
            nid[i] = node
        state = cls(graph, anchor_set, FlatTables(csr, core, layer, is_anchor, nid))
        if _verify_enabled():
            from repro.verify import invariants

            decomposition = state.label_decomposition(order)
            invariants.verify_decomposition(graph, anchor_set, decomposition)
            invariants.verify_shell_layers(graph, decomposition)
        return state

    def with_anchor(self, x: Vertex) -> "AnchoredState":
        """A fresh state with ``x`` added to the anchor set."""
        return AnchoredState.build(self.graph, self.anchors | {x})

    def id_of(self, u: Vertex) -> int:
        """The CSR id of ``u``; :class:`VertexNotFoundError` if absent."""
        try:
            return self.tables.index[u]
        except KeyError:
            raise VertexNotFoundError(u) from None

    def label_decomposition(
        self, order: Iterable[int] | None = None
    ) -> CoreDecomposition:
        """A label-keyed copy of the tables' corenesses and pairs; the
        tables keep no deletion order, so ``order`` (ids) is optional."""
        t = self.tables
        return _labelled(t.labels, self.anchors, t.core, t.layer, order)

    # ------------------------------------------------------------------
    # Label views over the tables
    # ------------------------------------------------------------------
    def coreness(self, u: Vertex) -> int:
        """``c^A(u)`` under the current anchors."""
        t = self.tables
        return t.core[t.index[u]]

    def pair(self, u: Vertex) -> tuple[int, int]:
        """The shell-layer pair ``P(u)`` (anchors: layer 0)."""
        t = self.tables
        i = t.index[u]
        return t.core[i], t.layer[i]

    def node_id(self, u: Vertex) -> NodeId:
        """``i_u = T[u].I`` as a label (``None`` for an anchor)."""
        t = self.tables
        node = t.nid[t.index[u]]
        return None if node is None else t.labels[node]

    def sn(self, u: Vertex) -> set[NodeId]:
        """``sn(u)``: adjacent node ids with coreness >= ``c(u)``."""
        tables = self.tables
        return set(map(tables.labels.__getitem__, tables.sn_ids[tables.index[u]]))

    def pn(self, u: Vertex) -> set[NodeId]:
        """``pn(u)``: adjacent node ids with coreness < ``c(u)``."""
        tables = self.tables
        return set(map(tables.labels.__getitem__, tables.pn_ids[tables.index[u]]))

    def tca(self, u: Vertex) -> dict[NodeId, set[Vertex]]:
        """``tca[u]``: u's neighbors partitioned by their tree node."""
        tables = self.tables
        labels = tables.labels
        return {
            labels[nid]: {labels[j] for j in ids}
            for nid, ids in tables.tca_ids[tables.index[u]].items()
        }

    def candidates(self) -> list[Vertex]:
        """All non-anchor vertices (the anchor candidate pool)."""
        return [u for u in self.graph.vertices() if u not in self.anchors]


def node_ids(  # lint: obs-ok one union-find pass, timed by its callers' spans
    rows: Sequence[Sequence[int]],
    members: Sequence[int],
    core: Sequence[int],
    anchor_ids: Iterable[int],
) -> dict[int, int]:
    """``T[u].I`` for every member id ``u``: one union-find pass on ids.

    The core component tree's node partition without the tree: members
    join in descending coreness, each level's new components are nodes,
    and a node is named by its smallest member id (``members`` must be
    ascending). ``anchor_ids`` are connectors present at every level
    that join no node; a neighbor outside ``members`` and ``anchor_ids``
    is ignored, so the in-place anchoring passes one component.
    """
    n = len(rows)
    parent = list(range(n))
    size = [1] * n
    made = bytearray(n)

    def find(u: int) -> int:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    def join(u: int) -> None:
        # ``root`` stays u's current root across the row, so each edge
        # costs one find (of the neighbor, inlined), not two.
        root = find(u)
        for v in rows[u]:
            if made[v]:
                while parent[v] != v:
                    parent[v] = parent[parent[v]]
                    v = parent[v]
                if v != root:
                    if size[root] < size[v]:
                        root, v = v, root
                    parent[v] = root
                    size[root] += size[v]

    anchors = list(anchor_ids)
    for a in anchors:
        made[a] = 1
    for a in anchors:
        join(a)
    by_coreness: dict[int, list[int]] = {}
    for i in members:
        by_coreness.setdefault(core[i], []).append(i)
    node_of: dict[int, int] = {}
    for k in sorted(by_coreness, reverse=True):
        group = by_coreness[k]
        for u in group:
            made[u] = 1
        for u in group:  # every made id is an anchor or has coreness >= k
            join(u)
        first: dict[int, int] = {}
        for u in group:
            node_of[u] = first.setdefault(find(u), u)
    return node_of
