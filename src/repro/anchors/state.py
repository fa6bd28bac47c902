"""Bundled decomposition state for anchored-coreness algorithms.

The greedy algorithms repeatedly need, for the current graph + anchor
set: the peel decomposition (coreness + shell-layer pairs), the core
component tree, and the tree-classified adjacency structures. This
module bundles them into one object.

:meth:`AnchoredState.build` computes everything from scratch; the
greedy loops then keep the state current with
:func:`repro.anchors.incremental.apply_anchor`, the paper's local
subtree rebuild (Algorithm 3 lines 7–10), which re-peels only the
anchored vertex's core component and patches the per-id tables by edge
deltas (DESIGN.md §6). The adjacency structures (``tca``/``sn``/``pn``)
and the follower-search support tables live once, in the per-id
:class:`~repro.anchors.kernels.flat_backend.FlatTables` (nodes named by
CSR id); the label-keyed accessors below are views over them.
:class:`~repro.core.tree.TreeAdjacency` builds the same structures
label-keyed from scratch and serves as their oracle.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.anchors.kernels.flat_backend import FlatTables
from repro.core.decomposition import CoreDecomposition, peel_decomposition
from repro.core.tree import CoreComponentTree, NodeId
from repro.graphs.csr import csr_view
from repro.graphs.graph import Graph, Vertex


class AnchoredState:
    """Graph + anchors + every derived structure the algorithms need.

    Attributes:
        graph: the underlying (never-mutated) graph.
        anchors: the current anchor set.
        decomposition: peel decomposition with shell-layer pairs,
            computed with ``anchors`` treated as infinite-degree.
        tree: the core component tree of the anchored decomposition.
        tables: the per-id ``tca`` / ``sn`` / ``pn`` rows and support
            tables over the graph's interned CSR ids.
    """

    __slots__ = ("graph", "anchors", "decomposition", "tree", "tables")

    def __init__(
        self,
        graph: Graph,
        anchors: frozenset[Vertex],
        decomposition: CoreDecomposition,
        tree: CoreComponentTree,
    ) -> None:
        self.graph = graph
        self.anchors = anchors
        self.decomposition = decomposition
        self.tree = tree
        self.tables = FlatTables(csr_view(graph), decomposition, tree)

    @classmethod
    def build(cls, graph: Graph, anchors: Iterable[Vertex] = ()) -> "AnchoredState":
        """Compute all derived structures for ``graph`` with ``anchors``."""
        anchor_set = frozenset(anchors)
        decomposition = peel_decomposition(graph, anchor_set)
        tree = CoreComponentTree.build(graph, decomposition)
        return cls(graph, anchor_set, decomposition, tree)

    def with_anchor(self, x: Vertex) -> "AnchoredState":
        """A fresh state with ``x`` added to the anchor set."""
        return AnchoredState.build(self.graph, self.anchors | {x})

    # ------------------------------------------------------------------
    # Convenience accessors used heavily by the algorithms
    # ------------------------------------------------------------------
    def coreness(self, u: Vertex) -> int:
        """``c^A(u)`` under the current anchors."""
        return self.decomposition.coreness[u]

    def pair(self, u: Vertex) -> tuple[int, int]:
        """The shell-layer pair ``P(u)``."""
        return self.decomposition.shell_layer[u]

    def node_id(self, u: Vertex) -> NodeId:
        """``i_u = T[u].I``."""
        return self.tree.node_of[u].node_id

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
