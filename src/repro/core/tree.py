"""The core component tree ``T`` (Section 4.1, Algorithm 2).

Every vertex belongs to exactly one tree node; the node ``TN`` carries
the vertices of coreness ``TN.K`` inside one (TN.K)-core component, and
the subtree rooted at ``TN`` spans that whole component (containment
property). ``TN.I`` — the smallest vertex id in ``TN.V`` — is the node's
identity, exactly as the paper uses it to key the ``tca``/``sn``/``pn``
structures and the cached follower sets ``F[x][id]``.

The paper builds the tree with a recursive DFS (Algorithm 2); we build
the identical tree bottom-up with a union-find pass over vertices in
descending coreness order, which avoids Python recursion limits on deep
core hierarchies and runs in near-linear time. The tree is label-keyed
public API and the oracle of the per-id tables the greedy round keeps
(:mod:`repro.anchors.state`), which never build it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.decomposition import CoreDecomposition, _sort_key
from repro.graphs.graph import Graph, Vertex

NodeId = Vertex  # a tree node is identified by its smallest vertex id


@dataclass(eq=False)
class TreeNode:
    """One node of the core component tree.

    Attributes:
        k: ``TN.K`` — the coreness shared by the node's vertices.
        vertices: ``TN.V`` — vertices of coreness ``k`` in this component.
        node_id: ``TN.I`` — the smallest vertex id in ``vertices``.
        parent: ``TN.P`` (None for roots).
        children: ``TN.C``.
    """

    k: int
    vertices: set[Vertex] = field(default_factory=set)
    node_id: NodeId = None
    parent: "TreeNode | None" = None
    children: list["TreeNode"] = field(default_factory=list)

    def subtree_vertices(self) -> set[Vertex]:
        """``CC(TN)``: all vertices of the (k)-core component this node roots."""
        result: set[Vertex] = set()
        stack = [self]
        while stack:
            node = stack.pop()
            result |= node.vertices
            stack.extend(node.children)
        return result

    def __repr__(self) -> str:
        return f"TreeNode(id={self.node_id!r}, k={self.k}, |V|={len(self.vertices)})"


class _UnionFind:
    """Dict-based union-find with path halving and union by size."""

    __slots__ = ("parent", "size")

    def __init__(self) -> None:
        self.parent: dict[Vertex, Vertex] = {}
        self.size: dict[Vertex, int] = {}

    def make(self, u: Vertex) -> None:
        if u not in self.parent:
            self.parent[u] = u
            self.size[u] = 1

    def find(self, u: Vertex) -> Vertex:
        parent = self.parent
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    def union(self, u: Vertex, v: Vertex) -> Vertex:
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            return ru
        if self.size[ru] < self.size[rv]:
            ru, rv = rv, ru
        self.parent[rv] = ru
        self.size[ru] += self.size[rv]
        return ru


class CoreComponentTree:
    """The forest of core component trees of a graph.

    Attributes:
        nodes: node id (``TN.I``) -> :class:`TreeNode`.
        node_of: vertex -> containing :class:`TreeNode` (``T[v]``).
        roots: the root node of each connected component.
    """

    def __init__(self) -> None:
        self.nodes: dict[NodeId, TreeNode] = {}
        self.node_of: dict[Vertex, TreeNode] = {}
        self.roots: list[TreeNode] = []

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, graph: Graph, decomposition: CoreDecomposition) -> "CoreComponentTree":
        """Build the tree from a graph and its (possibly anchored) decomposition.

        Anchored vertices are *not* members of any tree node: the
        follower machinery counts an anchored neighbor unconditionally
        (it supports every core level), so node membership would carry
        no information — and pinning an anchor to a node would force
        non-local tree surgery whenever a later anchoring changes its
        effective coreness. Anchors do however *connect*: they sit in
        every k-core, so two components joined only through an anchor
        are one component at every level (exactly the paper's Algorithm
        1 semantics, where anchors are never deleted).

        A label-keyed union-find (the per-id tables of
        :mod:`repro.anchors.state` name the same nodes with an id-only
        pass of their own; this build is their oracle). Grouping is
        order-free: node ids are canonicalized to the minimum member and
        children re-sorted after the build.
        """
        tree = cls()
        coreness = decomposition.coreness
        anchors = decomposition.anchors
        uf = _UnionFind()
        made = uf.parent  # an anchor, or a member of coreness >= the level

        def join(u: Vertex) -> None:
            for v in graph.neighbors(u):  # lint: order-ok union-find is order-free
                if v in made:
                    uf.union(u, v)

        # Anchors join up front as universal connectors (present at
        # every level); they never join a node's vertex set.
        for a in anchors:  # lint: order-ok union-find is order-free
            uf.make(a)
        for a in anchors:  # lint: order-ok union-find is order-free
            join(a)
        by_coreness: dict[int, list[Vertex]] = {}
        for u in graph.vertices():
            if u not in anchors:
                by_coreness.setdefault(coreness[u], []).append(u)

        current: dict[Vertex, TreeNode] = {}
        for k in sorted(by_coreness, reverse=True):
            group = by_coreness[k]
            for u in group:
                uf.make(u)
            for u in group:
                join(u)
            # Every component touched at this level gets a fresh node.
            new_nodes: dict[Vertex, TreeNode] = {}
            for u in group:
                root = uf.find(u)
                node = new_nodes.get(root)
                if node is None:
                    node = new_nodes[root] = TreeNode(k=k)
                node.vertices.add(u)
            # Re-parent old component nodes swallowed by the new level.
            survivors: dict[Vertex, TreeNode] = {}
            for old_root, node in current.items():
                root = uf.find(old_root)
                parent_node = new_nodes.get(root)
                if parent_node is None:
                    survivors[root] = node
                else:
                    node.parent = parent_node
                    parent_node.children.append(node)
            survivors.update(new_nodes)
            current = survivors

        cls._canonicalize(tree, list(current.values()))
        return tree

    @classmethod
    def _canonicalize(cls, tree: "CoreComponentTree", roots: list[TreeNode]) -> None:
        """Assign node ids, sort children, and index the finished forest."""
        for node in cls._iter_all(roots):
            node.node_id = min(node.vertices, key=_sort_key)
            node.children.sort(key=lambda c: _sort_key(c.node_id))
            tree.nodes[node.node_id] = node
            for u in node.vertices:
                tree.node_of[u] = node
        tree.roots = sorted(roots, key=lambda nd: _sort_key(nd.node_id))

    @staticmethod
    def _iter_all(roots) -> list[TreeNode]:
        result: list[TreeNode] = []
        stack = list(roots)
        while stack:
            node = stack.pop()
            result.append(node)
            stack.extend(node.children)
        return result

    # ------------------------------------------------------------------
    def all_nodes(self) -> list[TreeNode]:
        """Every tree node (arbitrary deterministic order)."""
        return [self.nodes[i] for i in sorted(self.nodes, key=_sort_key)]

    def node_id_of(self, u: Vertex) -> NodeId:
        """``i_u = T[u].I``."""
        return self.node_of[u].node_id

    def validate(self, graph: Graph, decomposition: CoreDecomposition) -> None:
        """Assert the structural invariants of Section 4.1 (for tests).

        Raises:
            AssertionError: if disjointness, containment, coverage, or
                coreness labelling is violated.
        """
        seen: set[Vertex] = set()
        for node in self.all_nodes():
            assert node.vertices, "tree node must be non-empty"
            assert not (node.vertices & seen), "tree nodes must be disjoint"
            seen |= node.vertices
            for u in node.vertices:
                assert u not in decomposition.anchors, "anchors are not placed"
                assert decomposition.coreness[u] == node.k, (
                    f"vertex {u!r} has coreness {decomposition.coreness[u]}, "
                    f"but sits in a k={node.k} node"
                )
            assert node.node_id == min(node.vertices, key=_sort_key)
            if node.parent is not None:
                assert node.parent.k < node.k, "parent coreness must be smaller"
                assert node in node.parent.children
        expected = set(graph.vertices()) - set(decomposition.anchors)
        assert seen == expected, "every non-anchor vertex must be assigned"
        # Containment: each subtree spans one connected component of its
        # k-core, where anchors act as connectors but not members.
        from repro.graphs.components import restricted_component

        for node in self.all_nodes():
            members = node.subtree_vertices()
            allowed = members | set(decomposition.anchors)
            start = next(iter(members))
            reach = restricted_component(allowed, start, graph.neighbors)
            assert members <= reach, f"subtree of {node!r} is not connected in its core"


class TreeAdjacency:
    """The ``tca`` / ``sn`` / ``pn`` structures of Definitions 4.2–4.4.

    For each vertex ``u``:

    * ``tca[u][id]`` — the set of ``u``'s neighbors lying in tree node ``id``;
    * ``sn[u]`` — ids of adjacent nodes whose coreness is >= ``c(u)``
      (the nodes that can contain followers of ``u``, Theorem 4.7);
    * ``pn[u]`` — ids of adjacent nodes with coreness < ``c(u)``.

    When ``anchors`` is given, the same adjacency pass also fills the
    follower-search support tables: ``fixed_support[u]`` counts anchored
    and deeper-shell neighbors, ``same_shell[u]`` lists the non-anchor
    same-coreness neighbors.

    This is the label-keyed, from-scratch oracle. The algorithms read
    the same structures from the per-id tables of an ``AnchoredState``
    (``repro.anchors.kernels.flat_backend.FlatTables``), which the
    in-place anchoring patches; the tests, ``repro.verify`` and the
    dict follower oracle compare against this build.
    """

    def __init__(
        self,
        graph: Graph,
        decomposition: CoreDecomposition,
        tree: CoreComponentTree,
        anchors: frozenset[Vertex] | None = None,
    ) -> None:
        self.tca: dict[Vertex, dict[NodeId, set[Vertex]]] = {}
        self.sn: dict[Vertex, set[NodeId]] = {}
        self.pn: dict[Vertex, set[NodeId]] = {}
        self.fixed_support: dict[Vertex, int] = {}
        self.same_shell: dict[Vertex, list[Vertex]] = {}
        track_support = anchors is not None
        coreness = decomposition.coreness
        anchor_set = decomposition.anchors
        node_of = tree.node_of
        for u in graph.vertices():
            cu = coreness[u]
            tca_u: dict[NodeId, set[Vertex]] = {}
            sn_u: set[NodeId] = set()
            pn_u: set[NodeId] = set()
            fixed = 0
            same: list[Vertex] = []
            # Canonical neighbor order keeps same_shell lists stable
            # across hash seeds (and equal to the per-id rows).
            for v in sorted(graph.neighbors(u), key=_sort_key):
                if v in anchor_set:
                    fixed += 1
                    continue
                cv = coreness[v]
                nid = node_of[v].node_id
                tca_u.setdefault(nid, set()).add(v)
                (sn_u if cv >= cu else pn_u).add(nid)
                if cv > cu:
                    fixed += 1
                elif cv == cu:
                    same.append(v)
            self.tca[u] = tca_u
            self.sn[u] = sn_u
            self.pn[u] = pn_u
            if track_support:
                self.fixed_support[u] = fixed
                self.same_shell[u] = same
