"""An adjacency-set undirected simple graph.

This is the substrate every algorithm in the package runs on.  It is a
deliberately small, dependency-free structure: vertices are arbitrary
hashable objects (the datasets use consecutive integers), edges are
unweighted and undirected, and self-loops / parallel edges are rejected
because the k-core literature (and the paper) assumes simple graphs.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator

from repro.errors import EdgeNotFoundError, GraphError, VertexNotFoundError

Vertex = Hashable
Edge = tuple[Vertex, Vertex]


def vertex_sort_key(u: Vertex) -> tuple[str, object]:
    """Deterministic vertex ordering key (ints sort numerically, first).

    The canonical ordering every deterministic structure in the package
    uses: ``int`` labels compare numerically and sort before any other
    type; remaining labels group by type name and compare within the
    group. Mutually unorderable labels (e.g. ``complex``) raise
    ``TypeError`` when sorted, which the CSR interning treats as "no
    flat view available".
    """
    return ("", u) if isinstance(u, int) else (str(type(u)), u)


class Graph:
    """An undirected simple graph backed by per-vertex adjacency sets.

    Typical usage::

        g = Graph.from_edges([(1, 2), (2, 3), (1, 3)])
        g.degree(1)        # 2
        set(g.neighbors(2))  # {1, 3}
    """

    __slots__ = ("_adj", "_num_edges", "_version", "_csr_cache")

    def __init__(self, edges: Iterable[Edge] | None = None) -> None:
        self._adj: dict[Vertex, set[Vertex]] = {}
        self._num_edges: int = 0
        # Mutation counter + interned flat view, managed by
        # ``repro.graphs.csr.csr_view``: the cache is ``(version, view)``
        # and is discarded whenever ``_version`` moves past it.
        self._version: int = 0
        self._csr_cache: tuple[int, object] | None = None
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, edges: Iterable[Edge]) -> "Graph":
        """Build a graph from an iterable of ``(u, v)`` pairs."""
        return cls(edges)

    @classmethod
    def from_adjacency(cls, adjacency: dict[Vertex, Iterable[Vertex]]) -> "Graph":
        """Build a graph from a ``{vertex: neighbors}`` mapping.

        The mapping may list each edge once or twice; both are accepted.
        """
        graph = cls()
        for u in adjacency:
            graph.add_vertex(u)
        for u, neighbors in adjacency.items():
            for v in neighbors:
                if not graph.has_edge(u, v):
                    graph.add_edge(u, v)
        return graph

    def copy(self) -> "Graph":
        """Return an independent deep copy of the adjacency structure."""
        clone = Graph()
        clone._adj = {u: set(nbrs) for u, nbrs in self._adj.items()}
        clone._num_edges = self._num_edges
        return clone

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_vertex(self, u: Vertex) -> None:
        """Add an isolated vertex; a no-op if it already exists."""
        if u not in self._adj:
            self._adj[u] = set()
            self._version += 1

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add the undirected edge ``(u, v)``, creating endpoints as needed.

        Raises:
            GraphError: on self-loops or duplicate edges.
        """
        if u == v:
            raise GraphError(f"self-loop on vertex {u!r} is not allowed")
        self.add_vertex(u)
        self.add_vertex(v)
        if v in self._adj[u]:
            raise GraphError(f"edge ({u!r}, {v!r}) already exists")
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._num_edges += 1
        self._version += 1

    def add_edge_if_absent(self, u: Vertex, v: Vertex) -> bool:
        """Add edge ``(u, v)`` unless it exists or is a loop; report success.

        The generators call this once per sampled edge, so it does one
        adjacency lookup per endpoint. Vertex insertion order and
        ``_version`` increments match :meth:`add_edge`.
        """
        if u == v:
            return False
        adj = self._adj
        nbrs_u = adj.get(u)
        if nbrs_u is None:
            nbrs_u = adj[u] = set()
            self._version += 1
        elif v in nbrs_u:
            return False
        nbrs_v = adj.get(v)
        if nbrs_v is None:
            nbrs_v = adj[v] = set()
            self._version += 1
        nbrs_u.add(v)
        nbrs_v.add(u)
        self._num_edges += 1
        self._version += 1
        return True

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the undirected edge ``(u, v)``.

        Raises:
            EdgeNotFoundError: if the edge is not present.
        """
        if u not in self._adj or v not in self._adj[u]:
            raise EdgeNotFoundError(u, v)
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._num_edges -= 1
        self._version += 1

    def remove_vertex(self, u: Vertex) -> None:
        """Remove ``u`` and all its incident edges.

        Raises:
            VertexNotFoundError: if ``u`` is not present.
        """
        if u not in self._adj:
            raise VertexNotFoundError(u)
        for v in self._adj[u]:
            self._adj[v].discard(u)
        self._num_edges -= len(self._adj[u])
        del self._adj[u]
        self._version += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, u: Vertex) -> bool:
        return u in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._adj)

    @property
    def num_vertices(self) -> int:
        """Number of vertices (``n`` in the paper)."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of edges (``m`` in the paper)."""
        return self._num_edges

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over all vertices."""
        return iter(self._adj)

    def edges(self) -> Iterator[Edge]:
        """Iterate over each undirected edge exactly once."""
        seen: set[Vertex] = set()
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if v not in seen:
                    yield (u, v)
            seen.add(u)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Whether the undirected edge ``(u, v)`` is present."""
        return u in self._adj and v in self._adj[u]

    def neighbors(self, u: Vertex) -> set[Vertex]:
        """The neighbor set ``N(u, G)``.

        The returned set is the live internal set; callers must not
        mutate it. Copy it before mutating the graph while iterating.

        Raises:
            VertexNotFoundError: if ``u`` is not present.
        """
        try:
            return self._adj[u]
        except KeyError:
            raise VertexNotFoundError(u) from None

    def degree(self, u: Vertex) -> int:
        """The degree ``|N(u, G)|``.

        Raises:
            VertexNotFoundError: if ``u`` is not present.
        """
        return len(self.neighbors(u))

    def max_degree(self) -> int:
        """The maximum degree over all vertices (0 for an empty graph)."""
        if not self._adj:
            return 0
        return max(len(nbrs) for nbrs in self._adj.values())

    def average_degree(self) -> float:
        """The average degree ``2m / n`` (0.0 for an empty graph)."""
        if not self._adj:
            return 0.0
        return 2.0 * self._num_edges / len(self._adj)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, vertices: Iterable[Vertex]) -> "Graph":
        """The induced subgraph on ``vertices`` (unknown vertices ignored)."""
        keep = {u for u in vertices if u in self._adj}
        sub = Graph()
        for u in keep:
            sub.add_vertex(u)
        for u in keep:
            for v in self._adj[u]:
                if v in keep and not sub.has_edge(u, v):
                    sub.add_edge(u, v)
        return sub

    def relabeled(self) -> tuple["Graph", dict[Vertex, int]]:
        """Relabel vertices to ``0..n-1`` in sorted order.

        Returns the new graph and the ``old -> new`` mapping. Requires
        vertices to be mutually orderable (always true for the datasets).
        """
        mapping = {u: i for i, u in enumerate(sorted(self._adj))}
        relabeled = Graph()
        for u in mapping.values():
            relabeled.add_vertex(u)
        for u, v in self.edges():
            relabeled.add_edge(mapping[u], mapping[v])
        return relabeled, mapping

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def to_networkx(self):  # pragma: no cover - thin interop shim
        """Convert to a ``networkx.Graph`` (requires networkx)."""
        import networkx as nx

        nxg = nx.Graph()
        nxg.add_nodes_from(self.vertices())
        nxg.add_edges_from(self.edges())
        return nxg

    @classmethod
    def from_networkx(cls, nxg) -> "Graph":
        """Build from a ``networkx.Graph`` (parallel edges/loops dropped)."""
        graph = cls()
        for u in nxg.nodes():
            graph.add_vertex(u)
        for u, v in nxg.edges():
            graph.add_edge_if_absent(u, v)
        return graph

    def __repr__(self) -> str:
        return f"Graph(n={self.num_vertices}, m={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    __hash__ = None  # type: ignore[assignment] - mutable container
