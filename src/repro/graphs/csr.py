"""An interned, immutable CSR (flat-array) view of a :class:`Graph`.

The adjacency-set :class:`~repro.graphs.graph.Graph` is the mutable
substrate every algorithm accepts, but its hot loops pay for pointer
chasing through ``dict[Vertex, set[Vertex]]`` on every neighbor scan.
This module provides the compressed-sparse-row snapshot that the
substrate kernels (Batagelj–Zaveršnik bucket decomposition, the batch
peel, the core-component-tree build, and the tree-adjacency pass) run
against instead:

* vertices are interned to contiguous ``int`` ids ``0..n-1`` assigned in
  :func:`~repro.graphs.graph.vertex_sort_key` order, so ascending-id
  order *is* the package's canonical deterministic vertex order;
* ``indptr`` / ``neighbors`` are ``array('i')`` flat arrays (the classic
  CSR pair), each neighbor row sorted by id;
* ``labels`` / ``index`` translate new ids back to the original labels
  and vice versa, so results leave this module keyed by the original
  labels.

Views are *interned*: :func:`csr_view` caches the snapshot on the graph
itself, keyed by the graph's mutation counter, so repeated
decompositions of the same (unmutated) graph — the common case in the
greedy anchor loops — build the flat arrays once. Every algorithm runs
on this view, so a graph whose labels are mutually unorderable (no
canonical id assignment exists) is rejected with a
:class:`~repro.errors.GraphError`.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable
from typing import cast

from repro import obs as _obs
from repro.errors import GraphError
from repro.graphs.graph import Graph, Vertex, vertex_sort_key


class CSRGraph:
    """Immutable compressed-sparse-row snapshot of a :class:`Graph`.

    Attributes:
        num_vertices: ``n``.
        num_edges: ``m`` (each undirected edge stored twice).
        indptr: ``array('i')`` of length ``n + 1``; the neighbor row of
            id ``i`` is ``neighbors[indptr[i]:indptr[i + 1]]``.
        neighbors: ``array('i')`` of length ``2m``, rows sorted
            ascending. ``array('i')`` bounds the supported size at
            ``2m < 2**31`` — far beyond what pure-Python loops handle.
        labels: new id -> original vertex label (ascending
            :func:`vertex_sort_key` order).
        index: original vertex label -> new id.
    """

    __slots__ = (
        "num_vertices",
        "num_edges",
        "indptr",
        "neighbors",
        "labels",
        "index",
        "_lists",
        "_rows",
    )

    def __init__(
        self,
        indptr: "array[int]",
        neighbors: "array[int]",
        labels: list[Vertex],
        index: dict[Vertex, int],
    ) -> None:
        self.num_vertices = len(labels)
        self.num_edges = len(neighbors) // 2
        self.indptr = indptr
        self.neighbors = neighbors
        self.labels = labels
        self.index = index
        self._lists: tuple[list[int], list[int]] | None = None
        self._rows: list[list[int]] | None = None

    @classmethod
    def from_graph(cls, graph: Graph) -> "CSRGraph":
        """Snapshot ``graph`` with deterministic sorted interning.

        Raises:
            TypeError: if the vertex labels are mutually unorderable
                (no canonical id assignment exists); :func:`csr_view`
                turns this into a one-line :class:`GraphError`.
        """
        labels = sorted(graph.vertices(), key=vertex_sort_key)
        index = {u: i for i, u in enumerate(labels)}
        flat: list[int] = []
        ptr: list[int] = [0]
        lookup = index.__getitem__
        for u in labels:
            row = list(map(lookup, graph.neighbors(u)))
            row.sort()
            flat.extend(row)
            ptr.append(len(flat))
        return cls(array("i", ptr), array("i", flat), labels, index)

    # ------------------------------------------------------------------
    def degree(self, i: int) -> int:
        """Degree of id ``i``."""
        return self.indptr[i + 1] - self.indptr[i]

    def row(self, i: int) -> "array[int]":
        """The (ascending) neighbor ids of id ``i``."""
        return self.neighbors[self.indptr[i] : self.indptr[i + 1]]

    def as_lists(self) -> tuple[list[int], list[int]]:
        """Plain-list mirrors of ``(indptr, neighbors)`` for hot kernels.

        CPython indexes and slice-iterates ``list`` faster than
        ``array('i')`` (array access re-boxes every element); the
        kernels below run on these mirrors, built once per view.
        """
        lists = self._lists
        if lists is None:
            lists = (list(self.indptr), list(self.neighbors))
            self._lists = lists
        return lists

    def rows(self) -> list[list[int]]:
        """Per-id neighbor rows as plain lists, built once per view.

        The decomposition kernels scan every row on every call; slicing
        ``neighbors`` per vertex per call would re-allocate ``n`` lists
        each time, so the interned view amortizes the row lists too.
        """
        rows = self._rows
        if rows is None:
            indptr, nbrs = self.as_lists()
            rows = [nbrs[indptr[i] : indptr[i + 1]] for i in range(self.num_vertices)]
            self._rows = rows
        return rows

    def __repr__(self) -> str:
        return f"CSRGraph(n={self.num_vertices}, m={self.num_edges})"


def csr_view(graph: Graph) -> CSRGraph:
    """The interned CSR view of ``graph``.

    The view is cached on the graph keyed by its mutation counter: any
    mutation invalidates it and the next call re-interns.

    Raises:
        GraphError: if the vertex labels are mutually unorderable, naming
            the label types that cannot be ordered.
    """
    version = graph._version
    cached = graph._csr_cache
    if cached is not None and cached[0] == version:
        _obs.add(_obs.CSR_CACHE_HITS)
        return cast(CSRGraph, cached[1])
    with _obs.span("csr.build", n=graph.num_vertices, m=graph.num_edges):
        try:
            view = CSRGraph.from_graph(graph)
        except TypeError:
            raise GraphError(
                "vertex labels cannot be ordered for the CSR view: "
                + ", ".join(_unorderable_types(graph))
            ) from None
    _obs.add(_obs.CSR_BUILDS)
    graph._csr_cache = (version, view)
    return view


def _unorderable_types(graph: Graph) -> list[str]:
    """Names of the label types whose members do not sort among themselves.

    :func:`vertex_sort_key` only compares labels of the same type, so a
    failed interning is pinned on the types that fail a per-type sort
    (falling back to every type present if none fails on its own).
    """
    by_type: dict[type, list[Vertex]] = {}
    for u in graph.vertices():
        by_type.setdefault(type(u), []).append(u)
    names = sorted(t.__name__ for t in by_type)
    bad: list[str] = []
    for t, members in by_type.items():
        try:
            sorted(members, key=vertex_sort_key)
        except TypeError:
            bad.append(t.__name__)
    return sorted(bad) or names


# ----------------------------------------------------------------------
# Flat-array substrate kernels (operate purely on CSR ids)
# ----------------------------------------------------------------------
def bucket_coreness(csr: CSRGraph, anchor_ids: Iterable[int] = ()) -> list[int]:
    """Coreness per id via the Batagelj–Zaveršnik O(m) bucket algorithm.

    The textbook flat-array formulation: ids counting-sorted by degree
    into ``vert`` with per-degree bin starts, processed left to right;
    decrementing a neighbor swaps it to its bin front and advances the
    bin. Anchored ids are never processed or decremented (their degree
    is treated as infinite); their slots in the returned list stay 0 —
    callers assign effective anchor coreness from the non-anchor values.
    """
    n = csr.num_vertices
    core = [0] * n
    if n == 0:
        return core
    rows = csr.rows()
    is_anchor = bytearray(n)
    anchored = 0
    for a in anchor_ids:
        if not is_anchor[a]:
            is_anchor[a] = 1
            anchored += 1

    deg = [len(row) for row in rows]
    free = n - anchored
    if free == 0:
        return core
    if anchored:
        max_deg = max(d for u, d in enumerate(deg) if not is_anchor[u])
    else:
        max_deg = max(deg)

    # Counting sort of non-anchor ids by degree: vert is sorted by
    # current degree throughout, pos[u] is u's slot, bin_start[d] the
    # first slot of degree-d ids.
    counts = [0] * (max_deg + 1)
    for u in range(n):
        if not is_anchor[u]:
            counts[deg[u]] += 1
    bin_start = [0] * (max_deg + 1)
    total = 0
    for d in range(max_deg + 1):
        bin_start[d] = total
        total += counts[d]
    fill = bin_start.copy()
    pos = [0] * n
    vert = [0] * free
    for u in range(n):
        if not is_anchor[u]:
            p = fill[deg[u]]
            fill[deg[u]] = p + 1
            vert[p] = u
            pos[u] = p

    if anchored:
        for i in range(free):
            v = vert[i]
            dv = deg[v]
            core[v] = dv
            for u in rows[v]:
                du = deg[u]
                # du > dv implies u is unprocessed and non-anchor degrees
                # never drop below the current level, so processed ids
                # keep their final coreness in deg[].
                if du > dv and not is_anchor[u]:
                    pu = pos[u]
                    sw = bin_start[du]
                    if pu != sw:
                        w = vert[sw]
                        vert[pu] = w
                        pos[w] = pu
                        vert[sw] = u
                        pos[u] = sw
                    bin_start[du] = sw + 1
                    deg[u] = du - 1
    else:
        # Anchor-free specialization of the identical loop: no mask test
        # on the (hot) per-edge path.
        for i in range(free):
            v = vert[i]
            dv = deg[v]
            core[v] = dv
            for u in rows[v]:
                du = deg[u]
                if du > dv:
                    pu = pos[u]
                    sw = bin_start[du]
                    if pu != sw:
                        w = vert[sw]
                        vert[pu] = w
                        pos[w] = pu
                        vert[sw] = u
                        pos[u] = sw
                    bin_start[du] = sw + 1
                    deg[u] = du - 1
    return core


def peel_layers(
    csr: CSRGraph,
    anchor_ids: Iterable[int] = (),
    members: "Iterable[int] | None" = None,
) -> tuple[list[int], list[int], list[int]]:
    """Algorithm-1 batch peel per id: coreness, shell layer, and order.

    The paper's batched min-degree peel: round ``k`` deletes
    successive frontiers of ids with degree below ``k``; the 1-based
    frontier number within the round is the id's shell layer, frontiers
    are consumed in ascending id order (= canonical label order under
    sorted interning). Anchors are excluded entirely — their slots stay
    0 and they never appear in the returned order.

    ``members`` restricts the peel to the subgraph induced by
    ``members`` plus ``anchor_ids`` (an id mask over the same rows, so
    no subgraph or second view is built); only members are peeled and
    only their slots are filled. The in-place anchoring re-peels one
    core component this way.

    Buckets are lazy append-only lists: an id is appended to
    ``buckets[d]`` when its degree *becomes* ``d``, and stale entries
    (degree moved on) are skipped at collection time, so a decrement
    costs one ``list.append`` instead of a bucket-set move.
    """
    n = csr.num_vertices
    core = [0] * n
    layer_of = [0] * n
    order: list[int] = []
    if n == 0:
        return core, layer_of, order
    rows = csr.rows()
    is_anchor = bytearray(n)
    for a in anchor_ids:
        is_anchor[a] = 1
    alive = bytearray(n)
    deg = [0] * n
    if members is None:
        ids = [u for u in range(n) if not is_anchor[u]]
        for u in ids:
            alive[u] = 1
            deg[u] = len(rows[u])
    else:
        ids = list(members)
        inside = bytearray(is_anchor)
        for u in ids:
            alive[u] = 1
            inside[u] = 1
        count = inside.__getitem__
        for u in ids:
            deg[u] = sum(map(count, rows[u]))
    remaining = len(ids)
    max_deg = max((deg[u] for u in ids), default=0)

    buckets: list[list[int]] = [[] for _ in range(max_deg + 1)]
    for u in ids:
        buckets[deg[u]].append(u)

    k = 1
    while remaining > 0:
        b = k - 1
        pending = buckets[b]
        buckets[b] = []
        # Exact-degree check drops stale entries; every alive id of
        # degree b was appended to buckets[b] when it reached degree b.
        frontier = [u for u in pending if alive[u] and deg[u] == b]
        frontier.sort()
        layer = 0
        while frontier:
            layer += 1
            for u in frontier:
                core[u] = b
                layer_of[u] = layer
                alive[u] = 0
            order.extend(frontier)
            remaining -= len(frontier)
            nxt: list[int] = []
            for u in frontier:
                for v in rows[u]:
                    if alive[v]:
                        dv = deg[v] - 1
                        deg[v] = dv
                        if dv == b:
                            # joins the very next frontier of this shell
                            # (unit decrements: this happens once per id)
                            nxt.append(v)
                        elif dv > b:
                            buckets[dv].append(v)
                        # dv < b: already queued via its b-crossing
            nxt.sort()
            frontier = nxt
        k += 1
    return core, layer_of, order
