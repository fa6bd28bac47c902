"""An interned, immutable CSR (flat-array) view of a :class:`Graph`.

The adjacency-set :class:`~repro.graphs.graph.Graph` is the mutable
substrate every algorithm accepts, but its hot loops pay for pointer
chasing through ``dict[Vertex, set[Vertex]]`` on every neighbor scan.
This module provides the compressed-sparse-row snapshot that the
id-native code runs against instead: the Algorithm 1 batch peel
(:func:`peel_layers`, the package's one coreness kernel, with
:func:`effective_coreness` for anchors) and the per-id anchoring tables
of :mod:`repro.anchors` built on it:

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
from collections.abc import Iterable, Sequence
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

    def rows(self) -> list[list[int]]:
        """Per-id neighbor rows as plain lists, built once per view.

        CPython indexes and iterates ``list`` faster than ``array('i')``
        (array access re-boxes every element), and the kernels scan
        every row on every call, so the interned view amortizes one
        list per row, cut straight from ``neighbors``.
        """
        rows = self._rows
        if rows is None:
            nbrs = self.neighbors
            ptr = self.indptr
            rows = [nbrs[s:e].tolist() for s, e in zip(ptr, ptr[1:])]
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


def effective_coreness(
    row: Iterable[int], core: Sequence[int], is_anchor: Sequence[int]
) -> int:
    """An anchor's effective coreness: the max coreness over its
    non-anchor row, 0 if none.

    Skipping anchor neighbors makes the value independent of other
    anchors' values (no anchor-anchor chains, so no assignment order)
    and locally computable, which the in-place subtree rebuild relies
    on (DESIGN.md §3).
    """
    return max((core[j] for j in row if not is_anchor[j]), default=0)
