"""In-place anchoring: the paper's local subtree rebuild (Algorithm 3).

`AnchoredState.with_anchor` rebuilds every structure from scratch —
O(m) per greedy iteration regardless of how little changed. The paper
instead re-decomposes only ``CC(T[x])`` — the core component of the
anchored vertex — and re-names the tree nodes inside it (Algorithm 3
lines 7-10). This module does that on CSR ids, in three steps:

1. **Walk.** ``CC(T[x])`` is the component of ``x`` in its
   ``c(x)``-core, with anchors as connectors: a walk over the rows.
2. **Re-peel.** The component, plus the anchors the walk crossed, is
   re-peeled under an id mask (:func:`~repro.graphs.csr.peel_layers`)
   and its members get tree-node ids from one union-find pass
   (:func:`~repro.anchors.state.node_ids`) — no induced subgraph, no
   second CSR view, no tree objects.
3. **Edge deltas.** Δ is the set of vertices whose coreness,
   shell-layer pair, tree node id or anchor flag changed. Only Δ's rows
   are rebuilt, and Δ's entries in its neighbors' rows are patched in
   place (:meth:`~repro.anchors.kernels.flat_backend.FlatTables.apply_update`),
   so the table upkeep costs O(Σ_{v∈Δ} deg v) — the
   ``incremental.touched_edges`` counter. Δ's previous values are
   handed back with the removals (:class:`Anchoring`), so the GAC round
   can bring its bounds and cache rows up to date from Δ alone.

Locality rests on two facts:

* a k-core component's decomposition (corenesses *and* shell layers) is
  independent of the rest of the graph, so re-peeling the component's
  induced subgraph — plus the already-anchored vertices adjacent to it,
  which supply permanent support — reproduces the global values;
* anchors live in no tree node (see ``CoreComponentTree.build``), so an
  anchoring never changes a node id outside the component.

Its correctness oracle — every per-id table equal to a fresh
``AnchoredState.build``, the label views equal to the from-scratch
``peel_decomposition`` / ``CoreComponentTree`` / ``TreeAdjacency`` —
runs in the tests and, under ``REPRO_VERIFY=1``, after every anchoring
(:func:`repro.verify.invariants.verify_anchor_state`).
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import NamedTuple

from repro import obs as _obs
from repro.anchors.kernels.flat_backend import FlatTables, Signature
from repro.anchors.reuse import Removals
from repro.anchors.state import AnchoredState, node_ids
from repro.graphs.csr import effective_coreness, peel_layers
from repro.graphs.graph import Vertex
from repro.verify import enabled as _verify_enabled


class Anchoring(NamedTuple):
    """What one in-place anchoring changed.

    Attributes:
        removals: Algorithm 3's removals — per vertex id, the old node
            ids whose cached ``F[u][id]`` counts must be dropped (empty
            when they were not asked for).
        changed: Δ — the previous :data:`Signature` of every id whose
            anchor flag, coreness, layer or node id changed.
    """

    removals: Removals
    changed: dict[int, Signature]


def apply_anchor(
    state: AnchoredState, x: Vertex, compute_removals: bool = True
) -> Anchoring:
    """Anchor ``x`` in place; returns Algorithm 3's removals and Δ.

    Runs on CSR ids throughout: no label enters, and only the per-id
    tables and ``state.anchors`` change.

    Args:
        state: the state to mutate (``x`` must not already be anchored).
        x: the vertex to anchor.
        compute_removals: skip the invalidation bookkeeping when the
            caller runs without a follower cache (GAC-U-R).

    Returns:
        An :class:`Anchoring`: ``removals[u]`` — per vertex id, old node
        ids whose cached ``F[u][id]`` counts must be dropped (empty when
        ``compute_removals`` is false) — and Δ's previous signatures.

    Raises:
        VertexNotFoundError: if ``x`` is not in the graph.
        ValueError: if ``x`` is already anchored.
    """
    xid = state.id_of(x)
    if x in state.anchors:
        raise ValueError(f"{x!r} is already anchored")
    tables = state.tables
    rows = tables.rows
    is_anchor = tables.is_anchor
    nid = tables.nid
    core = tables.core
    layer = tables.layer
    component, closure = _component(rows, core, is_anchor, xid)

    # ---- Algorithm 3 lines 1-6: invalidation from the old structures.
    # The nodes of sn(x) lie in x's component (they are adjacent to x at
    # coreness >= c(x)), so their members are found by scanning it.
    removals: Removals = {}
    adjacent = set(tables.sn_ids[xid]) if compute_removals else set()
    affected = [i for i in component if nid[i] in adjacent] if adjacent else []
    _invalidate(tables, [(i, nid[i]) for i in affected], removals)

    # ---- Lines 7-10: re-peel the component on CSR ids and re-name its
    # tree nodes. The anchors the walk passed through supply permanent
    # support and act as connectors.
    members = [i for i in component if i != xid]
    anchor_ids = sorted(closure | {xid})
    local_core, local_layer, _ = peel_layers(tables.csr, anchor_ids, members)
    _obs.add(_obs.PEEL_POPS, len(members))
    new_nid = node_ids(rows, members, local_core, anchor_ids)

    # ---- Δ: every vertex whose row-relevant values moved.
    delta: dict[int, Signature] = {}
    new_core = list(core)
    for i in members:
        node = new_nid[i]
        new_core[i] = c = local_core[i]
        if c != core[i] or local_layer[i] != layer[i] or node != nid[i]:
            delta[i] = (0, c, local_layer[i], node)
    # Anchor effective corenesses are defined over *global* non-anchor
    # neighborhoods (x is an anchor from here on); refresh x and every
    # anchor next to the re-peeled component.
    new_anchor = bytearray(is_anchor)
    new_anchor[xid] = 1
    for a in anchor_ids:
        eff = effective_coreness(rows[a], new_core, new_anchor)
        if a == xid or eff != core[a]:
            delta[a] = (1, eff, 0, None)
    # Lines 12-16's suspects, named while ``nid`` is still old: members
    # now sharing a node with an affected vertex (x, an anchor, joins none).
    joined = {new_nid[i] for i in affected if i != xid}
    dying = [
        (i, nid[i]) for i in members if new_nid[i] in joined and nid[i] not in adjacent
    ] if joined else []

    # ---- Commit: the anchor set, then the per-id tables.
    state.anchors = state.anchors | {x}
    changed = tables.apply_update(delta)
    _obs.add(_obs.TOUCHED_EDGES, sum(len(rows[i]) for i in delta))

    # ---- Lines 12-16: invalidation from the new structures.
    _invalidate(tables, dying, removals)
    if _verify_enabled():
        from repro.verify.invariants import verify_anchor_state

        verify_anchor_state(state)
    return Anchoring(removals, changed)


def _component(
    rows: list[list[int]], core: list[int], is_anchor: bytearray, xid: int
) -> tuple[list[int], set[int]]:
    """``CC(T[x])`` as ascending ids, and the anchors the walk crossed.

    The walk from ``xid`` enters non-anchors of coreness ``>= c(x)`` and
    passes through anchors (present in every core) without collecting
    them; it crosses the anchors adjacent to the component and their
    anchor-anchor closure.
    """
    cx = core[xid]
    seen = {xid}
    component = [xid]
    anchors: set[int] = set()
    stack = [xid]
    while stack:
        for v in rows[stack.pop()]:
            if v in seen:
                continue
            if is_anchor[v]:
                seen.add(v)
                anchors.add(v)
                stack.append(v)
            elif core[v] >= cx:
                seen.add(v)
                component.append(v)
                stack.append(v)
    component.sort()
    return component, anchors


def _invalidate(
    tables: FlatTables,
    dying: Iterable[tuple[int, int | None]],
    removals: Removals,
) -> None:
    """Lines 3-6 / 13-16: each ``(v, vid)`` node id dies for ``v`` and
    for ``v``'s lower-coreness neighbors (per the current tables)."""
    tca_ids = tables.tca_ids
    pn_ids = tables.pn_ids
    # Per dying node id, the ids it dies for: a node's members share
    # their lower-coreness neighbors, so each one is added once.
    dies_for: dict[int, set[int]] = {}
    for v, vid in dying:
        assert vid is not None  # a node member is never an anchor
        ids = dies_for.get(vid)
        if ids is None:
            ids = dies_for[vid] = set()
        ids.add(v)
        tca_v = tca_ids[v]
        for nid2 in pn_ids[v]:
            ids.update(tca_v[nid2])
    get = removals.get
    for vid, ids in dies_for.items():
        for j in ids:  # lint: order-ok commutative set inserts
            dead = get(j)
            if dead is None:
                removals[j] = {vid}
            else:
                dead.add(vid)
