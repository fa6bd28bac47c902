"""Upper bound of the follower count (Section 4.5, Equations 1-3).

For a candidate anchor ``x`` the bound ``UB_sigma(x)`` dominates
``|F(x)|`` (Theorem 4.17): every vertex reachable from ``x`` by an
upstair path is counted at least once. :func:`compute_upper_bounds`
computes it for *all* vertices in one O(m) pass, processing vertices in
reverse order of their shell-layer pairs — a topological order of the
upstair-edge DAG — so the own-node bound of every vertex is ready
before anyone sums over it. That pass builds the GAC run's first round
(and is the ``REPRO_VERIFY`` oracle); after each anchoring
:meth:`UpperBounds.update` recomputes only what the anchoring's Δ
reaches.

The GAC algorithm scans candidates in decreasing bound order and skips
any candidate whose bound cannot beat the best gain found so far; after
each anchoring, cached exact counts ``F[u][id]`` replace the per-node
bound parts where available ("Upper Bound Refining").
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING

from repro import obs as _obs
from repro.anchors.state import AnchoredState
from repro.lint.markers import pure

if TYPE_CHECKING:
    from repro.anchors.kernels.flat_backend import FlatTables, Signature


@dataclass
class UpperBounds:
    """Per-candidate follower-count bounds, per CSR id (0 for anchors).

    Attributes:
        tables: the per-id tables the bounds were computed on.
        own: ``UB_{i_u}(u)`` — the bound inside u's own node (Eq 1).
        total: ``UB_sigma(u)`` (Eq 3) — ``own`` plus every deeper node's
            part (Eq 2). Parts are not stored: :func:`refined_total`
            recomputes only those it replaces with a cached count.
    """

    tables: FlatTables
    own: list[int]
    total: list[int]

    def update(self, changed: Mapping[int, Signature]) -> set[int]:
        """Bring ``own`` and ``total`` up to date after one anchoring.

        ``changed`` is Δ: the previous :data:`Signature` of every id
        whose anchor flag, coreness, layer or node id moved (what
        :meth:`FlatTables.apply_update` returns); the tables already
        hold the new values. Returns the ids whose ``total`` changed.

        Eq. 1: ``own`` is recomputed in descending packed-key order —
        a topological order of the upstair DAG — for Δ, for the
        neighbors whose ``higher`` row gained or lost a Δ id, and for
        every id with an upstair edge into an id whose ``own`` changed
        (its ``loweq`` entries on a strictly lower layer).

        Eq. 3: adjacent non-anchors of equal coreness share a tree node,
        so ``total[i] = own[i] + sum(1 + own[j])`` over the non-anchor
        neighbors ``j`` with ``c(j) > c(i)``. A changed ``own[j]`` is
        pushed into ``j``'s lower-coreness neighbors, Δ's contributions
        move from their old values to their new ones, and Δ's own
        totals are recomputed.
        """
        t = self.tables
        own = self.own
        total = self.total
        rows = t.rows
        core = t.core
        layer = t.layer
        is_anchor = t.is_anchor
        higher = t.higher
        loweq = t.loweq
        keys = t.keys
        mask = t.idmask

        # Eq. 1 seeds: Δ, and neighbors whose upstair row moved.
        queued = set(changed)
        for j, (a0, c0, l0, _) in changed.items():
            a1 = is_anchor[j]
            c1 = core[j]
            l1 = layer[j]
            for u in rows[j]:
                if u in queued or is_anchor[u]:
                    continue
                cu = core[u]
                lu = layer[u]
                if (not a0 and c0 == cu and l0 > lu) != (
                    not a1 and c1 == cu and l1 > lu
                ):
                    queued.add(u)
        heap = [-keys[i] for i in queued]  # lint: order-ok heapified, unique keys
        heapify(heap)
        before: dict[int, int] = {}  # id -> own before this update
        recomputed = 0
        while heap:
            i = -heappop(heap) & mask
            if is_anchor[i]:
                value = 0
            else:
                up = higher[i]
                value = len(up) + sum(map(own.__getitem__, up))
                recomputed += 1
            if value == own[i]:
                continue
            before[i] = own[i]
            own[i] = value
            if is_anchor[i]:
                continue
            li = layer[i]
            for v in loweq[i]:
                if layer[v] < li and v not in queued:
                    queued.add(v)
                    heappush(heap, -keys[v])
        _obs.add(_obs.BOUNDS_RECOMPUTED, recomputed)

        # Eq. 3 outside Δ: move Δ's contributions, then push own deltas.
        moved: set[int] = set()
        for j, (a0, c0, _, _) in changed.items():
            o0 = 1 + before.get(j, own[j])
            o1 = 1 + own[j]
            a1 = is_anchor[j]
            c1 = core[j]
            for u in rows[j]:
                if u in changed or is_anchor[u]:
                    continue
                cu = core[u]
                d = (0 if a1 or c1 <= cu else o1) - (0 if a0 or c0 <= cu else o0)
                if d:
                    total[u] += d
                    moved.add(u)
        for j, o0 in before.items():
            if j in changed:
                continue
            d = own[j] - o0
            total[j] += d
            moved.add(j)
            cj = core[j]
            for u in rows[j]:
                if core[u] < cj and not is_anchor[u] and u not in changed:
                    total[u] += d
                    moved.add(u)
        for j in changed:
            total[j] = 0 if is_anchor[j] else _total(t, own, j)
            moved.add(j)
        return moved


@pure
def compute_upper_bounds(  # lint: obs-ok a GAC run's first round, in gac.iteration
    state: AnchoredState,
) -> UpperBounds:
    """Equations 1-3 for every non-anchor vertex of the current state.

    Runs on the state's per-id tables: the own-node bound of ``u`` sums
    over ``higher[u]`` — exactly the non-anchor same-shell neighbors on
    a higher layer, i.e. the upstair edges out of ``u`` — and the
    per-node parts over the ``tca`` buckets of ``sn(u)``.
    """
    tables = state.tables
    is_anchor = tables.is_anchor
    higher = tables.higher
    mask = tables.idmask
    own = [0] * len(is_anchor)

    # Reverse topological order of the upstair DAG: descending packed
    # (shell, layer, id) keys. Ties (equal pairs) carry no upstair
    # edges, so the id order within a pair is immaterial.
    for key in sorted(tables.keys, reverse=True):
        i = key & mask
        if is_anchor[i]:
            continue
        up = higher[i]
        own[i] = len(up) + sum(map(own.__getitem__, up))

    total = [0] * len(own)
    for i, anchored in enumerate(is_anchor):
        if not anchored:
            total[i] = _total(tables, own, i)
    return UpperBounds(tables, own, total)


def _total(tables: FlatTables, own: list[int], i: int) -> int:
    """Eq. 3 for non-anchor id ``i``: ``own`` plus every other ``sn`` node's part."""
    i_u = tables.nid[i]
    tca_i = tables.tca_ids[i]
    own_at = own.__getitem__
    t = own[i]
    for node in tables.sn_ids[i]:
        if node != i_u:
            bucket = tca_i[node]
            t += len(bucket) + sum(map(own_at, bucket))
    return t


@pure
def refined_total(  # lint: obs-ok pure arithmetic over precomputed bounds
    i: int,
    bounds: UpperBounds,
    cached: Mapping[int, int],
) -> int:
    """``UB_sigma`` of id ``i`` with exact cached counts substituted.

    A cached ``|F[u][id]|`` is exact and <= its part, so the result is a
    tighter valid bound (Section 4.5, "Upper Bound Refining").
    ``cached`` must be validated already (its node ids in ``sn(u)``, as
    :meth:`~repro.anchors.reuse.FollowerCache.served` returns them).
    """
    t = bounds.tables
    own = bounds.own
    own_node = t.nid[i]
    tca = t.tca_ids[i]
    bound = bounds.total[i]
    for nid, c in cached.items():
        if nid == own_node:
            bound -= own[i] - c
        else:
            bucket = tca[nid]
            bound -= len(bucket) + sum(map(own.__getitem__, bucket)) - c
    return bound
