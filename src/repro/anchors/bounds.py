"""Upper bound of the follower count (Section 4.5, Equations 1-3).

For a candidate anchor ``x`` the bound ``UB_sigma(x)`` dominates
``|F(x)|`` (Theorem 4.17): every vertex reachable from ``x`` by an
upstair path is counted at least once. It is computed for *all* vertices
in one O(m) pass by processing vertices in reverse order of their
shell-layer pairs — a topological order of the upstair-edge DAG — so the
own-node bound of every vertex is ready before anyone sums over it.

The GAC algorithm scans candidates in decreasing bound order and skips
any candidate whose bound cannot beat the best gain found so far; after
each anchoring, cached exact counts ``F[u][id]`` replace the per-node
bound parts where available ("Upper Bound Refining").
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.anchors.state import AnchoredState
from repro.lint.markers import pure

if TYPE_CHECKING:
    from repro.anchors.kernels.flat_backend import FlatTables


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


@pure
def compute_upper_bounds(  # lint: obs-ok one pass per round, in gac.iteration
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
    nid = tables.nid
    tca_ids = tables.tca_ids
    sn_ids = tables.sn_ids
    own_at = own.__getitem__
    for i, tca_i in enumerate(tca_ids):
        if is_anchor[i]:
            continue
        i_u = nid[i]
        t = own[i]
        for node in sn_ids[i]:
            if node != i_u:
                bucket = tca_i[node]
                t += len(bucket) + sum(map(own_at, bucket))
        total[i] = t
    return UpperBounds(tables, own, total)


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
