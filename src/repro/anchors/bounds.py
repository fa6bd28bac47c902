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

from dataclasses import dataclass, field

from repro.anchors.state import AnchoredState
from repro.core.tree import NodeId
from repro.graphs.graph import Vertex
from repro.lint.markers import pure


@dataclass
class UpperBounds:
    """Per-candidate follower-count bounds.

    Attributes:
        own: ``UB_{i_u}(u)`` — bound on followers inside u's own node (Eq 1).
        parts: per node id in ``sn(u)``, the bound on ``|F[u][id]|``
            (``own[u]`` for the own node, Eq 2 for deeper nodes).
        total: ``UB_sigma(u)`` (Eq 3) — the sum of ``parts[u]``.
    """

    own: dict[Vertex, int] = field(default_factory=dict)
    parts: dict[Vertex, dict[NodeId, int]] = field(default_factory=dict)
    total: dict[Vertex, int] = field(default_factory=dict)


@pure
def compute_upper_bounds(state: AnchoredState) -> UpperBounds:
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

    bounds = UpperBounds()
    labels = tables.labels
    nid = tables.nid
    tca_ids = tables.tca_ids
    sn_ids = tables.sn_ids
    for i, u in enumerate(labels):
        if is_anchor[i]:
            continue
        i_u = nid[i]
        total = own[i]
        parts: dict[NodeId, int] = {i_u: total}
        tca_i = tca_ids[i]
        for node in sn_ids[i]:
            if node == i_u:
                continue
            bucket = tca_i[node]
            part = len(bucket) + sum(map(own.__getitem__, bucket))
            parts[node] = part
            total += part
        bounds.own[u] = own[i]
        bounds.parts[u] = parts
        bounds.total[u] = total
    return bounds


@pure
def refined_total(  # lint: obs-ok pure arithmetic over precomputed bounds
    u: Vertex,
    bounds: UpperBounds,
    cached_counts: dict[NodeId, int],
) -> int:
    """``UB_sigma(u)`` with exact cached counts substituted where valid.

    A cached ``|F[u][id]|`` is both exact and <= the bound part, so the
    refined total is a tighter valid bound (Section 4.5, "Upper Bound
    Refining"). ``cached_counts`` must already be validated against the
    current state (see ``FollowerCache.valid_counts``).
    """
    parts = bounds.parts[u]
    return sum(cached_counts.get(nid, part) for nid, part in parts.items())
