"""Result reuse across greedy iterations (Section 4.3, Algorithm 3).

After anchoring ``x``, most of the graph's core structure is untouched:
only the tree nodes adjacent to ``x`` (and the nodes their escapees
join) can change. For every vertex ``u`` the paper computes ``rn(u)`` —
the adjacent tree nodes whose follower sets ``F[u][id]`` provably kept
their value (Lemma 4.8 / Theorem 4.9) and can be reused in the next
iteration.

We implement the identical invalidation logic but represent it as the
complement: :func:`result_reuse` returns the *removals* — per vertex,
the node ids whose cached counts must be dropped — and
:class:`FollowerCache` holds ``F[u][id]`` counts across iterations
(the paper stores counts, not member sets, for an O(m) space bound).
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping
from repro import obs as _obs
from repro.anchors.followers import FollowerReport
from repro.anchors.state import AnchoredState
from repro.core.tree import NodeId
from repro.graphs.graph import Vertex
from repro.verify import enabled as _verify_enabled


class FollowerCache:
    """Cross-iteration store of ``|F[u][id]|`` counts.

    Entries carry the node's coreness alongside the count: a surviving
    entry is only served when the current tree still has a node with the
    same id *and the same coreness* (Lemma 4.8 guarantees this for every
    legitimately reusable node; the coreness check additionally rules
    out the pathological case where a relocated anchor produces a fresh
    node that happens to reuse an old node id).
    """

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: dict[Vertex, dict[NodeId, tuple[int, int]]] = {}

    def store(self, report: FollowerReport, node_k: Mapping[NodeId, int]) -> None:
        """Record the per-node counts of a freshly evaluated candidate.

        ``node_k`` maps each node id in the report to its coreness.
        """
        self.entries[report.anchor] = {
            nid: (node_k[nid], count) for nid, count in report.counts.items()
        }

    def valid_counts(self, u: Vertex, state: AnchoredState) -> dict[NodeId, int]:
        """Cached counts for ``u`` valid under the current state.

        An entry is served when its node id is still in ``sn(u)`` and the
        node's coreness is unchanged (see class docstring).
        """
        stored = self.entries.get(u)
        if not stored:
            return {}
        with _obs.span("reuse.validate", candidate=u):
            valid = _live(state, u, state.tables.index[u], stored)
        if valid:
            _obs.add(_obs.REUSE_SERVED, len(valid))
        return valid

    def served(self, state: AnchoredState) -> dict[int, dict[NodeId, int]]:
        """One round's valid counts per candidate id, each row validated once.

        Each served entry counts once per round (``reuse.counts_served``).
        """
        index = state.tables.index
        out: dict[int, dict[NodeId, int]] = {}
        with _obs.span("reuse.validate", rows=len(self.entries)):
            for u, stored in self.entries.items():  # anchors hold no rows (forget)
                valid = _live(state, u, index[u], stored)
                if valid:
                    out[index[u]] = valid
        served = sum(map(len, out.values()))
        if served:
            _obs.add(_obs.REUSE_SERVED, served)
        return out

    def apply_removals(self, removals: Mapping[Vertex, set[NodeId]]) -> int:
        """Drop invalidated entries; returns how many were dropped."""
        dropped = 0
        for u, ids in removals.items():
            stored = self.entries.get(u)
            if not stored:
                continue
            for nid in ids:
                if stored.pop(nid, None) is not None:
                    dropped += 1
            if not stored:
                del self.entries[u]
        if dropped:
            _obs.add(_obs.REUSE_DROPPED, dropped)
        return dropped

    def forget(self, u: Vertex) -> None:
        """Remove every entry for ``u`` (used when ``u`` becomes an anchor)."""
        self.entries.pop(u, None)

    def clear(self) -> None:
        self.entries.clear()


def _live(
    state: AnchoredState, u: Vertex, i: int, stored: Mapping[NodeId, tuple[int, int]]
) -> dict[NodeId, int]:
    """``u``'s (id ``i``) stored counts whose node is in ``sn(u)`` at its coreness."""
    tables = state.tables
    tca = tables.tca_ids[i]
    core = tables.core
    index = tables.index
    ci = core[i]
    valid = {
        nid: count
        for nid, (k, count) in stored.items()
        # in sn(u): a tca[u] bucket whose id vertex's coreness is k >= c(u)
        if nid in tca and core[index[nid]] == k >= ci
    }
    # Algorithm-3 soundness: a served count must equal what a fresh
    # per-node exploration would find (no stale tree nodes).
    if valid and _verify_enabled():
        from repro.verify.invariants import verify_cache_counts

        verify_cache_counts(state, u, valid)
    return valid


def result_reuse(
    old_state: AnchoredState, new_state: AnchoredState, x: Vertex
) -> dict[Vertex, set[NodeId]]:
    """Algorithm 3: which ``F[u][id]`` entries die when ``x`` is anchored.

    Args:
        old_state: the state *before* anchoring ``x``.
        new_state: the state *after* (``new_state.anchors`` includes ``x``).
        x: the vertex just anchored.

    Returns:
        ``removals[u]`` — old-tree node ids to drop from ``u``'s cache.
        Everything not removed is reusable (``id in rn(u)``).
    """
    if x not in new_state.anchors or x in old_state.anchors:
        raise ValueError(f"{x!r} must be the newly anchored vertex")
    with _obs.span("reuse.invalidate", anchor=x):
        return _compute_removals(old_state, new_state, x)


def _compute_removals(
    old_state: AnchoredState, new_state: AnchoredState, x: Vertex
) -> dict[Vertex, set[NodeId]]:
    removals: dict[Vertex, set[NodeId]] = defaultdict(set)

    # Lines 1-6: every vertex in a node adjacent to x is suspect; its own
    # node id dies for itself and for its lower-coreness neighbors.
    old_nodes = old_state.tree.nodes
    affected: set[Vertex] = set()
    for nid in old_state.sn(x):  # lint: order-ok set union is commutative
        affected |= old_nodes[nid].vertices
    old_node_id = old_state.tree.node_id_of
    for v in affected:  # lint: order-ok commutative set inserts
        vid = old_node_id(v)
        removals[v].add(vid)
        tca_v = old_state.tca(v)
        for nid2 in old_state.pn(v):  # lint: order-ok commutative set inserts
            for u in tca_v[nid2]:
                removals[u].add(vid)

    # Lines 12-16: vertices that now share a (new) node with an affected
    # vertex are suspect too — their old node id dies the same way.
    # ``x`` itself is affected but, as an anchor, no longer has a node.
    new_node_of = new_state.tree.node_of
    widened: set[Vertex] = set()
    for v in affected:  # lint: order-ok set union is commutative
        if v in new_state.anchors:
            continue
        widened |= new_node_of[v].vertices
    for v in widened - affected:  # lint: order-ok commutative set inserts
        vid = old_node_id(v)
        removals[v].add(vid)
        tca_v = new_state.tca(v)
        for nid2 in new_state.pn(v):  # lint: order-ok commutative set inserts
            for u in tca_v[nid2]:
                removals[u].add(vid)

    return dict(removals)
