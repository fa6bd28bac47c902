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
Vertices and node ids are CSR ids throughout (a node is named by its
smallest member's id), so a cache row is keyed exactly like the
per-id tables it is validated against.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping, Sequence

from repro import obs as _obs
from repro.anchors.state import AnchoredState
from repro.graphs.graph import Vertex
from repro.verify import enabled as _verify_enabled

#: Algorithm 3's removals: per vertex id, the node ids whose counts die.
Removals = dict[int, set[int]]


class FollowerCache:
    """Cross-iteration store of ``|F[u][id]|`` counts, keyed by CSR id.

    ``entries[u][id] = (k, count)``: entries carry the node's coreness
    ``k`` alongside the count; a surviving entry is only served when
    the current tree still has a node with the same id *and the same
    coreness* (Lemma 4.8 guarantees this for every legitimately reusable
    node; the coreness check additionally rules out the pathological
    case where a relocated anchor produces a fresh node that happens to
    reuse an old node id).
    """

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: dict[int, dict[int, tuple[int, int]]] = {}

    def store(self, i: int, counts: Mapping[int, int], core: Sequence[int]) -> None:
        """Record candidate ``i``'s freshly evaluated per-node counts.

        A node's coreness is its id vertex's (the id is its smallest
        member), read from the per-id ``core``.
        """
        self.entries[i] = {nid: (core[nid], count) for nid, count in counts.items()}

    def valid_counts(self, i: int, state: AnchoredState) -> dict[int, int]:
        """Candidate ``i``'s cached counts valid under the current state.

        An entry is served when its node id is still in ``sn(i)`` and the
        node's coreness is unchanged (see class docstring).
        """
        stored = self.entries.get(i)
        if not stored:
            return {}
        with _obs.span("reuse.validate", candidate=i):
            valid = _live(state, i, stored)
        if valid:
            _obs.add(_obs.REUSE_SERVED, len(valid))
        return valid

    def served(self, state: AnchoredState) -> dict[int, dict[int, int]]:
        """One round's valid counts per candidate id, each row validated once.

        Each served entry counts once per round (``reuse.counts_served``).
        """
        out: dict[int, dict[int, int]] = {}
        with _obs.span("reuse.validate", rows=len(self.entries)):
            for i, stored in self.entries.items():  # anchors hold no rows (forget)
                valid = _live(state, i, stored)
                if valid:
                    out[i] = valid
        served = sum(map(len, out.values()))
        if served:
            _obs.add(_obs.REUSE_SERVED, served)
        return out

    def apply_removals(self, removals: Mapping[int, set[int]]) -> int:
        """Drop invalidated entries; returns how many were dropped."""
        dropped = 0
        for i, ids in removals.items():
            stored = self.entries.get(i)
            if not stored:
                continue
            for nid in ids:
                if stored.pop(nid, None) is not None:
                    dropped += 1
            if not stored:
                del self.entries[i]
        if dropped:
            _obs.add(_obs.REUSE_DROPPED, dropped)
        return dropped

    def forget(self, i: int) -> None:
        """Remove every entry for id ``i`` (used when it becomes an anchor)."""
        self.entries.pop(i, None)

    def clear(self) -> None:
        self.entries.clear()


def _live(
    state: AnchoredState, i: int, stored: Mapping[int, tuple[int, int]]
) -> dict[int, int]:
    """Id ``i``'s stored counts whose node is in ``sn(i)`` at its coreness."""
    tables = state.tables
    tca = tables.tca_ids[i]
    core = tables.core
    ci = core[i]
    valid = {
        nid: count
        for nid, (k, count) in stored.items()
        # in sn(i): a tca[i] bucket whose id vertex's coreness is k >= c(i)
        if nid in tca and core[nid] == k >= ci
    }
    # Algorithm-3 soundness: a served count must equal what a fresh
    # per-node exploration would find (no stale tree nodes).
    if valid and _verify_enabled():
        from repro.verify.invariants import verify_cache_counts

        verify_cache_counts(state, i, valid)
    return valid


def result_reuse(
    old_state: AnchoredState, new_state: AnchoredState, x: Vertex
) -> Removals:
    """Algorithm 3: which ``F[u][id]`` entries die when ``x`` is anchored.

    The from-scratch form of the removals
    :func:`~repro.anchors.incremental.apply_anchor` computes in place.

    Args:
        old_state: the state *before* anchoring ``x``.
        new_state: the state *after* (``new_state.anchors`` includes ``x``).
        x: the vertex (label) just anchored.

    Returns:
        ``removals[u]`` — per vertex id, the old-tree node ids to drop
        from its cache row. Everything not removed is reusable
        (``id in rn(u)``).
    """
    if x not in new_state.anchors or x in old_state.anchors:
        raise ValueError(f"{x!r} must be the newly anchored vertex")
    with _obs.span("reuse.invalidate", anchor=x):
        return _compute_removals(old_state, new_state, old_state.tables.index[x])


def _compute_removals(
    old_state: AnchoredState, new_state: AnchoredState, xid: int
) -> Removals:
    removals: Removals = defaultdict(set)
    old = old_state.tables
    new = new_state.tables
    old_nid = old.nid

    # Lines 1-6: every vertex in a node adjacent to x is suspect; its own
    # node id dies for itself and for its lower-coreness neighbors.
    adjacent = set(old.sn_ids[xid])
    affected = {v for v, node in enumerate(old_nid) if node in adjacent}
    for v in affected:  # lint: order-ok commutative set inserts
        vid = old_nid[v]
        removals[v].add(vid)
        tca_v = old.tca_ids[v]
        for nid2 in old.pn_ids[v]:
            for u in tca_v[nid2]:
                removals[u].add(vid)

    # Lines 12-16: vertices that now share a (new) node with an affected
    # vertex are suspect too — their old node id dies the same way.
    # ``x`` itself is affected but, as an anchor, no longer has a node.
    joined = {new.nid[v] for v in affected} - {None}
    widened = {v for v, node in enumerate(new.nid) if node in joined}
    for v in widened - affected:  # lint: order-ok commutative set inserts
        vid = old_nid[v]
        removals[v].add(vid)
        tca_v = new.tca_ids[v]
        for nid2 in new.pn_ids[v]:
            for u in tca_v[nid2]:
                removals[u].add(vid)

    return dict(removals)
