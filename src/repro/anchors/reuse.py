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
per-id tables it is validated against. The servable ("live") part of
every row is validated in full on a GAC run's first round only; after
that the removals, the stores and :meth:`FollowerCache.refresh` over
the anchoring's Δ keep it current.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping, Sequence

from repro import obs as _obs
from repro.anchors.kernels.flat_backend import Signature
from repro.anchors.state import AnchoredState
from repro.graphs.graph import Vertex
from repro.verify import enabled as _verify_enabled

#: Algorithm 3's removals: per vertex id, the node ids whose counts die.
Removals = dict[int, set[int]]


class FollowerCache:
    """Cross-iteration store of ``|F[u][id]|`` counts, keyed by CSR id.

    ``entries[u][id]`` is the count and ``cores[u][id]`` the node's
    coreness ``k`` when it was stored, two int-to-int rows with the same
    keys (no per-entry tuple, so the rows are plain int dicts that the
    garbage collector need not track); a surviving entry is only served
    when the current tree still has a node with the same id *and the
    same coreness* (Lemma 4.8 guarantees this for every legitimately
    reusable node; the coreness check additionally rules out the
    pathological case where a relocated anchor produces a fresh node
    that happens to reuse an old node id).

    ``live[u]`` is the servable part of ``entries[u]`` under the current
    state (rows with nothing servable are absent). :meth:`served`
    validates every row from scratch — the GAC round's first build and
    the ``REPRO_VERIFY`` oracle; after that the rows are kept current:
    :meth:`store` installs the search's counts dict as both the entries
    row and the live row, :meth:`apply_removals` pops from both, and
    :meth:`refresh` revalidates only the rows an anchoring's Δ can have
    changed.
    """

    __slots__ = ("entries", "cores", "live")

    def __init__(self) -> None:
        self.entries: dict[int, dict[int, int]] = {}
        self.cores: dict[int, dict[int, int]] = {}
        self.live: dict[int, dict[int, int]] = {}

    def store(self, i: int, counts: dict[int, int], core: Sequence[int]) -> None:
        """Record candidate ``i``'s freshly evaluated per-node counts.

        A node's coreness is its id vertex's (the id is its smallest
        member), read from the per-id ``core``. Every node of the row is
        in ``sn(i)`` now, so ``counts`` itself becomes the live row too
        (the two part when :meth:`refresh` replaces the live one).
        """
        self.entries[i] = counts
        self.cores[i] = {nid: core[nid] for nid in counts}
        if counts:
            self.live[i] = counts
        else:
            self.live.pop(i, None)

    def valid_counts(self, i: int, state: AnchoredState) -> dict[int, int]:
        """Candidate ``i``'s cached counts valid under the current state.

        An entry is served when its node id is still in ``sn(i)`` and the
        node's coreness is unchanged (see class docstring).
        """
        stored = self.entries.get(i)
        if not stored:
            return {}
        with _obs.span("reuse.validate", candidate=i):
            valid = _live(state, i, stored, self.cores[i])
        if valid:
            _obs.add(_obs.REUSE_SERVED, len(valid))
        return valid

    def served(self, state: AnchoredState) -> dict[int, dict[int, int]]:
        """Every row's valid counts, validated from scratch (the live rows' oracle)."""
        out: dict[int, dict[int, int]] = {}
        cores = self.cores
        with _obs.span("reuse.validate", rows=len(self.entries)):
            for i, stored in self.entries.items():  # anchors hold no rows (forget)
                valid = _live(state, i, stored, cores[i])
                if valid:
                    out[i] = valid
        return out

    def refresh(
        self, state: AnchoredState, changed: Mapping[int, Signature]
    ) -> set[int]:
        """Revalidate the live rows one anchoring's Δ can have changed.

        ``changed`` maps each Δ id to its previous signature. Row ``i``
        is valid by ``tca[i]``'s node ids, ``c(i)`` and the coreness of
        each such node, and a node's coreness is that of any member:
        so only the rows of Δ ids whose coreness or anchor flag moved,
        and of the neighbors of Δ ids whose coreness, node id or anchor
        flag moved, can change (a layer move changes none). Returns the
        ids of the rows revalidated, changed or not: a Δ neighbor that
        moved between two nodes moves its part of the bound between
        them, which changes the row's refined bound when one of the two
        is served.
        """
        t = state.tables
        rows = t.rows
        core = t.core
        nid = t.nid
        is_anchor = t.is_anchor
        entries = self.entries
        cores = self.cores
        live = self.live
        ids: set[int] = set()
        for j, (a0, c0, _, n0) in changed.items():
            if a0 != is_anchor[j] or c0 != core[j]:
                ids.add(j)
            elif n0 == nid[j]:
                continue
            ids.update(rows[j])
        ids.intersection_update(entries)
        with _obs.span("reuse.validate", rows=len(ids)):
            for i in ids:  # lint: order-ok independent per-row writes
                valid = _live(state, i, entries[i], cores[i])
                if valid:
                    live[i] = valid
                else:
                    live.pop(i, None)
        return ids

    def apply_removals(self, removals: Mapping[int, set[int]]) -> int:
        """Drop invalidated entries; returns how many were dropped."""
        dropped = 0
        live = self.live
        for i, ids in removals.items():
            stored = self.entries.get(i)
            if not stored:
                continue
            ks = self.cores[i]
            row = live.get(i)
            for nid in ids:
                if stored.pop(nid, None) is not None:
                    del ks[nid]
                    dropped += 1
                    if row:
                        row.pop(nid, None)
            if not stored:
                del self.entries[i]
                del self.cores[i]
            if row is not None and not row:
                del live[i]
        if dropped:
            _obs.add(_obs.REUSE_DROPPED, dropped)
        return dropped

    def forget(self, i: int) -> None:
        """Remove every entry for id ``i`` (used when it becomes an anchor)."""
        self.entries.pop(i, None)
        self.cores.pop(i, None)
        self.live.pop(i, None)

    def clear(self) -> None:
        self.entries.clear()
        self.cores.clear()
        self.live.clear()


def _live(
    state: AnchoredState,
    i: int,
    stored: Mapping[int, int],
    cores: Mapping[int, int],
) -> dict[int, int]:
    """Id ``i``'s stored counts whose node is in ``sn(i)`` at its coreness."""
    tables = state.tables
    tca = tables.tca_ids[i]
    core = tables.core
    ci = core[i]
    valid = {
        nid: count
        for nid, count in stored.items()
        # in sn(i): a tca[i] bucket whose id vertex's coreness is k >= c(i)
        if nid in tca and core[nid] == cores[nid] >= ci
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
