"""The per-id anchoring state and the flat follower kernel over it.

:class:`FlatTables` is the one maintained copy of everything the
follower search, the upper bounds and the reuse cache read, keyed by
the interned CSR ids of :mod:`repro.graphs.csr`:

* per-id ``(core, layer)``, anchor flag and tree node id, plus a
  precomputed int-packed ``(core << 2w) | (layer << w) | id`` heap key
  (ascending id order *is* the canonical
  :func:`~repro.graphs.graph.vertex_sort_key` order under sorted
  interning, so the packed comparison reproduces the dict oracle's
  ``(pair, sort_key, vertex)`` heap order exactly);
* per-id rows of Definitions 4.2–4.4 (``tca``/``sn``/``pn``) and the
  Algorithm 4 support tables (fixed support, same-shell neighbors split
  by layer), all in ascending id order.

A tree node is named by the CSR id of its smallest member (the paper's
``TN.I`` under sorted interning), so ``core[nid]`` is its coreness.
The tables are computed on ids
(:meth:`~repro.anchors.state.AnchoredState.build`) and hold no label;
labels appear only in an exploration's survivor sets (``members``)
and in the label views of :class:`~repro.anchors.state.AnchoredState`.

Plain lists rather than ``array('i')`` for the same re-boxing reason as
:meth:`repro.graphs.csr.CSRGraph.rows`. The tables are built once
per :class:`~repro.anchors.state.AnchoredState` and patched in place by
:func:`repro.anchors.incremental.apply_anchor` through
:meth:`FlatTables.apply_update`, which rewrites only the rows of the
vertices whose values changed and the entries of those vertices in
their neighbors' rows — O(sum of their degrees), never a neighborhood.

The follower search is one generator, :meth:`FlatTables.stream`: it
takes candidate ids from an iterator its caller controls and yields
each candidate's per-node follower counts, so a whole candidate round
is one kernel call that binds the tables once.

The exploration scratch is one generation-packed word per id:
``packed[i] = (gen << 2) | status``. ``gen`` strictly increases per
exploration, so any entry below the current generation base is stale
garbage — UNEXPLORED — with no per-candidate reset and no separate
stamp array (status comparisons against ``base | TAG`` reject stale
entries for free). The cascading shrink uses a preallocated worklist.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Iterable, Iterator, Mapping
from heapq import heappop, heappush
from typing import TYPE_CHECKING

from repro.graphs.csr import CSRGraph

if TYPE_CHECKING:
    from repro.graphs.graph import Vertex

# Exploration status tags, identical to the dict backend's. UNEXPLORED
# is represented by a stale (below the current base) generation word.
_IN_HEAP = 1
_SURVIVED = 2
_DISCARDED = 3

#: A vertex's row-relevant values: (anchor flag, core, layer, node id).
Signature = tuple[int, int, int, "int | None"]
#: One evaluated candidate: (candidate id, {node id: |F[x][id]|}, |F(x)|).
Evaluation = tuple[int, dict[int, int], int]
#: The Figure-13 tallies: (reused nodes, explored nodes, heap pops,
#: evaluated candidates).
Tallies = tuple[int, int, int, int]


class Tally:
    """The Figure-13 work a follower stream has done.

    A stream adds each candidate's work before it yields the candidate,
    so the tally is current whenever its consumer holds a result.
    """

    __slots__ = ("reused", "explored", "visited", "evaluated")

    def __init__(self) -> None:
        self.reused = self.explored = self.visited = self.evaluated = 0

    def take(self) -> Tallies:
        """The tallies so far; they restart from zero."""
        out = (self.reused, self.explored, self.visited, self.evaluated)
        self.reused = self.explored = self.visited = self.evaluated = 0
        return out

    def add(self, tallies: Tallies) -> None:
        """Add work done elsewhere (a pool worker's, replayed)."""
        reused, explored, visited, evaluated = tallies
        self.reused += reused
        self.explored += explored
        self.visited += visited
        self.evaluated += evaluated


class FlatTables:
    """Per-id anchoring state: the tables ``apply_anchor`` patches.

    Attributes:
        core / layer: per-id coreness and shell layer — the shell-layer
            pair is ``(core, layer)`` (anchors: effective coreness,
            layer 0).
        is_anchor: per-id anchor flag.
        nid: per-id tree node id ``T[u].I`` as the CSR id of the node's
            smallest member (``None`` for anchors).
        keys: per-id packed heap key ``(core << 2w) | (layer << w) | id``.
        shift / shift2 / idmask: the packed heap-key geometry.
        fixed: per-id fixed support (anchored + deeper-shell neighbors).
        higher / loweq: per-id same-shell neighbor ids (anchors
            excluded), split by layer relative to the row owner
            (strictly higher vs lower-or-equal); together they are the
            oracle's same-shell row. The Theorem 4.15 bound treats the
            two classes differently on every heap pop; the split deletes
            the per-neighbor layer comparison from the hottest loop in
            the package.
        tca_ids: ``tca[u]`` — per node id, the non-anchor neighbor ids
            in that node.
        sn_ids / pn_ids: ``sn(u)`` / ``pn(u)`` — adjacent node ids with
            coreness ``>=`` / ``<`` ``c(u)``, in interned-id order (the
            exploration order of ``find_followers``).
        gen / packed: generation-packed scratch; ``packed[i] < (gen << 2)``
            means untouched by the current exploration (UNEXPLORED).
        dplus: per-id scratch for the Theorem 4.15 degree bound.
        xmark: per-id exploration generation of the candidate's last
            seed loop; ``xmark[u] == gen`` is the whole
            ``u in adj_x and c(x) <= c(u)`` test (no clearing between
            explorations).
        survived / work / fresh / heap: reusable id worklists (ids that
            survived a pop this exploration, cascading-shrink stack,
            per-pop push candidates, the exploration heap — always
            drained, so it needs no clearing between explorations).

    Every row, node-id rows included, lists ids in ascending order.
    """

    #: The maintained per-id fields (what a fresh build must reproduce).
    FIELDS: tuple[str, ...] = (
        "core",
        "layer",
        "is_anchor",
        "nid",
        "keys",
        "fixed",
        "higher",
        "loweq",
        "tca_ids",
        "sn_ids",
        "pn_ids",
    )

    __slots__ = (
        "csr",
        "index",
        "labels",
        "rows",
        *FIELDS,
        "shift",
        "shift2",
        "idmask",
        "gen",
        "packed",
        "dplus",
        "xmark",
        "survived",
        "work",
        "fresh",
        "heap",
    )

    def __init__(
        self,
        csr: CSRGraph,
        core: list[int],
        layer: list[int],
        is_anchor: bytearray,
        nid: "list[int | None]",
    ) -> None:
        """Own the per-id values (see the fields) and build every row."""
        n = csr.num_vertices
        self.csr = csr
        self.index = csr.index
        self.labels = csr.labels
        self.rows = csr.rows()
        self.core = core
        self.layer = layer
        self.is_anchor = is_anchor
        self.nid = nid
        # Key geometry: 2**shift > n covers both the id field (ids are
        # < n) and the layer field (a shell has at most n layers), so
        # (core << 2w) | (layer << w) | id compares exactly like the
        # oracle's ((shell, layer), sort_key, vertex) heap tuples.
        self.shift = w1 = max(1, n.bit_length())
        self.shift2 = w2 = 2 * w1
        self.idmask = (1 << w1) - 1
        self.keys = [(core[i] << w2) | (layer[i] << w1) | i for i in range(n)]
        self.fixed = [0] * n
        empty: list[int] = []
        self.higher = [empty] * n
        self.loweq = [empty] * n
        self.tca_ids: list[dict[int, list[int]]] = [{}] * n
        self.sn_ids: list[list[int]] = [[]] * n
        self.pn_ids: list[list[int]] = [[]] * n
        self._write_rows(range(n), {})
        self.gen = 0
        self.packed = [0] * n
        self.dplus = [0] * n
        self.xmark = [0] * n
        self.survived: list[int] = []
        self.work: list[int] = []
        self.fresh: list[int] = []
        self.heap: list[int] = []

    def apply_update(self, delta: dict[int, Signature]) -> dict[int, Signature]:
        """Apply one anchoring's per-vertex changes as edge deltas.

        ``delta`` maps each id whose anchor flag, coreness, layer or
        node id changed to its new :data:`Signature`. Every such id's
        row is rebuilt, and its entries in each neighbor's rows are
        moved in place (bisect keeps the ascending order); no other row
        is read, so the walk costs the sum of the changed ids' degrees.
        Returns the previous :data:`Signature` of every id in ``delta``.
        """
        core = self.core
        layer = self.layer
        is_anchor = self.is_anchor
        nid = self.nid
        keys = self.keys
        w1 = self.shift
        w2 = self.shift2
        old: dict[int, Signature] = {}
        for i, (a, c, lay, node) in delta.items():
            old[i] = (is_anchor[i], core[i], layer[i], nid[i])
            is_anchor[i] = a
            core[i] = c
            layer[i] = lay
            nid[i] = node
            keys[i] = (c << w2) | (lay << w1) | i
        self._write_rows(delta, old)
        return old

    def _write_rows(self, ids: Iterable[int], old: dict[int, Signature]) -> None:
        """Rebuild the rows of ``ids``; patch their neighbors' rows.

        ``old`` holds the previous signature of every rebuilt id; a
        neighbor outside ``old`` gets the rebuilt id's entries moved
        from the old signature to the current one. With ``old`` empty
        (the initial build, where ``ids`` is every id) nothing is
        patched.
        """
        rows = self.rows
        core = self.core
        layer = self.layer
        is_anchor = self.is_anchor
        nid = self.nid
        fixed = self.fixed
        higher = self.higher
        loweq = self.loweq
        tca_ids = self.tca_ids
        sn_ids = self.sn_ids
        pn_ids = self.pn_ids
        patch = self._patch
        for v in ids:
            row = rows[v]
            cv = core[v]
            lv = layer[v]
            prev = old.get(v)
            fix = 0
            hi: list[int] = []
            lo: list[int] = []
            tca: dict[int, list[int]] = {}
            for u in row:
                cu = core[u]
                if is_anchor[u]:
                    fix += 1
                else:
                    node = nid[u]
                    bucket = tca.get(node)
                    if bucket is None:
                        tca[node] = [u]
                    else:
                        bucket.append(u)
                    if cu > cv:
                        fix += 1
                    elif cu == cv:
                        if layer[u] > lv:
                            hi.append(u)
                        else:
                            lo.append(u)
                if prev is not None and u not in old:
                    patch(u, v, prev)
            fixed[v] = fix
            higher[v] = hi
            loweq[v] = lo
            tca_ids[v] = tca
            sn: list[int] = []
            pn: list[int] = []
            for node in tca:
                (sn if core[node] >= cv else pn).append(node)
            sn.sort()
            pn.sort()
            sn_ids[v] = sn
            pn_ids[v] = pn

    def _patch(self, u: int, v: int, prev: Signature) -> None:
        """Move ``v``'s entries in ``u``'s rows from ``prev`` to now.

        ``u``'s own values are unchanged (it is not in the delta), so
        each row's membership test for ``v`` compares ``v``'s old and
        new values against the same ``core[u]`` / ``layer[u]``.
        """
        a0, c0, l0, n0 = prev
        core = self.core
        cu = core[u]
        a1 = self.is_anchor[v]
        c1 = core[v]
        f0 = a0 or c0 > cu
        f1 = a1 or c1 > cu
        if f0 != f1:
            self.fixed[u] += 1 if f1 else -1
        lu = self.layer[u]
        # 0: not same-shell; 1: same shell, layer <= u's; 2: higher layer
        s0 = 0 if a0 or c0 != cu else (2 if l0 > lu else 1)
        s1 = 0 if a1 or c1 != cu else (2 if self.layer[v] > lu else 1)
        if s0 != s1:
            if s0:
                _toggle((self.higher if s0 == 2 else self.loweq)[u], v, False)
            if s1:
                _toggle((self.higher if s1 == 2 else self.loweq)[u], v, True)
        n1 = self.nid[v]  # None for an anchor, like n0
        if n0 == n1 and c0 == c1:
            return
        tca = self.tca_ids[u]
        if n0 != n1:
            if n0 is not None:
                bucket = tca[n0]
                _toggle(bucket, v, False)
                if not bucket:
                    del tca[n0]
            if n1 is not None:
                bucket = tca.get(n1)
                if bucket is None:
                    tca[n1] = [v]
                else:
                    insort(bucket, v)
        if n0 is not None:
            self._classify(u, n0)
        if n1 is not None and n1 != n0:
            self._classify(u, n1)

    def _classify(self, u: int, node: int) -> None:
        """Put ``node`` in ``sn(u)``, ``pn(u)`` or neither, per its bucket.

        A node's coreness is its id vertex's: the id is its smallest
        member. Called after every change to ``u``'s bucket for
        ``node`` or to the coreness of a vertex in it, so the last call
        sees the final bucket and coreness.
        """
        if node in self.tca_ids[u]:
            want = 1 if self.core[node] >= self.core[u] else 2
        else:
            want = 0
        for tag, ids in ((1, self.sn_ids[u]), (2, self.pn_ids[u])):
            p = bisect_left(ids, node)
            present = p < len(ids) and ids[p] == node
            if present and want != tag:
                del ids[p]
            elif not present and want == tag:
                ids.insert(p, node)

    def stream(
        self,
        ids: Iterable[int],
        tally: Tally,
        served: "Mapping[int, Mapping[int, int]] | None" = None,
        *,
        only_coreness: int | None = None,
        members: "dict[int, set[Vertex]] | None" = None,
    ) -> Iterator[Evaluation]:
        """Evaluate candidates as they arrive: one kernel call per round.

        Takes candidate ids from ``ids`` one at a time and yields
        ``(id, counts, |F(x)|)`` per id, ``counts`` being
        ``{node id: |F[x][id]|}`` over ``sn(x)``. Nodes in the id's
        ``served`` row are answered from it; the rest are explored, and
        ``counts`` lists the served ones first, each part in ``sn(x)``
        order. ``only_coreness`` restricts ``sn(x)`` to nodes of that
        coreness (explorations are per node and independent, so skipping
        nodes is sound); ``members``, when given, receives each explored
        node's survivor label set (the caller clears it between
        candidates if it wants them apart). ``tally`` gets each
        candidate's Figure-13 work before the candidate is yielded.

        The next id is drawn only after the consumer has taken the last
        result, so an ``ids`` iterator that reads the consumer's state
        (GAC's prune threshold) stops the stream before it evaluates a
        candidate the consumer would skip.

        Each exploration is step-for-step the dict oracle's loop; see
        :class:`repro.verify.dict_explorer.DictExplorer` for the
        Theorem 4.15 commentary. Mechanical fusions:

        * status tests compare the packed word against ``base | TAG``
          directly — a stale word (older generation) is below ``base``,
          so it can never equal a current-generation tag;
        * the seed loop marks every neighbor of ``x`` in the node with
          the exploration's generation (``xmark``). An exploration never
          leaves its node and every node of ``sn(x)`` has coreness
          ``>= c(x)``, so ``xmark[u] == gen`` is the oracle's whole
          ``u in adj(x) and c(x) <= c(u)`` test;
        * the bound scan runs over the pre-split ``higher`` / ``loweq``
          rows (no per-neighbor layer comparison) and collects push
          candidates (untouched higher-layer neighbors, in row order)
          as it counts them, so a surviving pop never re-scans its row.
          Nothing mutates ``packed`` between the scan and the pushes,
          so the collected list is exactly what the oracle's second
          scan would select, in the same order — the heap is identical;
        * the cascading shrink walks ``higher`` and then ``loweq``: the
          shrink is a fixpoint, so the set it discards and the bounds it
          leaves on survivors do not depend on the order;
        * the candidate's own id is pre-discarded for the exploration
          instead of being tested per neighbor: the oracle skips ``x``
          in every scan, and a DISCARDED word contributes nothing in
          any scan here. Sound because ``x`` can never *enter* an
          exploration — seeds are neighbors of ``x`` and the graph
          rejects self-loops — so the mark is never overwritten.

        A candidate reserves its explorations' generations before the
        first one starts, and every yield leaves the worklists empty, so
        a stream abandoned mid-way (or one interleaved with another)
        never aliases a later exploration's scratch words.
        """
        core = self.core
        fixed = self.fixed
        higher = self.higher
        loweq = self.loweq
        keys = self.keys
        labels = self.labels
        nid_of = self.nid
        sn_ids = self.sn_ids
        tca_ids = self.tca_ids
        packed = self.packed
        dplus = self.dplus
        xmark = self.xmark
        work = self.work
        mask = self.idmask
        w1 = self.shift
        w2 = self.shift2
        push = heappush
        pop = heappop
        survived = self.survived
        fresh = self.fresh
        heap = self.heap
        del heap[:]  # always drained below; clear only stale garbage
        keep = survived.append
        for xid in ids:
            counts: dict[int, int] = {}
            total = 0
            todo = sn_ids[xid]
            if only_coreness is not None:
                todo = [nid for nid in todo if core[nid] == only_coreness]
            row = served.get(xid) if served else None
            if row:
                sn = todo
                todo = []
                for nid in sn:
                    count = row.get(nid)
                    if count is None:
                        todo.append(nid)
                    else:
                        counts[nid] = count
                        total += count
                tally.reused += len(counts)
            tally.evaluated += 1
            if not todo:
                yield xid, counts, total
                continue
            seed_map = tca_ids[xid]
            own = nid_of[xid]
            # Own-node seed window — same shell as x, strictly higher
            # layer — as one key range: lo = (shell_x, layer_x + 1, 0)
            # and hi = (shell_x + 1, 0, 0).
            kx = keys[xid]
            lo = ((kx >> w1) + 1) << w1
            hi = ((kx >> w2) + 1) << w2
            gen = self.gen
            self.gen = gen + len(todo)
            pops = 0
            for nid in todo:
                gen += 1
                base = gen << 2
                bh = base | _IN_HEAP
                # A tca bucket never holds an anchor (its rows count
                # anchors in ``fixed``, and ``_patch`` moves a newly
                # anchored id out); every sn(x) node has a bucket.
                if nid == own:
                    for vi in seed_map[nid]:
                        xmark[vi] = gen
                        k = keys[vi]
                        if lo <= k < hi:
                            packed[vi] = bh
                            push(heap, k)
                else:
                    for vi in seed_map[nid]:
                        xmark[vi] = gen
                        packed[vi] = bh
                        push(heap, keys[vi])
                if not heap:
                    # Nothing passed the seed window: nothing was
                    # explored, so nothing can have survived.
                    counts[nid] = 0
                    if members is not None:
                        members[nid] = set()
                    continue
                bs = base | _SURVIVED
                bd = base | _DISCARDED
                # Pre-discard the candidate itself — sound because the
                # seed loops above can never have queued it (no
                # self-loops), so no mark is overwritten.
                packed[xid] = bd
                del survived[:]
                ns = 0  # live survivor count — gates the cascading shrink
                while heap:
                    u = pop(heap) & mask
                    # Heap entries are always this generation; only the
                    # status can have moved on (survived / discarded).
                    if packed[u] != bh:
                        continue
                    pops += 1
                    cu = core[u]
                    bound = fixed[u]
                    if xmark[u] == gen:
                        bound += 1
                    del fresh[:]
                    for v in higher[u]:
                        pv = packed[v]
                        if pv < base:
                            bound += 1
                            fresh.append(v)
                        elif pv != bd:
                            bound += 1
                    for v in loweq[u]:
                        # IN_HEAP or SURVIVED, i.e. strictly between the
                        # generation base and its DISCARDED word.
                        if base < packed[v] < bd:
                            bound += 1
                    if bound > cu:
                        packed[u] = bs
                        dplus[u] = bound
                        ns += 1
                        keep(u)
                        for v in fresh:
                            packed[v] = bh
                            push(heap, keys[v])
                    elif ns:
                        # The cascade can only decrement SURVIVED
                        # neighbors; with none alive it is a guaranteed
                        # no-op, so the (hot) row scans are skipped.
                        packed[u] = bd
                        work.append(u)
                        while work:
                            wv = work.pop()
                            for side in (higher[wv], loweq[wv]):
                                for v in side:
                                    if packed[v] == bs:
                                        d = dplus[v] - 1
                                        dplus[v] = d
                                        if d <= core[v]:
                                            packed[v] = bd
                                            ns -= 1
                                            work.append(v)
                            if not ns:
                                # Every survivor is gone — the remaining
                                # worklist scans cannot change anything.
                                del work[:]
                                break
                    else:
                        packed[u] = bd
                counts[nid] = ns
                total += ns
                if members is not None:
                    members[nid] = {labels[i] for i in survived if packed[i] == bs}
            tally.explored += len(todo)
            tally.visited += pops
            yield xid, counts, total


def _toggle(row: list[int], v: int, present: bool) -> None:
    """Insert ``v`` into / remove it from an ascending id row."""
    if present:
        insort(row, v)
    else:
        del row[bisect_left(row, v)]
