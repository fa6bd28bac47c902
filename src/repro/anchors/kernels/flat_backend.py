"""Flat-array follower exploration over the interned CSR ids.

The default backend whenever a CSR view exists. Algorithm 4/5 run here
entirely on dense integer ids:

* per-id ``(core, shell, layer, fixed-support)`` tables and same-shell
  neighbor-id rows, mirrored from the :class:`~repro.anchors.state.AnchoredState`
  dicts once per state (plain lists rather than ``array('i')`` for the
  same re-boxing reason as :meth:`repro.graphs.csr.CSRGraph.as_lists`);
* a precomputed int-packed ``(shell << 2w) | (layer << w) | id`` heap
  key per id, replacing the dict backend's ``(pair, sort_key, vertex)``
  tuples — ascending id order *is* the canonical
  :func:`~repro.graphs.graph.vertex_sort_key` order under sorted
  interning, so the packed comparison reproduces the oracle's heap
  order exactly;
* one generation-packed scratch word per id: ``packed[i] = (gen << 2) |
  status``. ``gen`` strictly increases per exploration, so any entry
  below the current generation base is stale garbage — UNEXPLORED —
  with no per-candidate reset and no separate stamp array (status
  comparisons against ``base | TAG`` reject stale entries for free);
* a preallocated cascading-shrink worklist.

The tables are cached on the state (``state.kernel_tables``) and kept
current by :func:`repro.anchors.incremental.apply_anchor`, which calls
:meth:`FlatTables.apply_update` for exactly the vertices whose derived
values it refreshed — the same increment that keeps the per-worker
lineage caches cheap keeps these tables warm across greedy rounds.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING

from repro.anchors.state import AnchoredState
from repro.graphs.csr import CSRGraph, csr_view, decomposition_arrays
from repro.graphs.graph import Vertex

if TYPE_CHECKING:
    from repro.core.tree import NodeId

# Exploration status tags, identical to the dict backend's. UNEXPLORED
# is represented by a stale (below the current base) generation word.
_IN_HEAP = 1
_SURVIVED = 2
_DISCARDED = 3


class FlatTables:
    """Dense per-id mirrors of the exploration state, cached per state.

    Attributes:
        core / shell / layer: per-id coreness and shell-layer pair.
        fixed: per-id fixed support (anchored + deeper-shell neighbors).
        same: per-id same-shell neighbor id rows (anchors excluded, in
            canonical ascending order — mirrors ``state.same_shell``).
        higher / loweq: ``same`` split by layer relative to the row
            owner (strictly higher vs lower-or-equal), preserving row
            order. The Theorem 4.15 bound treats the two classes
            differently on every heap pop; splitting once per update
            deletes the per-neighbor layer comparison from the hottest
            loop in the package.
        is_anchor: per-id anchor flag.
        keys: per-id packed heap key ``(shell << 2w) | (layer << w) | id``.
        shift / shift2 / idmask: the packed heap-key geometry.
        gen / packed: generation-packed scratch; ``packed[i] < (gen << 2)``
            means untouched by the current exploration (UNEXPLORED).
        dplus: per-id scratch for the Theorem 4.15 degree bound.
        support: per-id neighbor rows pre-filtered to ``core >= core(owner)``
            — the neighbors that would pass the oracle's
            ``c(x) <= c(u)`` support test if the owner were the
            candidate. ``begin_candidate`` stamps this row verbatim.
        cgen / xmark: generation marks over the current candidate's
            ``support`` row; ``xmark[u] == cgen`` is the whole
            ``u in adj_x and c(x) <= c(u)`` test (no clearing between
            candidates).
        tca_ids: per-id mirror of ``state.tca`` with seed sets interned
            to ascending id tuples (the per-seed label lookups move out
            of the search).
        sn_ids: per-id mirror of ``state.sn`` as a tuple of node ids in
            interned-id order — the exploration order of
            ``find_followers``, presorted (ascending interned id *is*
            the canonical ``vertex_sort_key`` order).
        touched / work / fresh / heap: reusable id worklists (touched-
            this-exploration collection, cascading-shrink stack,
            per-pop push candidates, the exploration heap — always
            drained, so it needs no clearing between explorations).
        explorer: the reusable :class:`FlatExplorer` flyweight
            (:func:`flat_explorer` re-points it per candidate instead
            of allocating — the greedy scan builds one explorer per
            evaluated candidate, serially).
    """

    __slots__ = (
        "csr",
        "index",
        "labels",
        "rows",
        "anchors",
        "decomposition",
        "core",
        "shell",
        "layer",
        "fixed",
        "same",
        "higher",
        "loweq",
        "is_anchor",
        "keys",
        "shift",
        "shift2",
        "idmask",
        "gen",
        "packed",
        "dplus",
        "support",
        "cgen",
        "xmark",
        "tca_ids",
        "sn_ids",
        "touched",
        "work",
        "fresh",
        "heap",
        "explorer",
    )

    def __init__(self, state: AnchoredState, csr: CSRGraph) -> None:
        n = csr.num_vertices
        self.csr = csr
        self.index = csr.index
        self.labels = csr.labels
        self.rows = csr.rows()
        self.anchors = state.anchors
        self.decomposition = state.decomposition
        self.core, self.shell, self.layer = decomposition_arrays(
            csr, state.decomposition.coreness, state.decomposition.shell_layer
        )
        index = csr.index
        is_anchor = bytearray(n)
        for a in state.anchors:  # lint: order-ok independent flag writes
            is_anchor[index[a]] = 1
        self.is_anchor = is_anchor
        fixed_support = state.fixed_support
        same_shell = state.same_shell
        self.fixed = [fixed_support.get(u, 0) for u in csr.labels]
        # Rows as tuples: the bound scan iterates them on every heap
        # pop, and tuple iteration shaves a little off each pass.
        self.same = [
            tuple(index[v] for v in same_shell.get(u, ()))
            for u in csr.labels
        ]
        # Key geometry: 2**shift > n covers both the id field (ids are
        # < n) and the layer field (a shell has at most n layers), so
        # (shell << 2w) | (layer << w) | id compares exactly like the
        # oracle's ((shell, layer), sort_key, vertex) heap tuples.
        self.shift = w1 = max(1, n.bit_length())
        self.shift2 = w2 = 2 * w1
        self.idmask = (1 << w1) - 1
        shell = self.shell
        layer = self.layer
        self.keys = [
            (shell[i] << w2) | (layer[i] << w1) | i for i in range(n)
        ]
        self.higher: list[tuple[int, ...]] = [()] * n
        self.loweq: list[tuple[int, ...]] = [()] * n
        for i in range(n):  # lint: order-ok per-id splits are independent
            self._split(i)
        self.gen = 0
        self.packed = [0] * n
        self.dplus = [0] * n
        self.cgen = 0
        self.xmark = [0] * n
        core = self.core
        rows = self.rows
        self.support = [
            tuple(j for j in rows[i] if core[j] >= core[i]) for i in range(n)
        ]
        adjacency_tca = state.adjacency.tca
        self.tca_ids: list[dict[object, tuple[int, ...]]] = [
            {
                nid: tuple(sorted(index[v] for v in vs))
                for nid, vs in adjacency_tca[u].items()
            }
            for u in csr.labels
        ]
        adjacency_sn = state.adjacency.sn
        self.sn_ids: list[tuple[object, ...]] = [
            tuple(sorted(adjacency_sn[u], key=index.__getitem__))
            for u in csr.labels
        ]
        self.touched: list[int] = []
        self.work: list[int] = []
        self.fresh: list[int] = []
        self.heap: list[int] = []
        self.explorer: "FlatExplorer | None" = None

    def _split(self, i: int) -> None:
        """Rebuild ``higher[i]`` / ``loweq[i]`` from ``same[i]`` + layers."""
        layer = self.layer
        li = layer[i]
        hi: list[int] = []
        lo: list[int] = []
        for v in self.same[i]:
            (hi if layer[v] > li else lo).append(v)
        self.higher[i] = tuple(hi)
        self.loweq[i] = tuple(lo)

    def apply_update(self, state: AnchoredState, touched: set[Vertex]) -> None:
        """Refresh the tables for the vertices ``apply_anchor`` changed.

        ``touched`` is the anchored component plus its neighborhood —
        exactly the set whose coreness/shell-layer/support/same-shell
        values the incremental anchoring refreshed (including the new
        anchor itself and the boundary anchors whose effective coreness
        moved).
        """
        index = self.index
        coreness = state.decomposition.coreness
        shell_layer = state.decomposition.shell_layer
        anchors = state.anchors
        fixed_support = state.fixed_support
        same_shell = state.same_shell
        adjacency_tca = state.adjacency.tca
        adjacency_sn = state.adjacency.sn
        tca_ids = self.tca_ids
        sn_ids = self.sn_ids
        core = self.core
        shell = self.shell
        layer = self.layer
        keys = self.keys
        is_anchor = self.is_anchor
        fixed = self.fixed
        same = self.same
        rows = self.rows
        support = self.support
        w1 = self.shift
        w2 = self.shift2
        redo: set[int] = set()
        moved: list[int] = []
        ids: list[int] = []
        for u in touched:  # lint: order-ok per-id updates are independent
            i = index[u]
            ids.append(i)
            core[i] = coreness[u]
            pair = shell_layer[u]
            key = (pair[0] << w2) | (pair[1] << w1) | i
            if key != keys[i]:
                keys[i] = key
                shell[i] = pair[0]
                layer[i] = pair[1]
                moved.append(i)
            is_anchor[i] = 1 if u in anchors else 0
            fixed[i] = fixed_support.get(u, 0)
            same[i] = tuple(index[v] for v in same_shell.get(u, ()))
            tca_ids[i] = {
                nid: tuple(sorted(index[v] for v in vs))
                for nid, vs in adjacency_tca[u].items()
            }
            sn_ids[i] = tuple(
                sorted(adjacency_sn[u], key=index.__getitem__)
            )
            redo.add(i)
        # The support rows filter each neighbor by core relative to the
        # row owner, so they depend on core values possibly updated
        # later in the loop above — rebuild them in a second pass. A
        # core change of either endpoint lands both endpoints in
        # ``touched`` (the changed vertex is in the component, its
        # neighbors in the component's neighborhood), so refreshing the
        # touched rows covers every stale entry.
        for i in ids:  # lint: order-ok per-id rebuilds are independent
            support[i] = tuple(j for j in rows[i] if core[j] >= core[i])
        # The higher/loweq splits classify each row entry by *its* layer,
        # so a vertex whose (shell, layer) pair moved also stales the
        # splits of its same-shell neighbors — which may sit outside
        # ``touched`` when only layers shifted within a shell. (Shell
        # changes rewrite the neighbors' same-shell rows, which puts
        # those neighbors in ``touched`` already.)
        for i in moved:
            redo.update(same[i])
        for i in redo:  # lint: order-ok per-id splits are independent
            self._split(i)
        self.anchors = anchors
        self.decomposition = state.decomposition

    def explorer_for(self, x: Vertex) -> "FlatExplorer":
        """The flyweight explorer, re-pointed at candidate ``x``.

        Only valid on tables already known to be current — callers that
        have not checked staleness go through :func:`flat_explorer`.
        """
        e = self.explorer
        if e is None:
            e = FlatExplorer.__new__(FlatExplorer)
            e.tables = self
            self.explorer = e
        _point(e, self, x)
        return e

    def begin_candidate(self, xid: int) -> int:
        """Mark ``xid``'s support row under a fresh candidate generation.

        Returns the generation; ``xmark[u] == cgen`` is the membership
        test. Previous candidates' marks are simply stale generations,
        so nothing needs clearing. The row is pre-filtered to
        ``core >= core(xid)`` — the oracle's support test is
        ``u in adj(x) and c(x) <= c(u)``, and core values cannot move
        between here and the candidate's explorations — so the test
        collapses to the single generation check.
        """
        self.cgen = cg = self.cgen + 1
        xmark = self.xmark
        for i in self.support[xid]:
            xmark[i] = cg
        return cg


def tables_for(state: AnchoredState) -> FlatTables:  # lint: obs-ok cache accessor; the search span wraps it
    """The state's cached flat tables, built on first use.

    Staleness is guarded by identity: ``apply_anchor`` both replaces
    ``state.decomposition`` and re-syncs the cached tables, so a tables
    object pointing at the current decomposition and anchor set is
    current by construction; anything else is rebuilt from scratch.
    """
    tables = state.kernel_tables
    if (
        tables is not None
        and tables.decomposition is state.decomposition
        and tables.anchors is state.anchors
    ):
        return tables
    tables = FlatTables(state, csr_view(state.graph))
    state.kernel_tables = tables
    return tables


class FlatExplorer:
    """Per-candidate exploration context for the flat backend.

    Constructed through :func:`flat_explorer`, which reuses the one
    flyweight instance cached on the tables — the candidate scan is
    serial and builds one explorer per evaluated candidate, so the
    per-candidate state (id, generation, seed map, own-node key window)
    is simply re-pointed instead of re-allocated.
    """

    __slots__ = ("tables", "xid", "cg", "lo", "hi", "seeds")

    def __init__(self, state: AnchoredState, x: Vertex) -> None:
        self.tables = tables = tables_for(state)
        _point(self, tables, x)

    def explore_nodes(
        self, todo: "list[tuple[NodeId, bool]]"
    ) -> "list[tuple[NodeId, set[Vertex], int]]":
        """Explore every requested tree node for this candidate.

        One batched call per candidate: the table hoists, the seed-map
        lookup, and the worklist bindings amortize over all of the
        candidate's explorations instead of being repaid per node.
        Each exploration is step-for-step the dict backend's loop; see
        :class:`repro.anchors.kernels.dict_backend.DictExplorer` for the
        Theorem 4.15 commentary, with three mechanical fusions:

        * status tests compare the packed word against ``base | TAG``
          directly — a stale word (older generation) is below ``base``,
          so it can never equal a current-generation tag;
        * the bound scan runs over the pre-split ``higher`` / ``loweq``
          rows (no per-neighbor layer comparison) and collects push
          candidates (untouched higher-layer neighbors, in row order)
          as it counts them, so a surviving pop never re-scans its row.
          Nothing mutates ``packed`` between the scan and the pushes,
          so the collected list is exactly what the oracle's second
          scan would select, in the same order — the heap is identical;
        * the candidate's own id is pre-discarded for the exploration
          instead of being tested per neighbor: the oracle skips ``x``
          in every scan, and a DISCARDED word contributes nothing in
          any scan here. Sound because ``x`` can never *enter* an
          exploration — seeds are neighbors of ``x`` and the graph
          rejects self-loops — so the mark is never overwritten.
        """
        t = self.tables
        core = t.core
        fixed = t.fixed
        same = t.same
        higher = t.higher
        loweq = t.loweq
        keys = t.keys
        labels = t.labels
        is_anchor = t.is_anchor
        packed = t.packed
        dplus = t.dplus
        xmark = t.xmark
        work = t.work
        mask = t.idmask
        xid = self.xid
        cg = self.cg
        lo = self.lo
        hi = self.hi
        seed_map = self.seeds
        push = heappush
        pop = heappop
        touched = t.touched
        fresh = t.fresh
        heap = t.heap
        del heap[:]  # always drained below; clear only stale garbage
        seeds_of = seed_map.get
        touch = touched.append
        out: "list[tuple[NodeId, set[Vertex], int]]" = []
        emit = out.append
        gen = t.gen
        for nid, is_own_node in todo:
            # Consume the generation up front so an aborted exploration
            # can never alias a later one's scratch words.
            t.gen = gen = gen + 1
            base = gen << 2
            bh = base | _IN_HEAP
            del touched[:]

            seeds = seeds_of(nid)
            if seeds:
                if is_own_node:
                    for vi in seeds:
                        if is_anchor[vi]:
                            continue
                        k = keys[vi]
                        if lo <= k < hi:
                            packed[vi] = bh
                            touch(vi)
                            push(heap, k)
                else:
                    for vi in seeds:
                        if is_anchor[vi]:
                            continue
                        packed[vi] = bh
                        touch(vi)
                        push(heap, keys[vi])
            if not heap:
                # Nothing passed the seed filters: nothing was explored,
                # so nothing can have survived (touched is empty too).
                emit((nid, set(), 0))
                continue
            bs = base | _SURVIVED
            bd = base | _DISCARDED
            # Pre-discard the candidate itself — sound because the seed
            # loops above can never have queued it (no self-loops), so
            # no mark is overwritten.
            packed[xid] = bd

            pops = 0
            ns = 0  # live survivor count — gates the cascading shrink
            while heap:
                u = pop(heap) & mask
                # Heap entries are always this generation; only the
                # status can have moved on (survived / shrink-discarded).
                if packed[u] != bh:
                    continue
                pops += 1
                cu = core[u]
                bound = fixed[u]
                if xmark[u] == cg:
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
                    for v in fresh:
                        packed[v] = bh
                        touch(v)
                        push(heap, keys[v])
                elif ns:
                    # The cascade can only decrement SURVIVED neighbors;
                    # with none alive it is a guaranteed no-op, so the
                    # (hot) row scans are skipped outright.
                    packed[u] = bd
                    work.append(u)
                    while work:
                        wv = work.pop()
                        for v in same[wv]:
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

            if ns:
                emit(
                    (nid, {labels[i] for i in touched if packed[i] == bs}, pops)
                )
            else:
                emit((nid, set(), pops))
        return out


def _point(e: FlatExplorer, tables: FlatTables, x: Vertex) -> None:
    """Re-point explorer ``e`` at candidate ``x`` (fresh generation)."""
    xid = tables.index[x]
    e.xid = xid
    e.cg = tables.begin_candidate(xid)
    e.seeds = tables.tca_ids[xid]
    # Own-node seed window — same shell as x, strictly higher layer
    # — as one key range: lo = (shell_x, layer_x + 1, 0) and
    # hi = (shell_x + 1, 0, 0). Constant per candidate.
    kx = tables.keys[xid]
    e.lo = ((kx >> tables.shift) + 1) << tables.shift
    e.hi = ((kx >> tables.shift2) + 1) << tables.shift2


def flat_explorer(state: AnchoredState, x: Vertex) -> FlatExplorer:
    """The flat backend's explorer factory (reuses the tables flyweight)."""
    return tables_for(state).explorer_for(x)
