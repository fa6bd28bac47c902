"""The GAC greedy algorithm (Algorithm 6) and its ablated variants.

``greedy_anchored_coreness`` runs ``budget`` greedy iterations; each
iteration evaluates candidate anchors and picks the one with the most
followers. Three accelerations can be toggled independently, giving the
paper's evaluated variants (Table 5):

=============  ============================  =========================
Name           Call                          Paper variant
=============  ============================  =========================
GAC            ``gac(g, b)``                 UB pruning + reuse + Alg 4
GAC-U          ``gac_u(g, b)``               reuse + Alg 4
GAC-U-R        ``gac_u_r(g, b)``             Alg 4 only
Baseline       ``baseline(g, b)``            full core decomposition
                                             per candidate
=============  ============================  =========================

Tie-breaking between equally good anchors is a first-class parameter
(Table 7 studies ``"ub"`` / ``"degree"`` / ``"random"``); ``"id"``
(smallest vertex id) gives fully deterministic runs for testing.

Each round runs on CSR ids and counts only: candidates, tree nodes,
cache rows, removals and baseline corenesses are all keyed by id, and
labels appear only in the result. Candidates are ranked by refined
bound, and the scan stops at the first pruned one. The round is one
:class:`~repro.anchors.followers.FollowerSearch` stream: the scan feeds
it candidate ids until the first pruned one and takes back per-node
counts; only the winner's follower set is built, by ``find_followers``.

The Eq. 1–3 bounds, the servable cache rows and the refined bounds are
built from scratch on a run's first round only (:class:`RoundUpkeep`).
After each anchoring they are brought up to date from its Δ — the ids
whose anchor flag, coreness, layer or node id changed — so a round's
upkeep is proportional to what the anchoring changed, not to ``n``.

The scan can fan out across worker processes (``workers=`` /
``REPRO_PARALLEL``, via :mod:`repro.parallel`) with byte-identical
results: each round forks workers that run the serial scan's own
stream, one candidate id at a time, over bound-sorted id chunks, and
the serial scan then replays over the shipped counts
(``docs/parallelism.md``).
Serial is the default and the oracle.
"""

from __future__ import annotations

import functools
import os
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Literal

from repro import checkpoint as _checkpoint  # lint: layer-ok sanctioned persistence hook
from repro import obs as _obs
from repro.anchors.bounds import UpperBounds, compute_upper_bounds, refined_total
from repro.anchors.followers import (
    FollowerCounters,
    FollowerSearch,
    find_followers,
    followers_naive,
)
from repro.anchors.incremental import apply_anchor
from repro.anchors.kernels.flat_backend import Tallies
from repro.anchors.reuse import FollowerCache
from repro.anchors.state import AnchoredState
from repro.core.decomposition import _require_anchors_present
from repro.errors import BudgetError
from repro.graphs.csr import csr_view
from repro.graphs.graph import Graph, Vertex
from repro.verify import enabled as _verify_enabled
from repro.verify import verification as _verification

if TYPE_CHECKING:
    from repro.parallel.pool import CandidateScanPool

TieBreak = Literal["ub", "degree", "random", "id"]
FollowerMethod = Literal["tree", "naive"]

# Module attribute (not a direct call site) so tests can monkeypatch the
# clock the deadline checks read.
_clock = _obs.clock

#: Below this many candidates a process pool costs more than it saves
#: (the per-round fork and dispatch dominate); the greedy stays serial.
#: Module attribute so tests can force pools onto tiny graphs.
_MIN_PARALLEL_CANDIDATES = 64


@dataclass
class IterationTrace:
    """Per-greedy-iteration record (drives Figures 12 and 13)."""

    anchor: Vertex
    gain: int
    elapsed_seconds: float
    counters: FollowerCounters
    candidate_count: int


@dataclass
class GreedyResult:
    """Outcome of a greedy anchored-coreness run.

    A run can end with fewer than ``budget`` anchors and
    ``truncated=False``: the greedy stops once every remaining
    candidate's marginal gain is negative (see
    :func:`greedy_anchored_coreness`).

    Attributes:
        anchors: chosen anchors in selection order.
        gains: marginal coreness gain of each anchor at selection time.
        followers: follower set of each anchor at its selection time.
        traces: per-iteration instrumentation.
        truncated: True when a time limit stopped the run early.
    """

    anchors: list[Vertex] = field(default_factory=list)
    gains: list[int] = field(default_factory=list)
    followers: dict[Vertex, frozenset[Vertex]] = field(default_factory=dict)
    traces: list[IterationTrace] = field(default_factory=list)
    truncated: bool = False

    @property
    def total_gain(self) -> int:
        """Total coreness gain ``g(A, G)`` accumulated by the greedy run."""
        return sum(self.gains)

    @property
    def anchor_set(self) -> frozenset[Vertex]:
        return frozenset(self.anchors)

    def total_counters(self) -> FollowerCounters:
        """Instrumentation summed over all iterations."""
        total = FollowerCounters()
        for trace in self.traces:
            total.merge(trace.counters)
        return total


def greedy_anchored_coreness(
    graph: Graph,
    budget: int,
    *,
    use_upper_bounds: bool = True,
    reuse: bool = True,
    follower_method: FollowerMethod = "tree",
    tie_break: TieBreak = "ub",
    seed: int | None = None,
    initial_anchors: Iterable[Vertex] = (),
    time_limit: float | None = None,
    verify: bool | None = None,
    obs: bool | None = None,
    workers: int | None = None,
    checkpoint: "str | os.PathLike[str] | None" = None,
    checkpoint_every: int = 1,
    resume: "str | os.PathLike[str] | None" = None,
) -> GreedyResult:
    """Run the greedy heuristic for the anchored coreness problem.

    Args:
        graph: the social network (never mutated).
        budget: the most anchors ``b`` to select. The run stops early,
            with ``truncated=False``, when every remaining candidate's
            marginal gain is negative: a vertex already raised as an
            earlier anchor's follower loses that gain when anchored, so
            with no follower to make up for it the objective would drop.
        use_upper_bounds: prune candidates whose bound cannot beat the
            best gain found so far (Section 4.5).
        reuse: carry per-tree-node follower counts across iterations
            (Section 4.3); ignored when ``follower_method == "naive"``.
        follower_method: ``"tree"`` for Algorithm 4, ``"naive"`` for the
            full-decomposition Baseline.
        tie_break: how equal-gain candidates are ranked (Table 7).
        seed: RNG seed, only used by ``tie_break="random"``.
        initial_anchors: pre-existing anchors (excluded from candidates
            and from gain counting).
        time_limit: optional wall-clock cap in seconds; the run stops
            early with ``truncated=True`` once exceeded. The deadline is
            checked between iterations *and* between candidate
            evaluations inside an iteration, so one expensive iteration
            cannot overshoot the cap unboundedly; an iteration cut off
            mid-scan records no partial winner.
        verify: force the runtime invariant checks on (``True``) or off
            (``False``) for this run; ``None`` defers to ``REPRO_VERIFY``.
        obs: force span tracing on (``True``) or off (``False``) for
            this run; ``None`` defers to ``REPRO_TRACE``. Tracing never
            changes the result — only whether timings are recorded.
        workers: fan the candidate scan across this many worker
            processes (:mod:`repro.parallel`). ``None`` defers to the
            ``REPRO_PARALLEL`` env var; ``0``/``1`` stay serial. The
            result is byte-identical to the serial scan for every
            ``workers`` value — parallelism changes wall-clock only.
            The pool falls back to the serial scan when it cannot help
            (tiny graphs, verification on, no ``fork``, a failed round),
            recording a ``gac.parallel_fallback.*`` gauge.
        checkpoint: write a round-granular snapshot to this path (see
            :mod:`repro.checkpoint`) after each committed round. A
            failed write never kills the run — it is gauged as
            ``gac.checkpoint.write_error`` and the run continues.
        checkpoint_every: write the snapshot every this-many rounds
            (the final round is always written).
        resume: continue from a snapshot previously written by
            ``checkpoint``. The resumed run is byte-identical — anchors,
            gains, RNG stream, Figure-13 counters — to the uninterrupted
            run with the same parameters; a snapshot from a different
            graph, algorithm, or parameter set aborts with
            :class:`~repro.errors.CheckpointError`. ``budget`` may
            exceed the snapshot's (the run extends it).

    Raises:
        BudgetError: if ``budget`` is negative or exceeds the number of
            non-anchor vertices.
        CheckpointError: if ``resume`` names a missing, corrupt, or
            mismatched snapshot.
    """
    initial = frozenset(initial_anchors)
    if budget < 0:
        raise BudgetError(f"budget must be non-negative, got {budget}")
    if budget > graph.num_vertices - len(initial):
        raise BudgetError(
            f"budget {budget} exceeds the {graph.num_vertices - len(initial)} "
            "anchorable vertices"
        )
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    if follower_method == "naive":
        reuse = False
        use_upper_bounds = False
    rng = random.Random(seed)
    start = _clock()
    with (
        _verification(verify),
        _obs.tracing(obs),
        _obs.span("gac.run", budget=budget),
    ):
        # Build the CSR view the flat kernel searches up front, so a graph
        # with unorderable labels fails here with one GraphError line.
        csr_view(graph)
        return _run_greedy(
            graph,
            budget,
            initial=initial,
            use_upper_bounds=use_upper_bounds,
            reuse=reuse,
            follower_method=follower_method,
            tie_break=tie_break,
            rng=rng,
            seed=seed,
            time_limit=time_limit,
            start=start,
            workers=workers,
            checkpoint_path=checkpoint,
            checkpoint_every=checkpoint_every,
            resume_path=resume,
        )


def _run_greedy(
    graph: Graph,
    budget: int,
    *,
    initial: frozenset[Vertex],
    use_upper_bounds: bool,
    reuse: bool,
    follower_method: FollowerMethod,
    tie_break: TieBreak,
    rng: random.Random,
    seed: int | None,
    time_limit: float | None,
    start: float,
    workers: int | None,
    checkpoint_path: "str | os.PathLike[str] | None" = None,
    checkpoint_every: int = 1,
    resume_path: "str | os.PathLike[str] | None" = None,
) -> GreedyResult:
    """The greedy loop proper (runs inside the verification context)."""

    deadline = None if time_limit is None else start + time_limit
    cache = FollowerCache()
    upkeep = RoundUpkeep(use_upper_bounds=use_upper_bounds, reuse=reuse)
    result = GreedyResult()
    fingerprint = ""
    params: dict[str, object] = {}
    if checkpoint_path is not None or resume_path is not None:
        _require_anchors_present(graph, initial)
        fingerprint = _checkpoint.graph_fingerprint(graph)
        index = csr_view(graph).index
        # budget and workers are deliberately absent: a resume may extend
        # the budget, and worker count is a wall-clock knob, never a
        # results knob. seed is kept — it documents the rng_state's origin
        # and lets the resume-replay invariant rerun the prefix.
        params = {
            "use_upper_bounds": use_upper_bounds,
            "reuse": reuse,
            "follower_method": follower_method,
            "tie_break": tie_break,
            "seed": seed,
            "initial": sorted(index[u] for u in initial),
        }
    if resume_path is not None:
        base_coreness = _checkpoint.resume(
            resume_path,
            graph,
            budget,
            algo="gac",
            fingerprint=fingerprint,
            params=params,
            result=result,
            rng=rng,
            cache=cache,
        )
        # Rebuilding from scratch with the checkpointed anchors equals
        # the incremental state the killed run held: every derived
        # structure (decomposition, tree node ids, adjacency) is
        # deterministic given graph + anchor set.
        state = AnchoredState.build(graph, initial | frozenset(result.anchors))
        if _verify_enabled():
            from repro.verify.invariants import verify_resume_replay

            verify_resume_replay(
                graph,
                initial,
                result.anchors,
                result.gains,
                use_upper_bounds=use_upper_bounds,
                reuse=reuse,
                follower_method=follower_method,
                tie_break=tie_break,
                seed=seed,
            )
    else:
        state = AnchoredState.build(graph, initial)
        # Baseline corenesses, per id: marginal gains are |F(x)| minus the
        # gain x itself accumulated as an earlier anchor's follower — that
        # term leaves the objective when x is anchored (Definition 2.4
        # excludes anchors), so counting raw |F(x)| would overstate g(A, G).
        base_coreness = list(state.tables.core)
    pool: "CandidateScanPool | None" = None
    if budget > len(result.anchors):
        pool = _make_pool(workers, graph.num_vertices - len(initial))

    while len(result.anchors) < budget:
        if deadline is not None and _clock() > deadline:
            result.truncated = True
            break
        iter_start = _clock()
        iter_window = _obs.window()
        with _obs.span("gac.iteration", iteration=len(result.anchors)):
            best_id, best_gain, expired = _select_best(
                state,
                cache,
                upkeep=upkeep,
                base_coreness=base_coreness,
                follower_method=follower_method,
                tie_break=tie_break,
                rng=rng,
                deadline=deadline,
                pool=pool,
            )
            if pool is not None and pool.broken:
                # A worker died or a dispatch failed: the scan already
                # fell back to serial for this round; stay serial for
                # the rest of the run rather than forking again.
                pool = None
            if expired:
                result.truncated = True
                break
            if best_id is None:
                break
            best = state.tables.labels[best_id]
            # Pruning soundness: the chosen candidate must be a true argmax
            # over ALL candidates — the upper bound never hid a better one.
            if _verify_enabled():
                from repro.verify.invariants import verify_selection

                verify_selection(state, base_coreness, best, best_gain)
            # The iteration's work counters are the registry delta since
            # the window opened (the registry is the single source; this
            # façade keeps the Figure 13 per-iteration shape).
            counters = FollowerCounters.from_window(iter_window)
            result.anchors.append(best)
            result.gains.append(best_gain)
            # Materializing the chosen anchor's follower set is
            # bookkeeping, not part of the measured candidate search.
            with _obs.suspended():
                result.followers[best] = _follower_set(state, best, follower_method)
            result.traces.append(
                IterationTrace(
                    anchor=best,
                    gain=best_gain,
                    elapsed_seconds=_clock() - iter_start,
                    counters=counters,
                    candidate_count=graph.num_vertices - len(state.anchors),
                )
            )
            _obs.add(_obs.GAC_ITERATIONS)
            upkeep.anchor(state, cache, best)
            # The round is committed: state, cache, counters, and RNG
            # all reflect it. Snapshot here — and only here — so a
            # resume continues from a boundary, never mid-round.
            if checkpoint_path is not None and (
                len(result.anchors) % checkpoint_every == 0
                or len(result.anchors) == budget
            ):
                _checkpoint.commit(
                    checkpoint_path,
                    graph,
                    "gac",
                    fingerprint,
                    params,
                    result,
                    base_coreness,
                    rng=rng,
                    cache=cache,
                )
    if _verify_enabled():
        from repro.verify.invariants import verify_greedy_total

        verify_greedy_total(graph, initial, result.anchors, result.total_gain)
    return result


class RoundUpkeep:
    """What one GAC round keeps for the next (Section 4.5, Algorithm 3).

    The Eq. 1–3 bounds (GAC), the refined bound of every id (GAC) and
    the cache's live rows (GAC, GAC-U) are built from scratch on a
    run's first round — :func:`compute_upper_bounds`,
    :meth:`FollowerCache.served`, :func:`refined_total` — and after
    that brought up to date from each anchoring's Δ (:meth:`anchor`).
    GAC-U-R (and OLAK, which has no round upkeep) pays for none of it.

    Attributes:
        use_upper_bounds: the run prunes (Eq. 1–3 are kept).
        reuse: the run reuses follower counts (live rows are kept).
        bounds: the maintained Eq. 1–3 bounds (``None`` before the
            first round, and without pruning).
        refined: per id, the refined bound the next scan reads.
        built: whether the first round's build has run.
    """

    __slots__ = ("use_upper_bounds", "reuse", "bounds", "refined", "built")

    def __init__(self, *, use_upper_bounds: bool, reuse: bool) -> None:
        self.use_upper_bounds = use_upper_bounds
        self.reuse = reuse
        self.bounds: UpperBounds | None = None
        self.refined: list[int] = []
        self.built = False

    def round_start(
        self, state: AnchoredState, cache: FollowerCache
    ) -> tuple[dict[int, dict[int, int]], list[int]]:
        """This round's served rows and refined bounds.

        Each served entry counts once per round (``reuse.counts_served``).
        """
        if not self.built:
            self.built = True
            if self.reuse:
                cache.live = cache.served(state)
            if self.use_upper_bounds:
                self.bounds = bounds = compute_upper_bounds(state)
                self.refined = refined = list(bounds.total)
                for i, row in cache.live.items():
                    refined[i] = refined_total(i, bounds, row)
        served = cache.live
        if served:
            _obs.add(_obs.REUSE_SERVED, sum(map(len, served.values())))
        return served, self.refined

    def stored(self, rows: dict[int, int]) -> None:
        """The scan stored these rows, whole: ``{id: |F(x)|}``.

        A whole row substitutes every part of the bound, so its refined
        bound is the count itself until Δ or a removal touches it.
        Written after the scan: the scan's pruning and ``"ub"`` ties
        read this round's values.
        """
        if self.bounds is not None:
            refined = self.refined
            for i, count in rows.items():
                refined[i] = count

    def anchor(self, state: AnchoredState, cache: FollowerCache, x: Vertex) -> None:
        """Anchor ``x`` in place and bring the kept values up to date.

        Algorithm 3's removals pop cache entries and ``x``'s row goes;
        the rows Δ can have changed are revalidated, Eq. 1–3 follow Δ
        (:meth:`UpperBounds.update`), and the refined bound is
        recomputed for the ids whose total or live row changed.
        """
        # The paper's local subtree rebuild (Algorithm 3 lines 7-10)
        # re-decomposes only the anchored vertex's component.
        removals, changed = apply_anchor(state, x, compute_removals=self.reuse)
        stale: set[int] = set()
        if not self.reuse:
            cache.clear()
        else:
            live = cache.live
            # Rows that lose a live entry.
            stale = {
                i
                for i in removals.keys() & live.keys()  # lint: order-ok builds a set
                if not live[i].keys().isdisjoint(removals[i])
            }
            cache.apply_removals(removals)
            cache.forget(state.tables.index[x])
            stale |= cache.refresh(state, changed)
        bounds = self.bounds
        if bounds is not None:
            stale |= bounds.update(changed)
            refined = self.refined
            total = bounds.total
            live = cache.live
            for i in stale:  # lint: order-ok independent per-id writes
                row = live.get(i)
                refined[i] = refined_total(i, bounds, row) if row else total[i]
        if _verify_enabled():
            from repro.verify.invariants import verify_round_upkeep

            verify_round_upkeep(state, cache, bounds, self.refined)


#: One scanned candidate: (id, per-node counts — ``None`` on the naive
#: path — and ``|F(x)|``).
Scored = tuple[int, "dict[int, int] | None", int]
#: A round's candidate stream: scanned candidates for the ids it is fed.
Stream = Callable[[Iterable[int]], Iterator[Scored]]


def _select_best(
    state: AnchoredState,
    cache: FollowerCache,
    *,
    upkeep: RoundUpkeep,
    base_coreness: list[int],
    follower_method: FollowerMethod,
    tie_break: TieBreak,
    rng: random.Random,
    deadline: float | None = None,
    pool: "CandidateScanPool | None" = None,
) -> tuple[int | None, int, bool]:
    """One greedy iteration: the id of the candidate with the best marginal gain.

    The marginal gain of anchoring ``x`` is ``|F(x)|`` minus the coreness
    gain ``x`` already contributed as a follower of earlier anchors
    (that contribution leaves ``g(A, G)`` once ``x`` joins ``A``). The
    upper bound dominates ``|F(x)|`` and hence the marginal gain, so
    pruning remains sound. The served rows and refined bounds come from
    ``upkeep`` (kept across rounds), and candidates are ranked by
    ``(-refined bound, id)``: ascending id is the sort-key order.

    Returns ``(best, gain, expired)``. When ``deadline`` passes mid-scan
    the iteration aborts with ``(None, 0, True)``: a partial winner
    would depend on wall-clock noise. With a ``pool`` the scan is
    dispatched to workers forked with the same stream
    (:func:`_scan_parallel`); any failure there falls back to the serial
    scan with no state mutated.
    """
    order = [i for i, anchored in enumerate(state.tables.is_anchor) if not anchored]
    if not order:
        return None, 0, False

    use_upper_bounds, reuse = upkeep.use_upper_bounds, upkeep.reuse
    served, refined = upkeep.round_start(state, cache)
    if use_upper_bounds:
        # A stable descending sort keeps equal bounds in ascending id order.
        order.sort(key=refined.__getitem__, reverse=True)
    stored: dict[int, int] = {}

    scan = functools.partial(
        _scan,
        state,
        cache,
        order=order,
        refined=refined,
        use_upper_bounds=use_upper_bounds,
        reuse=reuse,
        tie_of=_tie_function(tie_break, state, refined, rng),
        base_coreness=base_coreness,
        stored=stored,
    )
    search = FollowerSearch(state)
    stream: Stream
    if follower_method == "naive":
        # The Baseline's "before" decomposition: one label copy per round.
        base = state.label_decomposition()
        labels = state.tables.labels

        def stream(ids: Iterable[int]) -> Iterator[Scored]:
            for i in ids:
                search.evaluated += 1
                found = followers_naive(state.graph, labels[i], state.anchors, base)
                yield i, None, len(found)

    else:
        stream = functools.partial(search.stream, served=served)

    def evaluate(i: int) -> tuple[int, dict[int, int] | None]:
        """The pool workers' call: the round's stream, fed one id."""
        ((_, counts, total),) = stream((i,))
        return total, counts

    with _obs.span("gac.candidate_scan", candidates=len(order)):
        try:
            outcome = None
            if pool is not None and not pool.broken:
                outcome = _scan_parallel(
                    state,
                    pool,
                    scan,
                    search,
                    evaluate,
                    order=order,
                    refined=refined,
                    use_upper_bounds=use_upper_bounds,
                    base_coreness=base_coreness,
                    deadline=deadline,
                )
            if outcome is None:
                outcome = scan(stream, deadline=deadline)
        finally:
            search.flush()
    upkeep.stored(stored)
    return outcome


def _scan(
    state: AnchoredState,
    cache: FollowerCache,
    stream: Stream,
    *,
    order: list[int],
    refined: list[int],
    use_upper_bounds: bool,
    reuse: bool,
    tie_of: Callable[[int], object],
    base_coreness: list[int],
    stored: dict[int, int],
    deadline: float | None,
) -> tuple[int | None, int, bool]:
    """The candidate scan in ``order``: prune, evaluate, cache, pick.

    ``stream`` is fed the ids in ``order`` until the first pruned one
    (or the deadline) and yields each one's per-node counts and
    ``|F(x)|``; the counts go straight into the cache, and ``|F(x)|``
    into ``stored[id]``.
    """
    core = state.tables.core
    best: int | None = None
    best_gain = -1
    best_tie = None
    expired = False

    def candidates() -> Iterator[int]:
        # Drawn one at a time, after the loop below has taken the last
        # result, so each check sees the current best gain.
        nonlocal expired
        for pos, i in enumerate(order):
            if deadline is not None and _clock() > deadline:
                expired = True
                return
            # Prune strictly below the best gain (the paper prunes <=;
            # the strict form also evaluates potential ties so
            # tie-breaking sees the same candidate pool as the unpruned
            # variants). The order descends in the bound, so every later
            # candidate is pruned too.
            if use_upper_bounds and refined[i] < best_gain:
                _obs.add(_obs.PRUNED_CANDIDATES, len(order) - pos)
                return
            yield i

    for i, counts, count in stream(candidates()):
        if reuse and counts is not None:
            cache.store(i, counts, core)
            stored[i] = count
        gain = count - (core[i] - base_coreness[i])
        if gain > best_gain:
            best, best_gain, best_tie = i, gain, tie_of(i)
        elif gain == best_gain and best is not None:
            tie = tie_of(i)
            if tie > best_tie:
                best, best_tie = i, tie
    if expired:
        return None, 0, True
    return best, best_gain, False


def _scan_parallel(
    state: AnchoredState,
    pool: "CandidateScanPool",
    scan: Callable[..., tuple[int | None, int, bool]],
    search: FollowerSearch,
    evaluate: Callable[[int], tuple[int, dict[int, int] | None]],
    *,
    order: list[int],
    refined: list[int],
    use_upper_bounds: bool,
    base_coreness: list[int],
    deadline: float | None,
) -> tuple[int | None, int, bool] | None:
    """Dispatch the candidate scan to the pool, then replay the serial scan.

    Phase A forks the round's workers with ``evaluate`` (the serial
    scan's own stream, fed one id) and ``search`` (the tally it adds
    to), and ships bound-sorted chunks of candidate ids to them. Between
    chunk barriers a *simulated* best gain advances like the serial
    threshold, so a chunk only dispatches candidates whose bound still
    clears it; that threshold never exceeds the serial one (pruned gains
    cannot raise the maximum), so every candidate the serial scan
    evaluates is dispatched. Phase A mutates neither the cache nor the
    registry nor ``search``, so any failure returns ``None`` and the
    serial scan runs instead. The workers are shut down before phase B
    starts.

    Phase B runs the serial ``scan`` over a replay stream of the shipped
    counts (same pruning, tie-breaks, RNG use and cache stores), adding
    the shipped tallies of exactly the candidates it replays to
    ``search``, inside the caller's iteration window.
    """
    core = state.tables.core
    # candidate id -> (follower total, per-node counts | None, tallies)
    shipped: dict[int, tuple[int, dict[int, int] | None, Tallies]] = {}
    sim_best = -1
    chunk_count = 0
    shipped_base = pool.spans_shipped
    with _obs.span(
        "gac.parallel_scan", candidates=len(order), workers=pool.workers
    ) as sp:
        try:
            with pool.round(evaluate, search):
                start = 0
                while start < len(order):
                    if deadline is not None and _clock() > deadline:
                        return None, 0, True
                    # The speculative window between threshold barriers
                    # follows the pool's measured per-task latency; its
                    # size steers wall-clock only (the replay discards
                    # speculative extras), never results.
                    end = start + (
                        pool.dispatch_size() if use_upper_bounds else len(order)
                    )
                    ids = [
                        i
                        for i in order[start:end]
                        if not (use_upper_bounds and refined[i] < sim_best)
                    ]
                    start = end
                    if ids:
                        chunk_count += 1
                        for i, total, counts, tallies in pool.evaluate(ids):
                            shipped[i] = (total, counts, tallies)
                            # Advance the threshold exactly as phase B will:
                            # gains of candidates it prunes are below it.
                            gain = total - (core[i] - base_coreness[i])
                            sim_best = max(sim_best, gain)
        except Exception as exc:
            # Nothing was mutated; the caller reruns the scan serially.
            pool.broken = True
            reason = "spawn_error" if isinstance(exc, OSError) else "scan_error"
            _obs.gauge(f"gac.parallel_fallback.{reason}", 1.0)
            return None

        def replay(ids: Iterable[int]) -> Iterator[Scored]:
            for i in ids:
                total, counts, tallies = shipped[i]
                search.add(tallies)
                yield i, counts, total

        outcome = scan(replay, deadline=None)
        if isinstance(sp, _obs.Span):
            sp.args["tasks"] = len(shipped)
            sp.args["chunks"] = chunk_count
            # Worker spans merged into this scan's trace (they land in
            # per-worker pid lanes next to this span's parent lane).
            sp.args["shipped_spans"] = pool.spans_shipped - shipped_base
    return outcome


def _make_pool(
    workers: int | None, candidate_count: int
) -> "CandidateScanPool | None":
    """Build a candidate-scan pool, or return ``None`` to stay serial.

    Every fallback records a ``gac.parallel_fallback.<reason>`` gauge so
    a run that silently stayed serial is diagnosable after the fact.
    The import is lazy: the serial default never touches
    :mod:`multiprocessing`.
    """
    if workers is not None and workers <= 1:
        if workers == 1:
            _obs.gauge("gac.parallel_fallback.single_worker", 1.0)
        return None
    if workers is None and not os.environ.get("REPRO_PARALLEL", "").strip():
        return None
    from repro.parallel import CandidateScanPool, PoolUnavailable, resolve_workers

    count = resolve_workers(workers)
    if count <= 0:
        return None
    if count == 1:
        _obs.gauge("gac.parallel_fallback.single_worker", 1.0)
        return None
    if _verify_enabled():
        # Verification oracles run inside worker evaluations and would be
        # skipped there; keep verified runs on the fully checked path.
        _obs.gauge("gac.parallel_fallback.verify", 1.0)
        return None
    if candidate_count < _MIN_PARALLEL_CANDIDATES:
        _obs.gauge("gac.parallel_fallback.small_graph", 1.0)
        return None
    try:
        return CandidateScanPool(count)
    except PoolUnavailable:
        _obs.gauge("gac.parallel_fallback.unavailable", 1.0)
        return None


def _tie_function(
    tie_break: TieBreak,
    state: AnchoredState,
    refined: list[int],
    rng: random.Random,
) -> Callable[[int], object]:
    """The tie value of a candidate id; the larger value wins a tie."""
    if tie_break == "ub" and refined:
        return refined.__getitem__
    if tie_break in ("ub", "degree"):
        # "ub" falls back to degree when bounds were not computed (GAC-U/-U-R).
        rows = state.tables.rows
        return lambda i: len(rows[i])
    if tie_break == "random":
        return lambda i: rng.random()
    if tie_break == "id":
        # The smallest id — the smallest vertex_sort_key — wins.
        return lambda i: -i
    raise ValueError(f"unknown tie_break {tie_break!r}")


def _follower_set(
    state: AnchoredState,
    anchor: Vertex,
    follower_method: FollowerMethod,
) -> frozenset[Vertex]:
    """The exact follower set of the chosen anchor (fresh, no reuse)."""
    if follower_method == "naive":
        return frozenset(
            followers_naive(
                state.graph,
                anchor,
                anchors=state.anchors,
                base=state.label_decomposition(),
            )
        )
    return frozenset(find_followers(state, anchor).all_members())


def gac(graph: Graph, budget: int, **kwargs) -> GreedyResult:
    """The full GAC algorithm (upper-bound pruning + result reuse)."""
    return greedy_anchored_coreness(
        graph, budget, use_upper_bounds=True, reuse=True, **kwargs
    )


def gac_u(graph: Graph, budget: int, **kwargs) -> GreedyResult:
    """GAC without upper-bound pruning (paper's GAC-U)."""
    return greedy_anchored_coreness(
        graph, budget, use_upper_bounds=False, reuse=True, **kwargs
    )


def gac_u_r(graph: Graph, budget: int, **kwargs) -> GreedyResult:
    """GAC without pruning or result reuse (paper's GAC-U-R)."""
    return greedy_anchored_coreness(
        graph, budget, use_upper_bounds=False, reuse=False, **kwargs
    )


def baseline(graph: Graph, budget: int, **kwargs) -> GreedyResult:
    """The paper's Baseline: coreness gain via full core decomposition."""
    return greedy_anchored_coreness(graph, budget, follower_method="naive", **kwargs)
