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

The per-round candidate scan can fan out across worker processes
(``workers=`` / ``REPRO_PARALLEL``, via :mod:`repro.parallel`) with
byte-identical results: dispatch is a pure read-only phase over
bound-sorted chunks, and the merge replays the serial scan's pruning,
tie-breaking, counter, and cache updates over the shipped results (see
``docs/parallelism.md``). Serial remains the default and the oracle;
the pool degrades gracefully back to it.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Literal

from repro import checkpoint as _checkpoint  # lint: layer-ok sanctioned persistence hook
from repro import obs as _obs
from repro.anchors.bounds import UpperBounds, compute_upper_bounds, refined_total
from repro.anchors.followers import (
    FollowerCounters,
    FollowerReport,
    find_followers,
    followers_naive,
)
from repro.anchors.incremental import apply_anchor
from repro.anchors.reuse import FollowerCache
from repro.anchors.state import AnchoredState
from repro.core.decomposition import _sort_key
from repro.core.tree import NodeId
from repro.errors import BudgetError, CheckpointError
from repro.faults import arming as _fault_arming  # lint: fault-ok layer-ok greedy arms per-run plans
from repro.faults import fault_point as _fault_point  # lint: fault-ok layer-ok hosts gac.round_commit
from repro.graphs.csr import csr_view
from repro.graphs.graph import Graph, Vertex
from repro.verify import enabled as _verify_enabled
from repro.verify import verification as _verification

if TYPE_CHECKING:
    from repro.faults import FaultPlan  # lint: fault-ok annotation-only import
    from repro.parallel.pool import CandidateScanPool

TieBreak = Literal["ub", "degree", "random", "id"]
FollowerMethod = Literal["tree", "naive"]

# Module attribute (not a direct call site) so tests can monkeypatch the
# clock the deadline checks read.
_clock = _obs.clock

#: Below this many candidates a process pool costs more than it saves
#: (worker start-up + state rebuild dominate); the greedy stays serial.
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


class _SmallestWins:
    """Tie value wrapper: comparing ``a > b`` is true when a's key is smaller."""

    __slots__ = ("key",)

    def __init__(self, key) -> None:
        self.key = key

    def __gt__(self, other: "_SmallestWins") -> bool:
        return self.key < other.key


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
    faults: "FaultPlan | str | None" = None,
    checkpoint: "str | os.PathLike[str] | None" = None,
    checkpoint_every: int = 1,
    resume: "str | os.PathLike[str] | None" = None,
) -> GreedyResult:
    """Run the greedy heuristic for the anchored coreness problem.

    Args:
        graph: the social network (never mutated).
        budget: number of anchors ``b`` to select.
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
            (tiny graphs, verification on, pool start-up failure),
            recording a ``gac.parallel_fallback.*`` gauge.
        faults: a :class:`repro.faults.FaultPlan` (or spec string) armed
            for this run only; ``None`` defers to ``REPRO_FAULTS``.
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
        _fault_arming(faults),
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
    result = GreedyResult()
    fingerprint = ""
    params: dict[str, object] = {}
    if checkpoint_path is not None or resume_path is not None:
        fingerprint = _checkpoint.graph_fingerprint(graph)
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
            "initial": sorted(initial, key=_sort_key),
        }
    if resume_path is not None:
        base_coreness = _resume(
            graph,
            budget,
            resume_path,
            fingerprint=fingerprint,
            params=params,
            result=result,
            rng=rng,
            cache=cache,
        )
        # Rebuilding from scratch with the checkpointed anchors equals
        # the incremental state the killed run held: every derived
        # structure (decomposition, tree node ids, adjacency) is
        # deterministic given graph + anchor set — the same contract the
        # parallel workers rely on each epoch.
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
        # Baseline corenesses: marginal gains are |F(x)| minus the gain x
        # itself accumulated as an earlier anchor's follower — that term
        # leaves the objective when x is anchored (Definition 2.4 excludes
        # anchors), so counting raw |F(x)| would overstate g(A, G).
        base_coreness = dict(state.decomposition.coreness)
    pool: "CandidateScanPool | None" = None
    if budget > len(result.anchors):
        pool = _make_pool(
            graph, workers, follower_method, graph.num_vertices - len(initial)
        )
    # Anchor lineage in application order: sorted initial anchors, then
    # selections as they happen. Workers key their persistent state
    # caches on it — a lineage that merely *extends* the previous round's
    # replays incremental anchor deltas instead of a full rebuild. Only
    # the underlying set matters for correctness; the order is purely a
    # cache key.
    initial_sorted = tuple(sorted(initial, key=_sort_key))

    try:
        while len(result.anchors) < budget:
            if deadline is not None and _clock() > deadline:
                result.truncated = True
                break
            iter_start = _clock()
            iter_window = _obs.window()
            with _obs.span("gac.iteration", iteration=len(result.anchors)):
                best, best_gain, expired = _select_best(
                    state,
                    cache,
                    base_coreness=base_coreness,
                    use_upper_bounds=use_upper_bounds,
                    reuse=reuse,
                    follower_method=follower_method,
                    tie_break=tie_break,
                    rng=rng,
                    deadline=deadline,
                    pool=pool,
                    lineage=initial_sorted + tuple(result.anchors),
                )
                if pool is not None and pool.broken:
                    # A worker died or a dispatch failed: the scan already
                    # fell back to serial for this round; stay serial for
                    # the rest of the run rather than respawning.
                    pool.close()
                    pool = None
                if expired:
                    result.truncated = True
                    break
                if best is None:
                    break
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
                    result.followers[best] = _follower_set(
                        state, best, follower_method
                    )
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
                # Anchor in place: the paper's local subtree rebuild (Algorithm 3
                # lines 7-10) re-decomposes only the anchored vertex's component.
                removals = apply_anchor(state, best, compute_removals=reuse)
                if reuse:
                    cache.apply_removals(removals)
                    cache.forget(best)
                else:
                    cache.clear()
                # The round is committed: state, cache, counters, and RNG
                # all reflect it. Snapshot here — and only here — so a
                # resume continues from a boundary, never mid-round.
                if checkpoint_path is not None and (
                    len(result.anchors) % checkpoint_every == 0
                    or len(result.anchors) == budget
                ):
                    _write_checkpoint(
                        checkpoint_path,
                        fingerprint=fingerprint,
                        params=params,
                        result=result,
                        rng=rng,
                        cache=cache,
                        base_coreness=base_coreness,
                    )
                _fault_point("gac.round_commit")
    finally:
        if pool is not None:
            pool.close()
    if _verify_enabled():
        from repro.verify.invariants import verify_greedy_total

        verify_greedy_total(graph, initial, result.anchors, result.total_gain)
    return result


def _resume(
    graph: Graph,
    budget: int,
    resume_path: "str | os.PathLike[str]",
    *,
    fingerprint: str,
    params: dict[str, object],
    result: GreedyResult,
    rng: random.Random,
    cache: FollowerCache,
) -> dict[Vertex, int]:
    """Rehydrate a round-boundary snapshot into the run's mutable state.

    Returns the baseline corenesses the killed run measured gains
    against. Everything that shapes the remaining rounds — selections so
    far, the RNG stream position, the Algorithm-3 cache — is restored
    exactly, so the continuation replays the uninterrupted trajectory.
    """
    snapshot = _checkpoint.load(resume_path)
    _checkpoint.validate(
        snapshot, algo="gac", fingerprint=fingerprint, params=params
    )
    payload = snapshot.payload
    try:
        anchors = list(payload["anchors"])
        if len(anchors) > budget:
            raise CheckpointError(
                f"checkpoint already holds {len(anchors)} anchors, more than "
                f"the budget {budget} of the resuming run"
            )
        result.anchors = anchors
        result.gains = list(payload["gains"])
        result.followers = dict(payload["followers"])
        result.traces = [
            IterationTrace(
                anchor=trace["anchor"],
                gain=trace["gain"],
                elapsed_seconds=trace["elapsed_seconds"],
                counters=FollowerCounters(**trace["counters"]),
                candidate_count=trace["candidate_count"],
            )
            for trace in payload["traces"]
        ]
        rng.setstate(payload["rng_state"])
        cache.entries = {
            u: dict(counts) for u, counts in payload["cache_entries"].items()
        }
        return dict(payload["base_coreness"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint payload is incomplete or malformed: {exc!r}"
        ) from exc


def _write_checkpoint(
    path: "str | os.PathLike[str]",
    *,
    fingerprint: str,
    params: dict[str, object],
    result: GreedyResult,
    rng: random.Random,
    cache: FollowerCache,
    base_coreness: dict[Vertex, int],
) -> None:
    """Snapshot the committed round; a failed write is gauged, never fatal."""
    payload: dict[str, object] = {
        "anchors": list(result.anchors),
        "gains": list(result.gains),
        "followers": dict(result.followers),
        "traces": [
            {
                "anchor": trace.anchor,
                "gain": trace.gain,
                "elapsed_seconds": trace.elapsed_seconds,
                "counters": dict(vars(trace.counters)),
                "candidate_count": trace.candidate_count,
            }
            for trace in result.traces
        ],
        "rng_state": rng.getstate(),
        "cache_entries": {u: dict(counts) for u, counts in cache.entries.items()},
        "base_coreness": dict(base_coreness),
    }
    try:
        _checkpoint.save(
            path,
            _checkpoint.Checkpoint(
                algo="gac", fingerprint=fingerprint, params=params, payload=payload
            ),
        )
    except Exception:
        # The checkpoint exists to protect the run; a failed write must
        # not be the thing that kills it. Gauged for diagnosability.
        _obs.gauge("gac.checkpoint.write_error", 1.0)


def _select_best(
    state: AnchoredState,
    cache: FollowerCache,
    *,
    base_coreness: dict[Vertex, int],
    use_upper_bounds: bool,
    reuse: bool,
    follower_method: FollowerMethod,
    tie_break: TieBreak,
    rng: random.Random,
    deadline: float | None = None,
    pool: "CandidateScanPool | None" = None,
    lineage: tuple[Vertex, ...] = (),
) -> tuple[Vertex | None, int, bool]:
    """One greedy iteration: the candidate with the best marginal gain.

    The marginal gain of anchoring ``x`` is ``|F(x)|`` minus the coreness
    gain ``x`` already contributed as a follower of earlier anchors
    (that contribution leaves ``g(A, G)`` once ``x`` joins ``A``). The
    upper bound dominates ``|F(x)|`` and hence the marginal gain, so
    pruning remains sound.

    Returns ``(best, gain, expired)``. When ``deadline`` passes mid-scan
    the iteration aborts with ``(None, 0, True)`` — a partial winner
    would depend on how far the scan got, i.e. on wall-clock noise, so
    an expired iteration never reports one.

    When ``pool`` is given the scan is dispatched to worker processes
    (:func:`_scan_parallel`); any failure there falls back to the serial
    scan with no state mutated, so the result is unchanged either way.
    """
    candidates = state.candidates()
    if not candidates:
        return None, 0, False

    bounds: UpperBounds | None = None
    refined: dict[Vertex, int] = {}
    if use_upper_bounds:
        bounds = compute_upper_bounds(state)
        for u in candidates:
            cached = cache.valid_counts(u, state) if reuse else {}
            refined[u] = refined_total(u, bounds, cached)
        order = sorted(candidates, key=lambda u: (-refined[u], _sort_key(u)))
    else:
        order = sorted(candidates, key=_sort_key)

    tie_of = _tie_function(tie_break, state, refined, rng)
    node_k = state.node_k()
    with _obs.span("gac.candidate_scan", candidates=len(order)):
        if pool is not None and not pool.broken:
            outcome = _scan_parallel(
                state,
                cache,
                pool,
                order=order,
                refined=refined,
                use_upper_bounds=use_upper_bounds,
                reuse=reuse,
                follower_method=follower_method,
                tie_of=tie_of,
                node_k=node_k,
                base_coreness=base_coreness,
                deadline=deadline,
                lineage=lineage,
            )
            if outcome is not None:
                return outcome
        return _scan_serial(
            state,
            cache,
            order=order,
            refined=refined,
            use_upper_bounds=use_upper_bounds,
            reuse=reuse,
            follower_method=follower_method,
            tie_of=tie_of,
            node_k=node_k,
            base_coreness=base_coreness,
            deadline=deadline,
        )


def _scan_serial(
    state: AnchoredState,
    cache: FollowerCache,
    *,
    order: list[Vertex],
    refined: dict[Vertex, int],
    use_upper_bounds: bool,
    reuse: bool,
    follower_method: FollowerMethod,
    tie_of: Callable[[Vertex], object],
    node_k: dict[NodeId, int],
    base_coreness: dict[Vertex, int],
    deadline: float | None,
) -> tuple[Vertex | None, int, bool]:
    """The serial candidate scan — the oracle the parallel scan must match."""
    best: Vertex | None = None
    best_gain = -1
    best_tie = None
    for u in order:
        if deadline is not None and _clock() > deadline:
            return None, 0, True
        # Prune strictly below the best gain (the paper prunes <=; the
        # strict form also evaluates potential ties so tie-breaking sees
        # the same candidate pool as the unpruned variants).
        if use_upper_bounds and refined[u] < best_gain:
            _obs.add(_obs.PRUNED_CANDIDATES)
            continue
        if follower_method == "naive":
            follower_count = len(
                followers_naive(
                    state.graph, u, anchors=state.anchors, base=state.decomposition
                )
            )
            _obs.add(_obs.EVALUATED_CANDIDATES)
        else:
            cached = cache.valid_counts(u, state) if reuse else None
            report = find_followers(state, u, reusable_counts=cached)
            if reuse:
                cache.store(report, node_k)
            follower_count = report.total
        own_gain = state.decomposition.coreness[u] - base_coreness[u]
        gain = follower_count - own_gain
        if gain > best_gain:
            best, best_gain, best_tie = u, gain, tie_of(u)
        elif gain == best_gain and best is not None:
            tie = tie_of(u)
            if tie > best_tie:
                best, best_tie = u, tie
    return best, best_gain, False


def _scan_parallel(
    state: AnchoredState,
    cache: FollowerCache,
    pool: "CandidateScanPool",
    *,
    order: list[Vertex],
    refined: dict[Vertex, int],
    use_upper_bounds: bool,
    reuse: bool,
    follower_method: FollowerMethod,
    tie_of: Callable[[Vertex], object],
    node_k: dict[NodeId, int],
    base_coreness: dict[Vertex, int],
    deadline: float | None,
    lineage: tuple[Vertex, ...] = (),
) -> tuple[Vertex | None, int, bool] | None:
    """Dispatch the candidate scan to the pool, then replay the serial merge.

    Phase A ships bound-sorted chunks of candidates to the workers.
    Between chunk barriers a *simulated* best gain advances exactly like
    the serial scan's threshold, so a chunk only dispatches candidates
    whose bound still clears it. The threshold at a candidate's chunk
    start is a lower bound on the serial scan's threshold when it
    reaches that candidate (gains of bound-pruned candidates can never
    raise the running maximum), hence every candidate the serial scan
    evaluates is provably in the dispatched set — the speculative extras
    are discarded unmerged. Phase A is read-only: it mutates neither the
    cache nor the registry (dispatch-side validations run suspended), so
    any failure can simply return ``None`` and let the serial scan run.

    Phase B replays the serial loop over the shipped results: identical
    pruning threshold, identical tie-break sequence (including RNG
    consumption), identical cache stores, and the workers' counter
    deltas merged into the parent registry — all inside the caller's
    iteration window, so Figure 13 totals match the serial scan's.
    """
    epoch = len(state.anchors)
    # The lineage is the cache key workers use; its *set* is what
    # evaluation depends on. A caller that did not thread one (tests
    # driving the scan directly) degrades to a sorted tuple — workers
    # fall back to full rebuilds, results unchanged.
    anchors = (
        lineage
        if len(lineage) == len(state.anchors) and frozenset(lineage) == state.anchors
        else tuple(sorted(state.anchors, key=_sort_key))
    )
    coreness = state.decomposition.coreness
    # The speculative window between threshold barriers adapts to the
    # pool's measured per-task latency; window size steers wall-clock
    # only (the replay discards speculative extras), never results.
    chunk_size = pool.dispatch_size() if use_upper_bounds else len(order)
    # candidate -> (marginal gain, per-node counts | None, counter deltas)
    evaluated: dict[Vertex, tuple[int, dict[NodeId, int] | None, dict[str, int]]] = {}
    reusable_of: dict[Vertex, dict[NodeId, int] | None] = {}
    sim_best = -1
    chunk_count = 0
    shipped_base = pool.spans_shipped
    with _obs.span(
        "gac.parallel_scan", candidates=len(order), workers=pool.workers
    ) as sp:
        try:
            for chunk_start in range(0, len(order), chunk_size):
                if deadline is not None and _clock() > deadline:
                    return None, 0, True
                chunk = order[chunk_start : chunk_start + chunk_size]
                tasks: list[tuple[Vertex, dict[NodeId, int] | None]] = []
                for u in chunk:
                    if use_upper_bounds and refined[u] < sim_best:
                        continue
                    if reuse:
                        # Validation must not count: phase B replays the
                        # REUSE_SERVED adds in serial order.
                        with _obs.suspended():
                            reusable = cache.valid_counts(u, state)
                    else:
                        reusable = None
                    reusable_of[u] = reusable
                    tasks.append((u, reusable))
                if tasks:
                    chunk_count += 1
                    for candidate, total, counts, deltas in pool.evaluate(
                        epoch, anchors, tasks
                    ):
                        own_gain = coreness[candidate] - base_coreness[candidate]
                        evaluated[candidate] = (total - own_gain, counts, deltas)
                if use_upper_bounds:
                    # Advance the threshold exactly as phase B will: gains
                    # of candidates phase B prunes are below it already.
                    for u in chunk:
                        entry = evaluated.get(u)
                        if entry is not None and entry[0] > sim_best:
                            sim_best = entry[0]
        except Exception:
            # Nothing was mutated; the caller reruns the scan serially.
            pool.broken = True
            _obs.gauge("gac.parallel_fallback.scan_error", 1.0)
            return None

        best: Vertex | None = None
        best_gain = -1
        best_tie = None
        pending: dict[str, int] = {}

        def _defer(name: str, value: int = 1) -> None:
            pending[name] = pending.get(name, 0) + value

        for u in order:
            if use_upper_bounds and refined[u] < best_gain:
                _defer(_obs.PRUNED_CANDIDATES)
                continue
            gain, counts, deltas = evaluated[u]
            for name, value in deltas.items():
                _defer(name, value)
            reusable = reusable_of.get(u)
            if reusable:
                _defer(_obs.REUSE_SERVED, len(reusable))
            if follower_method == "naive":
                # The worker's delta has the decomposition counters; the
                # serial scan adds this one itself after the oracle call.
                _defer(_obs.EVALUATED_CANDIDATES)
            elif reuse and counts is not None:
                cache.store(FollowerReport.from_counts(u, counts), node_k)
            if gain > best_gain:
                best, best_gain, best_tie = u, gain, tie_of(u)
            elif gain == best_gain and best is not None:
                tie = tie_of(u)
                if tie > best_tie:
                    best, best_tie = u, tie
        for name in sorted(pending):
            _obs.add(name, pending[name])
        if isinstance(sp, _obs.Span):
            sp.args["tasks"] = len(evaluated)
            sp.args["chunks"] = chunk_count
            # Worker spans merged into this scan's trace (they land in
            # per-worker pid lanes next to this span's parent lane).
            sp.args["shipped_spans"] = pool.spans_shipped - shipped_base
    return best, best_gain, False


def _make_pool(
    graph: Graph,
    workers: int | None,
    follower_method: FollowerMethod,
    candidate_count: int,
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
        return CandidateScanPool(graph, count, follower_method=follower_method)
    except PoolUnavailable:
        _obs.gauge("gac.parallel_fallback.unavailable", 1.0)
        return None
    except OSError:
        _obs.gauge("gac.parallel_fallback.spawn_error", 1.0)
        return None


def _tie_function(
    tie_break: TieBreak,
    state: AnchoredState,
    refined: dict[Vertex, int],
    rng: random.Random,
) -> Callable[[Vertex], object]:
    if tie_break == "ub":
        # Fall back to degree when bounds were not computed (GAC-U/-U-R).
        if refined:
            return lambda u: refined[u]
        return lambda u: state.graph.degree(u)
    if tie_break == "degree":
        return lambda u: state.graph.degree(u)
    if tie_break == "random":
        return lambda u: rng.random()
    if tie_break == "id":
        return lambda u: _SmallestWins(_sort_key(u))
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
                state.graph, anchor, anchors=state.anchors, base=state.decomposition
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
