"""OLAK — the anchored k-core baseline (Zhang et al., PVLDB 2017).

The anchored k-core (AK) problem fixes ``k`` and anchors ``b`` vertices
to maximize the size of the k-core. Reimplemented here as the greedy
onion-layer algorithm: in each iteration, every candidate's followers
(the coreness-(k-1) vertices that the anchoring pulls into the k-core)
are found with the same local upstair-path search used for anchored
coreness, restricted to the (k-1)-shell — for a single anchor a vertex's
coreness rises by at most one (Theorem 4.6), so only that shell can
enter the k-core.

The paper compares against OLAK in Table 8 and Figures 8, 10, 11:
besides the k-core growth, :func:`olak` reports the anchor set's *full*
coreness gain ``g(A, G)`` so the two models can be compared on the
anchored-coreness objective.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro import checkpoint as _checkpoint  # lint: layer-ok sanctioned persistence hook
from repro import obs as _obs
from repro.anchors.followers import FollowerSearch, find_followers
from repro.anchors.incremental import apply_anchor
from repro.anchors.kernels.flat_backend import FlatTables
from repro.anchors.state import AnchoredState
from repro.core.decomposition import core_decomposition
from repro.errors import BudgetError
from repro.graphs.csr import csr_view
from repro.graphs.graph import Graph, Vertex
from repro.verify import enabled as _verify_enabled
from repro.verify import verification as _verification


@dataclass
class OlakResult:
    """Outcome of an OLAK run for one ``k``.

    Attributes:
        k: the k-core parameter.
        anchors: chosen anchors in selection order.
        followers: per anchor, the vertices it pulled into the k-core
            at its selection time.
        kcore_growth: number of non-anchor vertices added to the k-core.
        coreness_gain: the anchor set's total coreness gain ``g(A, G)``
            (the anchored-coreness objective, for Table 8).
        elapsed_seconds: wall-clock time of the greedy run.
    """

    k: int
    anchors: list[Vertex] = field(default_factory=list)
    followers: dict[Vertex, frozenset[Vertex]] = field(default_factory=dict)
    kcore_growth: int = 0
    coreness_gain: int = 0
    elapsed_seconds: float = 0.0

    @property
    def anchor_set(self) -> frozenset[Vertex]:
        return frozenset(self.anchors)


def olak(
    graph: Graph,
    k: int,
    budget: int,
    seed: int | None = None,
    *,
    verify: bool | None = None,
    obs: bool | None = None,
    checkpoint: "str | os.PathLike[str] | None" = None,
    checkpoint_every: int = 1,
    resume: "str | os.PathLike[str] | None" = None,
) -> OlakResult:
    """Greedy anchored k-core: ``budget`` anchors maximizing k-core size.

    Args:
        graph: the social network (never mutated).
        k: the core parameter (``k >= 2`` is meaningful).
        budget: number of anchors to select.
        seed: unused, accepted for interface symmetry with the heuristics.
        verify: force the runtime invariant checks on (``True``) or off
            (``False``) for this run; ``None`` defers to ``REPRO_VERIFY``.
        obs: force span tracing on (``True``) or off (``False``) for
            this run; ``None`` defers to ``REPRO_TRACE``.
        checkpoint: write a round-granular snapshot to this path after
            each committed round (failed writes are gauged as
            ``olak.checkpoint.write_error``, never fatal).
        checkpoint_every: write the snapshot every this-many rounds
            (the final round is always written).
        resume: continue from a snapshot previously written by
            ``checkpoint``; identical to the uninterrupted run.

    Raises:
        BudgetError: when the budget is invalid for the graph.
        CheckpointError: if ``resume`` names a missing, corrupt, or
            mismatched snapshot.
    """
    del seed  # deterministic: ties break by smallest vertex id
    if budget < 0 or budget > graph.num_vertices:
        raise BudgetError(f"budget {budget} is invalid for n={graph.num_vertices}")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    with (
        _verification(verify),
        _obs.tracing(obs),
        _obs.span("olak.run", k=k, budget=budget),
    ):
        # Build the CSR view the flat kernel searches up front, so a graph
        # with unorderable labels fails here with one GraphError line.
        csr_view(graph)
        return _run_olak(
            graph,
            k,
            budget,
            checkpoint_path=checkpoint,
            checkpoint_every=checkpoint_every,
            resume_path=resume,
        )


def _run_olak(
    graph: Graph,
    k: int,
    budget: int,
    *,
    checkpoint_path: "str | os.PathLike[str] | None" = None,
    checkpoint_every: int = 1,
    resume_path: "str | os.PathLike[str] | None" = None,
) -> OlakResult:
    """The OLAK greedy loop proper (runs inside the verification context)."""
    start = _obs.clock()
    result = OlakResult(k=k)
    fingerprint = ""
    params: dict[str, object] = {}
    if checkpoint_path is not None or resume_path is not None:
        fingerprint = _checkpoint.graph_fingerprint(graph)
        params = {"k": k}
    if resume_path is not None:
        base_coreness = _checkpoint.resume(
            resume_path,
            graph,
            budget,
            algo="olak",
            fingerprint=fingerprint,
            params=params,
            result=result,
        )
        result.kcore_growth = sum(len(f) for f in result.followers.values())
        state = AnchoredState.build(graph, frozenset(result.anchors))
    else:
        state = AnchoredState.build(graph)
        base_coreness = list(state.tables.core)

    while len(result.anchors) < budget:
        with _obs.span("olak.iteration", iteration=len(result.anchors)):
            best, best_followers = _select_best(state, k)
            if best is None:
                break
            # The reported followers must be exactly the (k-1)-coreness
            # vertices whose coreness rises when ``best`` is anchored.
            if _verify_enabled():
                from repro.verify.invariants import verify_olak_selection

                verify_olak_selection(state, k, best, frozenset(best_followers))
            result.anchors.append(best)
            result.followers[best] = frozenset(best_followers)
            result.kcore_growth += len(best_followers)
            _obs.add(_obs.OLAK_ITERATIONS)
            apply_anchor(state, best, compute_removals=False)
            # Round committed; snapshot at the boundary only (mirrors GAC).
            if checkpoint_path is not None and (
                len(result.anchors) % checkpoint_every == 0
                or len(result.anchors) == budget
            ):
                _checkpoint.commit(
                    checkpoint_path,
                    graph,
                    "olak",
                    fingerprint,
                    params,
                    result,
                    base_coreness,
                )

    # The maintained corenesses are the anchored graph's (under
    # REPRO_VERIFY every anchoring is checked against a fresh peel).
    tables = state.tables
    result.coreness_gain = sum(
        c - base
        for c, base, anchored in zip(tables.core, base_coreness, tables.is_anchor)
        if not anchored
    )
    result.elapsed_seconds = _obs.clock() - start
    return result


def _select_best(
    state: AnchoredState, k: int
) -> tuple[Vertex | None, frozenset[Vertex]]:
    """The candidate whose anchoring adds the most vertices to the k-core."""
    candidates = candidate_ids(state.tables, k)
    best = best_count = -1
    with _obs.span("olak.candidate_scan", candidates=len(candidates)):
        search = FollowerSearch(state)
        for i, _, count in search.stream(candidates, only_coreness=k - 1):
            # The first strictly larger count wins: ties go to the smallest id.
            if count > best_count:
                best, best_count = i, count
        search.flush()
    if best < 0:
        return None, frozenset()
    # Materializing the winner's followers is bookkeeping, as in GAC.
    x = state.tables.labels[best]
    with _obs.suspended():
        return x, frozenset(find_followers(state, x, only_coreness=k - 1).all_members())


def candidate_ids(  # lint: obs-ok one O(m) pass, timed by its caller's olak.iteration span
    tables: FlatTables, k: int
) -> list[int]:
    """The ids worth a (k-1)-shell follower search, ascending (sort-key order).

    Only non-anchors with coreness < k are useful anchors: anchoring a
    k-core vertex adds nothing to the k-core. A search can only start
    through a non-anchor (k-1)-shell neighbor, at a strictly higher
    layer when the candidate shares that shell.
    """
    core = tables.core
    layer = tables.layer
    is_anchor = tables.is_anchor
    shell = k - 1
    out: list[int] = []
    for i, row in enumerate(tables.rows):
        ci = core[i]
        if is_anchor[i] or ci >= k:
            continue
        li = layer[i]
        for v in row:
            if core[v] == shell and not is_anchor[v] and (ci < shell or layer[v] > li):
                out.append(i)
                break
    return out


def olak_sweep(
    graph: Graph, budget: int, k_values: list[int] | None = None
) -> dict[int, OlakResult]:
    """Run OLAK for every ``k`` (Figure 10 / Table 8).

    ``k_values`` defaults to ``2 .. k_max + 1`` — every k for which a
    (k-1)-shell exists to pull from.
    """
    if k_values is None:
        k_max = core_decomposition(graph).max_coreness
        k_values = list(range(2, k_max + 2))
    return {k: olak(graph, k, budget) for k in k_values}
