"""Swap-based local search to polish a greedy anchor set.

Greedy solutions of non-submodular objectives can sit in shallow local
optima; the cheapest escape is the classic 1-swap neighborhood: replace
one anchor with one non-anchor whenever that strictly increases the
coreness gain, until no improving swap exists. The result is
swap-optimal and never worse than the input set.

Each swap trial costs one core decomposition, so the search is meant to
*polish* a small anchor set (the greedy output), not to run from
scratch. Candidate replacements can be limited to the most promising
vertices (by single-anchor upper bound) to keep trials focused.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.anchors.bounds import compute_upper_bounds
from repro.anchors.state import AnchoredState
from repro.core.decomposition import core_decomposition, coreness_gain
from repro.graphs.graph import Graph, Vertex
from repro.obs import clock as _clock


@dataclass
class LocalSearchResult:
    """Outcome of the swap polish.

    Attributes:
        anchors: the final anchor set (same size as the input).
        initial_gain / final_gain: g(A, G) before and after.
        swaps: the improving swaps applied, as (out, in) pairs.
        trials: number of candidate swaps evaluated.
    """

    anchors: list[Vertex] = field(default_factory=list)
    initial_gain: int = 0
    final_gain: int = 0
    swaps: list[tuple[Vertex, Vertex]] = field(default_factory=list)
    trials: int = 0
    elapsed_seconds: float = 0.0

    @property
    def improvement(self) -> int:
        return self.final_gain - self.initial_gain


def local_search_polish(
    graph: Graph,
    anchors: list[Vertex],
    candidate_pool: int = 30,
    max_rounds: int = 10,
) -> LocalSearchResult:
    """Improve an anchor set by 1-swaps until swap-optimal (or capped).

    Args:
        graph: the social network.
        anchors: the starting anchor set (e.g. a GAC result).
        candidate_pool: how many top non-anchor vertices (by the
            follower upper bound) are tried as replacements each round.
        max_rounds: cap on full improvement passes.

    Returns:
        A :class:`LocalSearchResult`; ``final_gain >= initial_gain``.
    """
    start = _clock()
    current = list(dict.fromkeys(anchors))  # dedupe, keep order
    base = core_decomposition(graph)
    result = LocalSearchResult(
        anchors=current,
        initial_gain=coreness_gain(graph, current, base=base),
    )
    current_gain = result.initial_gain

    for _ in range(max_rounds):
        improved = False
        state = AnchoredState.build(graph, current)
        total, index = compute_upper_bounds(state).total, state.tables.index
        pool = sorted(  # ascending id is the sort-key order
            state.candidates(), key=lambda u: (-total[index[u]], index[u])
        )[:candidate_pool]
        for out_anchor in list(current):
            for in_anchor in pool:
                if in_anchor in current:
                    continue
                trial_set = [
                    in_anchor if a == out_anchor else a for a in current
                ]
                result.trials += 1
                trial_gain = coreness_gain(graph, trial_set, base=base)
                if trial_gain > current_gain:
                    current = trial_set
                    current_gain = trial_gain
                    result.swaps.append((out_anchor, in_anchor))
                    improved = True
                    break
            if improved:
                break  # recompute state/pool after every applied swap
        if not improved:
            break

    result.anchors = current
    result.final_gain = current_gain
    result.elapsed_seconds = _clock() - start
    return result
