"""Ablation studies for the design choices DESIGN.md §6 calls out.

Not a paper artifact — quantifies the mechanisms behind Figures 12/13:

* upper-bound tightness: how loose ``UB_sigma`` is against ``|F|``;
* reuse effectiveness: cache hit rate over a GAC-U run;
* the local follower search vs a full core decomposition per candidate.
"""

from __future__ import annotations

from repro.anchors.bounds import compute_upper_bounds
from repro.anchors.followers import find_followers, followers_naive
from repro.anchors.gac import gac_u
from repro.anchors.state import AnchoredState
from repro.datasets import registry
from repro.experiments.reporting import ExperimentResult, Table
from repro.obs import clock as _clock
from repro.verify import suspended


def run(
    dataset: str = "brightkite",
    budget: int = 10,
    follower_sample: int = 200,
) -> ExperimentResult:
    """Run all three ablations on one dataset."""
    graph = registry.load(dataset)
    state = AnchoredState.build(graph)

    # 1. Upper-bound tightness over every vertex with at least 1 follower.
    bound = compute_upper_bounds(state).total
    index = state.tables.index
    ratios: list[float] = []
    exact_nonzero = 0
    for u in state.candidates():
        total = find_followers(state, u).total
        if total > 0:
            ratios.append(bound[index[u]] / total)
            exact_nonzero += 1
    mean_ratio = sum(ratios) / len(ratios) if ratios else 0.0

    # 2. Reuse effectiveness across a GAC-U run.
    counters = gac_u(graph, budget).total_counters()
    explored = counters.explored_nodes
    reused = counters.reused_nodes
    hit_rate = reused / (explored + reused) if explored + reused else 0.0

    # 3. Local follower search vs full decomposition, per candidate.
    # Timed under verify.suspended(): the runtime invariant oracle hooks
    # both paths asymmetrically and would distort the measured ratio.
    sample = sorted(graph.vertices())[:follower_sample]
    with suspended():
        t0 = _clock()
        for u in sample:
            find_followers(state, u)
        local_time = _clock() - t0
        base = state.label_decomposition()
        t0 = _clock()
        for u in sample:
            followers_naive(graph, u, base=base)
        naive_time = _clock() - t0
    speedup = naive_time / local_time if local_time else float("inf")

    table = Table(
        title=f"Ablations on {dataset}",
        headers=["metric", "value"],
        rows=[
            ["vertices with followers", exact_nonzero],
            ["mean UB/|F| ratio", mean_ratio],
            [f"cache hit rate (GAC-U, b={budget})", hit_rate],
            [f"local follower search speedup vs naive (x{len(sample)})", speedup],
        ],
    )
    return ExperimentResult(
        name="ablation",
        tables=[table],
        data={
            "mean_ub_ratio": mean_ratio,
            "cache_hit_rate": hit_rate,
            "follower_speedup": speedup,
        },
    )
