"""Bench F12 — regenerate Figure 12 (runtimes of the GAC variants).

Expected shape: Baseline (full decomposition per candidate) is slowest
by a wide margin — feasible only on the smallest dataset, like in the
paper — and the engineered variants order GAC <= GAC-U <= GAC-U-R.

Serial-vs-parallel whole-run timings live in the end-to-end benchmark
(``benchmarks/e2e/run.py``, workloads ``gac-lj-b6`` and ``gac-lj-b6-w2``;
see ``docs/benchmarking.md``).
"""

from conftest import run_once

from repro.experiments import fig12

DATASETS = ["brightkite", "gowalla", "stanford"]


def test_fig12_runtime(benchmark, save_report):
    result = run_once(
        benchmark,
        lambda: fig12.run(
            datasets=DATASETS,
            budget=15,
            baseline_dataset="brightkite",
            baseline_budget=2,
        ),
    )
    save_report(result)
    per_iter = result.data["baseline_per_iteration"]
    assert per_iter["Baseline"] > 5 * per_iter["GAC-U-R"], (
        "the local follower search must beat full decomposition per candidate"
    )
    for name, times in result.data["runtimes"].items():
        assert times["GAC"] <= 1.5 * times["GAC-U-R"], name
