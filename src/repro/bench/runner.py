"""Execute a workload grid into a schema-5 ``PerfBaseline`` artifact.

Every cell runs best-of-``spec.best_of`` with the determinism contract
enforced before any timing is recorded: each repeat's full result tuple
(anchors, gains, follower sets, truncation flag, Figure-13 counters,
candidate counts) must be byte-identical to the cell's first repeat
*and* to the serial default-kernel reference cell of its (dataset,
budget, strategy) group — workers and kernels are wall-clock knobs,
never result knobs. Each group's reference cell is also checked once
against an independent oracle: its summed greedy gains must equal
:func:`repro.verify.reference.reference_gain` of its anchor set, so every
recorded timing is of a verified answer. A violation raises
:class:`IdentityError` or :class:`repro.errors.VerificationError` and
the CLI exits 1; no artifact is written.

Starved cells — ``workers > host_cores`` — time-slice, so their
wall-clock measures the scheduler, not the scan. They still run once
(the identity assertion holds unconditionally) but their statistics
are *refused*: ``null`` stats with ``"starved": true``. The gate skips
them.

Recorded per cell: variance-aware wall/scan statistics
(min/median/max/spread over the repeats), the speedup against the
serial reference (scan-min over scan-min), and the best-wall repeat's
:mod:`repro.obs` phase profile namespaced ``<cell_id>/`` into the
baseline's ``phases`` list so ``python -m repro.obs diff`` and the
gate compare like with like.
"""

from __future__ import annotations

import os
import statistics
from pathlib import Path
from typing import Callable

from repro import obs
from repro.anchors.gac import GreedyResult, gac
from repro.anchors.kernels import KERNELS
from repro.bench.grid import Cell, GridSpec
from repro.datasets import registry
from repro.errors import VerificationError
from repro.experiments.reporting import PerfBaseline
from repro.graphs.graph import Graph
from repro.verify.reference import reference_gain

#: One run's observable outcome: (result, wall seconds, scan seconds,
#: span events, resource samples).
RunOutcome = tuple[
    GreedyResult, float, float, list[obs.SpanEvent], list[obs.ResourceSample]
]


class IdentityError(AssertionError):
    """A repeat or cell broke the byte-identity contract."""


def _result_tuple(result: GreedyResult) -> object:
    """Everything the determinism contract covers, as one comparable value."""
    return (
        result.anchors,
        result.gains,
        result.followers,
        result.truncated,
        [vars(t.counters) for t in result.traces],
        [t.candidate_count for t in result.traces],
    )


def _run_anchor(graph: Graph, cell: Cell) -> RunOutcome:
    """One traced GAC run for ``cell``.

    Scan seconds sum the ``gac.candidate_scan`` span, which wraps both
    the serial loop and the parallel dispatch+replay, so serial and
    parallel cells pay the same tracing overhead and ratios stay
    honest. The kernel is pinned explicitly so an ambient
    ``REPRO_KERNEL`` cannot silently relabel the recorded phases.
    """
    window = obs.window()
    with obs.ResourceSampler() as sampler:
        t0 = obs.clock()
        with obs.tracing(True):
            result = gac(
                graph, cell.budget, workers=cell.workers, kernel=cell.kernel
            )
        wall = obs.clock() - t0
    events = window.events()
    stats = {s.name: s for s in obs.phase_profile(events)}
    scan = stats["gac.candidate_scan"].total_s
    return result, wall, scan, events, sampler.samples


#: Strategy axis registry: slug -> runner. ``anchor`` is the paper's
#: lever (GAC); budgeted edge addition is the reserved next entry
#: (PAPERS.md, "K-Core Maximization through Edge Additions").
STRATEGIES: dict[str, Callable[[Graph, Cell], RunOutcome]] = {
    "anchor": _run_anchor,
}


def _stats(samples: list[float]) -> dict[str, float]:
    """Variance-aware summary of one cell's repeat timings."""
    lo, hi = min(samples), max(samples)
    return {
        "min": round(lo, 6),
        "median": round(statistics.median(samples), 6),
        "max": round(hi, 6),
        "spread": round(hi - lo, 6),
    }


def host_core_count() -> int:
    """Cores actually schedulable for this process (the starvation test)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def run_grid(
    spec: GridSpec,
    *,
    mode: str = "full",
    trace_out: Path | None = None,
) -> PerfBaseline:
    """Sweep every cell of ``spec`` into a schema-5 baseline.

    Raises:
        ValueError: unknown kernel name in the spec (validated before
            any cell runs, so a typo cannot waste a sweep).
        repro.errors.DatasetError: unknown dataset name.
        IdentityError: a repeat or cell diverged from its reference.
        repro.errors.VerificationError: a reference cell's summed gains
            disagree with the reference peel.
    """
    for kernel in (*spec.kernels, *spec.serial_kernels):
        if kernel not in KERNELS:
            raise ValueError(
                f"grid spec names unknown kernel {kernel!r}; expected one of "
                f"{KERNELS}"
            )
    host_cores = host_core_count()
    graphs = {name: registry.load(name) for name in spec.datasets}
    baseline = PerfBaseline(
        name=spec.name,
        dataset=",".join(spec.datasets),
        num_vertices=sum(g.num_vertices for g in graphs.values()),
        num_edges=sum(g.num_edges for g in graphs.values()),
        mode=mode,
        best_of=spec.best_of,
        host_cores=host_cores,
        grid=spec.as_dict(),
    )
    references: dict[tuple[str, int, str], object] = {}
    serial_scan_min: dict[tuple[str, int, str], float] = {}
    trace_choice: tuple[int, list[obs.SpanEvent], list[obs.ResourceSample]] | None = (
        None
    )
    for cell in spec.cells():
        run = STRATEGIES[cell.strategy]
        graph = graphs[cell.dataset]
        starved = cell.workers > host_cores
        # A starved cell still proves identity, but timing it best-of-N
        # would spend minutes measuring the scheduler: one repeat.
        repeats = 1 if starved else spec.best_of
        walls: list[float] = []
        scans: list[float] = []
        first_tuple: object = None
        best: tuple[float, list[obs.SpanEvent], list[obs.ResourceSample]] | None = (
            None
        )
        for _ in range(repeats):
            result, wall, scan, events, samples = run(graph, cell)
            result_tuple = _result_tuple(result)
            if first_tuple is None:
                first_tuple = result_tuple
            elif result_tuple != first_tuple:
                raise IdentityError(
                    f"cell {cell.cell_id}: repeat diverged from the cell's "
                    "first run — the strategy is nondeterministic"
                )
            walls.append(wall)
            scans.append(scan)
            if best is None or wall < best[0]:
                best = (wall, events, samples)
        reference = references.setdefault(cell.group, first_tuple)
        if first_tuple != reference:
            raise IdentityError(
                f"cell {cell.cell_id}: result diverged from the serial "
                f"reference of its group {cell.group} — workers/kernels "
                "must be wall-clock knobs, never result knobs"
            )
        is_reference = cell == spec.reference(cell)
        if is_reference:
            serial_scan_min[cell.group] = min(scans)
            expected = reference_gain(graph, frozenset(result.anchors))
            if sum(result.gains) != expected:
                raise VerificationError(
                    f"cell {cell.cell_id}: summed gains {sum(result.gains)} "
                    f"!= reference-peel gain {expected} of its anchor set"
                )
        entry: dict[str, object] = {
            "cell": cell.cell_id,
            "dataset": cell.dataset,
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "budget": cell.budget,
            "workers": cell.workers,
            "kernel": cell.kernel,
            "strategy": cell.strategy,
            "repeats": repeats,
            "wall_s": None if starved else _stats(walls),
            "scan_s": None if starved else _stats(scans),
            "speedup": None,
        }
        if starved:
            entry["starved"] = True
        elif cell.workers > 0 and cell.group in serial_scan_min:
            scan_min = min(scans)
            if scan_min > 0:
                entry["speedup"] = round(
                    serial_scan_min[cell.group] / scan_min, 3
                )
        baseline.cells.append(entry)
        assert best is not None
        obs.record_phases(
            baseline,
            obs.phase_profile(best[1]),
            prefix=f"{cell.cell_id}/",
        )
        # The uploaded trace is the best repeat of the highest
        # non-starved worker cell (falling back to the last serial one):
        # parent lane + worker-pid lanes + the resource timeline.
        if not starved and (trace_choice is None or cell.workers >= trace_choice[0]):
            trace_choice = (cell.workers, best[1], best[2])
    if trace_out is not None and trace_choice is not None:
        obs.write_chrome_trace(trace_out, trace_choice[1], None, trace_choice[2])
    baseline.notes.append(
        "schema-5 workload grid: one cells[] entry per dataset x budget x "
        "workers x kernel x strategy; wall_s/scan_s are min/median/max/"
        "spread over repeats, speedup = reference scan min / cell scan min"
    )
    baseline.notes.append(
        "every repeat asserted byte-identical to the serial default-kernel "
        "reference of its (dataset, budget, strategy) group before any "
        "timing was recorded"
    )
    baseline.notes.append(
        "cells with workers > host_cores time-slice, so their stats are "
        "refused: null columns with starved: true (identity still "
        "asserted, single repeat); the gate skips them"
    )
    baseline.notes.append(
        "phases are namespaced <cell>/ per cell (best-wall repeat); serial "
        "reference-kernel cells carry the followers.search[<kernel>] A/B "
        "pair the kernel gate reads (docs/benchmarking.md)"
    )
    return baseline
