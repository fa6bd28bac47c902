"""The bench regression gate: ``python -m repro.bench gate``.

Gates a fresh schema-5 ``BENCH_grid.json`` artifact (from ``python -m
repro.bench run``) against the committed one, per cell:

- *headline*: every fresh cell with ``workers >= --min-workers`` must
  hold ``--floor`` speedup against its serial reference; starved cells
  are SKIPped (their stats are ``null`` by construction — the runner
  refuses time-sliced measurements). A committed cell with the same
  cell id **and the same host_cores class** raises the floor to its
  speedup minus ``--tolerance`` — the trajectory may only move up, and
  measurements from different hardware classes never gate each other;
- *kernel*: the **reference pair** — the serial dict/flat
  follower-search pair with the largest dict total at or above
  ``--kernel-ref-floor`` seconds — must hold ``--kernel-floor`` inside
  the committed artifact *and* inside the fresh one (both are within-run
  A/B pairs, so host speed cancels); when committed and fresh share the
  reference workload and host class, fresh flat is additionally gated
  against committed dict with the committed ratio (minus the diffs
  relative tolerance) raising the floor. Pairs on smaller workloads are
  printed report-only — their searches run microseconds and the ratio
  measures span overhead, not the kernel;
- a report-only :mod:`repro.obs.diffs` phase breakdown names which
  per-cell phases moved, so a FAIL points at the regressing phase.

Exit status: 0 pass / skipped-not-applicable, 1 regression, 2 bad
input (unreadable, truncated, malformed or other-schema artifacts
report a one-line error).
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.experiments.reporting import PerfBaseline
from repro.obs.diffs import DEFAULT_REL_TOL, diff_baselines, diff_table

#: A dict/flat pair only carries the kernel acceptance criterion when
#: its dict leg is at least this long — on smaller workloads the
#: per-search cost is microseconds and the ratio measures span
#: overhead, not the kernel (``docs/kernels.md``).
KERNEL_REFERENCE_FLOOR_S = 0.25


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench gate",
        description="bench regression gate for schema-5 BENCH_grid.json artifacts",
    )
    parser.add_argument("fresh", type=Path, help="freshly benchmarked artifact")
    parser.add_argument(
        "--committed",
        type=Path,
        default=Path("BENCH_grid.json"),
        help="committed trajectory to gate against (default: ./BENCH_grid.json)",
    )
    parser.add_argument(
        "--floor",
        type=float,
        default=1.5,
        help="minimum acceptable speedup on a gate-eligible host (default: 1.5)",
    )
    parser.add_argument(
        "--min-workers",
        type=int,
        default=4,
        help="cells with at least this many workers carry the "
        "headline speedup gate (default: 4)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="fractional runner-noise allowance vs the committed speedup",
    )
    parser.add_argument(
        "--kernel-floor",
        type=float,
        default=1.8,
        help="minimum flat-over-dict ratio on the follower-search reference "
        "pair (default: 1.8; 0 disables the kernel gate)",
    )
    parser.add_argument(
        "--kernel-ref-floor",
        type=float,
        default=KERNEL_REFERENCE_FLOOR_S,
        help="minimum dict-leg seconds for a pair to carry the "
        f"kernel acceptance criterion (default: {KERNEL_REFERENCE_FLOOR_S})",
    )
    return parser


def main(argv: "list[str] | None" = None) -> int:
    """The gate entry point."""
    return run(build_parser().parse_args(argv))


def run(args: argparse.Namespace) -> int:
    """Gate ``args.fresh`` against ``args.committed`` (parsed options)."""
    try:
        fresh = PerfBaseline.load(args.fresh)
    except (OSError, ValueError) as exc:
        print(f"bench gate: cannot read fresh baseline: {exc}")
        return 2

    committed: PerfBaseline | None = None
    if args.committed.exists():
        try:
            committed = PerfBaseline.load(args.committed)
        except (OSError, ValueError) as exc:
            print(f"bench gate: cannot read committed baseline: {exc}")
            return 2

    kernel_ok = (
        _grid_kernel_gate(args, committed, fresh)
        if args.kernel_floor > 0
        else True
    )
    headline_ok = _grid_headline_gate(args, committed, fresh)
    _phase_breakdown(committed, fresh)
    return 0 if kernel_ok and headline_ok else 1


def _phase(baseline: "PerfBaseline | None", name: str) -> "tuple[float, int] | None":
    """``(total_s, calls)`` for a recorded phase, or None when absent."""
    if baseline is None:
        return None
    for entry in baseline.phases:
        if entry.get("phase") != name:
            continue
        total = entry.get("total_s")
        calls = entry.get("calls")
        if isinstance(total, (int, float)):
            return (
                float(total),
                int(calls) if isinstance(calls, (int, float)) else 0,
            )
    return None


def _phase_breakdown(committed: "PerfBaseline | None", fresh: PerfBaseline) -> None:
    """Report-only: name the phases that moved between the two runs.

    Never changes the exit status — phase totals on shared runners are
    noisy diagnostics, not a gate; the variance-aware thresholds in
    :mod:`repro.obs.diffs` keep the named list short and meaningful.
    """
    if committed is None:
        print("phase breakdown: no committed baseline to diff against")
        return
    if not committed.phases or not fresh.phases:
        print(
            "phase breakdown: skipped — committed and/or fresh baseline "
            "carries no phase profile (re-benched with an older bench?)"
        )
        return
    deltas = diff_baselines(committed, fresh)
    regressed = [d.phase for d in deltas if d.verdict == "regressed"]
    if regressed:
        print(
            f"phase breakdown: {len(regressed)} phase(s) regressed vs the "
            f"committed profile: {', '.join(regressed)}"
        )
    else:
        print("phase breakdown: no phase regressed vs the committed profile")
    print(diff_table(deltas, title="phase diff — committed vs fresh").format())


def _cell_index(baseline: "PerfBaseline | None") -> dict[str, dict[str, object]]:
    if baseline is None:
        return {}
    out: dict[str, dict[str, object]] = {}
    for entry in baseline.cells:
        cell = entry.get("cell")
        if isinstance(cell, str):
            out[cell] = entry
    return out


def _cell_speedup(entry: dict[str, object]) -> float | None:
    value = entry.get("speedup")
    return float(value) if isinstance(value, (int, float)) and value > 0 else None


def _grid_pairs(
    baseline: "PerfBaseline | None",
) -> dict[tuple[str, int, str], dict[str, tuple[float, int]]]:
    """Per (dataset, budget, strategy): serial follower-search phases by
    kernel label, read from each serial cell's own namespace."""
    if baseline is None:
        return {}
    pairs: dict[tuple[str, int, str], dict[str, tuple[float, int]]] = {}
    for entry in baseline.cells:
        if entry.get("workers") != 0:
            continue
        cell = entry.get("cell")
        dataset = entry.get("dataset")
        budget = entry.get("budget")
        kernel = entry.get("kernel")
        strategy = entry.get("strategy")
        if not (
            isinstance(cell, str)
            and isinstance(dataset, str)
            and isinstance(budget, int)
            and isinstance(kernel, str)
            and isinstance(strategy, str)
        ):
            continue
        phase = _phase(baseline, f"{cell}/followers.search[{kernel}]")
        if phase is not None:
            pairs.setdefault((dataset, budget, strategy), {})[kernel] = phase
    return pairs


def _reference_pair(
    pairs: dict[tuple[str, int, str], dict[str, tuple[float, int]]],
    *,
    ref_floor_s: float,
) -> "tuple[tuple[str, int, str], float] | None":
    """The (group, ratio) carrying the acceptance criterion: the
    dict/flat pair with the largest dict leg at or above the reference
    floor and matching call counts, or None when no pair qualifies."""
    best: "tuple[tuple[str, int, str], float, float] | None" = None
    for group, by_kernel in pairs.items():
        dict_leg = by_kernel.get("dict")
        flat_leg = by_kernel.get("flat")
        if (
            dict_leg is None
            or flat_leg is None
            or flat_leg[0] <= 0.0
            or dict_leg[1] != flat_leg[1]
            or dict_leg[0] < ref_floor_s
        ):
            continue
        ratio = dict_leg[0] / flat_leg[0]
        if best is None or dict_leg[0] > best[2]:
            best = (group, ratio, dict_leg[0])
    return (best[0], best[1]) if best is not None else None


def _grid_kernel_gate(
    args: argparse.Namespace,
    committed: "PerfBaseline | None",
    fresh: PerfBaseline,
    *,
    rel_tol: float = DEFAULT_REL_TOL,
) -> bool:
    floor = args.kernel_floor
    committed_pairs = _grid_pairs(committed)
    fresh_pairs = _grid_pairs(fresh)
    ok = True

    committed_ref = _reference_pair(
        committed_pairs, ref_floor_s=args.kernel_ref_floor
    )
    fresh_ref = _reference_pair(fresh_pairs, ref_floor_s=args.kernel_ref_floor)

    # 1. Both artifacts' own reference pairs must hold the acceptance
    #    criterion — each is an in-run A/B, so host speed cancels.
    for label, ref in (("committed", committed_ref), ("fresh", fresh_ref)):
        if ref is None:
            continue
        (dataset, budget, _), ratio = ref
        verdict = "PASS" if ratio >= floor else "FAIL"
        print(
            f"kernel gate: {verdict} — {label} reference pair "
            f"{dataset}/b{budget} records flat beating dict {ratio:.3f}x "
            f"(floor {floor:.3f}x)"
        )
        ok = ok and verdict == "PASS"
    if committed_ref is None and fresh_ref is None:
        print(
            "kernel gate: SKIP — no dict/flat pair reaches the "
            f"{args.kernel_ref_floor:.2f}s reference floor on either side"
        )
        return ok

    # 2. Shared reference workload on the same host class: fresh flat
    #    gated against committed dict, trajectory only up.
    if (
        committed_ref is not None
        and committed is not None
        and committed.host_cores == fresh.host_cores
    ):
        group = committed_ref[0]
        fresh_flat = fresh_pairs.get(group, {}).get("flat")
        committed_dict = committed_pairs[group].get("dict")
        if (
            fresh_flat is not None
            and committed_dict is not None
            and fresh_flat[0] > 0.0
            and fresh_flat[1] == committed_dict[1]
        ):
            required = max(floor, committed_ref[1] * (1.0 - rel_tol))
            ratio = committed_dict[0] / fresh_flat[0]
            verdict = "PASS" if ratio >= required else "FAIL"
            print(
                f"kernel gate: {verdict} — fresh flat beats the committed "
                f"dict leg {ratio:.3f}x on the reference workload "
                f"{group[0]}/b{group[1]} (floor {required:.3f}x)"
            )
            ok = ok and verdict == "PASS"

    # 3. Every other fresh pair: report-only diagnostics.
    for group in sorted(fresh_pairs):
        if committed_ref is not None and group == committed_ref[0]:
            continue
        if fresh_ref is not None and group == fresh_ref[0]:
            continue
        by_kernel = fresh_pairs[group]
        dict_leg, flat_leg = by_kernel.get("dict"), by_kernel.get("flat")
        if dict_leg is not None and flat_leg is not None and flat_leg[0] > 0.0:
            print(
                f"kernel gate: report-only — {group[0]}/b{group[1]} in-run "
                f"flat-over-dict ratio {dict_leg[0] / flat_leg[0]:.3f}x "
                f"({dict_leg[0]:.4f}s dict / {flat_leg[0]:.4f}s flat; not "
                "the reference pair)"
            )
    return ok


def _as_int(value: object) -> "int | None":
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    return None


def _grid_headline_gate(
    args: argparse.Namespace,
    committed: "PerfBaseline | None",
    fresh: PerfBaseline,
) -> bool:
    committed_cells = _cell_index(committed)
    committed_cores = committed.host_cores if committed is not None else None
    gated = []
    for entry in fresh.cells:
        workers = _as_int(entry.get("workers"))
        if workers is not None and workers >= args.min_workers:
            gated.append(entry)
    if not gated:
        print(
            "headline gate: SKIP — grid has no cells with workers >= "
            f"{args.min_workers}"
        )
        return True
    ok = True
    for entry in gated:
        cell = str(entry.get("cell"))
        if entry.get("starved"):
            print(
                f"headline gate: SKIP — {cell} is starved "
                f"(workers > host_cores={fresh.host_cores}); stats were "
                "refused, not fabricated"
            )
            continue
        speedup = _cell_speedup(entry)
        if speedup is None:
            print(
                f"headline gate: FAIL — {cell} is gate-eligible but records "
                "no speedup (missing serial reference?)"
            )
            ok = False
            continue
        floor = args.floor
        note = "no committed same-class trajectory"
        prior = committed_cells.get(cell)
        if (
            prior is not None
            and not prior.get("starved")
            and committed_cores == fresh.host_cores
        ):
            prior_speedup = _cell_speedup(prior)
            if prior_speedup is not None:
                trajectory = prior_speedup * (1.0 - args.tolerance)
                if trajectory > floor:
                    floor = trajectory
                note = (
                    f"committed {prior_speedup:.3f}x on "
                    f"{committed_cores} cores"
                )
        verdict = "PASS" if speedup >= floor else "FAIL"
        print(
            f"headline gate: {verdict} — {cell} {speedup:.3f}x on "
            f"{fresh.host_cores} cores (floor {floor:.3f}x; {note})"
        )
        ok = ok and verdict == "PASS"
    return ok
