"""Command-line entry point: ``python -m repro.obs <command>``.

Commands:

* ``report``   — run an instrumented GAC pass over a dataset, print the
  phase-profile, counter, and (for ``--workers``) pool-health tables,
  and write a Chrome trace-event JSON artifact with per-worker span
  lanes and a resource-gauge timeline (tracing is forced on);
* ``validate`` — check a trace artifact; exit 1 if it is empty or
  malformed (the CI gate for uploaded traces).

Exit status: 0 on success, 1 on validation findings, 2 on usage errors
(unknown dataset, unreadable or malformed input file, bad budget) —
never a bare traceback for a bad input.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import obs

DEFAULT_TRACE_OUT = Path("obs_trace.json")

_VARIANTS = ("gac", "gac-u", "gac-u-r")

#: Registry prefix that makes up the pool-health report section.
_POOL_PREFIX = "parallel."


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _pool_section(counters: dict[str, int], gauges: dict[str, float]) -> str | None:
    """The pool-health table, or None when the run never used the pool."""
    rows = {
        name: value
        for source in (counters, gauges)
        for name, value in source.items()
        if name.startswith(_POOL_PREFIX)
    }
    if not rows:
        return None
    return obs.counters_table(rows, title="pool health").format()


def _cmd_report(args: argparse.Namespace) -> int:
    # Imported here: the algorithm stack is heavy and `validate` must
    # stay usable in minimal environments (CI artifact checks).
    from repro.anchors.gac import gac, gac_u, gac_u_r
    from repro.datasets import registry
    from repro.errors import BudgetError, DatasetError, ParseError
    from repro.graphs.io import read_edge_list

    try:
        if args.edges:
            graph = read_edge_list(args.edges)
            source = args.edges
        else:
            graph = registry.load(args.dataset)
            source = args.dataset
    except (DatasetError, ParseError) as exc:
        return _fail(str(exc))
    except OSError as exc:
        return _fail(f"cannot read edge list {args.edges}: {exc}")
    variant = {"gac": gac, "gac-u": gac_u, "gac-u-r": gac_u_r}[args.variant]

    run_window = obs.window()
    try:
        with obs.ResourceSampler() as sampler, obs.tracing(True):
            result = variant(graph, args.budget, workers=args.workers)
    except BudgetError as exc:
        return _fail(str(exc))

    label = f"{args.variant} on {source}"
    if args.workers:
        label += f" (workers={args.workers})"
    print(
        f"{label}: b={args.budget} "
        f"anchors={' '.join(str(a) for a in result.anchors)} "
        f"gain={result.total_gain}"
    )
    print()
    stats = obs.phase_profile(run_window.events())
    print(
        obs.profile_table(
            stats, title=f"phase profile — {label} (b={args.budget})"
        ).format()
    )
    print()
    print(obs.counters_table(run_window.counters(), title="work counters").format())
    pool = _pool_section(run_window.counters(), obs.gauges_snapshot())
    if pool is not None:
        print()
        print(pool)

    out = Path(args.out)
    obs.write_chrome_trace(
        out, run_window.events(), run_window.counters(), sampler.samples
    )
    problems = obs.validate_chrome_trace(out)
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    lanes = len({e.pid for e in run_window.events()})
    print(f"\nwrote Chrome trace-event JSON to {out} ({lanes} process lane(s))")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    problems = obs.validate_chrome_trace(args.path)
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    print(f"{args.path}: valid Chrome trace-event JSON")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Tracing and metrics tooling for the anchored-coreness repo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser(
        "report", help="run an instrumented GAC pass and emit profile + trace"
    )
    p_report.add_argument("--dataset", default="brightkite", help="replica dataset")
    p_report.add_argument("--edges", help="path to a SNAP-style edge list instead")
    p_report.add_argument("-b", "--budget", type=int, default=3)
    p_report.add_argument(
        "--variant", default="gac", choices=_VARIANTS, help="greedy variant to run"
    )
    p_report.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel candidate-scan workers (spans ship back per-worker lanes)",
    )
    p_report.add_argument(
        "--out",
        default=str(DEFAULT_TRACE_OUT),
        help=f"trace artifact path (default: {DEFAULT_TRACE_OUT})",
    )
    p_report.set_defaults(func=_cmd_report)

    p_validate = sub.add_parser(
        "validate", help="fail (exit 1) if a trace artifact is empty or malformed"
    )
    p_validate.add_argument("path", help="trace JSON file to check")
    p_validate.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return int(args.func(args))


if __name__ == "__main__":
    sys.exit(main())
