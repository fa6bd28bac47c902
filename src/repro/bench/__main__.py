"""Command-line entry point: ``python -m repro.bench <command>``.

Commands:

* ``run``  — execute a workload-grid spec (``--grid``, default the
  checked-in ``benchmarks/grids/gac_grid.json``) and write the
  schema-5 ``BENCH_grid.json`` artifact plus a merged Chrome trace;
  ``--smoke`` shrinks the grid to one cell per axis (first dataset,
  smallest budget, serial + smallest parallel leg, single repeat) —
  the CI mode;
* ``gate`` — apply the regression gate to a fresh grid artifact
  against the committed ``BENCH_grid.json`` (see
  :mod:`repro.bench.gate`).

Exit status: 0 success / pass, 1 identity or gain-check violation or
regression, 2 bad input (unreadable grid spec, unknown dataset,
malformed or non-schema-5 baseline) — never a bare traceback for a bad
input.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from repro.bench import gate as gate_mod
from repro.bench.grid import load_grid
from repro.bench.runner import IdentityError, run_grid
from repro.errors import DatasetError, VerificationError

DEFAULT_GRID = Path("benchmarks") / "grids" / "gac_grid.json"
DEFAULT_OUT = Path("BENCH_grid.json")
DEFAULT_TRACE_OUT = Path("BENCH_grid_trace.json")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        spec = load_grid(Path(args.grid))
    except OSError as exc:
        return _fail(f"cannot read grid spec {args.grid}: {exc}")
    except ValueError as exc:
        return _fail(str(exc))
    mode = "full"
    if args.smoke:
        spec = spec.smoke()
        mode = "smoke"
    if args.best_of is not None:
        if args.best_of < 1:
            return _fail(f"--best-of must be >= 1, got {args.best_of}")
        spec = dataclasses.replace(spec, best_of=args.best_of)
    cells = spec.cells()
    print(
        f"bench run: {spec.name} — {len(cells)} cell(s), "
        f"best of {spec.best_of} ({mode})"
    )
    try:
        baseline = run_grid(
            spec, mode=mode, trace_out=Path(args.trace_out)
        )
    except DatasetError as exc:
        return _fail(str(exc))
    except ValueError as exc:
        return _fail(str(exc))
    except IdentityError as exc:
        print(f"bench run: IDENTITY FAILURE — {exc}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"bench run: GAIN CHECK FAILURE — {exc}", file=sys.stderr)
        return 1
    out = Path(args.out)
    baseline.write(out)
    for entry in baseline.cells:
        wall = entry["wall_s"]
        if isinstance(wall, dict):
            timing = (
                f"wall min {wall['min']}s median {wall['median']}s "
                f"spread {wall['spread']}s"
            )
            if entry.get("speedup") is not None:
                timing += f", speedup {entry['speedup']}x"
        else:
            timing = "starved — stats refused"
        print(f"  {entry['cell']}: {timing}")
    print(
        f"bench run: wrote {out} (schema 5, host_cores="
        f"{baseline.host_cores}) and {args.trace_out}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Workload-grid bench runner and regression gate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a workload grid spec")
    p_run.add_argument(
        "--grid",
        default=str(DEFAULT_GRID),
        help=f"grid spec JSON (default: {DEFAULT_GRID})",
    )
    p_run.add_argument(
        "--out",
        default=str(DEFAULT_OUT),
        help=f"schema-5 artifact path (default: {DEFAULT_OUT})",
    )
    p_run.add_argument(
        "--trace-out",
        default=str(DEFAULT_TRACE_OUT),
        help=f"merged Chrome trace path (default: {DEFAULT_TRACE_OUT})",
    )
    p_run.add_argument(
        "--smoke",
        action="store_true",
        help="shrink the grid to one cell per axis, single repeat (CI mode)",
    )
    p_run.add_argument(
        "--best-of",
        type=int,
        default=None,
        help="override the spec's repeat count",
    )
    p_run.set_defaults(func=_cmd_run)

    p_gate = sub.add_parser(
        "gate",
        help="regression gate for schema-5 grid artifacts",
        parents=[gate_mod.build_parser()],
        add_help=False,
    )
    p_gate.set_defaults(func=gate_mod.run)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    result = args.func(args)
    assert isinstance(result, int)
    return result


if __name__ == "__main__":
    sys.exit(main())
