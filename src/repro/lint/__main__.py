"""Command-line entry point: ``python -m repro.lint [paths ...]``.

Also reachable as ``python -m repro lint ...``. Exit status: 0 when no
(non-baselined) diagnostics were found and the baseline is not stale,
1 when violations (or stale baseline entries) remain, 2 on usage or
I/O errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lint.baseline import Baseline
from repro.lint.diagnostics import Diagnostic, to_json
from repro.lint.passes import PASS_REGISTRY, all_passes
from repro.lint.program import run_program_passes
from repro.lint.rules import REGISTRY, Rule, all_rules
from repro.lint.runner import discover, lint_paths

DEFAULT_BASELINE = Path(".lint-baseline.json")
#: Default lint roots; missing ones are skipped silently (a checkout
#: without benchmarks/ or scripts/ is not an error).
DEFAULT_PATHS = ("src", "tests", "benchmarks", "scripts")
#: Source roots the whole-program passes model (importable code only).
DEFAULT_PROGRAM_ROOTS = ("src",)


def _select_rules(spec: str | None) -> list[Rule]:
    if spec is None:
        return all_rules()
    selected: list[Rule] = []
    for rule_id in spec.split(","):
        rule_id = rule_id.strip().upper()
        if rule_id not in REGISTRY:
            raise SystemExit(
                f"error: unknown rule {rule_id!r}; available: "
                + ", ".join(sorted(REGISTRY))
            )
        selected.append(REGISTRY[rule_id])
    return selected


def _select_passes(spec: str | None) -> list[str]:
    if spec is None:
        return sorted(PASS_REGISTRY)
    selected: list[str] = []
    for pass_id in spec.split(","):
        pass_id = pass_id.strip().upper()
        if pass_id not in PASS_REGISTRY:
            raise SystemExit(
                f"error: unknown pass {pass_id!r}; available: "
                + ", ".join(sorted(PASS_REGISTRY))
            )
        selected.append(pass_id)
    return selected


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Determinism linter for the anchored-coreness reproduction.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to lint "
        f"(default: {' '.join(DEFAULT_PATHS)}, skipping absent ones)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON diagnostics"
    )
    parser.add_argument(
        "--rules",
        metavar="R1,R2,...",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--program",
        action="store_true",
        help="also run the whole-program passes (L1-L3) over the source roots",
    )
    parser.add_argument(
        "--passes",
        metavar="L1,L2,...",
        help="comma-separated pass ids for --program (default: all)",
    )
    parser.add_argument(
        "--program-root",
        action="append",
        type=Path,
        default=None,
        metavar="DIR",
        help="source root(s) the whole-program passes analyze "
        f"(default: {' '.join(DEFAULT_PROGRAM_ROOTS)})",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        metavar="FILE",
        help=f"baseline file of grandfathered findings (default: {DEFAULT_BASELINE} "
        "when it exists)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file, report every finding",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule and pass catalogue and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}  [{rule.slug}]  {rule.summary}")
        for program_pass in all_passes():
            print(
                f"{program_pass.rule_id}  [{program_pass.slug}]  "
                f"{program_pass.summary}"
            )
        return 0

    try:
        rules = _select_rules(args.rules)
        pass_ids = _select_passes(args.passes)
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2

    # argparse yields [] (not the default) for an absent nargs="*" positional.
    if not args.paths:
        paths = [Path(p) for p in DEFAULT_PATHS if Path(p).exists()]
    else:
        paths = [Path(p) for p in args.paths]
        missing = [p for p in paths if not p.exists()]
        if missing:
            print(
                "error: no such file or directory: "
                + ", ".join(str(p) for p in missing),
                file=sys.stderr,
            )
            return 2

    diagnostics = lint_paths(paths, rules=rules)
    linted = {_relative_posix(p) for p in discover(paths)}

    if args.program:
        program_roots = [
            Path(p)
            for p in (args.program_root or [Path(p) for p in DEFAULT_PROGRAM_ROOTS])
        ]
        absent = [p for p in program_roots if not p.is_dir()]
        if absent:
            print(
                "error: --program-root is not a directory: "
                + ", ".join(str(p) for p in absent),
                file=sys.stderr,
            )
            return 2
        program_diagnostics = run_program_passes(program_roots, passes=pass_ids)
        diagnostics = sorted(set(diagnostics) | set(program_diagnostics))
        for root in program_roots:
            linted.update(_relative_posix(p) for p in discover([root]))

    baseline_path = args.baseline
    if baseline_path is None and DEFAULT_BASELINE.exists():
        baseline_path = DEFAULT_BASELINE

    if args.write_baseline:
        target = baseline_path or DEFAULT_BASELINE
        Baseline.from_diagnostics(diagnostics).save(target)
        print(f"wrote {len(diagnostics)} baseline entries to {target}")
        return 0

    suppressed = 0
    stale: list[tuple[str, str, str]] = []
    if baseline_path is not None and not args.no_baseline:
        try:
            baseline = Baseline.load(baseline_path)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot read baseline: {exc}", file=sys.stderr)
            return 2
        stale = [
            key
            for key in baseline.stale_entries(diagnostics)
            if key[0] in linted
        ]
        diagnostics, suppressed = baseline.filter(diagnostics)

    if args.json:
        print(to_json(diagnostics))
    else:
        for diagnostic in diagnostics:
            print(diagnostic.render())
        summary = f"{len(diagnostics)} finding(s)"
        if suppressed:
            summary += f", {suppressed} baselined"
        print(summary)
    for path, rule, code in stale:
        print(
            f"error: stale baseline entry no longer matches any finding: "
            f"{path} {rule} {code!r}; remove it from {baseline_path} "
            "(the debt it grandfathered is fixed)",
            file=sys.stderr,
        )
    return 1 if diagnostics or stale else 0


def _relative_posix(path: Path) -> str:
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


if __name__ == "__main__":
    sys.exit(main())
