"""repro.lint — the repo-specific determinism linter.

An AST-based static checker enforcing the reproducibility invariants
the anchored-coreness algorithms rely on (stable iteration order,
seeded randomness, pure follower computation, ...). Single-file rules
(``R1``..) are complemented by whole-program passes (``L1``..) that
analyze the full source tree at once — layering, worker purity,
obs coverage. Run it as::

    python -m repro.lint src/ tests/
    python -m repro.lint --program --json

or call :func:`lint_paths` / :func:`lint_source` /
:func:`run_program_passes` programmatically (the test suite does all
three). See ``docs/verification.md`` for the rule catalogue and waiver
syntax and ``docs/static-analysis.md`` for the whole-program passes.
"""

from repro.lint.baseline import Baseline
from repro.lint.diagnostics import Diagnostic, to_json
from repro.lint.markers import pure
from repro.lint.passes import PASS_REGISTRY, all_passes
from repro.lint.program import ProjectModel, build_project, run_program_passes
from repro.lint.rules import REGISTRY, LintContext, Rule, all_rules, register
from repro.lint.runner import (
    KNOWN_SLUGS,
    classify,
    discover,
    lint_paths,
    lint_source,
)

__all__ = [
    "Baseline",
    "Diagnostic",
    "KNOWN_SLUGS",
    "LintContext",
    "PASS_REGISTRY",
    "ProjectModel",
    "REGISTRY",
    "Rule",
    "all_passes",
    "all_rules",
    "build_project",
    "classify",
    "discover",
    "lint_paths",
    "lint_source",
    "pure",
    "register",
    "run_program_passes",
    "to_json",
]
