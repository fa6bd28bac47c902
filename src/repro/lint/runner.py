"""File discovery, waiver parsing, and rule orchestration.

The runner turns paths into :class:`~repro.lint.rules.LintContext`
objects and feeds them to every registered rule (or a selected subset).

Waiver grammar
--------------
A violation is waived by a comment on the offending line::

    for u in candidate_set:  # lint: order-ok accumulation is commutative

The comment must start with ``lint:`` followed by one or more waiver
slugs and, by convention, a reason. The file rules' slugs
(``order-ok``, ``random-ok``, ``mutable-default-ok``, ``float-eq-ok``,
``purity-ok``, ``clock-ok``, ``timer-ok``, ``parallel-ok``) and the
whole-program passes' slugs (``layer-ok``, ``race-ok``, ``obs-ok``)
share one namespace; a single comment may carry several slugs
(``# lint: parallel-ok layer-ok ...``).
Waivers are per-line and per-rule: they never silence a whole file,
and an unknown slug is itself reported so typos cannot silently
disable checking.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path

from repro.lint.diagnostics import Diagnostic
from repro.lint.passes import PASS_REGISTRY
from repro.lint.rules import REGISTRY, LintContext, Rule, all_rules

#: Path components that mark a file as test code (R2/R6 exempt).
_TEST_MARKERS = ("tests", "test")
#: Directory names whose modules the R1 order rule applies to.
ORDER_SENSITIVE_DIRS: frozenset[str] = frozenset({"anchors", "core", "olak"})

_WAIVER_RE = re.compile(r"#\s*lint:\s*(?P<body>.+)$")
_SLUG_RE = re.compile(r"[a-z][a-z-]*-ok")
#: A token that *looks like* a slug attempt ("order-okay") but isn't one;
#: reported rather than silently treated as reason text.
_SLUG_ATTEMPT_RE = re.compile(r"[a-z][a-z-]*-ok[a-z-]*")

KNOWN_SLUGS: frozenset[str] = frozenset(
    rule.slug for rule in REGISTRY.values()
) | frozenset(program_pass.slug for program_pass in PASS_REGISTRY.values())


def parse_waivers(source: str, path: str) -> tuple[dict[int, set[str]], list[Diagnostic]]:
    """Extract ``# lint: <slug> ...`` waivers per line.

    Returns the ``{line: {slugs}}`` map plus diagnostics for malformed
    waivers (unknown slug, or no recognizable slug at all) so that a
    typo like ``# lint: order-okay`` fails loudly instead of silently
    keeping the violation suppressed-looking.
    """
    waivers: dict[int, set[str]] = {}
    problems: list[Diagnostic] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            (tok.start[0], tok.start[1], tok.string)
            for tok in tokens
            if tok.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return waivers, problems
    for lineno, col, comment in comments:
        match = _WAIVER_RE.search(comment)
        if match is None:
            continue
        body = match.group("body")
        slugs: set[str] = set()
        unknown: set[str] = set()
        # Slugs lead the body; the first token that is not slug-shaped
        # starts the free-text reason. A slug-shaped token that is not a
        # known slug ("random-okay") is reported instead of silently
        # becoming part of the reason.
        for token in body.split():
            if _SLUG_RE.fullmatch(token):
                (slugs if token in KNOWN_SLUGS else unknown).add(token)
            elif _SLUG_ATTEMPT_RE.fullmatch(token):
                unknown.add(token)
            else:
                break
        if not slugs or unknown:
            detail = ", ".join(sorted(unknown)) if unknown else body.strip()
            problems.append(
                Diagnostic(
                    path=path,
                    line=lineno,
                    col=col,
                    rule="R0",
                    message=f"unrecognized lint waiver {detail!r}; known slugs: "
                    + ", ".join(sorted(KNOWN_SLUGS)),
                    code=comment.strip(),
                )
            )
            continue
        waivers.setdefault(lineno, set()).update(slugs)
    return waivers, problems


def classify(path: Path, root: Path | None = None) -> dict[str, bool]:
    """Role flags for a file derived from its path components."""
    rel = path
    if root is not None:
        try:
            rel = path.relative_to(root)
        except ValueError:
            rel = path
    parts = rel.parts
    name = rel.name
    is_test = (
        any(part in _TEST_MARKERS for part in parts[:-1])
        or name.startswith("test_")
        or name == "conftest.py"
    )
    return {
        "is_test": is_test,
        "is_benchmark": "benchmarks" in parts[:-1] or name.startswith("bench_"),
        "is_script": "scripts" in parts[:-1],
        "is_experiment": "experiments" in parts[:-1],
        "is_obs": "obs" in parts[:-1],
        "is_parallel": "parallel" in parts[:-1],
        "order_sensitive": any(part in ORDER_SENSITIVE_DIRS for part in parts[:-1]),
    }


def parse_module(
    source: str, path: "str | Path"
) -> tuple[ast.Module, dict[int, set[str]], list[Diagnostic]]:
    """Parse products of one module: AST, waiver map, waiver problems."""
    tree = ast.parse(source, filename=str(path))
    waivers, problems = parse_waivers(source, str(path))
    return tree, waivers, problems


def build_context(source: str, path: str, **roles: bool) -> tuple[LintContext, list[Diagnostic]]:
    """Parse ``source`` into a lint context (plus waiver-syntax problems)."""
    tree, waivers, problems = parse_module(source, path)
    ctx = LintContext(
        path=path,
        tree=tree,
        lines=source.splitlines(),
        waivers=waivers,
        **roles,
    )
    return ctx, problems


def lint_source(
    source: str,
    path: str = "<string>",
    rules: list[Rule] | None = None,
    **roles: bool,
) -> list[Diagnostic]:
    """Lint one in-memory module; role flags default to all-True checks.

    Unspecified roles default to the most-checked configuration
    (order-sensitive, non-test) so snippet fixtures exercise every rule.
    """
    roles.setdefault("is_test", False)
    roles.setdefault("is_benchmark", False)
    roles.setdefault("is_script", False)
    roles.setdefault("is_experiment", False)
    roles.setdefault("is_obs", False)
    roles.setdefault("is_parallel", False)
    roles.setdefault("order_sensitive", True)
    ctx, problems = build_context(source, path, **roles)
    diagnostics = list(problems)
    for rule in rules if rules is not None else all_rules():
        diagnostics.extend(rule.check(ctx))
    return sorted(diagnostics)


def discover(paths: list[Path]) -> list[Path]:
    """Expand files/directories into a sorted list of python files."""
    found: set[Path] = set()
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            found.add(path)
        elif path.is_dir():
            for candidate in path.rglob("*.py"):
                if any(
                    part.startswith(".") or part == "__pycache__"
                    for part in candidate.parts
                ):
                    continue
                found.add(candidate)
    return sorted(found)


def lint_paths(
    paths: list[Path],
    rules: list[Rule] | None = None,
    root: Path | None = None,
) -> list[Diagnostic]:
    """Lint every python file under ``paths``; diagnostics sorted by location.

    Files that fail to parse produce a single ``R0`` syntax diagnostic
    rather than aborting the run.
    """
    if root is None:
        root = Path.cwd()
    diagnostics: list[Diagnostic] = []
    for file_path in discover(paths):
        try:
            rel = file_path.relative_to(root)
        except ValueError:
            rel = file_path
        rel_str = rel.as_posix()
        source = file_path.read_text(encoding="utf-8")
        roles = classify(file_path, root)
        try:
            tree, waivers, problems = parse_module(source, rel_str)
        except SyntaxError as exc:
            diagnostics.append(
                Diagnostic(
                    path=rel_str,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    rule="R0",
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        ctx = LintContext(
            path=rel_str,
            tree=tree,
            lines=source.splitlines(),
            waivers=waivers,
            **roles,
        )
        diagnostics.extend(problems)
        for rule in rules if rules is not None else all_rules():
            diagnostics.extend(rule.check(ctx))
    return sorted(diagnostics)
