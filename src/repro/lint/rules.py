"""The determinism lint rules (R1–R8) and the rule registry.

Each rule is a small class implementing the :class:`Rule` protocol and
registered via :func:`register`. Rules are pure AST passes over a
:class:`LintContext`; they never import the modules they inspect, so the
linter can check broken or heavy files safely. (The header above is
asserted against the registry at import time — see
:func:`_assert_docstring_covers_registry` — so it cannot drift when a
rule is added.)

The rules encode invariants this reproduction depends on:

========  =================  ==================================================
Rule id   Waiver slug        What it forbids
========  =================  ==================================================
``R1``    ``order-ok``       iterating ``set`` / ``dict.keys()`` /
                             ``dict.values()`` in order-sensitive modules
                             (``anchors/``, ``core/``, ``olak/``) outside
                             ``sorted(...)`` — unordered scans silently change
                             greedy tie-breaks between runs
``R2``    ``random-ok``      unseeded ``random.Random()``, the process-global
                             ``random.*`` functions, and ``numpy.random``
                             outside test code
``R3``    ``mutable-default-ok``  mutable default argument values
``R4``    ``float-eq-ok``    ``==`` / ``!=`` on float-valued expressions
                             (gain/coreness comparisons must be integral or
                             use ``math.isclose``)
``R5``    ``purity-ok``      calls to ``Graph`` mutators inside functions
                             registered pure with ``@pure``
``R6``    ``clock-ok``       ``time.time()`` / ``datetime.now()`` in algorithm
                             paths (timing belongs in ``benchmarks/``)
``R7``    ``timer-ok``       ``time.perf_counter()`` (and ``perf_counter_ns``
                             / ``monotonic``) anywhere outside ``repro.obs``,
                             tests, and ``benchmarks/`` — measured sections
                             must read ``repro.obs.clock`` so every timing
                             flows through the one observability substrate
``R8``    ``parallel-ok``    importing ``multiprocessing`` /
                             ``concurrent.futures`` anywhere outside
                             ``repro/parallel/``, tests, and ``benchmarks/`` —
                             process fan-out must go through the one pool
                             whose merge is proven result-identical to the
                             serial scan
========  =================  ==================================================

A violation is waived by a ``# lint: <slug> <reason>`` comment on the
offending line (see :mod:`repro.lint.runner` for the comment grammar).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import ClassVar, Protocol

from repro.lint.diagnostics import Diagnostic

#: Methods in this repo that return ``set`` objects; iterating their
#: results is as order-hazardous as iterating a set literal.
SET_RETURNING_METHODS: frozenset[str] = frozenset(
    {
        "keys",
        "values",
        "neighbors",
        "k_core_members",
        "shell",
        "sn",
        "pn",
        "all_members",
        "union",
        "intersection",
        "difference",
        "symmetric_difference",
    }
)

#: Builtins whose result does not depend on the order of their iterable
#: argument — feeding a set straight into these is deterministic.
ORDER_FREE_CONSUMERS: frozenset[str] = frozenset(
    {"sum", "min", "max", "any", "all", "len", "set", "frozenset", "sorted", "Counter"}
)

#: ``Graph`` mutator method names forbidden inside ``@pure`` functions.
GRAPH_MUTATORS: frozenset[str] = frozenset(
    {"add_edge", "add_vertex", "add_edge_if_absent", "remove_edge", "remove_vertex"}
)

#: Annotation heads that mark a name as set-typed.
_SET_ANNOTATIONS: frozenset[str] = frozenset(
    {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
)

_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


@dataclass
class LintContext:
    """Everything a rule needs to inspect one file."""

    path: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    waivers: dict[int, set[str]] = field(default_factory=dict)
    is_test: bool = False
    is_benchmark: bool = False
    is_script: bool = False
    is_experiment: bool = False
    is_obs: bool = False
    is_parallel: bool = False
    order_sensitive: bool = False
    _parents: dict[ast.AST, ast.AST] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(node)

    def source_line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def waived(self, slug: str, *linenos: int) -> bool:
        """Whether a ``# lint: <slug> ...`` waiver covers any given line."""
        return any(slug in self.waivers.get(ln, ()) for ln in linenos if ln)

    def diagnostic(
        self, node: ast.AST, rule: "Rule", message: str, *extra_lines: int
    ) -> Diagnostic | None:
        """Build a diagnostic for ``node`` unless a waiver covers it."""
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if self.waived(rule.slug, lineno, *extra_lines):
            return None
        return Diagnostic(
            path=self.path,
            line=lineno,
            col=col,
            rule=rule.rule_id,
            message=message,
            code=self.source_line(lineno),
        )


class Rule(Protocol):
    """The pluggable rule interface: one AST pass yielding diagnostics."""

    rule_id: ClassVar[str]
    slug: ClassVar[str]
    summary: ClassVar[str]

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]: ...


REGISTRY: dict[str, Rule] = {}


def register(cls: type) -> type:
    """Class decorator adding a rule (instantiated once) to the registry."""
    instance = cls()
    REGISTRY[instance.rule_id] = instance
    return cls


def all_rules() -> list[Rule]:
    """Registered rules in rule-id order."""
    return [REGISTRY[rid] for rid in sorted(REGISTRY)]


# ----------------------------------------------------------------------
# Scope-local set inference shared by R1
# ----------------------------------------------------------------------


def _annotation_is_set(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    head = annotation.value if isinstance(annotation, ast.Subscript) else annotation
    return isinstance(head, ast.Name) and head.id in _SET_ANNOTATIONS


def _collect_set_names(scope: ast.AST) -> set[str]:
    """Names bound to set-like values within one function/module scope.

    Nested function bodies are skipped — they are their own scopes — but
    loops and conditionals are traversed. The inference is deliberately
    simple (single forward pass, no flow sensitivity): a name counts as
    set-like if *any* binding in the scope is set-like.
    """
    names: set[str] = set()
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = scope.args
        for arg in [
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
            *([args.vararg] if args.vararg else []),
            *([args.kwarg] if args.kwarg else []),
        ]:
            if _annotation_is_set(arg.annotation):
                names.add(arg.arg)
    elif not isinstance(scope, ast.Module):
        return names

    # Full statement walk that respects nested-scope boundaries.
    def walk_stmts(node: ast.AST) -> Iterator[ast.stmt]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(child, ast.stmt):
                yield child
            yield from walk_stmts(child)

    for stmt in walk_stmts(scope):
        if isinstance(stmt, ast.Assign) and _is_set_expr(stmt.value, names):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if _annotation_is_set(stmt.annotation) or (
                stmt.value is not None and _is_set_expr(stmt.value, names)
            ):
                names.add(stmt.target.id)
    return names


def _is_set_expr(node: ast.expr, set_names: set[str]) -> bool:
    """Whether ``node`` evaluates to an unordered set, best-effort."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
        return _is_set_expr(node.left, set_names) or _is_set_expr(node.right, set_names)
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
            return True
        if isinstance(func, ast.Attribute) and func.attr in SET_RETURNING_METHODS:
            return True
    if isinstance(node, ast.IfExp):
        return _is_set_expr(node.body, set_names) or _is_set_expr(
            node.orelse, set_names
        )
    return False


def _describe_set_expr(node: ast.expr) -> str:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set literal"
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return f"{func.id}(...)"
        if isinstance(func, ast.Attribute):
            return f".{func.attr}() (returns a set)"
    if isinstance(node, ast.Name):
        return f"set-typed name {node.id!r}"
    if isinstance(node, ast.BinOp):
        return "a set expression"
    return "an unordered collection"


# ----------------------------------------------------------------------
# R1 — unordered iteration in order-sensitive modules
# ----------------------------------------------------------------------


@register
class UnorderedIterationRule:
    """R1: no raw set / ``.keys()`` / ``.values()`` iteration in hot paths."""

    rule_id: ClassVar[str] = "R1"
    slug: ClassVar[str] = "order-ok"
    summary: ClassVar[str] = (
        "iteration over set/dict.keys()/dict.values() in order-sensitive "
        "modules must go through sorted() or carry a '# lint: order-ok' waiver"
    )

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        if not ctx.order_sensitive:
            return
        scopes: list[ast.AST] = [ctx.tree]
        scopes.extend(
            n
            for n in ast.walk(ctx.tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        module_sets = _collect_set_names(ctx.tree)
        scope_sets: dict[ast.AST, set[str]] = {}
        for scope in scopes:
            local = _collect_set_names(scope) if scope is not ctx.tree else set()
            scope_sets[scope] = module_sets | local

        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_iter(ctx, node, node.iter, scope_sets)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                if self._comprehension_order_free(ctx, node):
                    continue
                for gen in node.generators:
                    yield from self._check_iter(ctx, node, gen.iter, scope_sets)

    def _comprehension_order_free(self, ctx: LintContext, node: ast.expr) -> bool:
        """Comprehensions whose surrounding use ignores element order."""
        if isinstance(node, ast.SetComp):
            return True  # the result is itself an unordered set
        if isinstance(node, (ast.GeneratorExp, ast.ListComp)):
            parent = ctx.parent(node)
            if isinstance(parent, ast.Call) and parent.args and parent.args[0] is node:
                func = parent.func
                if isinstance(func, ast.Name) and func.id in ORDER_FREE_CONSUMERS:
                    return True
                if isinstance(func, ast.Attribute) and func.attr in {
                    "union",
                    "update",
                    "intersection",
                    "difference",
                }:
                    return True
        return False

    def _check_iter(
        self,
        ctx: LintContext,
        node: ast.AST,
        iterable: ast.expr,
        scope_sets: dict[ast.AST, set[str]],
    ) -> Iterator[Diagnostic]:
        scope = self._enclosing_scope(ctx, node)
        set_names = scope_sets.get(scope, set())
        if not _is_set_expr(iterable, set_names):
            return
        message = (
            f"iteration over {_describe_set_expr(iterable)} in an "
            "order-sensitive module; wrap the iterable in sorted(...) or "
            "waive with '# lint: order-ok <reason>'"
        )
        diag = ctx.diagnostic(
            node, self, message, iterable.lineno, iterable.end_lineno or 0
        )
        if diag is not None:
            yield diag

    def _enclosing_scope(self, ctx: LintContext, node: ast.AST) -> ast.AST:
        current: ast.AST | None = node
        while current is not None:
            current = ctx.parent(current)
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return current
        return ctx.tree


# ----------------------------------------------------------------------
# R2 — unseeded / process-global randomness
# ----------------------------------------------------------------------


@register
class UnseededRandomRule:
    """R2: randomness must flow through an explicitly seeded generator."""

    rule_id: ClassVar[str] = "R2"
    slug: ClassVar[str] = "random-ok"
    summary: ClassVar[str] = (
        "no unseeded random.Random(), process-global random.* calls, or "
        "numpy.random outside test code"
    )

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        if ctx.is_test:
            return
        for node in ast.walk(ctx.tree):
            diag: Diagnostic | None = None
            if isinstance(node, ast.Call):
                diag = self._check_call(ctx, node)
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                bad = [a.name for a in node.names if a.name not in {"Random"}]
                if bad:
                    diag = ctx.diagnostic(
                        node,
                        self,
                        f"importing {', '.join(sorted(bad))} from random binds "
                        "the process-global RNG; import random.Random and seed "
                        "an instance instead",
                    )
            elif isinstance(node, ast.Attribute) and node.attr == "random":
                if isinstance(node.value, ast.Name) and node.value.id in {
                    "numpy",
                    "np",
                }:
                    diag = ctx.diagnostic(
                        node,
                        self,
                        "numpy.random uses global (or hidden) RNG state; pass "
                        "a seeded Generator explicitly or keep numpy "
                        "randomness inside tests",
                    )
            if diag is not None:
                yield diag

    def _check_call(self, ctx: LintContext, node: ast.Call) -> Diagnostic | None:
        func = node.func
        unseeded = not node.args and not node.keywords
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if func.value.id == "random":
                if func.attr == "Random":
                    if unseeded:
                        return ctx.diagnostic(
                            node,
                            self,
                            "random.Random() without a seed is "
                            "non-reproducible; pass an explicit seed",
                        )
                    return None
                if func.attr == "SystemRandom":
                    return ctx.diagnostic(
                        node, self, "random.SystemRandom is never reproducible"
                    )
                return ctx.diagnostic(
                    node,
                    self,
                    f"random.{func.attr}() uses the process-global RNG; use a "
                    "seeded random.Random instance",
                )
        if isinstance(func, ast.Name) and func.id == "Random" and unseeded:
            return ctx.diagnostic(
                node,
                self,
                "Random() without a seed is non-reproducible; pass an "
                "explicit seed",
            )
        return None


# ----------------------------------------------------------------------
# R3 — mutable default arguments
# ----------------------------------------------------------------------

_MUTABLE_FACTORY_NAMES = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "Counter", "OrderedDict", "deque"}
)


@register
class MutableDefaultRule:
    """R3: default argument values must be immutable."""

    rule_id: ClassVar[str] = "R3"
    slug: ClassVar[str] = "mutable-default-ok"
    summary: ClassVar[str] = "no mutable default argument values"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = [
                d
                for d in [*node.args.defaults, *node.args.kw_defaults]
                if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    name = getattr(node, "name", "<lambda>")
                    diag = ctx.diagnostic(
                        default,
                        self,
                        f"mutable default argument in {name}(); default to "
                        "None (or an immutable sentinel) and construct inside "
                        "the function",
                    )
                    if diag is not None:
                        yield diag

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(
            node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
        ):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in _MUTABLE_FACTORY_NAMES:
                return True
            if isinstance(func, ast.Attribute) and func.attr in _MUTABLE_FACTORY_NAMES:
                return True
        return False


# ----------------------------------------------------------------------
# R4 — float equality comparisons
# ----------------------------------------------------------------------


@register
class FloatEqualityRule:
    """R4: no ``==`` / ``!=`` on float-valued gain/coreness expressions."""

    rule_id: ClassVar[str] = "R4"
    slug: ClassVar[str] = "float-eq-ok"
    summary: ClassVar[str] = (
        "no float equality comparisons; use math.isclose or keep "
        "gains/coreness integral"
    )

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        float_names = self._annotated_float_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if any(self._is_float_expr(e, float_names) for e in operands):
                diag = ctx.diagnostic(
                    node,
                    self,
                    "float equality comparison is brittle; use math.isclose "
                    "(or compare exact integer gains/coreness)",
                )
                if diag is not None:
                    yield diag

    def _annotated_float_names(self, tree: ast.Module) -> set[str]:
        names: set[str] = set()
        for node in ast.walk(tree):
            annotation: ast.expr | None = None
            target = ""
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                annotation, target = node.annotation, node.target.id
            elif isinstance(node, ast.arg):
                annotation, target = node.annotation, node.arg
            if (
                annotation is not None
                and isinstance(annotation, ast.Name)
                and annotation.id == "float"
            ):
                names.add(target)
        return names

    def _is_float_expr(self, node: ast.expr, float_names: set[str]) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.Name):
            return node.id in float_names
        if isinstance(node, ast.Call):
            func = node.func
            return isinstance(func, ast.Name) and func.id == "float"
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Div):
                return True
            return self._is_float_expr(node.left, float_names) or self._is_float_expr(
                node.right, float_names
            )
        if isinstance(node, ast.UnaryOp):
            return self._is_float_expr(node.operand, float_names)
        return False


# ----------------------------------------------------------------------
# R5 — purity of registered-pure functions
# ----------------------------------------------------------------------


@register
class PurityRule:
    """R5: ``@pure`` functions must not call ``Graph`` mutators."""

    rule_id: ClassVar[str] = "R5"
    slug: ClassVar[str] = "purity-ok"
    summary: ClassVar[str] = (
        "functions registered with @pure must not call Graph mutators "
        "(add_edge/remove_vertex/...)"
    )

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not any(self._is_pure_marker(d) for d in node.decorator_list):
                continue
            for inner in ast.walk(node):
                if not isinstance(inner, ast.Call):
                    continue
                func = inner.func
                if isinstance(func, ast.Attribute) and func.attr in GRAPH_MUTATORS:
                    diag = ctx.diagnostic(
                        inner,
                        self,
                        f"@pure function {node.name}() calls graph mutator "
                        f".{func.attr}(); pure follower/bound computations "
                        "must not modify the graph",
                    )
                    if diag is not None:
                        yield diag

    def _is_pure_marker(self, decorator: ast.expr) -> bool:
        if isinstance(decorator, ast.Name):
            return decorator.id == "pure"
        if isinstance(decorator, ast.Attribute):
            return decorator.attr == "pure"
        return False


# ----------------------------------------------------------------------
# R6 — wall-clock reads in algorithm paths
# ----------------------------------------------------------------------


@register
class WallClockRule:
    """R6: no ``time.time()`` / ``datetime.now()`` outside benchmarks."""

    rule_id: ClassVar[str] = "R6"
    slug: ClassVar[str] = "clock-ok"
    summary: ClassVar[str] = (
        "no time.time()/datetime.now() in algorithm paths; timing belongs "
        "in benchmarks/ (measured sections read repro.obs.clock — see R7)"
    )

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        if ctx.is_test or ctx.is_benchmark or ctx.is_script or ctx.is_experiment:
            return
        for node in ast.walk(ctx.tree):
            diag: Diagnostic | None = None
            if isinstance(node, ast.Call):
                diag = self._check_call(ctx, node)
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                if any(alias.name == "time" for alias in node.names):
                    diag = ctx.diagnostic(
                        node,
                        self,
                        "importing time.time into an algorithm path; move "
                        "wall-clock measurement into benchmarks/",
                    )
            if diag is not None:
                yield diag

    def _check_call(self, ctx: LintContext, node: ast.Call) -> Diagnostic | None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return None
        owner = func.value
        if isinstance(owner, ast.Name):
            if owner.id == "time" and func.attr == "time":
                return ctx.diagnostic(
                    node,
                    self,
                    "time.time() in an algorithm path; timing belongs in "
                    "benchmarks/ (measured sections read repro.obs.clock)",
                )
            if owner.id in {"datetime", "date"} and func.attr in {
                "now",
                "utcnow",
                "today",
            }:
                return ctx.diagnostic(
                    node,
                    self,
                    f"{owner.id}.{func.attr}() reads the wall clock in an "
                    "algorithm path; inject timestamps from the caller",
                )
        if (
            isinstance(owner, ast.Attribute)
            and isinstance(owner.value, ast.Name)
            and owner.value.id == "datetime"
            and owner.attr in {"datetime", "date"}
            and func.attr in {"now", "utcnow", "today"}
        ):
            return ctx.diagnostic(
                node,
                self,
                f"datetime.{owner.attr}.{func.attr}() reads the wall clock in "
                "an algorithm path; inject timestamps from the caller",
            )
        return None


# ----------------------------------------------------------------------
# R7 — perf-counter reads outside the observability substrate
# ----------------------------------------------------------------------

_PERF_TIMER_NAMES = frozenset({"perf_counter", "perf_counter_ns", "monotonic"})


@register
class TimerSubstrateRule:
    """R7: ``time.perf_counter`` lives in ``repro.obs`` and benchmarks only."""

    rule_id: ClassVar[str] = "R7"
    slug: ClassVar[str] = "timer-ok"
    summary: ClassVar[str] = (
        "no time.perf_counter()/perf_counter_ns()/monotonic() outside "
        "repro.obs, tests, and benchmarks/; measured sections read "
        "repro.obs.clock (or use obs spans) so every timing flows through "
        "the one observability substrate"
    )

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        if ctx.is_test or ctx.is_benchmark or ctx.is_script or ctx.is_obs:
            return
        for node in ast.walk(ctx.tree):
            diag: Diagnostic | None = None
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "time"
                    and func.attr in _PERF_TIMER_NAMES
                ):
                    diag = ctx.diagnostic(
                        node,
                        self,
                        f"time.{func.attr}() outside the observability "
                        "substrate; read repro.obs.clock (or wrap the "
                        "section in an obs span) instead",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                bad = sorted(
                    alias.name
                    for alias in node.names
                    if alias.name in _PERF_TIMER_NAMES
                )
                if bad:
                    diag = ctx.diagnostic(
                        node,
                        self,
                        f"importing {', '.join(bad)} from time outside the "
                        "observability substrate; import repro.obs.clock "
                        "instead",
                    )
            if diag is not None:
                yield diag


# ----------------------------------------------------------------------
# R8 — process fan-out outside the parallel substrate
# ----------------------------------------------------------------------

_PROCESS_MODULE_HEADS = frozenset({"multiprocessing", "concurrent"})


@register
class ParallelContainmentRule:
    """R8: ``multiprocessing`` / ``concurrent.futures`` live in ``repro.parallel``."""

    rule_id: ClassVar[str] = "R8"
    slug: ClassVar[str] = "parallel-ok"
    summary: ClassVar[str] = (
        "no multiprocessing/concurrent.futures imports outside "
        "repro/parallel/, tests, and benchmarks/; process fan-out goes "
        "through the candidate-scan pool, whose deterministic merge keeps "
        "results byte-identical to the serial scan"
    )

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        if ctx.is_test or ctx.is_benchmark or ctx.is_parallel:
            return
        for node in ast.walk(ctx.tree):
            names: list[str] = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module is not None:
                names = [node.module]
            offending = sorted(
                {
                    name
                    for name in names
                    if name.split(".", 1)[0] in _PROCESS_MODULE_HEADS
                }
            )
            if not offending:
                continue
            diag = ctx.diagnostic(
                node,
                self,
                f"importing {', '.join(offending)} outside repro/parallel/; "
                "fan work out through repro.parallel.CandidateScanPool (or "
                "waive with '# lint: parallel-ok <reason>')",
            )
            if diag is not None:
                yield diag


# ----------------------------------------------------------------------
# Registry/docstring consistency
# ----------------------------------------------------------------------


def _assert_docstring_covers_registry(
    doc: str | None, registry: dict[str, Rule]
) -> None:
    """Fail import if the module header understates the rule range.

    The header once said "R1–R6" while R7/R8 existed. A plain ``raise`` (not ``assert`` — this must survive
    ``-O``) keeps the docstring honest: adding R9 without touching the
    header is an ImportError, not silent drift.
    """
    top = max(int(rule_id[1:]) for rule_id in registry)
    expected = f"R1–R{top}"
    if expected not in (doc or ""):
        raise RuntimeError(
            f"rules.py docstring is stale: the registry holds rules up to "
            f"R{top}, so the header must mention {expected!r}"
        )


_assert_docstring_covers_registry(__doc__, REGISTRY)
