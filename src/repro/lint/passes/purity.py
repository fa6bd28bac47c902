"""L2 — worker purity / race detection over the call graph.

Starting from the functions actually handed to worker pools
(``initializer=`` keywords and ``.map``/``.submit`` first arguments in
``repro.parallel``), this pass walks the approximate call graph and
flags every transitively-reachable function that could make a worker's
result depend on process-local mutable state:

* rebinding or mutating a module global — the one sanctioned slot is
  ``repro.parallel.worker._round`` (the round's evaluator, installed in
  the parent right before the workers fork);
* a nested function capturing and mutating enclosing state
  (``nonlocal`` rebinding or mutator calls on free variables);
* ``setattr`` on a non-local object (monkey-patching shared modules);
* R2-style randomness (``random.*`` or unseeded ``random.Random()``),
  which the single-file rule R2 cannot see through call indirection.

Modules in the ``obs``/``verify`` units are exempt: their
whole purpose is process-local bookkeeping, and the dynamic
byte-identical gate (``repro.verify``) already proves their state never
leaks into results. Waive a justified site with ``# lint: race-ok
<reason>``.
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterator
from typing import TYPE_CHECKING, ClassVar

#: Emits a (possibly waived) diagnostic for (anchor, message, code node).
_Emit = Callable[..., "Iterator[Diagnostic]"]

from repro.lint.diagnostics import Diagnostic
from repro.lint.passes.base import register_pass

if TYPE_CHECKING:  # pragma: no cover - type-only import (cycle avoidance)
    from repro.lint.program import FunctionInfo, ModuleInfo, ProjectModel

#: (module, global name) pairs workers are allowed to rebind/mutate.
SANCTIONED_GLOBALS = frozenset({("repro.parallel.worker", "_round")})

#: Units whose modules are process-local bookkeeping by design.
EXEMPT_UNITS = frozenset({"obs", "verify"})

#: Method names that mutate their receiver in place.
_MUTATORS = frozenset(
    {
        "add", "append", "appendleft", "clear", "discard", "extend",
        "extendleft", "insert", "pop", "popitem", "popleft", "remove",
        "reverse", "setdefault", "sort", "update",
    }
)


def _local_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names bound in the function's own scope (excluding ``global`` decls)."""
    names: set[str] = set()
    args = fn.args
    for arg in (
        list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    ):
        names.add(arg.arg)
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    globals_declared: set[str] = set()
    for node in ast.walk(fn):
        if node is fn:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Global):
            globals_declared.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            names.add(node.id)
        elif isinstance(node, ast.NamedExpr) and isinstance(
            node.target, ast.Name
        ):
            names.add(node.target.id)
    return names - globals_declared


def _global_decls(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    declared: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Global):
            declared.update(node.names)
    return declared


def _root_name(expr: ast.expr) -> str | None:
    """The base ``Name`` of a subscript/attribute chain, if any."""
    cursor = expr
    while isinstance(cursor, (ast.Attribute, ast.Subscript)):
        cursor = cursor.value
    return cursor.id if isinstance(cursor, ast.Name) else None


@register_pass
class WorkerPurityPass:
    """Flag worker-reachable impurity and shared-state races (pass L2)."""

    rule_id: ClassVar[str] = "L2"
    slug: ClassVar[str] = "race-ok"
    summary: ClassVar[str] = "worker-reachable function touches shared mutable state"

    def check(self, model: "ProjectModel") -> Iterator[Diagnostic]:
        entries = model.worker_entry_points()
        if not entries:
            return
        parents = model.reachable(entries)
        seen: set[Diagnostic] = set()
        for key in sorted(parents):
            fn = model.function_index[key]
            mod = model.modules[fn.module]
            if mod.unit in EXEMPT_UNITS:
                continue
            chain = model.call_chain(key, parents)
            for diag in self._check_function(mod, fn, chain):
                if diag not in seen:
                    seen.add(diag)
                    yield diag

    # ------------------------------------------------------------------

    def _check_function(
        self, mod: "ModuleInfo", fn: "FunctionInfo", chain: str
    ) -> Iterator[Diagnostic]:
        node = fn.node
        locals_ = _local_names(node)
        declared_globals = _global_decls(node)

        def is_module_global(name: str) -> bool:
            if name in declared_globals:
                return True
            if name in locals_:
                return False
            return name in mod.global_names or name in mod.object_imports

        # Aliases of module globals assigned inside the function
        # (``worker = _state``) so the sanctioned-slot check follows them.
        aliases: dict[str, str] = {}
        for stmt in ast.walk(node):
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Name)
                and is_module_global(stmt.value.id)
            ):
                aliases[stmt.targets[0].id] = stmt.value.id

        def canonical(name: str) -> str:
            return aliases.get(name, name)

        def sanctioned(name: str) -> bool:
            return (mod.name, canonical(name)) in SANCTIONED_GLOBALS

        def refers_to_global(name: str) -> bool:
            target = canonical(name)
            if target != name:
                return True
            return is_module_global(name)

        def diagnostic(
            anchor: ast.AST, message: str, code_node: ast.AST | None = None
        ) -> Iterator[Diagnostic]:
            lineno = getattr(anchor, "lineno", node.lineno)
            col = getattr(anchor, "col_offset", 0)
            if mod.waived(self.slug, lineno) or mod.waived(
                self.slug, *fn.waiver_lines
            ):
                return
            code = ast.unparse(code_node) if code_node is not None else ""
            yield Diagnostic(
                path=str(mod.path), line=lineno, col=col, rule=self.rule_id,
                message=f"{message} [worker-reachable via {chain}]",
                code=code[:120],
            )

        for child in ast.walk(node):
            # 1. Rebinding a declared global.
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
                if child.id in declared_globals and not sanctioned(child.id):
                    yield from diagnostic(
                        child,
                        f"rebinds module global '{child.id}'",
                        child,
                    )
            # 2. Mutation through subscript/attribute stores.
            elif isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    child.targets
                    if isinstance(child, ast.Assign)
                    else [child.target]
                )
                for target in targets:
                    yield from self._check_store_target(
                        target, refers_to_global, sanctioned,
                        mod, diagnostic, canonical,
                    )
            # 3. Mutator method calls on globals.
            elif isinstance(child, ast.Call):
                yield from self._check_call(
                    child, refers_to_global, sanctioned,
                    locals_, diagnostic, canonical, mod,
                )
            # 4. Nested functions capturing enclosing mutable state.
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child is not node:
                    yield from self._check_closure(child, locals_, diagnostic)

    # ------------------------------------------------------------------

    def _check_store_target(
        self,
        target: ast.expr,
        refers_to_global: Callable[[str], bool],
        sanctioned: Callable[[str], bool],
        mod: "ModuleInfo",
        diagnostic: _Emit,
        canonical: Callable[[str], str],
    ) -> Iterator[Diagnostic]:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from self._check_store_target(
                    element, refers_to_global, sanctioned,
                    mod, diagnostic, canonical,
                )
            return
        if not isinstance(target, (ast.Subscript, ast.Attribute)):
            return
        root = _root_name(target)
        if root is None or root in ("self", "cls"):
            return
        shape = "item" if isinstance(target, ast.Subscript) else "attribute"
        if root in mod.module_aliases:
            yield from diagnostic(
                target,
                f"sets {shape} on module '{mod.module_aliases[root]}' "
                "(cross-process monkey-patch)",
                target,
            )
        elif refers_to_global(root) and not sanctioned(root):
            held = canonical(root)
            yield from diagnostic(
                target,
                f"mutates module-global object '{held}' via {shape} "
                "assignment",
                target,
            )

    def _check_call(
        self,
        call: ast.Call,
        refers_to_global: Callable[[str], bool],
        sanctioned: Callable[[str], bool],
        locals_: set[str],
        diagnostic: _Emit,
        canonical: Callable[[str], str],
        mod: "ModuleInfo",
    ) -> Iterator[Diagnostic]:
        func = call.func
        # ``from random import X`` reached through a bare-name call.
        if isinstance(func, ast.Name) and func.id not in locals_:
            origin = mod.object_imports.get(func.id)
            if origin is not None and origin[0] == "random":
                if origin[1] != "Random":
                    yield from diagnostic(
                        call,
                        f"calls {origin[1]}() imported from the global "
                        "random module in worker-reachable code",
                        call,
                    )
                    return
                if not call.args and not call.keywords:
                    yield from diagnostic(
                        call,
                        "constructs an unseeded Random() in "
                        "worker-reachable code",
                        call,
                    )
                    return
        # setattr on anything non-local.
        if (
            isinstance(func, ast.Name)
            and func.id == "setattr"
            and call.args
        ):
            root = _root_name(call.args[0])
            if root is not None and root not in locals_ and root not in (
                "self", "cls",
            ):
                yield from diagnostic(
                    call,
                    f"patches shared attribute via setattr() on '{root}'",
                    call,
                )
            return
        if not isinstance(func, ast.Attribute):
            return
        # Randomness reached from a worker (R2 through indirection).
        base = func.value
        if isinstance(base, ast.Name):
            root = base.id
            if root == "random" and root not in locals_:
                if func.attr == "Random":
                    if not call.args and not call.keywords:
                        yield from diagnostic(
                            call,
                            "constructs an unseeded random.Random() in "
                            "worker-reachable code",
                            call,
                        )
                elif func.attr != "SystemRandom":
                    yield from diagnostic(
                        call,
                        f"calls random.{func.attr}() (global RNG) in "
                        "worker-reachable code",
                        call,
                    )
                else:
                    yield from diagnostic(
                        call,
                        "uses random.SystemRandom in worker-reachable code",
                        call,
                    )
                return
        if func.attr not in _MUTATORS:
            return
        root = _root_name(func.value)
        if root is None or root in ("self", "cls"):
            return
        # ``module.add(...)`` calls a module-level *function*, not a
        # container mutator; cross-module state lives behind functions
        # and is the exempt units' / dynamic gate's concern.
        if root in mod.module_aliases and root not in locals_:
            return
        if refers_to_global(root) and not sanctioned(root):
            yield from diagnostic(
                call,
                f"calls .{func.attr}() on module-global object "
                f"'{canonical(root)}'",
                call,
            )

    def _check_closure(
        self,
        nested: ast.FunctionDef | ast.AsyncFunctionDef,
        outer_locals: set[str],
        diagnostic: _Emit,
    ) -> Iterator[Diagnostic]:
        nested_locals = _local_names(nested)
        for node in ast.walk(nested):
            if isinstance(node, ast.Nonlocal):
                yield from diagnostic(
                    node,
                    "nested function rebinds enclosing state via "
                    f"'nonlocal {', '.join(node.names)}'",
                )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATORS
            ):
                root = _root_name(node.func.value)
                if (
                    root is not None
                    and root not in nested_locals
                    and root in outer_locals
                ):
                    yield from diagnostic(
                        node,
                        f"nested function mutates captured variable "
                        f"'{root}' via .{node.func.attr}()",
                        node,
                    )
