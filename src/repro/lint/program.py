"""The whole-program project model for cross-module lint passes.

:func:`build_project` parses every module under one or more source
roots exactly once into a :class:`ProjectModel`:

* per-module symbol tables — module aliases (``import x``, ``from p
  import submodule``), object imports (``from m import name``),
  module-level bindings, and class/function definitions;
* a resolved import graph with each edge tagged *eager* vs lazy
  (function-local) vs ``TYPE_CHECKING``-only, so layering checks can
  ignore deliberate laziness;
* an approximate call graph over module-level functions and methods,
  resolved through the import bindings (``_worker.evaluate`` →
  ``repro.parallel.worker:evaluate_chunk``), ``self``/``cls`` dispatch,
  one-level re-export following, and a conservative unique-name
  fallback for attribute calls.

The model is *approximate by construction* — Python's dynamism makes
an exact call graph impossible — and every consumer (the ``L*`` passes
in :mod:`repro.lint.passes`) is written so that resolution misses lose
coverage rather than invent diagnostics.

Function keys are ``"<module>:<qualname>"`` (``repro.anchors.gac:gac``,
``repro.parallel.pool:CandidateScanPool.scan``).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.diagnostics import Diagnostic

#: Attribute names too generic for the unique-name call-graph fallback.
_COMMON_ATTRS = frozenset(
    {
        "add", "append", "clear", "close", "copy", "count", "decode",
        "discard", "encode", "endswith", "exists", "extend", "flush",
        "format", "get", "index", "insert", "is_dir", "is_file", "items",
        "join", "keys", "lower", "mkdir", "open", "pop", "popitem", "read",
        "register", "remove", "replace", "resolve", "reverse", "seek",
        "setdefault", "sort", "split", "startswith", "strip", "unregister",
        "update", "upper", "values", "write",
    }
)


@dataclass(frozen=True)
class ImportEdge:
    """One import statement, resolved to a dotted module target."""

    target: str
    lineno: int
    col: int
    eager: bool
    type_checking: bool


@dataclass
class FunctionInfo:
    """One module-level function or method in the project."""

    module: str
    qualname: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    cls: str | None = None
    touches_obs: bool = False
    #: References the worker-side span API (``repro.obs.shipping``) —
    #: the only obs surface that counts for worker entry points, whose
    #: spans must travel the shipping channel to reach the trace.
    touches_worker_obs: bool = False
    callees: set[str] = field(default_factory=set)

    @property
    def key(self) -> str:
        return f"{self.module}:{self.qualname}"

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    @property
    def is_public(self) -> bool:
        return not self.name.startswith("_")

    @property
    def waiver_lines(self) -> list[int]:
        """Lines where a waiver comment covers this function.

        The ``def`` line, any decorator line, and the (possibly
        multi-line) signature up to the first body statement all count,
        matching how humans naturally place the comment.
        """
        node = self.node
        lines = [dec.lineno for dec in node.decorator_list]
        body_start = node.body[0].lineno if node.body else node.lineno
        lines.extend(range(node.lineno, max(node.lineno, body_start - 1) + 1))
        return lines


@dataclass
class ModuleInfo:
    """One parsed module with its symbol tables and import edges."""

    name: str
    path: Path
    tree: ast.Module
    waivers: dict[int, set[str]]
    roles: dict[str, bool]
    imports: list[ImportEdge] = field(default_factory=list)
    #: local binding -> dotted module it names
    #: (``_worker`` -> ``repro.parallel.worker``)
    module_aliases: dict[str, str] = field(default_factory=dict)
    #: local binding -> (defining module, original name) for ``from m import name``
    object_imports: dict[str, tuple[str, str]] = field(default_factory=dict)
    #: every name bound at module scope (defs, classes, assignments, imports)
    global_names: set[str] = field(default_factory=set)
    class_names: set[str] = field(default_factory=set)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)

    def waived(self, slug: str, *lines: int) -> bool:
        return any(slug in self.waivers.get(line, set()) for line in lines)

    @property
    def unit(self) -> str:
        """The architectural unit: first dotted component below the root.

        ``repro.anchors.gac`` -> ``anchors``; the root package itself
        (``repro``) maps to ``""``.
        """
        parts = self.name.split(".")
        return parts[1] if len(parts) > 1 else ""


class ProjectModel:
    """All modules under the analyzed roots plus derived graphs."""

    def __init__(self, modules: dict[str, ModuleInfo]) -> None:
        self.modules = modules
        self.function_index: dict[str, FunctionInfo] = {}
        for mod in modules.values():
            for fn in mod.functions.values():
                self.function_index[fn.key] = fn
        # Unique short names for the conservative attribute-call fallback.
        by_name: dict[str, list[str]] = {}
        for key, fn in self.function_index.items():
            by_name.setdefault(fn.name, []).append(key)
        self._unique_by_name = {
            name: keys[0] for name, keys in by_name.items() if len(keys) == 1
        }
        self._obs_reachers: set[str] | None = None
        self._worker_obs_reachers: set[str] | None = None

    # ------------------------------------------------------------------
    # Call graph

    def callees(self, key: str) -> frozenset[str]:
        fn = self.function_index.get(key)
        return frozenset(fn.callees) if fn is not None else frozenset()

    def reachable(self, entries: list[str]) -> dict[str, str | None]:
        """BFS over the call graph; maps each reached key to its parent."""
        parents: dict[str, str | None] = {}
        queue: list[str] = []
        for entry in entries:
            if entry in self.function_index and entry not in parents:
                parents[entry] = None
                queue.append(entry)
        while queue:
            current = queue.pop(0)
            for callee in sorted(self.callees(current)):
                if callee not in parents and callee in self.function_index:
                    parents[callee] = current
                    queue.append(callee)
        return parents

    def call_chain(self, key: str, parents: dict[str, str | None]) -> str:
        """Render ``entry -> ... -> key`` for diagnostics (capped)."""
        chain: list[str] = []
        cursor: str | None = key
        while cursor is not None and len(chain) < 8:
            chain.append(cursor.split(":", 1)[1])
            cursor = parents.get(cursor)
        return " <- ".join(chain)

    def reaches_obs(self, key: str) -> bool:
        """Whether ``key`` (transitively) touches ``repro.obs``."""
        if self._obs_reachers is None:
            reverse: dict[str, set[str]] = {}
            marked: set[str] = set()
            queue: list[str] = []
            for fkey, fn in self.function_index.items():
                if fn.touches_obs:
                    marked.add(fkey)
                    queue.append(fkey)
                for callee in fn.callees:
                    reverse.setdefault(callee, set()).add(fkey)
            while queue:
                current = queue.pop(0)
                for caller in reverse.get(current, ()):  # noqa: B909
                    if caller not in marked:
                        marked.add(caller)
                        queue.append(caller)
            self._obs_reachers = marked
        return key in self._obs_reachers

    def reaches_worker_obs(self, key: str) -> bool:
        """Whether ``key`` (transitively) touches ``repro.obs.shipping``.

        Worker entry points run in pool processes whose local collector
        never reaches the parent trace — plain ``obs.span`` coverage is
        a silent no-op there unless the spans travel the shipping
        channel, so the L3 pass holds them to this stricter reach.
        """
        if self._worker_obs_reachers is None:
            reverse: dict[str, set[str]] = {}
            marked: set[str] = set()
            queue: list[str] = []
            for fkey, fn in self.function_index.items():
                if fn.touches_worker_obs:
                    marked.add(fkey)
                    queue.append(fkey)
                for callee in fn.callees:
                    reverse.setdefault(callee, set()).add(fkey)
            while queue:
                current = queue.pop(0)
                for caller in reverse.get(current, ()):  # noqa: B909
                    if caller not in marked:
                        marked.add(caller)
                        queue.append(caller)
            self._worker_obs_reachers = marked
        return key in self._worker_obs_reachers

    # ------------------------------------------------------------------
    # Worker entry points

    def worker_entry_points(self) -> list[str]:
        """Function keys submitted to worker pools in parallel modules.

        Detects ``initializer=<fn>`` keywords and the first positional
        argument of ``.map(...)``/``.submit(...)``-style calls inside
        modules carrying the ``is_parallel`` role.
        """
        submit_attrs = {
            "apply", "apply_async", "imap", "imap_unordered", "map",
            "starmap", "submit",
        }
        entries: set[str] = set()
        for mod in sorted(self.modules.values(), key=lambda m: m.name):
            if not mod.roles.get("is_parallel"):
                continue
            for node in ast.walk(mod.tree):
                if not isinstance(node, ast.Call):
                    continue
                candidates: list[ast.expr] = []
                for kw in node.keywords:
                    if kw.arg == "initializer":
                        candidates.append(kw.value)
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in submit_attrs
                    and node.args
                ):
                    candidates.append(node.args[0])
                for expr in candidates:
                    entries.update(self.resolve(mod, None, expr))
        return sorted(entries)

    # ------------------------------------------------------------------
    # Name resolution

    def _follow_reexport(self, module: str, name: str, depth: int = 0) -> str | None:
        """Resolve ``module:name`` through up to three re-export hops."""
        key = f"{module}:{name}"
        if key in self.function_index:
            return key
        init_key = f"{module}:{name}.__init__"
        if init_key in self.function_index:
            return init_key
        if depth >= 3:
            return None
        owner = self.modules.get(module)
        if owner is None:
            return None
        if name in owner.object_imports:
            origin, original = owner.object_imports[name]
            return self._follow_reexport(origin, original, depth + 1)
        if name in owner.module_aliases:
            return None
        return None

    def resolve(
        self, mod: ModuleInfo, cls: str | None, expr: ast.expr
    ) -> list[str]:
        """Function keys an expression may refer to (possibly empty).

        Handles bare names (local defs, object imports), dotted access
        through module aliases and ``self``/``cls``, fully dotted module
        paths, and — only when nothing else matched — a unique-name
        fallback for uncommon attribute names.
        """
        if isinstance(expr, ast.Name):
            name = expr.id
            local_key = f"{mod.name}:{name}"
            if local_key in self.function_index:
                return [local_key]
            if name in mod.class_names:
                init = f"{mod.name}:{name}.__init__"
                return [init] if init in self.function_index else []
            if name in mod.object_imports:
                origin, original = mod.object_imports[name]
                resolved = self._follow_reexport(origin, original)
                return [resolved] if resolved else []
            return []
        if not isinstance(expr, ast.Attribute):
            return []
        attr = expr.attr
        base = expr.value
        if isinstance(base, ast.Name):
            root = base.id
            if root in ("self", "cls") and cls is not None:
                key = f"{mod.name}:{cls}.{attr}"
                if key in self.function_index:
                    return [key]
            if root in mod.module_aliases:
                target = mod.module_aliases[root]
                resolved = self._follow_reexport(target, attr)
                if resolved:
                    return [resolved]
            if root in mod.object_imports:
                origin, original = mod.object_imports[root]
                # Possibly a class imported from elsewhere: Class.method.
                key = f"{origin}:{original}.{attr}"
                if key in self.function_index:
                    return [key]
            if root in mod.class_names:
                key = f"{mod.name}:{root}.{attr}"
                if key in self.function_index:
                    return [key]
        elif isinstance(base, ast.Attribute):
            dotted = _flatten_attribute(expr)
            if dotted is not None:
                parts = dotted.split(".")
                if parts[0] in mod.module_aliases:
                    parts[:1] = mod.module_aliases[parts[0]].split(".")
                for split in range(len(parts) - 1, 0, -1):
                    prefix = ".".join(parts[:split])
                    if prefix in self.modules:
                        rest = parts[split:]
                        key = f"{prefix}:{'.'.join(rest)}"
                        if key in self.function_index:
                            return [key]
                        resolved = self._follow_reexport(prefix, rest[0])
                        if resolved and len(rest) == 1:
                            return [resolved]
                        break
        if attr not in _COMMON_ATTRS and not attr.startswith("__"):
            fallback = self._unique_by_name.get(attr)
            if fallback is not None:
                return [fallback]
        return []


def _flatten_attribute(expr: ast.expr) -> str | None:
    """``a.b.c`` as a dotted string, or ``None`` for non-name bases."""
    parts: list[str] = []
    cursor = expr
    while isinstance(cursor, ast.Attribute):
        parts.append(cursor.attr)
        cursor = cursor.value
    if not isinstance(cursor, ast.Name):
        return None
    parts.append(cursor.id)
    return ".".join(reversed(parts))


# ----------------------------------------------------------------------
# Model construction


def module_name_for(path: Path, root: Path) -> str | None:
    """Dotted module name of ``path`` relative to the source root."""
    try:
        relative = path.resolve().relative_to(root.resolve())
    except ValueError:
        return None
    parts = list(relative.parts)
    if not parts or not parts[-1].endswith(".py"):
        return None
    parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts.pop()
    if not parts:
        return None
    return ".".join(parts)


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _resolve_relative(mod: ModuleInfo, node: ast.ImportFrom) -> str | None:
    """Absolute dotted base module of a (possibly relative) from-import."""
    if node.level == 0:
        return node.module
    parts = mod.name.split(".")
    if mod.path.name == "__init__.py":
        parts.append("__init__")
    anchor = parts[: -node.level] if node.level <= len(parts) else []
    if node.module:
        anchor = anchor + node.module.split(".")
    return ".".join(anchor) if anchor else None


def _collect_imports(mod: ModuleInfo, known_modules: set[str]) -> None:
    """Fill import edges and binding tables, tagging eager/lazy/TYPE_CHECKING."""

    def visit(stmts: list[ast.stmt], eager: bool, type_checking: bool) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    mod.imports.append(
                        ImportEdge(
                            alias.name, stmt.lineno, stmt.col_offset,
                            eager, type_checking,
                        )
                    )
                    if alias.asname:
                        mod.module_aliases[alias.asname] = alias.name
                        mod.global_names.add(alias.asname)
                    else:
                        top = alias.name.split(".")[0]
                        mod.module_aliases.setdefault(top, top)
                        mod.global_names.add(top)
            elif isinstance(stmt, ast.ImportFrom):
                base = _resolve_relative(mod, stmt)
                if base is None:
                    continue
                for alias in stmt.names:
                    if alias.name == "*":
                        mod.imports.append(
                            ImportEdge(
                                base, stmt.lineno, stmt.col_offset,
                                eager, type_checking,
                            )
                        )
                        continue
                    submodule = f"{base}.{alias.name}"
                    bound = alias.asname or alias.name
                    mod.global_names.add(bound)
                    if submodule in known_modules:
                        mod.imports.append(
                            ImportEdge(
                                submodule, stmt.lineno, stmt.col_offset,
                                eager, type_checking,
                            )
                        )
                        mod.module_aliases[bound] = submodule
                    else:
                        mod.imports.append(
                            ImportEdge(
                                base, stmt.lineno, stmt.col_offset,
                                eager, type_checking,
                            )
                        )
                        mod.object_imports[bound] = (base, alias.name)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(stmt.body, False, type_checking)
            elif isinstance(stmt, ast.ClassDef):
                visit(stmt.body, eager, type_checking)
            elif isinstance(stmt, ast.If):
                branch_tc = type_checking or _is_type_checking_test(stmt.test)
                visit(stmt.body, eager, branch_tc)
                visit(stmt.orelse, eager, type_checking)
            elif isinstance(stmt, (ast.Try, ast.With, ast.AsyncWith,
                                   ast.For, ast.AsyncFor, ast.While)):
                visit(getattr(stmt, "body", []), eager, type_checking)
                visit(getattr(stmt, "orelse", []), eager, type_checking)
                visit(getattr(stmt, "finalbody", []), eager, type_checking)
                for handler in getattr(stmt, "handlers", []):
                    visit(handler.body, eager, type_checking)

    visit(mod.tree.body, True, False)


def _collect_definitions(mod: ModuleInfo) -> None:
    """Record module-level names, classes, functions, and methods."""
    for stmt in mod.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            mod.global_names.add(stmt.name)
            mod.functions[stmt.name] = FunctionInfo(mod.name, stmt.name, stmt)
        elif isinstance(stmt, ast.ClassDef):
            mod.global_names.add(stmt.name)
            mod.class_names.add(stmt.name)
            for inner in stmt.body:
                if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{stmt.name}.{inner.name}"
                    mod.functions[qualname] = FunctionInfo(
                        mod.name, qualname, inner, cls=stmt.name
                    )
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        mod.global_names.add(node.id)


def _code_nodes(root: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` minus annotations: a parameter, return or variable
    annotation names a type, it does not call its constructor."""
    todo = [root]
    while todo:
        node = todo.pop()
        yield node
        skip = (getattr(node, "annotation", None), getattr(node, "returns", None))
        todo.extend(
            child
            for child in ast.iter_child_nodes(node)
            if child is not skip[0] and child is not skip[1]
        )


def _link_calls(model: ProjectModel) -> None:
    """Populate ``FunctionInfo.callees`` and ``touches_obs`` flags."""
    for mod in model.modules.values():
        obs_aliases = {
            alias
            for alias, target in mod.module_aliases.items()
            if target == "repro.obs" or target.startswith("repro.obs.")
        }
        obs_objects = {
            alias
            for alias, (origin, name) in mod.object_imports.items()
            if origin == "repro.obs"
            or origin.startswith("repro.obs.")
            or (origin == "repro" and name == "obs")
        }
        ship_aliases = {
            alias
            for alias, target in mod.module_aliases.items()
            if target == "repro.obs.shipping"
        }
        ship_objects = {
            alias
            for alias, (origin, name) in mod.object_imports.items()
            if origin == "repro.obs.shipping"
            or (origin == "repro.obs" and name == "shipping")
        }
        for fn in mod.functions.values():
            for child in _code_nodes(fn.node):
                if child is fn.node:
                    continue
                if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                    if child.id in obs_objects or child.id in obs_aliases:
                        fn.touches_obs = True
                    if child.id in ship_objects or child.id in ship_aliases:
                        fn.touches_worker_obs = True
                    fn.callees.update(model.resolve(mod, fn.cls, child))
                elif isinstance(child, ast.Attribute) and isinstance(
                    child.ctx, ast.Load
                ):
                    base = child.value
                    if isinstance(base, ast.Name) and base.id in obs_aliases:
                        fn.touches_obs = True
                    if isinstance(base, ast.Name) and base.id in ship_aliases:
                        fn.touches_worker_obs = True
                    fn.callees.update(model.resolve(mod, fn.cls, child))
            fn.callees.discard(fn.key)


def build_project(roots: list[Path]) -> tuple[ProjectModel, list[Diagnostic]]:
    """Parse every module under ``roots`` into a :class:`ProjectModel`.

    Returns the model plus any waiver-syntax diagnostics collected while
    parsing (unknown slugs must surface even in ``--program`` runs).
    Files that fail to parse contribute a diagnostic instead of a model
    entry, so one syntax error does not hide the rest of the tree.
    """
    from repro.lint.runner import classify, parse_module

    modules: dict[str, ModuleInfo] = {}
    problems: list[Diagnostic] = []
    cwd = Path.cwd().resolve()
    for root in roots:
        root = root.resolve()
        for path in sorted(root.rglob("*.py")):
            name = module_name_for(path, root)
            if name is None:
                continue
            try:
                display = path.relative_to(cwd)
            except ValueError:
                display = path
            display_str = display.as_posix()
            try:
                source = path.read_text(encoding="utf-8")
            except OSError as exc:
                problems.append(
                    Diagnostic(
                        path=display_str, line=1, col=0, rule="L0",
                        message=f"unreadable file: {exc}", code="",
                    )
                )
                continue
            try:
                tree, waivers, waiver_problems = parse_module(source, display_str)
            except SyntaxError as exc:
                problems.append(
                    Diagnostic(
                        path=display_str, line=exc.lineno or 1, col=0,
                        rule="L0", message=f"syntax error: {exc.msg}",
                        code="",
                    )
                )
                continue
            problems.extend(waiver_problems)
            mod = ModuleInfo(
                name=name,
                path=display,
                tree=tree,
                waivers=waivers,
                roles=classify(path, root),
            )
            _collect_definitions(mod)
            modules.setdefault(name, mod)
    known = set(modules)
    for mod in modules.values():
        _collect_imports(mod, known)
    model = ProjectModel(modules)
    _link_calls(model)
    return model, problems


def run_program_passes(
    roots: list[Path],
    passes: "list[str] | None" = None,
) -> list[Diagnostic]:
    """Build the model once and run the registered ``L*`` passes.

    Args:
        roots: source roots (typically just ``src/``).
        passes: pass ids to run (default: all registered).
    """
    from repro.lint.passes import PASS_REGISTRY

    model, diagnostics = build_project(roots)
    selected = sorted(PASS_REGISTRY) if passes is None else list(passes)
    for pass_id in selected:
        program_pass = PASS_REGISTRY[pass_id]
        diagnostics.extend(program_pass.check(model))
    return sorted(diagnostics)
