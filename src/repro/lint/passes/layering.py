"""L1 — enforce the declared layer DAG over eager project imports.

The architecture stacks five layers; a module may eagerly import only
its own layer or below.  Function-local (lazy) and ``TYPE_CHECKING``
imports are deliberate decoupling tools and are exempt.  Import cycles
among eager edges are rejected outright, whatever the layers involved.

Waive a sanctioned crossing with ``# lint: layer-ok <reason>`` on the
import line (the GAC/OLAK checkpoint hooks are the canonical example:
algorithm modules calling up into the persistence substrate).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import TYPE_CHECKING, ClassVar

from repro.lint.diagnostics import Diagnostic
from repro.lint.passes.base import register_pass

if TYPE_CHECKING:  # pragma: no cover - type-only import (cycle avoidance)
    from repro.lint.program import ModuleInfo, ProjectModel

#: unit -> layer index; units absent here are diagnosed (L1) until placed.
LAYER_OF_UNIT: dict[str, int] = {
    # 0 — foundation: leaf substrates with no project dependencies above.
    "errors": 0,
    "obs": 0,
    "graphs": 0,
    "lint": 0,
    # 1 — core machinery: decomposition, verification, cascades.
    "core": 1,
    "verify": 1,
    "cascade": 1,
    # 2 — algorithms: the reinforcement levers and their analyses.
    "anchors": 2,
    "olak": 2,
    "truss": 2,
    "directed": 2,
    "analysis": 2,
    "datasets": 2,
    "hardness": 2,
    # 3 — execution substrates: parallelism, persistence.
    "parallel": 3,
    "checkpoint": 3,
    "distributed": 3,
    # 4 — application: entry points that may see everything.
    "cli": 4,
    "experiments": 4,
    "": 4,  # the root package __init__ is an entry point
    "__main__": 4,  # as is ``python -m repro``
}

LAYER_NAMES: dict[int, str] = {
    0: "foundation",
    1: "core",
    2: "algorithms",
    3: "substrates",
    4: "application",
}


def _unit_of(module_name: str) -> str:
    parts = module_name.split(".")
    return parts[1] if len(parts) > 1 else ""


@register_pass
class LayeringPass:
    """Reject upward eager imports and import cycles (pass L1)."""

    rule_id: ClassVar[str] = "L1"
    slug: ClassVar[str] = "layer-ok"
    summary: ClassVar[str] = "layer DAG violated by an eager upward import or cycle"

    def check(self, model: "ProjectModel") -> Iterator[Diagnostic]:
        for mod in sorted(model.modules.values(), key=lambda m: m.name):
            yield from self._check_module(model, mod)
        yield from self._check_cycles(model)

    def _check_module(
        self, model: "ProjectModel", mod: "ModuleInfo"
    ) -> Iterator[Diagnostic]:
        unit = mod.unit
        if unit not in LAYER_OF_UNIT:
            if not mod.waived(self.slug, 1):
                yield Diagnostic(
                    path=str(mod.path), line=1, col=0, rule=self.rule_id,
                    message=(
                        f"unit '{unit}' has no layer assignment; add it to "
                        "LAYER_OF_UNIT in repro.lint.passes.layering"
                    ),
                    code="",
                )
            return
        own_layer = LAYER_OF_UNIT[unit]
        for edge in mod.imports:
            if not edge.eager or edge.type_checking:
                continue
            if edge.target != "repro" and not edge.target.startswith("repro."):
                continue
            target_unit = _unit_of(edge.target)
            target_layer = LAYER_OF_UNIT.get(target_unit)
            if target_layer is None or target_layer <= own_layer:
                continue
            if mod.waived(self.slug, edge.lineno):
                continue
            yield Diagnostic(
                path=str(mod.path), line=edge.lineno, col=edge.col,
                rule=self.rule_id,
                message=(
                    f"upward import: {mod.name} "
                    f"(layer {own_layer} '{LAYER_NAMES[own_layer]}') eagerly "
                    f"imports {edge.target} "
                    f"(layer {target_layer} '{LAYER_NAMES[target_layer]}'); "
                    "defer the import into the function that needs it or "
                    "waive a sanctioned crossing with '# lint: layer-ok'"
                ),
                code=f"{mod.name} -> {edge.target}",
            )

    def _check_cycles(self, model: "ProjectModel") -> Iterator[Diagnostic]:
        graph: dict[str, list[str]] = {}
        for mod in model.modules.values():
            targets: list[str] = []
            for edge in mod.imports:
                if not edge.eager or edge.type_checking:
                    continue
                if edge.target in model.modules and edge.target != mod.name:
                    targets.append(edge.target)
            graph[mod.name] = sorted(set(targets))
        for component in _strongly_connected(graph):
            if len(component) < 2:
                continue
            cycle = sorted(component)
            anchor = model.modules[cycle[0]]
            anchor_line = 1
            for edge in anchor.imports:
                if edge.eager and not edge.type_checking and edge.target in component:
                    anchor_line = edge.lineno
                    break
            if anchor.waived(self.slug, anchor_line):
                continue
            yield Diagnostic(
                path=str(anchor.path), line=anchor_line, col=0,
                rule=self.rule_id,
                message=(
                    "eager import cycle: " + " -> ".join(cycle + [cycle[0]])
                    + "; break the cycle with a lazy (function-local) import"
                ),
                code=" -> ".join(cycle),
            )


def _strongly_connected(graph: dict[str, list[str]]) -> list[set[str]]:
    """Tarjan's algorithm, iterative, deterministic order."""
    index_of: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[set[str]] = []
    counter = 0

    for start in sorted(graph):
        if start in index_of:
            continue
        work: list[tuple[str, int]] = [(start, 0)]
        while work:
            node, child_index = work.pop()
            if child_index == 0:
                index_of[node] = counter
                low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            recursed = False
            children = graph.get(node, [])
            for position in range(child_index, len(children)):
                child = children[position]
                if child not in index_of:
                    work.append((node, position + 1))
                    work.append((child, 0))
                    recursed = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index_of[child])
            if recursed:
                continue
            if low[node] == index_of[node]:
                component: set[str] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return components
