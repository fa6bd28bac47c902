"""The whole-program pass interface and registry.

A *program pass* is the cross-module sibling of a single-file
:class:`~repro.lint.rules.Rule`: it inspects a fully-built
:class:`~repro.lint.program.ProjectModel` (symbol tables, resolved
import graph, approximate call graph) instead of one module's AST, so
it can see properties no single file shows — an upward import, a
worker-reachable global write, a hot-path function with no span.

Passes live in this package (one module each), register through
:func:`register_pass`, and emit the same
:class:`~repro.lint.diagnostics.Diagnostic` type as the file rules, so
waivers, baselines, and JSON output all apply unchanged. Pass
ids are ``L1``.. (layered analysis) next to the file rules' ``R1``...
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import TYPE_CHECKING, ClassVar, Protocol

from repro.lint.diagnostics import Diagnostic

if TYPE_CHECKING:  # pragma: no cover - type-only import (cycle avoidance)
    from repro.lint.program import ProjectModel


class ProgramPass(Protocol):
    """One whole-program analysis pass over the project model."""

    rule_id: ClassVar[str]
    slug: ClassVar[str]
    summary: ClassVar[str]

    def check(self, model: "ProjectModel") -> Iterator[Diagnostic]: ...


PASS_REGISTRY: dict[str, ProgramPass] = {}


def register_pass(cls: type) -> type:
    """Class decorator adding a pass (instantiated once) to the registry."""
    instance = cls()
    PASS_REGISTRY[instance.rule_id] = instance
    return cls


def all_passes() -> list[ProgramPass]:
    """Registered passes in pass-id order."""
    return [PASS_REGISTRY[pid] for pid in sorted(PASS_REGISTRY)]
