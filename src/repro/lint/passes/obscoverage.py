"""L3 — observability coverage of hot-path public functions.

Every public module-level function in the hot units (``anchors``,
``core``, ``olak``, ``parallel``) must open an obs span or bump a
registry counter — directly or through something it calls — so the
profiling substrate added in PR 3 cannot silently rot as the hot path
grows. Pure helpers that genuinely need no instrumentation carry a
``# lint: obs-ok <reason>`` waiver on their ``def`` (or decorator)
line, which doubles as documentation that the omission is deliberate.

**Worker entry points** (functions submitted to pool executors in
``repro.parallel`` — ``evaluate_chunk`` and friends, detected by
:meth:`~repro.lint.program.ProjectModel.worker_entry_points`) are held
to a stricter bar: they run in worker processes whose local span
collector never reaches the parent trace, so plain ``obs`` access is a
silent no-op there. They count as covered only when they reach the
worker-side span API (``repro.obs.shipping``), which forces tracing per
dispatch and ships recorded spans back. Deliberately-untraced entry
points carry the same ``# lint: obs-ok`` waiver.

Package ``__init__`` re-export modules and ``__main__`` entry shims are
skipped: they hold no hot-path bodies of their own.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import TYPE_CHECKING, ClassVar

from repro.lint.diagnostics import Diagnostic
from repro.lint.passes.base import register_pass

if TYPE_CHECKING:  # pragma: no cover - type-only import (cycle avoidance)
    from repro.lint.program import ProjectModel

#: Units whose public functions are the measured hot path.
HOT_UNITS = frozenset({"anchors", "core", "olak", "parallel"})


@register_pass
class ObsCoveragePass:
    """Require obs instrumentation on hot-path public functions (pass L3)."""

    rule_id: ClassVar[str] = "L3"
    slug: ClassVar[str] = "obs-ok"
    summary: ClassVar[str] = "hot-path public function carries no obs instrumentation"

    def check(self, model: "ProjectModel") -> Iterator[Diagnostic]:
        worker_entries = set(model.worker_entry_points())
        for mod in sorted(model.modules.values(), key=lambda m: m.name):
            if mod.unit not in HOT_UNITS:
                continue
            if mod.path.name == "__init__.py" or mod.name.endswith("__main__"):
                continue
            for fn in mod.functions.values():
                if "." in fn.qualname or not fn.is_public:
                    continue
                is_worker_entry = (
                    fn.key in worker_entries
                    and mod.name.startswith("repro.parallel")
                )
                if is_worker_entry:
                    covered = model.reaches_worker_obs(fn.key)
                else:
                    covered = model.reaches_obs(fn.key)
                if covered:
                    continue
                if mod.waived(self.slug, *fn.waiver_lines):
                    continue
                if is_worker_entry:
                    message = (
                        f"worker entry point {fn.name}() in {mod.name} "
                        "never reaches the worker-side span API "
                        "(repro.obs.shipping) — spans recorded in a worker "
                        "are lost unless shipped back to the parent; wrap "
                        "the work in shipping.worker_tracing(...) or mark "
                        "it '# lint: obs-ok <reason>' if it is a "
                        "deliberately-untraced fast path"
                    )
                else:
                    message = (
                        f"public hot-path function {fn.name}() in {mod.name} "
                        "neither opens an obs span nor bumps a registry "
                        "counter (directly or transitively); instrument it "
                        "or mark it '# lint: obs-ok <reason>'"
                    )
                yield Diagnostic(
                    path=str(mod.path), line=fn.node.lineno,
                    col=fn.node.col_offset, rule=self.rule_id,
                    message=message,
                    code=f"def {fn.name}",
                )
