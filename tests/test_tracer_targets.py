"""The end-to-end tracer's patch targets still name live code.

``benchmarks/e2e/tracer.py`` wraps each layer's entry point by module
and dotted attribute path for the length of a traced run. A refactor
that renames or deletes one of them breaks every traced benchmark run,
so this reads ``TARGETS`` from the file (parsed, never executed or
modified) and resolves each path against the package.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "tracer.py"


def _targets() -> list[tuple[str, str, str]]:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.AnnAssign):
            target, value = node.target, node.value
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        else:
            continue
        if isinstance(target, ast.Name) and target.id == "TARGETS":
            assert value is not None
            return list(ast.literal_eval(value))
    raise AssertionError(f"no TARGETS assignment in {TRACER}")


TARGETS = _targets()


def test_targets_parsed():
    assert TARGETS
    assert ("kernels.apply_update", "repro.anchors.kernels.flat_backend",
            "FlatTables.apply_update") in TARGETS


@pytest.mark.parametrize(
    "module_name,path", [(m, p) for _, m, p in TARGETS], ids=[n for n, _, _ in TARGETS]
)
def test_target_resolves(module_name, path):
    obj = importlib.import_module(module_name)
    for part in path.split("."):
        assert hasattr(obj, part), f"{module_name}.{path}: no attribute {part!r}"
        obj = getattr(obj, part)
    assert callable(obj), f"{module_name}.{path} is not callable"
