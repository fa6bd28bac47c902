"""The ``REPRO_*`` environment knobs: the documented set, read once per run.

Every knob the package reads must be a row of the environment table in
``docs/api.md`` (and every row a knob the package reads), and a greedy
run must consult ``REPRO_TRACE`` / ``REPRO_VERIFY`` once at entry, not
on every hot-path check.
"""

from __future__ import annotations

import os
import re
from collections import Counter
from pathlib import Path

from repro.anchors.gac import gac
from repro.datasets import registry

_ROOT = Path(__file__).resolve().parents[1]
_KNOB = re.compile(r"REPRO_[A-Z_]+")


def test_knobs_read_under_src_match_the_api_table():
    read = set()
    for path in sorted((_ROOT / "src").rglob("*.py")):
        read |= set(_KNOB.findall(path.read_text(encoding="utf-8")))
    api = (_ROOT / "docs" / "api.md").read_text(encoding="utf-8")
    table = api[api.index("## Environment variables") :]
    table = table[: table.index("\n## ")]
    documented = set(re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", table, re.MULTILINE))
    assert read == documented == {
        "REPRO_PARALLEL",
        "REPRO_TRACE",
        "REPRO_VERIFY",
        "REPRO_VERIFY_LIMIT",
    }


def test_trace_and_verify_are_read_once_per_run(monkeypatch):
    graph = registry.load("arxiv")
    reads: Counter[str] = Counter()
    environ_type = type(os.environ)
    real_getitem = environ_type.__getitem__

    def counting_getitem(self, key):
        reads[key] += 1
        return real_getitem(self, key)

    monkeypatch.setattr(environ_type, "__getitem__", counting_getitem)
    result = gac(graph, 3)
    monkeypatch.undo()
    assert len(result.anchors) == 3
    assert reads["REPRO_TRACE"] <= 1
    assert reads["REPRO_VERIFY"] <= 1
