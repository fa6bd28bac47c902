"""Hash-seed determinism regression tests.

Python randomizes ``hash(str)`` per process (PYTHONHASHSEED), so any
algorithm whose output leaks set/dict iteration order produces
different results across runs. The R1 lint rule guards this statically;
these tests guard it dynamically: the same GAC run executed in two
subprocesses with different hash seeds must report identical anchor
sequences and gains.

String vertex labels matter — integer hashes are seed-independent, so a
graph relabeled with strings is the sensitive detector.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

# The probe builds a small powerlaw graph, relabels vertices with string
# names (hash-seed sensitive), runs GAC, and prints the outcome as JSON.
_PROBE = """\
import json
import sys

from repro.anchors.gac import greedy_anchored_coreness
from repro.core.decomposition import peel_decomposition
from repro.graphs.generators import powerlaw_social_graph
from repro.graphs.graph import Graph

base = powerlaw_social_graph(36, 4.0, seed=11)
graph = Graph.from_edges(
    (f"v{u:03d}", f"v{v:03d}") for u, v in base.edges()
)

result = greedy_anchored_coreness(graph, 3, tie_break="%(tie_break)s", seed=7)
order = peel_decomposition(graph).order
print(
    json.dumps(
        {
            "anchors": list(result.anchors),
            "gains": list(result.gains),
            "total": result.total_gain,
            "order_head": order[:12],
        }
    )
)
"""


def _run_probe(hashseed: str, tie_break: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE % {"tie_break": tie_break}],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={
            "PYTHONPATH": str(REPO_ROOT / "src"),
            "PYTHONHASHSEED": hashseed,
            "PATH": "/usr/bin:/bin",
        },
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("tie_break", ["id", "ub"])
def test_gac_identical_across_hash_seeds(tie_break):
    runs = [_run_probe(seed, tie_break) for seed in ("0", "1", "31337")]
    baseline, *rest = runs
    for other in rest:
        assert other["anchors"] == baseline["anchors"]
        assert other["gains"] == baseline["gains"]
        assert other["total"] == baseline["total"]


def test_peel_order_identical_across_hash_seeds():
    a = _run_probe("0", "id")
    b = _run_probe("1", "id")
    assert a["order_head"] == b["order_head"]


# The decomposition probe prints every label list of both entry points on
# a string-labeled graph with anchors (whose placement once followed the
# anchor frozenset's iteration order).
_DECOMPOSITION_PROBE = """\
import json

from repro.core.decomposition import core_decomposition, peel_decomposition
from repro.graphs.graph import Graph

graph = Graph.from_edges(
    [*zip("abcdefghij", "bcdefghija"), *zip("abcdefghij", "cdefghijab")]
)
anchors = ["b", "e", "g", "f"]
peel = peel_decomposition(graph, anchors)
core = core_decomposition(graph, anchors)
print(
    json.dumps(
        {
            "peel_coreness": list(peel.coreness.items()),
            "peel_shell_layer": list(peel.shell_layer.items()),
            "peel_order": peel.order,
            "core_coreness": list(core.coreness.items()),
        }
    )
)
"""


def test_decomposition_label_order_identical_across_hash_seeds():
    runs = []
    for hashseed in ("1", "2", "31337"):
        proc = subprocess.run(
            [sys.executable, "-c", _DECOMPOSITION_PROBE],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={
                "PYTHONPATH": str(REPO_ROOT / "src"),
                "PYTHONHASHSEED": hashseed,
                "PATH": "/usr/bin:/bin",
            },
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    baseline, *rest = runs
    for other in rest:
        assert other == baseline
    # Label dicts list vertices in ascending sort-key order.
    assert [u for u, _ in baseline["peel_coreness"]] == list("abcdefghij")
