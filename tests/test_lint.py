"""Fixture suite for the repro.lint determinism linter (rules R1-R8).

Every rule gets a violating snippet (must fire) and a corrected version
(must stay silent); waiver comments, JSON output, the baseline
round-trip, and the CLI exit codes are covered too. The final test
lints the repository itself, so the tree stays clean by construction.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import Baseline, Diagnostic, lint_source, to_json
from repro.lint.runner import classify

REPO_ROOT = Path(__file__).resolve().parent.parent

# Per rule: (violating snippet, fixed snippet). The fixed snippets must
# be completely clean — not merely free of their own rule.
FIXTURES: dict[str, tuple[str, str]] = {
    "R1": (
        """
def collect(seeds):
    reached = set(seeds)
    out = []
    for u in reached:
        out.append(u)
    return out
""",
        """
def collect(seeds):
    reached = set(seeds)
    out = []
    for u in sorted(reached):
        out.append(u)
    return out
""",
    ),
    "R2": (
        """
import random


def pick(items):
    return items[int(random.random() * len(items))]
""",
        """
import random


def pick(items, seed: int):
    rng = random.Random(seed)
    return items[int(rng.random() * len(items))]
""",
    ),
    "R3": (
        """
def extend(items, acc=[]):
    acc.extend(items)
    return acc
""",
        """
def extend(items, acc=None):
    if acc is None:
        acc = []
    acc.extend(items)
    return acc
""",
    ),
    "R4": (
        """
def converged(gain: float) -> bool:
    return gain == 1.0
""",
        """
import math


def converged(gain: float) -> bool:
    return math.isclose(gain, 1.0)
""",
    ),
    "R5": (
        """
def pure(func):
    return func


@pure
def widen(graph):
    graph.add_edge(0, 1)
    return graph
""",
        """
def pure(func):
    return func


@pure
def widen(graph):
    return graph.degree(0)
""",
    ),
    "R6": (
        """
import time


def stamp():
    return time.time()
""",
        """
from repro.obs import clock


def stamp():
    return clock()
""",
    ),
    "R7": (
        """
import time


def measure():
    return time.perf_counter()
""",
        """
from repro.obs import clock


def measure():
    return clock()
""",
    ),
    "R8": (
        """
from concurrent.futures import ProcessPoolExecutor


def fan_out(tasks):
    with ProcessPoolExecutor() as pool:
        return list(pool.map(str, tasks))
""",
        """
from repro.parallel import CandidateScanPool


def fan_out(graph, workers):
    return CandidateScanPool(graph, workers)
""",
    ),
}


@pytest.mark.parametrize("rule_id", sorted(FIXTURES))
def test_rule_fires_on_violation(rule_id):
    violating, _ = FIXTURES[rule_id]
    fired = {d.rule for d in lint_source(violating)}
    assert rule_id in fired, f"{rule_id} stayed silent on its violating fixture"


@pytest.mark.parametrize("rule_id", sorted(FIXTURES))
def test_rule_silent_on_fixed_version(rule_id):
    _, fixed = FIXTURES[rule_id]
    diagnostics = lint_source(fixed)
    assert diagnostics == [], [d.render() for d in diagnostics]


def test_diagnostic_carries_location_and_code():
    violating, _ = FIXTURES["R1"]
    (diag,) = [d for d in lint_source(violating, path="anchors/demo.py") if d.rule == "R1"]
    assert diag.path == "anchors/demo.py"
    assert diag.line == 5
    assert diag.code == "for u in reached:"
    assert diag.render().startswith("anchors/demo.py:5:")


class TestWaivers:
    def test_waiver_silences_the_rule(self):
        source = (
            "def collect(seeds):\n"
            "    reached = set(seeds)\n"
            "    total = 0\n"
            "    for u in reached:  # lint: order-ok commutative sum\n"
            "        total += u\n"
            "    return total\n"
        )
        assert lint_source(source) == []

    def test_waiver_is_rule_specific(self):
        # An order-ok waiver must not hide a different rule on the line.
        source = (
            "import random\n"
            "\n"
            "\n"
            "def pick():\n"
            "    return random.random()  # lint: order-ok wrong slug\n"
        )
        assert {d.rule for d in lint_source(source)} == {"R2"}

    def test_unknown_slug_is_reported(self):
        source = (
            "def collect(seeds):\n"
            "    reached = set(seeds)\n"
            "    out = []\n"
            "    for u in reached:  # lint: order-okay typo\n"
            "        out.append(u)\n"
            "    return out\n"
        )
        fired = {d.rule for d in lint_source(source)}
        assert "R0" in fired  # the typo itself is a finding
        assert "R1" in fired  # and the violation stays unwaived

    def test_multi_slug_waiver_covers_both_rules(self):
        source = (
            "import random\n"
            "\n"
            "\n"
            "def collect(seeds):\n"
            "    reached = set(seeds)\n"
            "    out = []\n"
            "    for u in reached: out.append(u + random.random())"
            "  # lint: order-ok random-ok both deliberate\n"
            "    return out\n"
        )
        assert lint_source(source) == []

    def test_unknown_slug_inside_multi_slug_waiver_errors(self):
        # The known slug still waives its rule, but the typo'd one is
        # reported and its rule stays live — no silent suppression.
        source = (
            "import random\n"
            "\n"
            "\n"
            "def collect(seeds):\n"
            "    reached = set(seeds)\n"
            "    out = []\n"
            "    for u in reached: out.append(u + random.random())"
            "  # lint: order-ok random-okay typo\n"
            "    return out\n"
        )
        fired = {d.rule for d in lint_source(source)}
        assert fired == {"R0", "R1", "R2"}

    def test_waiver_parsed_on_decorator_line(self):
        from repro.lint.runner import parse_waivers

        source = (
            "import functools\n"
            "\n"
            "\n"
            "@functools.lru_cache(maxsize=None)  # lint: obs-ok pure\n"
            "def pick(n):\n"
            "    return n + 1\n"
        )
        waivers, problems = parse_waivers(source, "x.py")
        assert problems == []
        assert waivers[4] == {"obs-ok"}


class TestRoles:
    def test_r1_only_in_order_sensitive_modules(self):
        violating, _ = FIXTURES["R1"]
        assert lint_source(violating, order_sensitive=False) == []

    def test_r2_and_r6_exempt_in_tests(self):
        for rule_id in ("R2", "R6"):
            violating, _ = FIXTURES[rule_id]
            assert lint_source(violating, is_test=True) == []

    def test_r7_exempt_in_obs_benchmarks_and_tests(self):
        violating, _ = FIXTURES["R7"]
        assert lint_source(violating, is_test=True) == []
        assert lint_source(violating, is_benchmark=True) == []
        assert lint_source(violating, is_obs=True) == []

    def test_r8_exempt_in_parallel_benchmarks_and_tests(self):
        violating, _ = FIXTURES["R8"]
        assert lint_source(violating, is_test=True) == []
        assert lint_source(violating, is_benchmark=True) == []
        assert lint_source(violating, is_parallel=True) == []

    def test_r8_fires_on_multiprocessing_import_forms(self):
        for snippet in (
            "import multiprocessing\n",
            "import multiprocessing.shared_memory\n",
            "from multiprocessing import Pool\n",
            "from concurrent.futures import ThreadPoolExecutor\n",
        ):
            assert {d.rule for d in lint_source(snippet)} == {"R8"}, snippet

    def test_classify_from_path(self):
        roles = classify(Path("src/repro/anchors/gac.py"))
        assert roles["order_sensitive"] and not roles["is_test"]
        roles = classify(Path("tests/test_gac.py"))
        assert roles["is_test"] and not roles["order_sensitive"]
        roles = classify(Path("benchmarks/bench_decomposition.py"))
        assert roles["is_benchmark"]
        roles = classify(Path("src/repro/obs/runtime.py"))
        assert roles["is_obs"] and not roles["is_test"]
        roles = classify(Path("src/repro/parallel/pool.py"))
        assert roles["is_parallel"] and not roles["is_test"]
        roles = classify(Path("src/repro/anchors/gac.py"))
        assert not roles["is_parallel"]
        roles = classify(Path("scripts/paper_scale.py"))
        assert roles["is_script"] and not roles["is_test"]
        roles = classify(Path("src/repro/anchors/gac.py"))
        assert not roles["is_script"]

    def test_r6_and_r7_exempt_in_scripts(self):
        # scripts/ are operator tooling: wall-clock and raw timers are fine.
        for rule_id in ("R6", "R7"):
            violating, _ = FIXTURES[rule_id]
            assert lint_source(violating, is_script=True) == []


def test_json_output_round_trip():
    violating, _ = FIXTURES["R4"]
    diagnostics = lint_source(violating, path="core/demo.py")
    document = json.loads(to_json(diagnostics))
    assert document["version"] == 1
    assert document["count"] == len(diagnostics) == 1
    (row,) = document["diagnostics"]
    assert (row["path"], row["rule"], row["line"]) == ("core/demo.py", "R4", 3)


class TestBaseline:
    def test_round_trip_suppresses_known_findings(self, tmp_path):
        violating, _ = FIXTURES["R1"]
        diagnostics = lint_source(violating, path="anchors/demo.py")
        baseline = Baseline.from_diagnostics(diagnostics)
        baseline_path = tmp_path / "baseline.json"
        baseline.save(baseline_path)

        reloaded = Baseline.load(baseline_path)
        fresh, suppressed = reloaded.filter(diagnostics)
        assert fresh == [] and suppressed == len(diagnostics)

    def test_baseline_matches_on_code_not_line(self):
        violating, _ = FIXTURES["R1"]
        diagnostics = lint_source(violating, path="anchors/demo.py")
        baseline = Baseline.from_diagnostics(diagnostics)
        # The same offending line shifted down two lines still matches...
        shifted = lint_source("\n\n" + violating, path="anchors/demo.py")
        fresh, suppressed = baseline.filter(shifted)
        assert fresh == [] and suppressed == len(diagnostics)

    def test_new_findings_pass_through(self):
        violating_r1, _ = FIXTURES["R1"]
        baseline = Baseline.from_diagnostics(
            lint_source(violating_r1, path="anchors/demo.py")
        )
        violating_r3, _ = FIXTURES["R3"]
        fresh, suppressed = baseline.filter(
            lint_source(violating_r3, path="anchors/demo.py")
        )
        assert suppressed == 0
        assert {d.rule for d in fresh} == {"R3"}

    def test_identical_violations_need_matching_multiplicity(self):
        source = (
            "def twice(seeds):\n"
            "    reached = set(seeds)\n"
            "    for u in reached:\n"
            "        print(u)\n"
            "    for u in reached:\n"
            "        print(u)\n"
        )
        diagnostics = lint_source(source, path="anchors/demo.py")
        assert len(diagnostics) == 2
        one_entry = Baseline.from_diagnostics(diagnostics[:1])
        fresh, suppressed = one_entry.filter(diagnostics)
        assert suppressed == 1 and len(fresh) == 1


# One violation per rule, laid out for a CLI run. The file must live
# under an ``anchors/`` directory so R1 applies (order-sensitive).
_ALL_RULES_FIXTURE = """\
import multiprocessing
import random
import time


def pure(func):
    return func


def collect(seeds, acc=[]):
    reached = set(seeds)
    for u in reached:
        acc.append(u)
    return acc


def jitter(gain: float) -> bool:
    return gain == random.random()


def stamp():
    return time.time()


def measure():
    return time.perf_counter()


@pure
def widen(graph):
    graph.add_edge(0, 1)
    return graph
"""


def _run_cli(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )


class TestCli:
    def test_seeded_fixture_fails_with_every_rule(self, tmp_path):
        target = tmp_path / "anchors"
        target.mkdir()
        (target / "bad.py").write_text(_ALL_RULES_FIXTURE, encoding="utf-8")
        result = _run_cli(["anchors", "--json", "--no-baseline"], cwd=tmp_path)
        assert result.returncode == 1, result.stdout + result.stderr
        document = json.loads(result.stdout)
        fired = {row["rule"] for row in document["diagnostics"]}
        assert fired == {"R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8"}

    def test_clean_tree_exits_zero(self, tmp_path):
        target = tmp_path / "anchors"
        target.mkdir()
        (target / "good.py").write_text("X = 1\n", encoding="utf-8")
        result = _run_cli(["anchors"], cwd=tmp_path)
        assert result.returncode == 0, result.stdout + result.stderr

    def test_syntax_error_is_a_finding_not_a_crash(self, tmp_path):
        target = tmp_path / "core"
        target.mkdir()
        (target / "broken.py").write_text("def f(:\n", encoding="utf-8")
        result = _run_cli(["core"], cwd=tmp_path)
        assert result.returncode == 1
        assert "R0" in result.stdout


def test_repository_is_lint_clean():
    """The committed tree must pass its own linter (with the baseline)."""
    from repro.lint import lint_paths

    diagnostics = lint_paths(
        [REPO_ROOT / "src", REPO_ROOT / "tests"], root=REPO_ROOT
    )
    baseline = Baseline.load(REPO_ROOT / ".lint-baseline.json")
    fresh, _ = baseline.filter(diagnostics)
    assert fresh == [], [d.render() for d in fresh]


def test_diagnostics_sort_by_location():
    a = Diagnostic(path="a.py", line=2, col=0, rule="R1", message="m")
    b = Diagnostic(path="a.py", line=10, col=0, rule="R2", message="m")
    c = Diagnostic(path="b.py", line=1, col=0, rule="R1", message="m")
    assert sorted([c, b, a]) == [a, b, c]
