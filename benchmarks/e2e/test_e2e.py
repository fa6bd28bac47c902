"""Self-tests of the end-to-end benchmark harness.

Run with ``python -m pytest benchmarks/e2e -q``. The sessions here swap
every workload for a brightkite b=2 stand-in (same names, so the output
still has to match ``BENCHMARK.json``) and run for a fraction of a
second each.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

import pytest
import run
import tracer as tracer_mod
from workloads import WORKLOADS, Workload, build_input, digest

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

from repro.datasets import registry  # noqa: E402

BENCH = run.load_bench()
NAMES = [w["name"] for w in BENCH["workloads"]]

SMALL = {
    "gac-lj-b6": Workload("gac-lj-b6", "brightkite", "gac", 2),
    "gac-gowalla-b20": Workload("gac-gowalla-b20", "brightkite", "gac", 2),
    "olak-youtube-k10-b20": Workload(
        "olak-youtube-k10-b20", "brightkite", "olak", 2, k=5
    ),
    "gac-lj-b6-w2": Workload(
        "gac-lj-b6-w2", "brightkite", "gac", 2, workers=2, same_as="gac-lj-b6"
    ),
}


@pytest.fixture(scope="module")
def small_pins() -> dict[str, dict[str, Any]]:
    pins = {}
    for name, workload in SMALL.items():
        graph, original = build_input(workload.dataset, 0)
        result = workload.run(graph)
        pins[name] = {"digest": digest(result, original), "calibration_s": 0.01}
    return pins


@pytest.fixture
def small(monkeypatch: pytest.MonkeyPatch, small_pins: dict[str, Any]) -> None:
    monkeypatch.setattr(run, "WORKLOADS", SMALL)
    monkeypatch.setattr(run, "load_pins", lambda: dict(small_pins))
    monkeypatch.setattr(run, "schedulable_cores", lambda: 2)


def _session(
    argv: list[str], capsys: pytest.CaptureFixture[str]
) -> tuple[int, dict[str, Any] | None]:
    code = run.main(argv)
    lines = capsys.readouterr().out.strip().splitlines()
    try:
        return code, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return code, None


def test_specs_cover_benchmark_json() -> None:
    assert list(WORKLOADS) == NAMES
    assert list(SMALL) == NAMES
    pinned = run.load_pins()
    assert list(pinned) == NAMES
    for workload in WORKLOADS.values():
        if workload.same_as:
            assert pinned[workload.name] == dict(
                pinned[workload.same_as],
                calibration_s=pinned[workload.name]["calibration_s"],
            )
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    assert "setup_s" in end_to_end
    assert not end_to_end & {m["name"] for m in BENCH["per_layer"]}


@pytest.mark.parametrize("trace", ["0", "1"])
def test_output_names_exactly_the_benchmark_metrics(
    small: None, trace: str, tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    argv = ["--seconds", "0.3", "--trace", trace, "--out", str(tmp_path)]
    code, summary = _session(argv, capsys)
    assert code == 0 and summary is not None
    assert summary["correct"] is True and summary["failed"] == 0
    kind = "per_layer" if trace == "1" else "end_to_end"
    expected = {f"{w}/{m['name']}" for w in NAMES for m in BENCH[kind]}
    assert set(summary["metrics"]) == expected
    results = json.loads((tmp_path / "results.json").read_text())
    assert list(results["workloads"]) == NAMES
    assert results["env"]["schedulable_cores"] == 2
    for entry in results["workloads"].values():
        assert entry["kernel"] and entry["failed"] == 0
    if trace == "1":
        for name in NAMES:
            events = json.loads((tmp_path / f"{name}.trace.json").read_text())
            assert {e["name"] for e in events["traceEvents"]} >= {"run", "state.build"}
        w2 = results["workloads"]["gac-lj-b6-w2"]["metrics"]
        assert w2["parallel.tasks"] > 0 and w2["parallel.evaluate_s"] > 0


def test_single_workload_prints_bare_metric_names(
    small: None, capsys: pytest.CaptureFixture[str]
) -> None:
    argv = ["--workload", "olak-youtube-k10-b20", "--seed", "3", "--seconds", "0.2"]
    code, summary = _session(argv, capsys)
    assert code == 0 and summary is not None
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert set(summary["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert summary["attempted"] >= 1 + run.MIN_RUNS


def test_tracing_changes_no_digest_and_restores_every_patch() -> None:
    workload = SMALL["gac-lj-b6"]
    graph, original = build_input(workload.dataset, 2)
    plain = digest(workload.run(graph), original)

    def attributes() -> list[tuple[Any, str, Any]]:
        seen = []
        for module_name in sorted(sys.modules):
            module = sys.modules[module_name]
            if module_name.startswith("repro") and module is not None:
                for attr, value in vars(module).items():
                    seen.append((module, attr, value))
                    if isinstance(value, type):
                        seen += [(value, a, v) for a, v in vars(value).items()]
        return seen

    before = attributes()
    t = tracer_mod.Tracer()
    result, root = t.traced_call(lambda: workload.run(graph))
    after = attributes()
    assert digest(result, original) == plain
    assert len(before) == len(after)
    assert all(a[2] is b[2] for a, b in zip(before, after))
    names = {span[0] for span in t.spans[root:]}
    assert {"state.build", "followers.search", "incremental.apply_anchor"} <= names
    layers = tracer_mod.run_metrics(t.spans, root, {})
    assert 0.0 < layers["trace.coverage_frac"] <= 1.0


def test_corrupted_pin_fails_every_attempt(
    small: None,
    monkeypatch: pytest.MonkeyPatch,
    small_pins: dict[str, Any],
    tmp_path: Path,
    capsys: pytest.CaptureFixture[str],
) -> None:
    corrupted = dict(small_pins)
    corrupted["gac-lj-b6"] = dict(small_pins["gac-lj-b6"], digest="0" * 16)
    monkeypatch.setattr(run, "load_pins", lambda: corrupted)
    argv = ["--workload", "gac-lj-b6", "--seconds", "0.2", "--out", str(tmp_path)]
    code, summary = _session(argv, capsys)
    assert code == 1 and summary is not None
    assert summary["correct"] is False
    assert summary["failed"] == summary["attempted"]
    entry = json.loads((tmp_path / "results.json").read_text())["workloads"]
    assert entry["gac-lj-b6"]["failed"] == entry["gac-lj-b6"]["attempted"]


@pytest.mark.parametrize("name", ["brightkite", "livejournal"])
def test_seed_zero_is_the_registry_replica(name: str) -> None:
    graph, original = build_input(name, 0)
    assert graph == registry.load(name)
    assert all(original[u] == u for u in graph.vertices())
    relabeled, back = build_input(name, 7)
    assert set(relabeled.vertices()) != set(graph.vertices())
    edges = {frozenset((back[u], back[v])) for u, v in relabeled.edges()}
    assert edges == {frozenset(e) for e in graph.edges()}


def test_one_core_host_takes_the_starved_path(
    small: None,
    monkeypatch: pytest.MonkeyPatch,
    tmp_path: Path,
    capsys: pytest.CaptureFixture[str],
) -> None:
    monkeypatch.setattr(run, "schedulable_cores", lambda: 1)
    code, summary = _session(["--workload", "gac-lj-b6-w2", "--seconds", "0.2"], capsys)
    assert code == 3 and summary is None
    code, summary = _session(["--seconds", "0.2", "--out", str(tmp_path)], capsys)
    assert code == 0 and summary is not None
    assert not any(key.startswith("gac-lj-b6-w2/") for key in summary["metrics"])
    entry = json.loads((tmp_path / "results.json").read_text())["workloads"]
    assert entry["gac-lj-b6-w2"] == {"skipped": "starved"}
    assert entry["gac-lj-b6"]["failed"] == 0


def test_without_the_program_it_fails_without_a_result(
    monkeypatch: pytest.MonkeyPatch, tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code, summary = _session(["--workload", "gac-lj-b6"], capsys)
    assert code == 2 and summary is None
