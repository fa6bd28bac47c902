"""Scenario tests for ``python -m repro.bench gate`` on the GAC grid.

Each test pairs a committed and a fresh schema-5 artifact the way CI
meets them and pins the exit status: the follower-kernel gate (the
reference dict/flat pair must hold the 1.8x acceptance floor in both
artifacts, fresh flat against committed dict may only move the
trajectory up, small-workload pairs stay report-only) and the
headline gate (w4 cells hold the 1.5x floor, starved cells SKIP, and
measurements from different host classes never gate each other).
``tests/test_bench.py`` covers each rule on its own; these cover the
rules together.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench import gate
from repro.experiments.reporting import PerfBaseline


def _pair(
    dict_s: float,
    flat_s: float,
    calls: int = 100,
    dataset: str = "lj",
    budget: int = 6,
) -> "tuple[list[dict], dict[str, tuple[float, int]]]":
    """Serial dict/flat cells for one group and their follower-search phases."""
    cells = []
    phases = {}
    for kernel, total in (("dict", dict_s), ("flat", flat_s)):
        cell_id = f"{dataset}/b{budget}/w0/{kernel}/anchor"
        stat = {"min": total, "median": total, "max": total, "spread": 0.0}
        cells.append(
            {
                "cell": cell_id,
                "dataset": dataset,
                "budget": budget,
                "workers": 0,
                "kernel": kernel,
                "strategy": "anchor",
                "repeats": 3,
                "wall_s": stat,
                "scan_s": stat,
                "speedup": None,
            }
        )
        phases[f"{cell_id}/followers.search[{kernel}]"] = (total, calls)
    return cells, phases


def _w4(speedup: "float | None", starved: bool = False) -> dict:
    stat = {"min": 1.0, "median": 1.1, "max": 1.2, "spread": 0.2}
    cell = {
        "cell": "lj/b6/w4/flat/anchor",
        "dataset": "lj",
        "budget": 6,
        "workers": 4,
        "kernel": "flat",
        "strategy": "anchor",
        "repeats": 3,
        "wall_s": None if starved else stat,
        "scan_s": None if starved else stat,
        "speedup": None if starved else speedup,
    }
    if starved:
        cell["starved"] = True
    return cell


def _baseline(
    pair: "tuple[list[dict], dict[str, tuple[float, int]]]",
    *extra_cells: dict,
    host_cores: int = 1,
) -> PerfBaseline:
    cells, phases = pair
    baseline = PerfBaseline(
        name="grid",
        dataset="toy",
        num_vertices=10,
        num_edges=20,
        host_cores=host_cores,
    )
    baseline.cells = [*cells, *extra_cells]
    for name, (total, calls) in phases.items():
        baseline.phases.append(
            {"phase": name, "calls": calls, "total_s": total, "self_s": total}
        )
    return baseline


def _run(tmp_path: Path, committed: PerfBaseline, fresh: PerfBaseline, *extra: str) -> int:
    committed_path = tmp_path / "committed.json"
    fresh_path = tmp_path / "fresh.json"
    committed.write(committed_path)
    fresh.write(fresh_path)
    return gate.main([str(fresh_path), "--committed", str(committed_path), *extra])


GOOD_COMMITTED = _pair(2.0, 1.0)


class TestKernelGate:
    def test_same_workload_improvement_passes(self, tmp_path, capsys):
        fresh = _baseline(_pair(2.0, 0.9))
        assert _run(tmp_path, _baseline(GOOD_COMMITTED), fresh) == 0
        assert "kernel gate: PASS — fresh flat beats the committed" in (
            capsys.readouterr().out
        )

    def test_same_workload_regression_fails(self, tmp_path):
        # Fresh in-run pair 3.0/1.5 = 2.0x holds the floor, but fresh flat
        # against committed dict is 2.0/1.5 = 1.33x: under the fixed floor.
        fresh = _baseline(_pair(3.0, 1.5))
        assert _run(tmp_path, _baseline(GOOD_COMMITTED), fresh) == 1

    def test_trajectory_may_only_move_up(self, tmp_path):
        # Committed ratio 3.0x; tolerance-adjusted floor 3.0*(1-0.25) =
        # 2.25x outranks the fixed 1.8x, so a 2.0x fresh ratio fails
        # even though it clears the acceptance floor.
        committed = _baseline(_pair(3.0, 1.0))
        fresh = _baseline(_pair(3.0, 1.5))
        assert _run(tmp_path, committed, fresh) == 1

    def test_committed_pair_below_floor_fails(self, tmp_path):
        committed = _baseline(_pair(1.5, 1.0))
        fresh = _baseline(_pair(1.5, 0.5))
        assert _run(tmp_path, committed, fresh) == 1

    def test_cross_workload_is_report_only(self, tmp_path, capsys):
        # CI shape: a fresh re-bench on a different, small dataset whose
        # in-run ratio is under the floor — still exit 0.
        fresh = _baseline(_pair(0.05, 0.05, calls=2467, dataset="brightkite"))
        assert _run(tmp_path, _baseline(GOOD_COMMITTED), fresh) == 0
        assert "kernel gate: report-only — brightkite/b6" in capsys.readouterr().out

    def test_zero_floor_disables_the_kernel_gate(self, tmp_path, capsys):
        fresh = _baseline(_pair(3.0, 1.5))
        assert (
            _run(
                tmp_path,
                _baseline(GOOD_COMMITTED),
                fresh,
                "--kernel-floor",
                "0",
            )
            == 0
        )
        assert "kernel gate" not in capsys.readouterr().out

    def test_tiny_phases_never_gate(self, tmp_path):
        committed = _baseline(_pair(0.001, 0.004))
        fresh = _baseline(_pair(0.001, 0.004))
        assert _run(tmp_path, committed, fresh) == 0

    def test_no_phase_profile_skips(self, tmp_path, capsys):
        fresh = _baseline(([_w4(None, starved=True)], {}))
        assert _run(tmp_path, _baseline(([], {})), fresh) == 0
        assert "kernel gate: SKIP" in capsys.readouterr().out


class TestHeadlineGate:
    def test_starved_fresh_host_skips_headline_but_keeps_kernel_gate(
        self, tmp_path, capsys
    ):
        fresh = _baseline(_pair(3.0, 1.5), _w4(None, starved=True))
        assert fresh.host_cores == 1
        assert _run(tmp_path, _baseline(GOOD_COMMITTED), fresh) == 1
        out = capsys.readouterr().out
        assert "headline gate: SKIP — lj/b6/w4/flat/anchor is starved" in out
        assert "kernel gate: FAIL" in out

    def test_eligible_host_gates_the_recorded_speedup(self, tmp_path):
        # Committed 2.0x on 4 cores raises the floor to 2.0*(1-0.10) = 1.8x.
        committed = _baseline(GOOD_COMMITTED, _w4(2.0), host_cores=4)
        good = _baseline(_pair(2.0, 0.9), _w4(1.9), host_cores=4)
        assert _run(tmp_path, committed, good) == 0
        bad = _baseline(_pair(2.0, 0.9), _w4(1.6), host_cores=4)
        assert _run(tmp_path, committed, bad) == 1


class TestStarvedHostPaths:
    """Cross-host-class pairings: a 1-core artifact committed from a
    starved dev box meeting a >= 4-core CI run, and the reverse."""

    def test_starved_committed_baseline_gates_fresh_at_fixed_floor(self, tmp_path):
        # Committed on 1 core: its w4 cell is starved and must NOT become
        # the trajectory floor. A fresh 4-core run only answers to the
        # fixed 1.5x floor.
        committed = _baseline(GOOD_COMMITTED, _w4(None, starved=True))
        above = _baseline(_pair(2.0, 0.9), _w4(1.6), host_cores=4)
        assert _run(tmp_path, committed, above) == 0
        below = _baseline(_pair(2.0, 0.9), _w4(1.25), host_cores=4)
        assert _run(tmp_path, committed, below) == 1

    def test_eligible_committed_baseline_starved_fresh_skips(self, tmp_path):
        # The reverse pairing: a 4-core committed artifact re-checked on
        # a starved 1-core host. Headline must SKIP (exit 0 when the
        # kernel gate holds) rather than fail on meaningless timings.
        committed = _baseline(GOOD_COMMITTED, _w4(2.0), host_cores=4)
        fresh = _baseline(_pair(2.0, 0.9), _w4(None, starved=True))
        assert _run(tmp_path, committed, fresh) == 0

    def test_starved_fresh_skip_message(self, tmp_path, capsys):
        committed = _baseline(GOOD_COMMITTED, _w4(2.0), host_cores=4)
        fresh = _baseline(_pair(2.0, 0.9), _w4(None, starved=True))
        assert _run(tmp_path, committed, fresh) == 0
        out = capsys.readouterr().out
        assert "headline gate: SKIP" in out and "host_cores=1" in out


@pytest.mark.parametrize("bad", ["{not json", '{"schema": 99}'])
def test_bad_input_is_exit_2(tmp_path, bad):
    path = tmp_path / "bad.json"
    path.write_text(bad, encoding="utf-8")
    assert gate.main([str(path)]) == 2
