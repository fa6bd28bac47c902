"""Tests for repro.bench — the workload-grid runner and its gate.

Covers the grid-spec grammar, the runner's identity/starvation and
checked-gain contracts, the schema-5 gate rules (headline per-cell
speedup with host-class trajectories, kernel reference-pair floors,
starved skips), and the CLI's exit-code contract (0 pass / 1
regression, identity or gain-check failure / 2 bad input). A
slow-marked smoke test drives ``python -m repro.bench run`` + ``gate``
end-to-end in a subprocess on a two-cell toy grid.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import GridSpec, load_grid, run_grid
from repro.bench import gate as bench_gate
from repro.bench import runner as bench_runner
from repro.bench.__main__ import main as bench_main
from repro.experiments.reporting import PerfBaseline

REPO_ROOT = Path(__file__).resolve().parent.parent


def _write_spec(path: Path, **overrides) -> Path:
    payload = {
        "name": "toy-grid",
        "spec_schema": 1,
        "best_of": 2,
        "axes": {
            "datasets": ["brightkite"],
            "budgets": [2],
            "workers": [0, 2],
            "kernels": ["flat"],
            "strategies": ["anchor"],
        },
        "serial_kernels": ["dict"],
    }
    payload.update(overrides)
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestGridSpec:
    def test_load_and_cell_order(self, tmp_path):
        spec = load_grid(_write_spec(tmp_path / "g.json"))
        assert spec.name == "toy-grid" and spec.best_of == 2
        ids = [c.cell_id for c in spec.cells()]
        # Serial default-kernel reference first, then the serial
        # reference kernel, then parallel cells workers-ascending.
        assert ids == [
            "brightkite/b2/w0/flat/anchor",
            "brightkite/b2/w0/dict/anchor",
            "brightkite/b2/w2/flat/anchor",
        ]

    def test_reference_cell(self, tmp_path):
        spec = load_grid(_write_spec(tmp_path / "g.json"))
        for cell in spec.cells():
            assert spec.reference(cell).cell_id == "brightkite/b2/w0/flat/anchor"

    def test_smoke_shrink(self, tmp_path):
        spec = load_grid(
            _write_spec(
                tmp_path / "g.json",
                axes={
                    "datasets": ["brightkite", "livejournal"],
                    "budgets": [2, 6],
                    "workers": [0, 2, 4],
                    "kernels": ["flat"],
                    "strategies": ["anchor"],
                },
            )
        )
        smoke = spec.smoke()
        assert smoke.best_of == 1
        assert smoke.datasets == ("brightkite",)
        assert smoke.budgets == (2,)
        assert smoke.workers == (0, 2)
        # The kernel gate's A/B reference leg survives the shrink.
        assert smoke.serial_kernels == ("dict",)

    def test_spec_roundtrip_through_as_dict(self, tmp_path):
        spec = load_grid(_write_spec(tmp_path / "g.json"))
        echoed = tmp_path / "echo.json"
        echoed.write_text(json.dumps(spec.as_dict()), encoding="utf-8")
        assert load_grid(echoed) == spec

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            ({"spec_schema": 2}, "unsupported spec_schema"),
            ({"name": ""}, "'name'"),
            ({"best_of": 0}, "'best_of'"),
            ({"best_of": True}, "'best_of'"),
            ({"axes": {"datasets": ["a"]}}, "axes.budgets"),
            (
                {
                    "axes": {
                        "datasets": [],
                        "budgets": [1],
                        "workers": [0],
                        "kernels": ["flat"],
                        "strategies": ["anchor"],
                    }
                },
                "axes.datasets",
            ),
            (
                {
                    "axes": {
                        "datasets": ["a", "a"],
                        "budgets": [1],
                        "workers": [0],
                        "kernels": ["flat"],
                        "strategies": ["anchor"],
                    }
                },
                "duplicates",
            ),
            (
                {
                    "axes": {
                        "datasets": ["a"],
                        "budgets": [1],
                        "workers": [2],
                        "kernels": ["flat"],
                        "strategies": ["anchor"],
                    }
                },
                "must include 0",
            ),
            (
                {
                    "axes": {
                        "datasets": ["a"],
                        "budgets": [0],
                        "workers": [0],
                        "kernels": ["flat"],
                        "strategies": ["anchor"],
                    }
                },
                "budgets must be >= 1",
            ),
            (
                {
                    "axes": {
                        "datasets": ["a"],
                        "budgets": [1],
                        "workers": [0],
                        "kernels": ["flat"],
                        "strategies": ["edge-addition"],
                    }
                },
                "unknown strategy",
            ),
            (
                {
                    "axes": {
                        "datasets": ["a"],
                        "budgets": [1],
                        "workers": [0],
                        "kernels": ["flat"],
                        "strategies": ["anchor"],
                        "bogus": [1],
                    }
                },
                "unknown axes",
            ),
            ({"serial_kernels": ["flat"]}, "duplicates kernels"),
        ],
    )
    def test_invalid_specs_fail_loudly(self, tmp_path, overrides, fragment):
        path = _write_spec(tmp_path / "g.json", **overrides)
        with pytest.raises(ValueError, match="grid spec"):
            try:
                load_grid(path)
            except ValueError as exc:
                assert fragment in str(exc)
                raise

    def test_garbled_json_fails_loudly(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_grid(path)

    def test_committed_grid_spec_parses(self):
        spec = load_grid(REPO_ROOT / "benchmarks" / "grids" / "gac_grid.json")
        assert 0 in spec.workers and "dict" in spec.serial_kernels
        assert spec.strategies == ("anchor",)


class TestRunner:
    def test_unknown_kernel_rejected_before_any_run(self):
        spec = GridSpec(
            name="t",
            best_of=1,
            datasets=("brightkite",),
            budgets=(1,),
            workers=(0,),
            kernels=("bogus",),
            strategies=("anchor",),
        )
        with pytest.raises(ValueError, match="unknown kernel"):
            run_grid(spec)

    def test_single_serial_cell_grid(self, tmp_path):
        spec = GridSpec(
            name="tiny",
            best_of=2,
            datasets=("brightkite",),
            budgets=(1,),
            workers=(0,),
            kernels=("flat",),
            strategies=("anchor",),
        )
        baseline = run_grid(spec, trace_out=tmp_path / "trace.json")
        assert baseline.schema == 5
        assert baseline.grid == spec.as_dict()
        (cell,) = baseline.cells
        assert cell["cell"] == "brightkite/b1/w0/flat/anchor"
        assert cell["repeats"] == 2
        stats = cell["wall_s"]
        assert set(stats) == {"min", "median", "max", "spread"}
        assert stats["min"] <= stats["median"] <= stats["max"]
        assert cell["speedup"] is None and "starved" not in cell
        # Phases land under the cell's namespace, including the
        # kernel-labeled follower search.
        names = {e["phase"] for e in baseline.phases}
        assert "brightkite/b1/w0/flat/anchor/gac.run" in names
        assert "brightkite/b1/w0/flat/anchor/followers.search[flat]" in names
        assert (tmp_path / "trace.json").exists()
        # Round-trips through the schema-5 loader.
        out = tmp_path / "b.json"
        baseline.write(out)
        loaded = PerfBaseline.load(out)
        assert loaded.cells == baseline.cells
        assert loaded.grid == baseline.grid


def _grid_baseline(
    host_cores: int = 4,
    cells: "list[dict] | None" = None,
    phases: "dict[str, tuple[float, int]] | None" = None,
) -> PerfBaseline:
    baseline = PerfBaseline(
        name="grid",
        dataset="toy",
        num_vertices=10,
        num_edges=20,
        host_cores=host_cores,
    )
    baseline.cells = cells if cells is not None else []
    for name, (total, calls) in (phases or {}).items():
        baseline.phases.append(
            {"phase": name, "calls": calls, "total_s": total, "self_s": total}
        )
    return baseline


def _w4_cell(speedup: "float | None" = 2.0, starved: bool = False) -> dict:
    cell = {
        "cell": "lj/b6/w4/flat/anchor",
        "dataset": "lj",
        "budget": 6,
        "workers": 4,
        "kernel": "flat",
        "strategy": "anchor",
        "repeats": 3,
        "wall_s": None if starved else {"min": 1.0, "median": 1.1, "max": 1.2, "spread": 0.2},
        "scan_s": None if starved else {"min": 0.5, "median": 0.6, "max": 0.7, "spread": 0.2},
        "speedup": None if starved else speedup,
    }
    if starved:
        cell["starved"] = True
    return cell


def _serial_cells_with_pair(
    dict_s: float, flat_s: float, calls: int = 100, dataset: str = "lj", budget: int = 6
) -> "tuple[list[dict], dict[str, tuple[float, int]]]":
    cells = []
    phases = {}
    for kernel, total in (("flat", flat_s), ("dict", dict_s)):
        cell_id = f"{dataset}/b{budget}/w0/{kernel}/anchor"
        cells.append(
            {
                "cell": cell_id,
                "dataset": dataset,
                "budget": budget,
                "workers": 0,
                "kernel": kernel,
                "strategy": "anchor",
                "repeats": 3,
                "wall_s": {"min": total, "median": total, "max": total, "spread": 0.0},
                "scan_s": {"min": total, "median": total, "max": total, "spread": 0.0},
                "speedup": None,
            }
        )
        phases[f"{cell_id}/followers.search[{kernel}]"] = (total, calls)
    return cells, phases


def _run_grid_gate(
    tmp_path: Path,
    committed: "PerfBaseline | None",
    fresh: PerfBaseline,
    *extra: str,
) -> int:
    fresh_path = tmp_path / "fresh.json"
    fresh.write(fresh_path)
    argv = [str(fresh_path)]
    if committed is not None:
        committed_path = tmp_path / "committed.json"
        committed.write(committed_path)
        argv += ["--committed", str(committed_path)]
    else:
        argv += ["--committed", str(tmp_path / "absent.json")]
    return bench_gate.main(argv + list(extra))


class TestGridHeadlineGate:
    def test_pass_at_fixed_floor(self, tmp_path):
        fresh = _grid_baseline(cells=[_w4_cell(1.6)])
        assert _run_grid_gate(tmp_path, None, fresh) == 0

    def test_fail_below_fixed_floor(self, tmp_path):
        fresh = _grid_baseline(cells=[_w4_cell(1.2)])
        assert _run_grid_gate(tmp_path, None, fresh) == 1

    def test_starved_cell_skips_not_fails(self, tmp_path):
        fresh = _grid_baseline(host_cores=1, cells=[_w4_cell(starved=True)])
        assert _run_grid_gate(tmp_path, None, fresh) == 0

    def test_eligible_cell_without_speedup_fails(self, tmp_path):
        fresh = _grid_baseline(cells=[_w4_cell(None)])
        assert _run_grid_gate(tmp_path, None, fresh) == 1

    def test_trajectory_only_up_same_host_class(self, tmp_path):
        committed = _grid_baseline(host_cores=4, cells=[_w4_cell(3.0)])
        # 3.0x * 0.9 = 2.7x floor; 2.0x fresh fails despite clearing 1.5x.
        fresh = _grid_baseline(host_cores=4, cells=[_w4_cell(2.0)])
        assert _run_grid_gate(tmp_path, committed, fresh) == 1
        improved = _grid_baseline(host_cores=4, cells=[_w4_cell(2.8)])
        assert _run_grid_gate(tmp_path, committed, improved) == 0

    def test_different_host_class_never_gates_trajectory(self, tmp_path):
        committed = _grid_baseline(host_cores=8, cells=[_w4_cell(3.0)])
        fresh = _grid_baseline(host_cores=4, cells=[_w4_cell(2.0)])
        assert _run_grid_gate(tmp_path, committed, fresh) == 0

    def test_starved_committed_cell_contributes_nothing(self, tmp_path):
        committed = _grid_baseline(host_cores=4, cells=[_w4_cell(starved=True)])
        fresh = _grid_baseline(host_cores=4, cells=[_w4_cell(1.6)])
        assert _run_grid_gate(tmp_path, committed, fresh) == 0

    def test_no_gateable_cells_skips(self, tmp_path):
        cells, phases = _serial_cells_with_pair(2.0, 1.0)
        fresh = _grid_baseline(cells=cells, phases=phases)
        assert _run_grid_gate(tmp_path, None, fresh) == 0

    def test_min_workers_knob(self, tmp_path):
        cell = _w4_cell(1.2)
        cell["cell"] = "lj/b6/w2/flat/anchor"
        cell["workers"] = 2
        fresh = _grid_baseline(cells=[cell])
        assert _run_grid_gate(tmp_path, None, fresh) == 0
        assert _run_grid_gate(tmp_path, None, fresh, "--min-workers", "2") == 1


class TestGridKernelGate:
    def test_reference_pair_holds_floor(self, tmp_path):
        cells, phases = _serial_cells_with_pair(2.0, 1.0)
        fresh = _grid_baseline(cells=cells, phases=phases)
        assert _run_grid_gate(tmp_path, None, fresh) == 0

    def test_reference_pair_below_floor_fails(self, tmp_path):
        cells, phases = _serial_cells_with_pair(1.5, 1.0)
        fresh = _grid_baseline(cells=cells, phases=phases)
        assert _run_grid_gate(tmp_path, None, fresh) == 1

    def test_committed_reference_below_floor_fails(self, tmp_path):
        bad_cells, bad_phases = _serial_cells_with_pair(1.5, 1.0)
        committed = _grid_baseline(cells=bad_cells, phases=bad_phases)
        good_cells, good_phases = _serial_cells_with_pair(2.0, 1.0)
        fresh = _grid_baseline(cells=good_cells, phases=good_phases)
        assert _run_grid_gate(tmp_path, committed, fresh) == 1

    def test_small_pairs_are_report_only(self, tmp_path):
        # Both legs under the 0.25s reference floor: ratio 1.2x would
        # fail the floor, but the pair carries no acceptance criterion.
        cells, phases = _serial_cells_with_pair(0.12, 0.10)
        fresh = _grid_baseline(cells=cells, phases=phases)
        assert _run_grid_gate(tmp_path, None, fresh) == 0

    def test_reference_trajectory_only_up_same_workload(self, tmp_path):
        committed_cells, committed_phases = _serial_cells_with_pair(3.0, 1.0)
        committed = _grid_baseline(cells=committed_cells, phases=committed_phases)
        # Fresh flat slowed to 1.5s: committed dict 3.0 / fresh flat 1.5
        # = 2.0x, under the 3.0 * (1 - 0.25) = 2.25x trajectory floor.
        fresh_cells, fresh_phases = _serial_cells_with_pair(3.0, 1.5)
        fresh = _grid_baseline(cells=fresh_cells, phases=fresh_phases)
        assert _run_grid_gate(tmp_path, committed, fresh) == 1

    def test_reference_trajectory_skips_across_host_classes(self, tmp_path):
        committed_cells, committed_phases = _serial_cells_with_pair(3.0, 1.0)
        committed = _grid_baseline(
            host_cores=1, cells=committed_cells, phases=committed_phases
        )
        fresh_cells, fresh_phases = _serial_cells_with_pair(3.0, 1.5)
        fresh = _grid_baseline(
            host_cores=4, cells=fresh_cells, phases=fresh_phases
        )
        # Cross-host wall-clock never gates; both in-run pairs hold the
        # floor (3.0x and 2.0x), so the verdict is PASS.
        assert _run_grid_gate(tmp_path, committed, fresh) == 0

    def test_zero_floor_disables(self, tmp_path):
        cells, phases = _serial_cells_with_pair(1.5, 1.0)
        fresh = _grid_baseline(cells=cells, phases=phases)
        assert _run_grid_gate(tmp_path, None, fresh, "--kernel-floor", "0") == 0

    def test_self_gate_is_clean(self, tmp_path):
        cells, phases = _serial_cells_with_pair(2.0, 1.0)
        fresh = _grid_baseline(cells=cells + [_w4_cell(2.0)], phases=phases)
        assert _run_grid_gate(tmp_path, fresh, fresh) == 0


def test_gate_accepts_the_committed_repo_artifact(monkeypatch):
    """Run from the repo root with no ``--committed``, the gate defaults
    to the checked-in artifact and must accept it gated against itself."""
    monkeypatch.chdir(REPO_ROOT)
    assert bench_gate.main(["BENCH_grid.json"]) == 0


def test_grid_gate_accepts_the_committed_grid_artifact():
    """Committing a BENCH_grid.json that fails its own gate breaks CI —
    gate the checked-in artifact against itself as a repo invariant."""
    committed = REPO_ROOT / "BENCH_grid.json"
    assert (
        bench_gate.main([str(committed), "--committed", str(committed)]) == 0
    )


class TestCLI:
    def test_run_unreadable_grid_exits_2(self, tmp_path, capsys):
        assert bench_main(["run", "--grid", str(tmp_path / "nope.json")]) == 2

    def test_run_malformed_grid_exits_2(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text("{truncated", encoding="utf-8")
        assert bench_main(["run", "--grid", str(path)]) == 2

    def test_run_unknown_dataset_exits_2(self, tmp_path):
        spec = _write_spec(
            tmp_path / "g.json",
            axes={
                "datasets": ["atlantis"],
                "budgets": [1],
                "workers": [0],
                "kernels": ["flat"],
                "strategies": ["anchor"],
            },
        )
        assert bench_main(["run", "--grid", str(spec)]) == 2

    def test_gate_bad_inputs_exit_2(self, tmp_path, capsys):
        legacy = json.dumps(
            {
                "name": "gac-parallel-scan-baseline",
                "schema": 4,
                "labels": ["serial_s", "parallel_s"],
                "host_cores": 1,
                "primitives": [],
                "phases": [],
                "notes": [],
            }
        )
        for bad in (
            "{not json",
            '{"schema": 99}',
            '{"schema": 5}',
            legacy,
            '{"schema": 5, "name": "x", "best_of": null}',
            '{"schema": 5, "name": "x", "cells": 5}',
            '{"schema": 5, "name": "x", "phases": [1]}',
            '{"schema": 5, "name": "x", "host_cores": "four"}',
            '{"schema": 5, "name": "x", "notes": "n"}',
        ):
            path = tmp_path / "bad.json"
            path.write_text(bad, encoding="utf-8")
            assert bench_main(["gate", str(path)]) == 2, bad
            out = capsys.readouterr().out
            assert out.startswith("bench gate: cannot read fresh baseline:")
            assert out.count("\n") == 1, out
            if bad is legacy:
                assert "unsupported PerfBaseline schema 4" in out

    def test_run_gain_mismatch_exits_1_without_artifact(
        self, tmp_path, monkeypatch, capsys
    ):
        grid = _write_spec(
            tmp_path / "g.json",
            best_of=1,
            axes={
                "datasets": ["brightkite"],
                "budgets": [1],
                "workers": [0],
                "kernels": ["flat"],
                "strategies": ["anchor"],
            },
            serial_kernels=[],
        )
        monkeypatch.setattr(bench_runner, "reference_gain", lambda *a: -1)
        out = tmp_path / "out.json"
        argv = ["run", "--grid", str(grid), "--out", str(out)]
        argv += ["--trace-out", str(tmp_path / "trace.json")]
        assert bench_main(argv) == 1
        assert not out.exists()
        assert "GAIN CHECK FAILURE" in capsys.readouterr().err


@pytest.mark.slow
def test_bench_run_and_gate_end_to_end(tmp_path):
    """Satellite: drive ``python -m repro.bench run`` in a subprocess on
    a two-cell toy grid and gate the fresh artifact against itself."""
    grid = _write_spec(
        tmp_path / "toy.json",
        best_of=2,
        axes={
            "datasets": ["brightkite"],
            "budgets": [2],
            "workers": [0],
            "kernels": ["flat"],
            "strategies": ["anchor"],
        },
    )
    out = tmp_path / "BENCH_grid.json"
    trace = tmp_path / "trace.json"
    env = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}
    run = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.bench",
            "run",
            "--grid",
            str(grid),
            "--out",
            str(out),
            "--trace-out",
            str(trace),
        ],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )
    assert run.returncode == 0, run.stderr
    baseline = PerfBaseline.load(out)
    assert baseline.schema == 5
    ids = [c["cell"] for c in baseline.cells]
    assert ids == [
        "brightkite/b2/w0/flat/anchor",
        "brightkite/b2/w0/dict/anchor",
    ]
    assert all(c["repeats"] == 2 for c in baseline.cells)
    assert trace.exists()
    gate = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.bench",
            "gate",
            str(out),
            "--committed",
            str(out),
        ],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )
    assert gate.returncode == 0, gate.stdout + gate.stderr
