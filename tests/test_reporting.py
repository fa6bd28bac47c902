"""Tests for the experiment reporting primitives."""

import pytest

from repro.experiments.reporting import BarChart, ExperimentResult, PerfBaseline, Table


class TestTable:
    def test_format_alignment(self):
        table = Table(
            title="T", headers=["name", "value"], rows=[["a", 1], ["long-name", 22]]
        )
        lines = table.format().splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("name")
        # separator matches header width
        assert set(lines[2].replace("  ", "")) == {"-"}
        assert "long-name" in lines[4]

    def test_float_formatting(self):
        table = Table(title="T", headers=["x"], rows=[[1.23456]])
        assert "1.235" in table.format()

    def test_empty_rows(self):
        table = Table(title="T", headers=["a"])
        assert table.format().splitlines()[0] == "T"


class TestBarChart:
    def test_bars_scale_to_max(self):
        chart = BarChart(title="C", values={"a": 10.0, "b": 5.0}, width=10)
        lines = chart.format().splitlines()
        assert lines[1].count("#") == 10
        assert lines[2].count("#") == 5

    def test_empty(self):
        assert "(empty)" in BarChart(title="C").format()

    def test_zero_values(self):
        chart = BarChart(title="C", values={"a": 0.0})
        assert chart.format().splitlines()[1].count("#") == 0


class TestExperimentResult:
    def test_format_combines_sections(self):
        result = ExperimentResult(
            name="demo",
            tables=[Table(title="T", headers=["h"], rows=[[1]])],
            charts=[BarChart(title="C", values={"a": 1.0})],
            notes=["be careful"],
        )
        text = result.format()
        assert "=== demo ===" in text
        assert "T" in text and "C" in text
        assert "note: be careful" in text

    def test_data_defaults_empty(self):
        assert ExperimentResult(name="x").data == {}


class TestJsonExport:
    def test_to_json_roundtrips(self):
        import json

        result = ExperimentResult(
            name="demo",
            tables=[Table(title="T", headers=["h", "x"], rows=[[1, frozenset({2})]])],
            notes=["n"],
        )
        payload = json.loads(result.to_json())
        assert payload["name"] == "demo"
        assert payload["tables"][0]["rows"][0][0] == 1
        assert isinstance(payload["tables"][0]["rows"][0][1], str)
        assert payload["notes"] == ["n"]


class TestPerfBaseline:
    def _baseline(self):
        return PerfBaseline(
            name="grid",
            dataset="toy",
            num_vertices=10,
            num_edges=20,
            mode="smoke",
            best_of=3,
            host_cores=4,
        )

    def test_json_roundtrip(self, tmp_path):
        import json

        baseline = self._baseline()
        baseline.notes.append("a note")
        path = baseline.write(tmp_path / "baseline.json")
        payload = json.loads(path.read_text())
        assert payload["schema"] == 5
        assert payload["mode"] == "smoke"
        assert payload["phases"] == []
        assert payload["host_cores"] == 4
        assert payload["dataset"] == {
            "name": "toy",
            "num_vertices": 10,
            "num_edges": 20,
        }
        assert payload["notes"] == ["a note"]
        assert payload["grid"] is None and payload["cells"] == []

    def test_load_round_trips_current_schema(self, tmp_path):
        baseline = self._baseline()
        loaded = PerfBaseline.load(baseline.write(tmp_path / "BENCH_grid.json"))
        assert loaded == baseline

    def test_load_rejects_unknown_schema(self, tmp_path):
        import json

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "schema": 99}), encoding="utf-8")
        with pytest.raises(ValueError, match="schema"):
            PerfBaseline.load(path)


class TestPerfBaselineSchemaMatrix:
    """The full load() contract: schema 5 loads, everything else is a
    one-line ValueError naming the offending file."""

    def _schema5(self) -> PerfBaseline:
        baseline = PerfBaseline(
            name="grid",
            dataset="toy",
            num_vertices=10,
            num_edges=20,
            host_cores=4,
        )
        baseline.grid = {"name": "g", "spec_schema": 1}
        baseline.cells = [
            {
                "cell": "toy/b1/w0/flat/anchor",
                "dataset": "toy",
                "budget": 1,
                "workers": 0,
                "kernel": "flat",
                "strategy": "anchor",
                "repeats": 3,
                "wall_s": {"min": 0.1, "median": 0.1, "max": 0.1, "spread": 0.0},
                "scan_s": {"min": 0.05, "median": 0.05, "max": 0.05, "spread": 0.0},
                "speedup": None,
            }
        ]
        return baseline

    def test_schema5_roundtrips_cells_and_grid(self, tmp_path):
        baseline = self._schema5()
        loaded = PerfBaseline.load(baseline.write(tmp_path / "BENCH_grid.json"))
        assert loaded.schema == 5
        assert loaded.grid == baseline.grid
        assert loaded.cells == baseline.cells

    def test_payload_carries_no_legacy_keys(self, tmp_path):
        import json

        payload = json.loads(
            self._schema5().write(tmp_path / "BENCH_grid.json").read_text()
        )
        assert not {"labels", "csr_build_s", "primitives"} & set(payload)

    @pytest.mark.parametrize("schema", [5])
    def test_every_supported_schema_loads(self, tmp_path, schema):
        import json

        payload = {
            "name": "b",
            "schema": schema,
            "mode": "full",
            "dataset": {"name": "toy", "num_vertices": 10, "num_edges": 20},
            "best_of": 3,
            "host_cores": 4,
            "phases": [],
            "notes": [],
            "cells": [],
            "grid": None,
        }
        path = tmp_path / "b.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert PerfBaseline.load(path).schema == schema

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("{truncated", "not valid JSON"),
            ("[1, 2]", "not a JSON object"),
            ('{"schema": 5}', "name"),
            ('{"name": "x", "schema": null}', "schema None"),
            ('{"name": "x", "schema": 2}', "schema 2"),
            ('{"name": "x", "schema": 3}', "schema 3"),
            (
                '{"name": "gac-parallel-scan-baseline", "schema": 4, '
                '"labels": ["serial_s", "parallel_s"], "host_cores": 1, '
                '"primitives": [], "phases": [], "notes": []}',
                "schema 4",
            ),
            ('{"name": "x", "schema": 6}', "schema 6"),
            ('{"name": "x", "schema": 5.0}', "schema 5.0"),
            ('{"name": "x", "schema": 5, "dataset": "toy"}', "dataset"),
            (
                '{"name": "x", "schema": 5, '
                '"dataset": {"name": "t", "num_vertices": "1"}}',
                "dataset",
            ),
            ('{"schema": 5, "name": "x", "best_of": null}', "best_of"),
            ('{"schema": 5, "name": "x", "best_of": 2.5}', "best_of"),
            ('{"schema": 5, "name": "x", "host_cores": "four"}', "host_cores"),
            ('{"schema": 5, "name": "x", "host_cores": true}', "host_cores"),
            ('{"schema": 5, "name": "x", "cells": 5}', "cells"),
            ('{"schema": 5, "name": "x", "cells": [1]}', "cells"),
            ('{"schema": 5, "name": "x", "phases": {}}', "phases"),
            ('{"schema": 5, "name": "x", "notes": "n"}', "notes"),
        ],
    )
    def test_rejections_are_one_line_valueerrors(self, tmp_path, text, fragment):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as err:
            PerfBaseline.load(path)
        message = str(err.value)
        assert fragment in message
        assert "\n" not in message
        assert str(path) in message
