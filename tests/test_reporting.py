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
        baseline = PerfBaseline(
            name="substrate-perf-baseline",
            dataset="toy",
            num_vertices=10,
            num_edges=20,
            mode="smoke",
            best_of=3,
        )
        baseline.record("bucket_decomposition", 0.04, 0.01)
        baseline.record("zero_guard", 0.5, 0.0)
        return baseline

    def test_record_and_speedup(self):
        baseline = self._baseline()
        speedup = baseline.speedup("bucket_decomposition")
        assert speedup == 4.0  # lint: float-eq-ok round(3) exact
        assert baseline.speedup("zero_guard") is None  # fast_s == 0 guarded
        assert baseline.speedup("missing") is None

    def test_json_roundtrip(self, tmp_path):
        import json

        baseline = self._baseline()
        baseline.csr_build_s = 0.002
        baseline.notes.append("a note")
        path = baseline.write(tmp_path / "baseline.json")
        payload = json.loads(path.read_text())
        assert payload["schema"] == 4
        assert payload["mode"] == "smoke"
        assert payload["phases"] == []
        assert payload["labels"] == ["dict_s", "csr_s"]
        assert payload["host_cores"] is None
        assert payload["dataset"] == {
            "name": "toy",
            "num_vertices": 10,
            "num_edges": 20,
        }
        assert payload["csr_build_s"] == 0.002  # lint: float-eq-ok exact json
        assert payload["primitives"][0] == {
            "primitive": "bucket_decomposition",
            "dict_s": 0.04,
            "csr_s": 0.01,
            "speedup": 4.0,
        }
        assert payload["notes"] == ["a note"]

    def test_as_table(self):
        table = self._baseline().as_table()
        assert "toy" in table.title
        assert table.headers == ["primitive", "dict_s", "csr_s", "speedup"]
        assert len(table.rows) == 2

    def test_custom_labels_name_the_columns(self):
        baseline = PerfBaseline(
            name="gac-parallel-baseline",
            dataset="toy",
            num_vertices=10,
            num_edges=20,
            labels=("serial_s", "parallel_s"),
            host_cores=4,
        )
        entry = baseline.record("candidate_scan_w4", 2.0, 1.0)
        assert entry == {
            "primitive": "candidate_scan_w4",
            "serial_s": 2.0,
            "parallel_s": 1.0,
            "speedup": 2.0,
        }
        table = baseline.as_table()
        assert table.headers == ["primitive", "serial_s", "parallel_s", "speedup"]

    def test_load_round_trips_current_schema(self, tmp_path):
        baseline = PerfBaseline(
            name="gac-parallel-baseline",
            dataset="toy",
            num_vertices=10,
            num_edges=20,
            labels=("serial_s", "parallel_s"),
            host_cores=4,
        )
        baseline.record("candidate_scan_w4", 2.0, 1.0)
        path = baseline.write(tmp_path / "BENCH_gac.json")
        loaded = PerfBaseline.load(path)
        assert loaded.labels == ("serial_s", "parallel_s")
        assert loaded.host_cores == 4
        assert loaded.speedup("candidate_scan_w4") == 2.0  # lint: float-eq-ok round(3) exact
        assert loaded.primitives == baseline.primitives

    def test_record_starved_writes_null_not_a_time(self):
        baseline = PerfBaseline(
            name="gac-parallel-baseline",
            dataset="toy",
            num_vertices=10,
            num_edges=20,
            labels=("serial_s", "parallel_s"),
            host_cores=1,
        )
        entry = baseline.record_starved("candidate_scan_w4", 2.0)
        assert entry == {
            "primitive": "candidate_scan_w4",
            "serial_s": 2.0,
            "parallel_s": None,
            "speedup": None,
            "starved": True,
        }
        # The gate's reader sees "no usable speedup", not a bogus one.
        assert baseline.speedup("candidate_scan_w4") is None

    def test_load_round_trips_schema4_starved_entry(self, tmp_path):
        baseline = PerfBaseline(
            name="gac-parallel-baseline",
            dataset="toy",
            num_vertices=10,
            num_edges=20,
            labels=("serial_s", "parallel_s"),
            host_cores=1,
        )
        baseline.record_starved("candidate_scan_w2", 2.0)
        loaded = PerfBaseline.load(baseline.write(tmp_path / "BENCH_gac.json"))
        assert loaded.schema == 4
        assert loaded.primitives == baseline.primitives

    def test_load_accepts_schema3(self, tmp_path):
        import json

        payload = {
            "name": "gac-parallel-baseline",
            "schema": 3,
            "mode": "full",
            "dataset": {"name": "toy", "num_vertices": 10, "num_edges": 20},
            "best_of": 3,
            "labels": ["serial_s", "parallel_s"],
            "host_cores": 4,
            "csr_build_s": None,
            "primitives": [
                {"primitive": "p", "serial_s": 0.4, "parallel_s": 0.1, "speedup": 4.0}
            ],
            "phases": [],
            "notes": [],
        }
        path = tmp_path / "old.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        loaded = PerfBaseline.load(path)
        assert loaded.schema == 3
        assert loaded.speedup("p") == 4.0  # lint: float-eq-ok exact json

    def test_load_accepts_schema2_with_implicit_labels(self, tmp_path):
        import json

        payload = {
            "name": "substrate-perf-baseline",
            "schema": 2,
            "mode": "full",
            "dataset": {"name": "toy", "num_vertices": 10, "num_edges": 20},
            "best_of": 3,
            "csr_build_s": None,
            "primitives": [
                {"primitive": "p", "dict_s": 0.4, "csr_s": 0.1, "speedup": 4.0}
            ],
            "phases": [],
            "notes": [],
        }
        path = tmp_path / "old.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        loaded = PerfBaseline.load(path)
        assert loaded.labels == ("dict_s", "csr_s")
        assert loaded.host_cores is None
        assert loaded.speedup("p") == 4.0  # lint: float-eq-ok exact json

    def test_load_rejects_unknown_schema(self, tmp_path):
        import json

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "schema": 99}), encoding="utf-8")
        with pytest.raises(ValueError, match="schema"):
            PerfBaseline.load(path)


class TestPerfBaselineSchemaMatrix:
    """The full load() contract: schemas 2-5 load, everything else is a
    one-line ValueError naming the offending file."""

    def _schema5(self) -> PerfBaseline:
        baseline = PerfBaseline(
            name="grid",
            dataset="toy",
            num_vertices=10,
            num_edges=20,
            schema=5,
            labels=("serial_s", "parallel_s"),
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

    def test_schema4_payload_omits_grid_keys(self, tmp_path):
        import json

        baseline = PerfBaseline(
            name="gac", dataset="toy", num_vertices=10, num_edges=20
        )
        payload = json.loads(
            (baseline.write(tmp_path / "BENCH_gac.json")).read_text()
        )
        assert "cells" not in payload and "grid" not in payload

    @pytest.mark.parametrize("schema", [2, 3, 4, 5])
    def test_every_supported_schema_loads(self, tmp_path, schema):
        import json

        payload = {
            "name": "b",
            "schema": schema,
            "mode": "full",
            "dataset": {"name": "toy", "num_vertices": 10, "num_edges": 20},
            "best_of": 3,
            "csr_build_s": None,
            "primitives": [],
            "phases": [],
            "notes": [],
        }
        if schema >= 3:
            payload["labels"] = ["serial_s", "parallel_s"]
            payload["host_cores"] = 4
        if schema >= 5:
            payload["cells"] = []
            payload["grid"] = None
        path = tmp_path / "b.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert PerfBaseline.load(path).schema == schema

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("{truncated", "not valid JSON"),
            ("[1, 2]", "not a JSON object"),
            ('{"schema": 4}', "name"),
            ('{"name": "x", "schema": null}', "schema"),
            ('{"name": "x", "schema": 6}', "schema"),
            (
                '{"name": "x", "schema": 4, "dataset": "toy"}',
                "dataset",
            ),
            (
                '{"name": "x", "schema": 4, '
                '"dataset": {"name": "t", "num_vertices": 1, "num_edges": 1}, '
                '"labels": ["only-one"]}',
                "labels",
            ),
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
