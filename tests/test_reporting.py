"""Tests for the experiment reporting primitives."""

from repro.experiments.reporting import BarChart, ExperimentResult, Table


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
