"""Plain-text reporting for experiment results.

Every experiment runner returns an :class:`ExperimentResult` — one or
more ASCII tables mirroring the rows/series the paper's tables and
figures report, plus a raw ``data`` dict for programmatic consumers
(tests and benches assert on ``data``, humans read ``format()``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


@dataclass
class Table:
    """One ASCII table: a title, a header row, and data rows."""

    title: str
    headers: list[str]
    rows: list[list[object]] = field(default_factory=list)

    def format(self) -> str:
        """Render with column widths fitted to the content."""
        cells = [[_cell(v) for v in row] for row in self.rows]
        widths = [len(h) for h in self.headers]
        for row in cells:
            for i, value in enumerate(row):
                widths[i] = max(widths[i], len(value))
        lines = [self.title]
        lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(self.headers)))
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append("  ".join(v.ljust(widths[i]) for i, v in enumerate(row)))
        return "\n".join(lines)


@dataclass
class BarChart:
    """A horizontal ASCII bar chart (for figure-style artifacts)."""

    title: str
    values: dict[str, float] = field(default_factory=dict)
    width: int = 50

    def format(self) -> str:
        lines = [self.title]
        if not self.values:
            return self.title + "\n(empty)"
        top = max(self.values.values())
        label_width = max(len(str(label)) for label in self.values)
        for label, value in self.values.items():
            filled = 0 if top <= 0 else round(value / top * self.width)
            bar = "#" * filled
            lines.append(f"{str(label).ljust(label_width)}  {_cell(value):>10s} |{bar}")
        return "\n".join(lines)


@dataclass
class ExperimentResult:
    """Structured outcome of one experiment runner.

    Attributes:
        name: experiment id (e.g. ``"fig6"``).
        tables: printable tables (the paper's rows/series).
        charts: printable bar charts (figure-style views of the same data).
        notes: free-text caveats (scaling, substitutions).
        data: raw values for programmatic assertions.
    """

    name: str
    tables: list[Table] = field(default_factory=list)
    charts: list[BarChart] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    def format(self) -> str:
        parts = [f"=== {self.name} ==="]
        for table in self.tables:
            parts.append(table.format())
        for chart in self.charts:
            parts.append(chart.format())
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n\n".join(parts)

    def to_json(self) -> str:
        """A machine-readable dump of the tables (for artifact pipelines).

        Non-JSON-native cell values (dataclasses, sets, vertices) are
        stringified; the raw ``data`` dict is intentionally omitted as
        it may hold arbitrary Python objects — consumers wanting exact
        values should use ``data`` in-process.
        """
        payload = {
            "name": self.name,
            "notes": list(self.notes),
            "tables": [
                {
                    "title": t.title,
                    "headers": list(t.headers),
                    "rows": [[_jsonable(v) for v in row] for row in t.rows],
                }
                for t in self.tables
            ],
        }
        return json.dumps(payload, indent=1)


def _jsonable(value: object) -> object:
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


@dataclass
class PerfBaseline:
    """Machine-readable perf baseline: the schema-5 workload-grid artifact.

    Written to ``BENCH_grid.json`` by :mod:`repro.bench`: ``grid``
    echoes the grid spec the runner swept, ``cells`` holds one entry
    per dataset × budget × workers × kernel × strategy cell with
    variance-aware wall/scan statistics (min/median/max/spread over the
    recorded repeats), and per-cell phase profiles land in ``phases``
    under a ``<cell>/`` prefix (see ``docs/benchmarking.md``).
    ``schema`` is bumped whenever the JSON layout changes so consumers
    detect drift instead of misreading it.
    """

    name: str
    dataset: str
    num_vertices: int
    num_edges: int
    mode: str = "full"
    best_of: int = 1
    schema: int = 5
    host_cores: int | None = None
    phases: list[dict[str, object]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    cells: list[dict[str, object]] = field(default_factory=list)
    grid: dict[str, object] | None = None

    def to_json(self) -> str:
        payload: dict[str, object] = {
            "name": self.name,
            "schema": self.schema,
            "mode": self.mode,
            "dataset": {
                "name": self.dataset,
                "num_vertices": self.num_vertices,
                "num_edges": self.num_edges,
            },
            "best_of": self.best_of,
            "host_cores": self.host_cores,
            "phases": self.phases,
            "notes": list(self.notes),
            "grid": self.grid,
            "cells": self.cells,
        }
        return json.dumps(payload, indent=1)

    def write(self, path: Path) -> Path:
        """Persist the JSON payload (trailing newline included)."""
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: Path) -> "PerfBaseline":
        """Rehydrate a baseline written by :meth:`write`.

        Accepts schema 5 only. Anything else — other schemas, truncated
        or garbled JSON, fields of the wrong type — raises ``ValueError``
        with a one-line message naming ``path``, so gates report bad
        input instead of comparing misread values.
        """
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"not valid JSON ({exc}) in {path}") from exc
        if not isinstance(payload, dict):
            raise ValueError(f"baseline payload is not a JSON object in {path}")
        schema = payload.get("schema")
        if not (_is_int(schema) and schema == 5):
            raise ValueError(f"unsupported PerfBaseline schema {schema!r} in {path}")
        if not isinstance(payload.get("name"), str):
            raise ValueError(f"baseline carries no 'name' string in {path}")
        dataset = payload.get("dataset", {})
        if not (
            isinstance(dataset, dict)
            and _is_int(dataset.get("num_vertices", 0))
            and _is_int(dataset.get("num_edges", 0))
        ):
            raise ValueError(f"malformed dataset block {dataset!r} in {path}")
        best_of = payload.get("best_of", 1)
        if not _is_int(best_of):
            raise ValueError(f"'best_of' must be an int, got {best_of!r} in {path}")
        host_cores = payload.get("host_cores")
        if host_cores is not None and not _is_int(host_cores):
            raise ValueError(
                f"'host_cores' must be an int or null, got {host_cores!r} in {path}"
            )
        for key in ("cells", "phases"):
            rows = payload.get(key, [])
            if not (
                isinstance(rows, list) and all(isinstance(r, dict) for r in rows)
            ):
                raise ValueError(f"{key!r} must be a list of objects in {path}")
        notes = payload.get("notes", [])
        if not isinstance(notes, list):
            raise ValueError(f"'notes' must be a list in {path}")
        grid = payload.get("grid")
        return cls(
            name=payload["name"],
            dataset=dataset.get("name", ""),
            num_vertices=dataset.get("num_vertices", 0),
            num_edges=dataset.get("num_edges", 0),
            mode=payload.get("mode", "full"),
            best_of=best_of,
            schema=schema,
            host_cores=host_cores,
            phases=list(payload.get("phases", [])),
            notes=list(notes),
            cells=list(payload.get("cells", [])),
            grid=grid if isinstance(grid, dict) else None,
        )


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)
