"""Plain-text reporting for experiment results.

Every experiment runner returns an :class:`ExperimentResult` — one or
more ASCII tables mirroring the rows/series the paper's tables and
figures report, plus a raw ``data`` dict for programmatic consumers
(tests and benches assert on ``data``, humans read ``format()``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


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
