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
    """Machine-readable perf baseline for A/B wall-clock comparisons.

    Serialized to ``BENCH_gac.json`` at the repository root by the GAC
    bench: one entry per measured primitive
    holding the baseline-path and fast-path wall-clock (best of
    ``best_of`` repeats) and the resulting speedup, plus the replica's
    sizes so timings can be normalized. ``labels`` names the two
    measured columns — the historical default is
    ``("dict_s", "csr_s")``, the GAC bench uses
    ``("serial_s", "parallel_s")`` so the entry keys say what was
    actually timed. ``schema`` is bumped whenever the JSON layout
    changes so downstream consumers can detect drift (2: added the
    ``phases`` per-phase breakdown from ``repro.obs``; 3: explicit
    ``labels`` column names and ``host_cores``; 4: starved primitives
    record a ``null`` fast-path column with ``"starved": true`` instead
    of a meaningless time-sliced measurement, and follower-search phase
    names carry the kernel backend label —
    ``serial/followers.search[flat]`` — per ``docs/kernels.md``;
    5: workload-grid artifacts from :mod:`repro.bench` — ``grid``
    echoes the grid spec the runner swept and ``cells`` holds one
    entry per dataset × budget × workers × kernel × strategy cell
    with variance-aware wall/scan statistics (min/median/max/spread
    over the recorded repeats) instead of two-column ``primitives``;
    per-cell phase profiles land in ``phases`` under a ``<cell>/``
    prefix — see ``docs/benchmarking.md``).
    """

    name: str
    dataset: str
    num_vertices: int
    num_edges: int
    mode: str = "full"
    best_of: int = 1
    schema: int = 4
    labels: tuple[str, str] = ("dict_s", "csr_s")
    host_cores: int | None = None
    csr_build_s: float | None = None
    primitives: list[dict[str, object]] = field(default_factory=list)
    phases: list[dict[str, object]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: Schema-5 grid artifacts: one entry per swept cell (see
    #: ``docs/benchmarking.md``) and an echo of the grid spec.
    cells: list[dict[str, object]] = field(default_factory=list)
    grid: dict[str, object] | None = None

    def record(self, primitive: str, base_s: float, fast_s: float) -> dict[str, object]:
        """Append one primitive's timings; speedup is ``base_s / fast_s``.

        The two timings land under the column names in :attr:`labels`.
        """
        base_label, fast_label = self.labels
        entry: dict[str, object] = {
            "primitive": primitive,
            base_label: round(base_s, 6),
            fast_label: round(fast_s, 6),
            "speedup": round(base_s / fast_s, 3) if fast_s > 0 else None,
        }
        self.primitives.append(entry)
        return entry

    def record_starved(self, primitive: str, base_s: float) -> dict[str, object]:
        """Append a primitive whose fast path could not be measured.

        A parallel leg on a host with fewer cores than workers
        time-slices; recording its wall-clock would poison the
        committed trajectory (the gate compares against it across
        commits). The entry keeps the baseline column, records ``None``
        for the fast path and speedup, and flags ``starved`` so
        consumers can tell "not measured" from "not recorded".
        """
        base_label, fast_label = self.labels
        entry: dict[str, object] = {
            "primitive": primitive,
            base_label: round(base_s, 6),
            fast_label: None,
            "speedup": None,
            "starved": True,
        }
        self.primitives.append(entry)
        return entry

    def speedup(self, primitive: str) -> float | None:
        """The recorded speedup for ``primitive`` (None if absent)."""
        for entry in self.primitives:
            if entry["primitive"] == primitive:
                value = entry["speedup"]
                return float(value) if isinstance(value, (int, float)) else None
        return None

    def as_table(self) -> Table:
        """A printable view of the recorded primitives."""
        base_label, fast_label = self.labels
        table = Table(
            title=f"perf baseline — {self.dataset} "
            f"(n={self.num_vertices}, m={self.num_edges}, "
            f"best of {self.best_of}, {self.mode})",
            headers=["primitive", base_label, fast_label, "speedup"],
        )
        for entry in self.primitives:
            table.rows.append(
                [entry["primitive"], entry[base_label], entry[fast_label], entry["speedup"]]
            )
        return table

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
            "labels": list(self.labels),
            "host_cores": self.host_cores,
            "csr_build_s": self.csr_build_s,
            "primitives": self.primitives,
            "phases": self.phases,
            "notes": list(self.notes),
        }
        if self.schema >= 5:
            payload["grid"] = self.grid
            payload["cells"] = self.cells
        return json.dumps(payload, indent=1)

    def write(self, path: Path) -> Path:
        """Persist the JSON payload (trailing newline included)."""
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: Path) -> "PerfBaseline":
        """Rehydrate a baseline written by :meth:`write`.

        Accepts schema 2 (implicit ``dict_s``/``csr_s`` columns, no
        ``host_cores``), 3, 4 (starved entries, backend-labeled
        phases), and 5 (workload-grid ``cells``); anything else —
        including truncated or garbled JSON — raises ``ValueError``
        with a one-line message so CI gates fail loudly on drift
        rather than comparing mislabeled columns.
        """
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"not valid JSON ({exc}) in {path}") from exc
        if not isinstance(payload, dict):
            raise ValueError(f"baseline payload is not a JSON object in {path}")
        schema = payload.get("schema")
        if schema not in (2, 3, 4, 5):
            raise ValueError(f"unsupported PerfBaseline schema {schema!r} in {path}")
        if not isinstance(payload.get("name"), str):
            raise ValueError(f"baseline carries no 'name' string in {path}")
        labels = payload.get("labels", ["dict_s", "csr_s"])
        if not (isinstance(labels, list) and len(labels) == 2):
            raise ValueError(f"malformed labels {labels!r} in {path}")
        dataset = payload.get("dataset", {})
        if not isinstance(dataset, dict):
            raise ValueError(f"malformed dataset block {dataset!r} in {path}")
        grid = payload.get("grid")
        return cls(
            name=payload["name"],
            dataset=dataset.get("name", ""),
            num_vertices=int(dataset.get("num_vertices", 0)),
            num_edges=int(dataset.get("num_edges", 0)),
            mode=payload.get("mode", "full"),
            best_of=int(payload.get("best_of", 1)),
            schema=int(schema),
            labels=(str(labels[0]), str(labels[1])),
            host_cores=payload.get("host_cores"),
            csr_build_s=payload.get("csr_build_s"),
            primitives=list(payload.get("primitives", [])),
            phases=list(payload.get("phases", [])),
            notes=list(payload.get("notes", [])),
            cells=list(payload.get("cells", [])),
            grid=grid if isinstance(grid, dict) else None,
        )
