"""Exporters for the observability runtime.

Two consumers of the span collector and counter registry:

* :func:`chrome_trace` / :func:`write_chrome_trace` — a Chrome
  trace-event JSON artifact (open in ``chrome://tracing`` or Perfetto);
  :func:`validate_chrome_trace` is the CI gate that fails a build whose
  trace is empty or malformed;
* :func:`phase_profile` / :func:`profile_table` — per-span-name
  aggregation rendered as an ASCII table through
  :class:`repro.experiments.reporting.Table`.

``repro.experiments.reporting`` is imported lazily inside the functions
that need it: the experiments package imports the algorithm modules,
which import :mod:`repro.obs` — a module-level import here would close
that cycle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.obs import runtime

if TYPE_CHECKING:  # pragma: no cover - type-only import (cycle avoidance)
    from repro.experiments.reporting import Table
    from repro.obs.resources import ResourceSample


# ----------------------------------------------------------------------
# Phase profiles
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PhaseStat:
    """Aggregated timing of every span sharing one name."""

    name: str
    calls: int
    total_s: float
    self_s: float

    @property
    def mean_s(self) -> float:
        return self.total_s / self.calls if self.calls else 0.0


def phase_profile(events: list[runtime.SpanEvent] | None = None) -> list[PhaseStat]:
    """Aggregate span events by name, longest total first.

    ``events`` defaults to everything the collector holds; pass
    ``window.events()`` to profile one run.
    """
    if events is None:
        events = runtime.events()
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    for event in events:
        calls[event.name] = calls.get(event.name, 0) + 1
        total[event.name] = total.get(event.name, 0.0) + event.duration
        self_time[event.name] = self_time.get(event.name, 0.0) + event.self_time
    stats = [
        PhaseStat(name=name, calls=calls[name], total_s=total[name], self_s=self_time[name])
        for name in calls
    ]
    return sorted(stats, key=lambda s: (-s.total_s, s.name))


def profile_table(
    stats: list[PhaseStat], title: str = "phase profile"
) -> "Table":
    """Render a phase profile as an ASCII table."""
    from repro.experiments.reporting import Table

    table = Table(title=title, headers=["phase", "calls", "total_s", "self_s", "mean_s"])
    for stat in stats:
        table.rows.append(
            [stat.name, stat.calls, stat.total_s, stat.self_s, stat.mean_s]
        )
    return table


def counters_table(
    counters: dict[str, int] | None = None, title: str = "work counters"
) -> "Table":
    """Render registry counters (or any name->count map) as a table."""
    from repro.experiments.reporting import Table

    if counters is None:
        counters = runtime.counters_snapshot()
    table = Table(title=title, headers=["counter", "value"])
    for name in sorted(counters):
        table.rows.append([name, counters[name]])
    return table


# ----------------------------------------------------------------------
# Chrome trace-event JSON
# ----------------------------------------------------------------------
def chrome_trace(
    events: list[runtime.SpanEvent] | None = None,
    counters: dict[str, int] | None = None,
    resources: "list[ResourceSample] | None" = None,
) -> dict[str, object]:
    """The Chrome trace-event payload for the given span events.

    Every span becomes a complete ("ph": "X") event with microsecond
    timestamps relative to the earliest span/sample, laid out in the
    lane of the process that recorded it (``SpanEvent.pid``; 0 is the
    parent). Each lane gets a ``process_name`` metadata ("M") event so
    Perfetto labels worker lanes by pid. ``resources`` (a
    :class:`~repro.obs.resources.ResourceSample` timeline) becomes
    Chrome counter ("C") events — ``resource.rss_mb`` and
    ``resource.cpu_s`` — plotted above the parent lane. The counter
    registry rides along under ``otherData`` so one artifact carries
    every signal.
    """
    if events is None:
        events = runtime.events()
    if counters is None:
        counters = runtime.counters_snapshot()
    samples = resources or []
    # The time origin must precede *every* emitted timestamp — samplers
    # typically start before the first span closes, so take the min
    # across both series.
    candidates = [e.start for e in events] + [s.t for s in samples]
    origin = min(candidates) if candidates else 0.0
    trace_events: list[dict[str, object]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "parent" if pid == 0 else f"worker-{pid}"},
        }
        for pid in sorted({e.pid for e in events})
    ]
    trace_events.extend(
        {
            "name": event.name,
            "cat": "repro",
            "ph": "X",
            "ts": round((event.start - origin) * 1e6, 3),
            "dur": round(event.duration * 1e6, 3),
            "pid": event.pid,
            "tid": 0,
            "args": {key: _jsonable(value) for key, value in event.args.items()},
        }
        for event in events
    )
    for s in samples:
        ts = round((s.t - origin) * 1e6, 3)
        if s.rss_kb is not None:
            trace_events.append(
                {
                    "name": "resource.rss_mb",
                    "cat": "repro",
                    "ph": "C",
                    "ts": ts,
                    "pid": 0,
                    "tid": 0,
                    "args": {"rss_mb": round(s.rss_kb / 1024.0, 3)},
                }
            )
        trace_events.append(
            {
                "name": "resource.cpu_s",
                "cat": "repro",
                "ph": "C",
                "ts": ts,
                "pid": 0,
                "tid": 0,
                "args": {"user_s": round(s.user_s, 3), "sys_s": round(s.sys_s, 3)},
            }
        )
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"counters": dict(counters)},
    }


def _jsonable(value: object) -> object:
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


def write_chrome_trace(
    path: Path | str,
    events: list[runtime.SpanEvent] | None = None,
    counters: dict[str, int] | None = None,
    resources: "list[ResourceSample] | None" = None,
) -> Path:
    """Serialize :func:`chrome_trace` to ``path`` (trailing newline)."""
    target = Path(path)
    payload = chrome_trace(events, counters, resources)
    target.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return target


def validate_chrome_trace(path: Path | str) -> list[str]:
    """Problems with a trace artifact; empty list means it is valid.

    The CI smoke job fails on any finding: an unreadable file, a payload
    that is not a trace-event object, an *empty* trace (instrumentation
    silently disabled is a regression), or events missing required
    fields.
    """
    target = Path(path)
    try:
        payload = json.loads(target.read_text(encoding="utf-8"))
    except OSError as exc:
        return [f"cannot read {target}: {exc}"]
    except ValueError as exc:
        return [f"{target} is not valid JSON: {exc}"]
    if not isinstance(payload, dict):
        return [f"{target}: top-level value must be an object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return [f"{target}: 'traceEvents' must be a list"]
    problems: list[str] = []
    spans = 0
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"{target}: traceEvents[{i}] is not an object")
            continue
        if not isinstance(event.get("name"), str) or not event.get("name"):
            problems.append(f"{target}: traceEvents[{i}] has no name")
        phase = event.get("ph")
        if phase == "X":
            spans += 1
            for field_name in ("ts", "dur"):
                value = event.get(field_name)
                if not isinstance(value, (int, float)) or value < 0:
                    problems.append(
                        f"{target}: traceEvents[{i}].{field_name} must be a "
                        "non-negative number"
                    )
        elif phase == "C":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(
                    f"{target}: traceEvents[{i}].ts must be a "
                    "non-negative number"
                )
            args = event.get("args")
            if not isinstance(args, dict) or not all(
                isinstance(v, (int, float)) for v in args.values()
            ):
                problems.append(
                    f"{target}: counter traceEvents[{i}] args must be "
                    "numeric series"
                )
        elif phase == "M":
            if not isinstance(event.get("args"), dict):
                problems.append(
                    f"{target}: metadata traceEvents[{i}] has no args"
                )
        else:
            problems.append(
                f"{target}: traceEvents[{i}] has unsupported phase "
                f"{phase!r} (expected X, C, or M)"
            )
    if not spans:
        problems.append(f"{target}: trace is empty (no span events recorded)")
    return problems
