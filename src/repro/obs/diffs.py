"""Phase-profile diffing between two PerfBaseline artifacts.

``python -m repro.obs diff BENCH_grid.json BENCH_grid.fresh.json``
compares the ``phases`` lists two bench runs recorded (see
:func:`repro.obs.export.record_phases`) and classifies every phase:

* ``regressed`` / ``improved`` — the candidate total moved outside the
  variance band around the baseline total;
* ``ok`` — within the band;
* ``added`` / ``removed`` — the phase exists on only one side (a new
  instrumented site, or one that silently stopped recording).

The thresholds are **variance-aware** rather than a bare ratio:

* a relative tolerance (``rel_tol``, default 25%) absorbs run-to-run
  scheduler noise — single-run phase totals on shared CI runners
  routinely wobble by double-digit percentages;
* an absolute floor (``abs_floor_s``, default 5 ms) keeps microscopic
  phases from tripping the relative band — a 0.2 ms phase doubling is
  timer noise, not a regression;
* when the two runs called a phase a **different number of times** the
  workload changed (different budget, dataset, or worker count), so
  totals are incomparable and the diff compares *mean seconds per
  call* instead, marking the delta ``per_call`` so consumers know the
  normalization happened.

The CLI is report-only by default (exit 0 either way, the CI posture
while trajectories accumulate); ``--fail-on-regression`` turns
regressions into exit 1, and ``--json`` emits the machine-readable
payload. ``python -m repro.bench gate`` reuses :func:`diff_baselines`
for its report-only phase breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover - type-only import (cycle avoidance)
    from repro.experiments.reporting import PerfBaseline, Table

#: Default fractional band around the baseline total (25%).
DEFAULT_REL_TOL = 0.25
#: Default absolute slack in seconds — deltas under this never classify.
DEFAULT_ABS_FLOOR_S = 0.005


@dataclass(frozen=True)
class PhaseDelta:
    """One phase's comparison between a baseline and a candidate run."""

    phase: str
    base_total_s: float | None
    cand_total_s: float | None
    base_calls: int
    cand_calls: int
    #: candidate/baseline ratio of the compared quantity (None when a
    #: side is missing or the baseline quantity is zero).
    ratio: float | None
    verdict: str
    #: True when call counts differed and mean-per-call was compared.
    per_call: bool = False

    def as_dict(self) -> dict[str, object]:
        return {
            "phase": self.phase,
            "base_total_s": self.base_total_s,
            "cand_total_s": self.cand_total_s,
            "base_calls": self.base_calls,
            "cand_calls": self.cand_calls,
            "ratio": self.ratio,
            "verdict": self.verdict,
            "per_call": self.per_call,
        }


def _entry_map(
    phases: Iterable[Mapping[str, object]],
) -> dict[str, tuple[float, int]]:
    """``phase -> (total_s, calls)`` from a baseline's ``phases`` list,
    tolerating malformed entries (they are simply skipped)."""
    entries: dict[str, tuple[float, int]] = {}
    for entry in phases:
        name = entry.get("phase")
        total = entry.get("total_s")
        if not isinstance(name, str) or not isinstance(total, (int, float)):
            continue
        calls = entry.get("calls")
        entries[name] = (
            float(total),
            int(calls) if isinstance(calls, (int, float)) else 0,
        )
    return entries


def diff_phases(
    base_phases: Iterable[Mapping[str, object]],
    cand_phases: Iterable[Mapping[str, object]],
    *,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_floor_s: float = DEFAULT_ABS_FLOOR_S,
) -> list[PhaseDelta]:
    """Classify every phase present on either side, sorted by name."""
    base = _entry_map(base_phases)
    cand = _entry_map(cand_phases)
    deltas: list[PhaseDelta] = []
    for name in sorted(base.keys() | cand.keys()):
        base_entry = base.get(name)
        cand_entry = cand.get(name)
        if base_entry is None or cand_entry is None:
            deltas.append(
                PhaseDelta(
                    phase=name,
                    base_total_s=base_entry[0] if base_entry else None,
                    cand_total_s=cand_entry[0] if cand_entry else None,
                    base_calls=base_entry[1] if base_entry else 0,
                    cand_calls=cand_entry[1] if cand_entry else 0,
                    ratio=None,
                    verdict="removed" if cand_entry is None else "added",
                )
            )
            continue
        base_total, base_calls = base_entry
        cand_total, cand_calls = cand_entry
        per_call = (
            base_calls > 0 and cand_calls > 0 and base_calls != cand_calls
        )
        if per_call:
            base_q = base_total / base_calls
            cand_q = cand_total / cand_calls
            floor = abs_floor_s / max(base_calls, cand_calls)
        else:
            base_q, cand_q, floor = base_total, cand_total, abs_floor_s
        if cand_q > base_q * (1.0 + rel_tol) + floor:
            verdict = "regressed"
        elif cand_q < base_q * (1.0 - rel_tol) - floor:
            verdict = "improved"
        else:
            verdict = "ok"
        deltas.append(
            PhaseDelta(
                phase=name,
                base_total_s=base_total,
                cand_total_s=cand_total,
                base_calls=base_calls,
                cand_calls=cand_calls,
                ratio=cand_q / base_q if base_q > 0 else None,
                verdict=verdict,
                per_call=per_call,
            )
        )
    return deltas


def diff_baselines(
    baseline: "PerfBaseline",
    candidate: "PerfBaseline",
    *,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_floor_s: float = DEFAULT_ABS_FLOOR_S,
) -> list[PhaseDelta]:
    """:func:`diff_phases` over two loaded ``PerfBaseline`` artifacts."""
    return diff_phases(
        baseline.phases,
        candidate.phases,
        rel_tol=rel_tol,
        abs_floor_s=abs_floor_s,
    )


def diff_payload(deltas: list[PhaseDelta]) -> dict[str, object]:
    """The machine-readable diff: verdict buckets + the full table."""
    return {
        "regressed": [d.phase for d in deltas if d.verdict == "regressed"],
        "improved": [d.phase for d in deltas if d.verdict == "improved"],
        "added": [d.phase for d in deltas if d.verdict == "added"],
        "removed": [d.phase for d in deltas if d.verdict == "removed"],
        "phases": [d.as_dict() for d in deltas],
    }


def diff_table(deltas: list[PhaseDelta], title: str = "phase diff") -> "Table":
    """Render a diff as an ASCII table (regressions first)."""
    from repro.experiments.reporting import Table

    order = {"regressed": 0, "removed": 1, "added": 2, "improved": 3, "ok": 4}
    table = Table(
        title=title,
        headers=["phase", "base_s", "cand_s", "ratio", "verdict"],
    )
    for delta in sorted(deltas, key=lambda d: (order[d.verdict], d.phase)):
        ratio = f"{delta.ratio:.3f}" if delta.ratio is not None else "-"
        verdict = delta.verdict + (" (per-call)" if delta.per_call else "")
        table.rows.append(
            [delta.phase, delta.base_total_s, delta.cand_total_s, ratio, verdict]
        )
    return table
