"""The observability runtime: spans, the counter/gauge registry, activation.

This module is the zero-dependency core of :mod:`repro.obs` — pure
stdlib, importable from every layer (graph substrate, decomposition
kernels, greedy loops) without cycles. It holds four pieces of global
state:

* a **counter registry** (``add`` / ``get``): monotone work counters
  (peel pops, CSR builds, heap pops, reuse hits, prunings). Counters
  are *always on* — they are plain integer adds, and experiments read
  their figures from them — except while :func:`suspended` is active,
  which the verification oracles use so cross-checks never pollute the
  numbers they are checked against;
* a **gauge registry** (``gauge``): last-value measurements (sizes,
  ratios) for exporters;
* a **span collector**: hierarchical timed sections. Spans are gated by
  ``REPRO_TRACE`` (or a :func:`tracing` override) and compile to a
  no-op singleton when disabled, so hot loops pay one predicate per
  ``with obs.span(...)`` and nothing else;
* the **clock**: :func:`clock` is the package's only sanctioned
  ``time.perf_counter`` access point (lint rule R7 forbids it
  elsewhere outside ``benchmarks/``).

Deltas over a region are read through :class:`Window` — snapshot the
registry, run, diff — which is how per-iteration counters and per-run
phase profiles are scoped without ever resetting global state.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

_ENV_FLAG = "REPRO_TRACE"

# ----------------------------------------------------------------------
# Canonical counter names (the registry naming scheme: <layer>.<what>)
# ----------------------------------------------------------------------
#: Non-anchor vertices deleted by the batch peel kernel.
PEEL_POPS = "decomposition.peel_pops"
#: CSR views built from scratch (sorted interning runs).
CSR_BUILDS = "csr.builds"
#: Decompositions served by an interned, still-valid CSR view.
CSR_CACHE_HITS = "csr.cache_hits"
#: Tree nodes whose follower set was searched from scratch (Figure 13a).
EXPLORED_NODES = "followers.explored_nodes"
#: Tree nodes answered from the cross-iteration cache (Figure 13a).
REUSED_NODES = "followers.reused_nodes"
#: Upstair-path heap pops across all node explorations (Figure 13b).
VISITED_VERTICES = "followers.visited_vertices"
#: Candidates whose follower count was actually computed.
EVALUATED_CANDIDATES = "followers.evaluated_candidates"
#: Candidates skipped by the upper bound (Figure 13 / Section 4.5).
PRUNED_CANDIDATES = "gac.pruned_candidates"
#: Greedy iterations completed by GAC and its variants.
GAC_ITERATIONS = "gac.iterations"
#: Cached per-node counts served to the candidate scan.
REUSE_SERVED = "reuse.counts_served"
#: Cache entries invalidated by Algorithm 3 after an anchoring.
REUSE_DROPPED = "reuse.entries_dropped"
#: Adjacency entries walked by the in-place anchoring's table update
#: (the summed degree of the vertices whose values changed).
TOUCHED_EDGES = "incremental.touched_edges"
#: Eq. 1 own-node bounds recomputed by the GAC round's upkeep after an
#: anchoring (the first round's full pass is not counted).
BOUNDS_RECOMPUTED = "bounds.recomputed"
#: Greedy iterations completed by OLAK.
OLAK_ITERATIONS = "olak.iterations"
#: Candidate evaluations shipped to scan workers (repro.parallel).
PARALLEL_TASKS = "parallel.tasks"
#: Dispatch batches (chunk barriers) executed by the parallel scan.
PARALLEL_DISPATCHES = "parallel.dispatches"
#: Task chunks actually shipped to workers (payload pickles).
PARALLEL_CHUNKS = "parallel.chunks"
#: Worker span batches merged into the parent trace (repro.parallel).
PARALLEL_SPAN_BATCHES = "parallel.span_batches"
#: Worker-recorded span events shipped back and merged by the parent.
PARALLEL_SPANS_SHIPPED = "parallel.spans_shipped"
#: Round-boundary checkpoint files written (repro.checkpoint).
CHECKPOINT_WRITES = "checkpoint.writes"
#: Checkpoint files loaded to resume a greedy run.
CHECKPOINT_RESUMES = "checkpoint.resumes"

_counters: dict[str, int] = {}
_gauges: dict[str, float] = {}
_events: list["SpanEvent"] = []
_stack: list["Span"] = []
_forced: bool | None = None
_suspend_depth: int = 0

clock = time.perf_counter
"""The monotonic clock every measured section reads (``time.perf_counter``)."""


def tracing_enabled() -> bool:
    """Whether spans record at this moment (``REPRO_TRACE`` / override)."""
    if _suspend_depth > 0:
        return False
    if _forced is not None:
        return _forced
    return _env_tracing()


def _env_tracing() -> bool:
    return os.environ.get(_ENV_FLAG, "").strip().lower() not in {"", "0", "false", "off"}


@contextmanager
def tracing(force: bool | None = None) -> Iterator[None]:
    """Force span recording on (``True``) / off (``False``) for a block.

    ``None`` defers to ``REPRO_TRACE``, which lets APIs thread an
    ``obs=`` kwarg straight through (mirroring
    ``repro.verify.verification``). The environment is read once, on
    entering an unforced block, and pinned for the whole block, so a
    span on the hot path reads a module global instead of
    ``os.environ``.
    """
    global _forced
    if force is None:
        if _forced is not None:
            yield
            return
        force = _env_tracing()
    previous = _forced
    _forced = force
    try:
        yield
    finally:
        _forced = previous


@contextmanager
def suspended() -> Iterator[None]:
    """Mute counters *and* spans for a block.

    Used by the runtime verification oracles (their reference
    implementations call the very functions whose counters they check)
    and by bookkeeping passes whose work is not part of the measured
    search (e.g. materializing the chosen anchor's follower set).
    """
    global _suspend_depth
    _suspend_depth += 1
    try:
        yield
    finally:
        _suspend_depth -= 1


# ----------------------------------------------------------------------
# Counter / gauge registry
# ----------------------------------------------------------------------
def add(name: str, value: int = 1) -> None:
    """Increment counter ``name`` (no-op while suspended)."""
    if _suspend_depth:
        return
    _counters[name] = _counters.get(name, 0) + value


def get(name: str) -> int:
    """Current value of counter ``name`` (0 if never incremented)."""
    return _counters.get(name, 0)


def gauge(name: str, value: float) -> None:
    """Record the latest value of gauge ``name`` (no-op while suspended)."""
    if _suspend_depth:
        return
    _gauges[name] = value


def counters_snapshot() -> dict[str, int]:
    """A copy of every counter, sorted by name."""
    return {name: _counters[name] for name in sorted(_counters)}


def gauges_snapshot() -> dict[str, float]:
    """A copy of every gauge, sorted by name."""
    return {name: _gauges[name] for name in sorted(_gauges)}


def events() -> list["SpanEvent"]:
    """Every span event recorded since the last :func:`reset`."""
    return list(_events)


def record_imported(imported: "list[SpanEvent]") -> int:
    """Append span events recorded in *another* process to the collector.

    The parallel pool merges worker-shipped span batches through this:
    the tracing gate was already applied where the events were recorded
    (workers only ship when the dispatch was traced), so the append is
    unconditional apart from :func:`suspended` — an oracle must never
    grow the trace, not even with foreign events. Returns how many
    events were actually appended (0 while suspended).
    """
    if _suspend_depth:
        return 0
    _events.extend(imported)
    return len(imported)


def reset() -> None:
    """Clear counters, gauges, and recorded span events."""
    _counters.clear()
    _gauges.clear()
    _events.clear()
    del _stack[:]


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclass(slots=True)
class SpanEvent:
    """One completed span, as recorded by the collector.

    A plain (non-frozen) slotted dataclass: one event is constructed
    per span exit, which puts this constructor on the hot path of every
    traced search — the frozen variant's ``object.__setattr__`` init
    costs ~1µs more per span, a measurable tax at ``followers.search``
    call rates. Nothing mutates events after recording.

    Attributes:
        name: the span name (``<layer>.<phase>`` by convention).
        start: :func:`clock` reading at entry.
        duration: wall-clock seconds from entry to exit.
        self_time: ``duration`` minus the duration of directly nested
            spans (the phase-profile "self" column).
        depth: nesting depth at entry (0 = top level).
        args: the keyword attributes passed to :func:`span`.
        pid: the process the span was recorded in — 0 means *this*
            process (the historical single-process trace); worker-shipped
            events carry the worker's OS pid so exporters can lay them
            out in per-process lanes.
    """

    name: str
    start: float
    duration: float
    self_time: float
    depth: int
    args: dict[str, object]
    pid: int = 0


class Span:
    """A recording span handle (use via ``with obs.span(...) as sp:``)."""

    __slots__ = ("name", "args", "start", "elapsed_seconds", "_child_total")

    def __init__(self, name: str, args: dict[str, object]) -> None:
        self.name = name
        self.args = args
        self.start = 0.0
        self.elapsed_seconds = 0.0
        self._child_total = 0.0

    def __enter__(self) -> "Span":
        self.start = clock()
        _stack.append(self)
        return self

    def __exit__(self, *exc: object) -> None:
        duration = clock() - self.start
        self.elapsed_seconds = duration
        if _stack and _stack[-1] is self:
            _stack.pop()
        if _stack:
            _stack[-1]._child_total += duration
        _events.append(
            SpanEvent(
                name=self.name,
                start=self.start,
                duration=duration,
                self_time=max(duration - self._child_total, 0.0),
                depth=len(_stack),
                args=self.args,
            )
        )


class NullSpan:
    """The disabled-tracing fast path: a reusable no-op context manager."""

    __slots__ = ()

    #: Mirrors :attr:`Span.elapsed_seconds` so callers can read it
    #: unconditionally; always 0.0 (nothing was measured).
    elapsed_seconds = 0.0

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = NullSpan()


def span(name: str, **args: object) -> "Span | NullSpan":
    """A timed, nestable section: ``with obs.span("gac.iteration", anchor=v):``.

    Returns the shared no-op handle when tracing is disabled, so a span
    in a hot loop costs one enablement predicate and nothing else.
    """
    if not tracing_enabled():
        return _NULL_SPAN
    return Span(name, args)


# ----------------------------------------------------------------------
# Windows (scoped registry/trace deltas)
# ----------------------------------------------------------------------
class Window:
    """A registry snapshot; reads are deltas against it.

    Windows never mutate global state, so they nest freely: the greedy
    loop holds one per iteration while an experiment holds one per run.
    """

    __slots__ = ("_base", "_event_base")

    def __init__(self) -> None:
        self._base = dict(_counters)
        self._event_base = len(_events)

    def counter(self, name: str) -> int:
        """How much counter ``name`` grew since the window opened."""
        return _counters.get(name, 0) - self._base.get(name, 0)

    def counters(self) -> dict[str, int]:
        """Every counter that grew since the window opened, by name."""
        deltas = {
            name: _counters[name] - self._base.get(name, 0) for name in _counters
        }
        return {name: deltas[name] for name in sorted(deltas) if deltas[name]}

    def events(self) -> list[SpanEvent]:
        """Span events recorded since the window opened."""
        return list(_events[self._event_base :])


def window() -> Window:
    """Open a :class:`Window` over the current registry/trace state."""
    return Window()
