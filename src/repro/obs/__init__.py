"""repro.obs — unified tracing and metrics for the reproduction.

The single instrumentation substrate the paper's own evaluation style
requires (Figure 12 runtime breakdowns, Figure 13 work counters):

* **spans** — ``with obs.span("gac.iteration", anchor=v):`` nestable
  timed sections, recorded only when tracing is active (``REPRO_TRACE``
  env var, the ``tracing()`` override, or an ``obs=`` kwarg on the
  greedy entry points); a shared no-op handle keeps disabled spans out
  of hot-loop budgets;
* **counters/gauges** — the registry is the single home for work
  counters (bucket pops, CSR builds/cache hits, heap pops, reuse hits,
  prunings); always on, muted only under :func:`suspended`;
* **exporters** — Chrome trace-event JSON artifacts and ASCII phase
  profiles;
* **report command** — ``python -m repro.obs report`` runs an
  instrumented GAC pass and prints/writes all of the above;
  ``python -m repro.obs validate TRACE.json`` gates CI artifacts.

Tracing on vs off never changes algorithm results — spans and counters
observe, they do not steer. See ``docs/observability.md``.
"""

from repro.obs.export import (
    PhaseStat,
    chrome_trace,
    counters_table,
    phase_profile,
    profile_table,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.resources import ResourceSample, ResourceSampler
from repro.obs.runtime import (
    BUCKET_POPS,
    CHECKPOINT_RESUMES,
    CHECKPOINT_WRITES,
    CSR_BUILDS,
    CSR_CACHE_HITS,
    EVALUATED_CANDIDATES,
    EXPLORED_NODES,
    GAC_ITERATIONS,
    OLAK_ITERATIONS,
    PARALLEL_CHUNKS,
    PARALLEL_DISPATCHES,
    PARALLEL_SPAN_BATCHES,
    PARALLEL_SPANS_SHIPPED,
    PARALLEL_STATE_ADVANCES,
    PARALLEL_STATE_HITS,
    PARALLEL_STATE_REBUILDS,
    PARALLEL_TASKS,
    PEEL_POPS,
    PRUNED_CANDIDATES,
    REUSE_DROPPED,
    REUSE_SERVED,
    REUSED_NODES,
    VISITED_VERTICES,
    NullSpan,
    Span,
    SpanEvent,
    Window,
    add,
    clock,
    counters_snapshot,
    events,
    gauge,
    gauges_snapshot,
    get,
    record_imported,
    reset,
    span,
    suspended,
    tracing,
    tracing_enabled,
    window,
)

__all__ = [
    "BUCKET_POPS",
    "CHECKPOINT_RESUMES",
    "CHECKPOINT_WRITES",
    "CSR_BUILDS",
    "CSR_CACHE_HITS",
    "EVALUATED_CANDIDATES",
    "EXPLORED_NODES",
    "GAC_ITERATIONS",
    "OLAK_ITERATIONS",
    "PARALLEL_CHUNKS",
    "PARALLEL_DISPATCHES",
    "PARALLEL_SPAN_BATCHES",
    "PARALLEL_SPANS_SHIPPED",
    "PARALLEL_STATE_ADVANCES",
    "PARALLEL_STATE_HITS",
    "PARALLEL_STATE_REBUILDS",
    "PARALLEL_TASKS",
    "PEEL_POPS",
    "PRUNED_CANDIDATES",
    "REUSE_DROPPED",
    "REUSE_SERVED",
    "REUSED_NODES",
    "VISITED_VERTICES",
    "NullSpan",
    "PhaseStat",
    "ResourceSample",
    "ResourceSampler",
    "Span",
    "SpanEvent",
    "Window",
    "add",
    "chrome_trace",
    "clock",
    "counters_snapshot",
    "counters_table",
    "events",
    "gauge",
    "gauges_snapshot",
    "get",
    "phase_profile",
    "profile_table",
    "record_imported",
    "reset",
    "span",
    "suspended",
    "tracing",
    "tracing_enabled",
    "validate_chrome_trace",
    "window",
    "write_chrome_trace",
]
