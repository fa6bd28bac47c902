"""Cross-process span shipping: the worker-side tracing API.

Pool workers cannot write into the parent's span collector, so spans
recorded inside a worker travel back as a **compact batch of plain
tuples** piggybacked on the chunk's pickle return, next to the chunk's
results. The protocol:

* the parent decides *per dispatch* whether workers should trace
  (``tracing_enabled()`` at dispatch time, shipped as a flag in the
  chunk payload — explicit, so fork and spawn start methods behave
  identically instead of depending on inherited globals);
* the worker wraps chunk evaluation in :func:`worker_tracing`, which
  forces tracing on/off for the chunk and, when on, captures every
  span recorded during it as a :data:`SpanBatch` — and *trims* those
  events from the worker-local collector so a long-lived worker never
  accumulates an unbounded trace it has already shipped;
* the parent calls :func:`absorb_batch` with the worker's pid, which
  rehydrates the tuples into :class:`~repro.obs.runtime.SpanEvent`
  objects tagged with that pid and appends them to the collector, so
  one :func:`~repro.obs.export.chrome_trace` artifact carries parent
  and worker lanes on the shared monotonic timebase
  (``time.perf_counter`` is ``CLOCK_MONOTONIC`` on Linux — comparable
  across local processes).

When the flag is off, :func:`worker_tracing` degrades to exactly the
old ``obs.tracing(False)`` force and :meth:`SpanCapture.batch` returns
``None`` — the disabled path allocates one small object per *chunk*
and nothing per task, keeping the <2% disabled-span overhead gate
intact.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Sequence

from repro.obs import runtime

#: One shipped span: (name, start, duration, self_time, depth, args).
SpanRecord = tuple[str, float, float, float, int, dict[str, object]]
#: A chunk's worth of shipped spans, in recording order.
SpanBatch = tuple[SpanRecord, ...]


def encode_events(events: Sequence[runtime.SpanEvent]) -> SpanBatch:
    """Flatten span events into picklable tuples (drops the pid tag —
    the parent re-tags on absorb with the pid the executor reports)."""
    return tuple(
        (e.name, e.start, e.duration, e.self_time, e.depth, dict(e.args))
        for e in events
    )


def decode_batch(batch: SpanBatch, pid: int) -> list[runtime.SpanEvent]:
    """Rehydrate a shipped batch into events tagged with ``pid``."""
    return [
        runtime.SpanEvent(
            name=name,
            start=start,
            duration=duration,
            self_time=self_time,
            depth=depth,
            args=dict(args),
            pid=pid,
        )
        for name, start, duration, self_time, depth, args in batch
    ]


def absorb_batch(batch: SpanBatch, pid: int) -> int:
    """Merge a worker's shipped batch into this process's collector.

    Returns how many events were absorbed (the pool's
    ``parallel.spans_shipped`` counter feed; 0 under suspension).
    """
    return runtime.record_imported(decode_batch(batch, pid))


class SpanCapture:
    """Handle yielded by :func:`worker_tracing`; holds the shipped batch."""

    __slots__ = ("_batch",)

    def __init__(self) -> None:
        self._batch: SpanBatch | None = None

    def batch(self) -> SpanBatch | None:
        """The captured spans, or ``None`` when tracing was off (or
        the chunk recorded nothing)."""
        return self._batch


@contextmanager
def worker_tracing(ship: bool) -> Iterator[SpanCapture]:
    """Force tracing for one chunk and capture the spans it records.

    ``ship=False`` is the disabled fast path: tracing is forced *off*
    (exactly the pre-shipping worker behavior) and nothing is captured.
    ``ship=True`` forces tracing on, and on clean exit the events
    recorded inside the block are encoded into the capture and removed
    from the worker-local collector (shipped state lives with the
    parent). On an exception the events are still trimmed — the chunk's
    return value, batch included, is discarded by the pool anyway.
    """
    capture = SpanCapture()
    with runtime.tracing(ship):
        if not ship:
            yield capture
            return
        base = len(runtime._events)
        try:
            yield capture
            shipped = runtime._events[base:]
            if shipped:
                capture._batch = encode_events(shipped)
        finally:
            del runtime._events[base:]
