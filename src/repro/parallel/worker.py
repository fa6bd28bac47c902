"""Worker-process side of the candidate-scan pool.

Workers are forked once per round from the parent's live state, so they
already hold everything a candidate evaluation reads: the graph, the
round's anchored state and its validated reuse rows. Immediately before
the fork the pool puts the round's per-candidate evaluator — the serial
scan's own candidate stream, fed one id — and the tally that stream adds
to into the module slot :data:`_round` (:func:`install`); a forked
worker reads them from its copy-on-write memory. Nothing about the
state is pickled, attached or replayed.

Tasks are candidate CSR ids, one chunk per :data:`ChunkPayload`.
Results ride the chunk's return value: one ``(id, follower total,
per-node counts, tallies)`` tuple per task, in task order. The tallies
are the evaluation's four Figure-13 counts, taken from the tally after
each task, so the parent can add exactly the tallies of the candidates
its serial replay keeps.

Tracing follows the *dispatch*: each chunk carries an explicit flag
(the parent's ``tracing_enabled()`` at dispatch time), and a traced
chunk records spans through :func:`repro.obs.shipping.worker_tracing`
and ships them back in the chunk's :data:`ChunkTelemetry`, tagged with
the worker pid. Spans observe, they never steer: traced and untraced
chunks produce byte-identical results.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable

from repro import obs as _obs
from repro.obs import shipping as _shipping

if TYPE_CHECKING:
    from repro.anchors.kernels.flat_backend import Tallies, Tally

#: The round's per-candidate evaluator: candidate id -> (follower total,
#: per-node counts for the reuse cache, ``None`` on the naive path).
Evaluate = Callable[[int], "tuple[int, dict[int, int] | None]"]
#: Per-chunk shipping directives: (chunk id, unique within a pool's
#: lifetime; whether this chunk records and ships worker spans).
ChunkMeta = tuple[int, bool]
#: One dispatched chunk: the candidate ids and the shipping directives.
ChunkPayload = tuple["tuple[int, ...]", ChunkMeta]
#: One result: (candidate id, follower total, per-node counts — ``None``
#: on the naive path — and the Figure-13 tallies of this evaluation).
TaskResult = tuple[int, int, "dict[int, int] | None", "Tallies"]
#: Worker-side telemetry piggybacked on every chunk return: (worker
#: pid, echoed chunk id, execute start/end ``obs.clock`` readings —
#: ``CLOCK_MONOTONIC``, comparable with the parent's dispatch clock on
#: the same host — and the shipped span batch, ``None`` for untraced
#: chunks).
ChunkTelemetry = tuple[int, int, float, float, "_shipping.SpanBatch | None"]
#: What ``evaluate_chunk`` returns: every task's result, in task order,
#: plus the chunk's telemetry.
ChunkReturn = tuple["list[TaskResult]", ChunkTelemetry]

#: The evaluator of the round being scanned and the tally it adds to;
#: set in the parent right before its workers fork, cleared when they
#: are shut down.
_round: "tuple[Evaluate, Tally] | None" = None


def install(  # lint: obs-ok a slot assignment in the parent
    round_: "tuple[Evaluate, Tally] | None",
) -> None:
    """Put the round's evaluator in the slot the forked workers read."""
    global _round
    _round = round_


def evaluate_chunk(payload: ChunkPayload) -> ChunkReturn:
    """Evaluate one chunk of candidate ids; results return with the chunk.

    The first half of the return holds every task's ``TaskResult`` in
    task order; the telemetry half carries the worker pid, chunk id,
    execute start/end clocks and — for traced chunks — the span batch.
    A traced chunk wraps its task loop in a ``worker.chunk`` span,
    recorded via :func:`repro.obs.shipping.worker_tracing`.
    """
    ids, (chunk_id, trace) = payload
    if _round is None:
        raise RuntimeError("no evaluator installed: workers must fork after install()")
    evaluate, tally = _round
    results: list[TaskResult] = []
    started = _obs.clock()
    with _shipping.worker_tracing(trace) as capture:
        with _obs.span("worker.chunk", chunk=chunk_id, tasks=len(ids)):
            for i in ids:
                total, counts = evaluate(i)
                results.append((i, total, counts, tally.take()))
    telemetry: ChunkTelemetry = (
        os.getpid(),
        chunk_id,
        started,
        _obs.clock(),
        capture.batch(),
    )
    return results, telemetry
