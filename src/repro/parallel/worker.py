"""Worker-process side of the candidate-scan pool.

Each worker attaches the shared CSR block once (pool initializer),
materializes the adjacency :class:`~repro.graphs.graph.Graph` from it —
with the zero-copy CSR view pre-interned, so substrate kernels hit the
flat fast path exactly like the parent's — and keeps one *persistent*
derived state across rounds. Tasks arrive in chunks: one
:data:`ChunkPayload` carries the epoch header (epoch number + the
anchor lineage in application order) exactly once, then a tuple of
``(candidate, reusable_counts)`` tasks, so the per-task pickle cost of
the old one-payload-per-candidate protocol is gone.

Persistent state: ``_state_for`` keys its cache on the anchor lineage,
not just the epoch. When a new epoch's lineage extends the cached one —
the common case, the greedy adds one anchor per round — the worker
replays the paper's local subtree rebuild
(:func:`repro.anchors.incremental.apply_anchor`) for just the new
anchors instead of rebuilding ``AnchoredState`` from scratch; a full
rebuild happens only when the lineage diverges (fresh pool, resumed
run, naive method). ``apply_anchor``'s oracle — structural equality
with a fresh build — is what keeps this byte-identical.

Results return through the parent's :class:`~repro.parallel.shm.SharedResults`
block: each task encodes ``(candidate id, follower
total, counter deltas, inline per-node counts)`` as a fixed-width int
row in the disjoint slot the parent assigned. Rows that cannot hold a
result (oversized count sets, counter names outside the agreed table)
fall back to the executor's pickle channel per task — the overflow list
is the chunk's return value, so the common case ships back an empty
list.

Determinism contract: a worker's state for a lineage equals
``AnchoredState.build(graph, set(lineage))`` structurally, and every
derived structure is deterministic given graph + anchor set, so
per-candidate follower reports are byte-identical to what the serial
scan would compute. Verification is forced off in workers; the work
counters of each evaluation are captured as a registry
:class:`~repro.obs.Window` delta and shipped back for the parent's
deterministic merge (state rebuilds run suspended — the serial scan
builds its state once outside the candidate loop too).

Tracing follows the *dispatch*: each chunk carries an explicit flag
(the parent's ``tracing_enabled()`` at dispatch time — explicit so fork
and spawn behave identically), and a traced chunk records spans through
:func:`repro.obs.shipping.worker_tracing` and ships them back in the
chunk's :data:`ChunkTelemetry`, tagged with the worker pid. Spans
observe, they never steer: traced and untraced chunks produce
byte-identical results, and an untraced chunk pays only the old
forced-off gate.
"""

from __future__ import annotations

import atexit
import os
from array import array

from repro import obs as _obs
from repro.obs import shipping as _shipping
from repro.anchors.followers import find_followers, followers_naive
from repro.anchors.incremental import apply_anchor
from repro.anchors.state import AnchoredState
from repro.core.decomposition import CoreDecomposition, core_decomposition
from repro.core.tree import NodeId
from repro.faults import fault_point as _fault_point
from repro.graphs.graph import Graph, Vertex
from repro.parallel.shm import (
    AttachedCSR,
    AttachedResults,
    ResultsHandle,
    SharedCSRHandle,
    attach,
    attach_results,
)
from repro.verify import verification as _verification

#: Chunk header, pickled once per chunk: (round epoch, anchors in
#: application order — sorted initial anchors first, then selections —
#: and the concrete follower-kernel name the parent resolved, so every
#: worker evaluation runs the same backend as the serial scan would;
#: ``None`` lets the worker resolve its own environment).
ChunkHeader = tuple[int, "tuple[Vertex, ...]", "str | None"]
#: One candidate evaluation: (candidate, validated reuse counts —
#: ``None`` on the no-reuse / naive paths).
Task = tuple[Vertex, "dict[NodeId, int] | None"]
#: Per-chunk shipping directives: (chunk id, unique within a pool's
#: lifetime; whether this chunk records and ships worker spans).
ChunkMeta = tuple[int, bool]
#: One dispatched chunk: (header, first result slot, result-block
#: handle, the tasks, and the shipping directives).
ChunkPayload = tuple[ChunkHeader, int, ResultsHandle, "tuple[Task, ...]", ChunkMeta]
#: One result: (candidate, follower total, per-node counts for the
#: reuse cache — ``None`` on the naive path — and the counter deltas
#: this evaluation produced).
TaskResult = tuple[Vertex, int, "dict[NodeId, int] | None", "dict[str, int]"]
#: A chunk's pickle-channel return: only the results that did not fit
#: their shared row, as (offset within the chunk, result).
ChunkOverflow = list[tuple[int, TaskResult]]
#: Worker-side telemetry piggybacked on every chunk return: (worker
#: pid, echoed chunk id, execute start/end ``obs.clock`` readings —
#: ``CLOCK_MONOTONIC``, comparable with the parent's dispatch clock on
#: the same host — lineage-cache (hits, advances, rebuilds) deltas,
#: and the shipped span batch, ``None`` for untraced chunks).
ChunkTelemetry = tuple[
    int, int, float, float, "tuple[int, int, int]", "_shipping.SpanBatch | None"
]
#: What ``evaluate_chunk`` returns over the executor's pickle channel.
ChunkReturn = tuple[ChunkOverflow, ChunkTelemetry]

#: Row layout: [candidate id + 1, follower total, n_counts] + one int
#: per agreed counter name + ``(node id, count)`` pairs. The +1 tag
#: means a zeroed (never-written) row can never validate on the parent
#: side. ``n_counts`` is -1 when the result carries no reuse counts
#: (naive / no-reuse paths).
ROW_FIXED_INTS = 3
_NO_COUNTS = -1
_INT_MAX = 2**31 - 1


class _WorkerState:
    """Per-process singleton: attached graph + persistent derived state."""

    __slots__ = (
        "attachment",
        "graph",
        "follower_method",
        "counter_names",
        "counter_pos",
        "epoch",
        "lineage",
        "state",
        "base",
        "results",
        "cache_stats",
    )

    def __init__(
        self,
        attachment: AttachedCSR,
        graph: Graph,
        follower_method: str,
        counter_names: tuple[str, ...],
    ) -> None:
        self.attachment = attachment
        self.graph = graph
        self.follower_method = follower_method
        self.counter_names = counter_names
        self.counter_pos = {name: i for i, name in enumerate(counter_names)}
        self.epoch = -1
        self.lineage: tuple[Vertex, ...] | None = None
        self.state: AnchoredState | None = None
        self.base: CoreDecomposition | None = None
        self.results: AttachedResults | None = None
        #: Cumulative lineage-cache [hits, advances, rebuilds]; chunks
        #: ship per-chunk deltas of these to the parent's registry.
        self.cache_stats: list[int] = [0, 0, 0]


_state: _WorkerState | None = None


def init_worker(  # lint: obs-ok runs once before any traced dispatch; nothing to ship
    handle: SharedCSRHandle,
    follower_method: str,
    counter_names: tuple[str, ...] = (),
) -> None:
    """Pool initializer: attach the shared CSR and build the graph once.

    ``counter_names`` is the parent's fixed counter table — the agreed
    row encoding for counter deltas. Hosts the ``worker.shm_attach``
    fault site (armed via the inherited ``REPRO_FAULTS`` environment): a
    failed attach means the pool never becomes healthy and the first
    dispatch falls back to the serial scan.
    """
    global _state
    _fault_point("worker.shm_attach")
    attachment = attach(handle)
    with _obs.tracing(False), _obs.suspended():
        graph = attachment.csr.to_graph()
    _state = _WorkerState(attachment, graph, follower_method, counter_names)
    # Release the memoryviews before the mapping at interpreter exit;
    # the reverse order raises BufferError during teardown.
    atexit.register(attachment.close)


def _state_for(epoch: int, lineage: "tuple[Vertex, ...]") -> _WorkerState:
    """The persistent per-worker state, advanced to ``lineage``.

    Cache policy: same epoch → reuse as-is. A lineage that *extends* the
    cached one → apply the new anchors incrementally (Algorithm 3's
    local subtree rebuild, no invalidation bookkeeping — workers hold no
    follower cache). Anything else → full rebuild. The naive method
    always rebuilds its plain decomposition (no incremental oracle for
    it, and it is the measured Baseline anyway).
    """
    worker = _state
    if worker is None:
        raise RuntimeError("worker used before init_worker ran")
    if worker.epoch == epoch and worker.lineage == lineage:
        worker.cache_stats[0] += 1
        return worker
    anchor_set = frozenset(lineage)
    cached = worker.lineage
    with _obs.suspended():
        if worker.follower_method == "naive":
            worker.base = core_decomposition(worker.graph, anchor_set)
            worker.state = None
            worker.cache_stats[2] += 1
        elif (
            worker.state is not None
            and cached is not None
            and len(lineage) > len(cached)
            and lineage[: len(cached)] == cached
        ):
            for x in lineage[len(cached) :]:
                apply_anchor(worker.state, x, compute_removals=False)
            worker.cache_stats[1] += 1
        else:
            worker.state = AnchoredState.build(worker.graph, anchor_set)
            worker.base = None
            worker.cache_stats[2] += 1
    worker.epoch = epoch
    worker.lineage = lineage
    return worker


def _results_for(handle: ResultsHandle) -> AttachedResults:
    """The cached result-block attachment, re-attached when the parent
    grew (and therefore renamed) the block."""
    worker = _state
    if worker is None:
        raise RuntimeError("worker used before init_worker ran")
    cached = worker.results
    if cached is not None and cached.handle.name == handle.name:
        return cached
    if cached is not None:
        cached.close()
    worker.results = attach_results(handle)
    return worker.results


def _encode_row(
    results: AttachedResults,
    slot: int,
    worker: _WorkerState,
    candidate_id: int,
    total: int,
    counts: "dict[NodeId, int] | None",
    deltas: "dict[str, int]",
) -> bool:
    """Encode one result into its shared row; False → pickle fallback.

    A result overflows when its count set exceeds the row's inline pair
    capacity, a counter name is outside the agreed table, or any value
    exceeds the row's 32-bit ints (graph-bounded values never do; the
    guard keeps a silent wrap impossible).
    """
    pos = worker.counter_pos
    names = worker.counter_names
    width = results.handle.row_ints
    pair_capacity = (width - ROW_FIXED_INTS - len(names)) // 2
    index = worker.attachment.csr.index
    delta_vector = [0] * len(names)
    for name, value in deltas.items():
        at = pos.get(name)
        if at is None or value > _INT_MAX:
            return False
        delta_vector[at] = value
    if counts is None:
        row = [candidate_id + 1, total, _NO_COUNTS]
        row.extend(delta_vector)
    else:
        if len(counts) > pair_capacity:
            return False
        row = [candidate_id + 1, total, len(counts)]
        row.extend(delta_vector)
        for nid, count in counts.items():
            if count > _INT_MAX:
                return False
            row.append(index[nid])
            row.append(count)
    results.write_row(slot, array("i", row))
    return True


def evaluate_chunk(payload: ChunkPayload) -> ChunkReturn:
    """Evaluate one chunk of candidates; results go to shared rows.

    The overflow half of the return holds only the results that did not
    fit their row, as ``(offset, result)`` pairs; the telemetry half
    carries the worker pid, chunk id, execute start/end clocks,
    lineage-cache deltas, and — for traced chunks — the span batch. A
    traced chunk wraps its task loop in a ``worker.chunk`` span (inner
    ``followers.search`` spans nest under it), recorded via
    :func:`repro.obs.shipping.worker_tracing`. Hosts the
    ``worker.task_start`` and ``worker.follower_eval`` fault sites per
    task; both fire *before* the counter window opens, so an armed
    ``delay`` never leaks extra counts into the shipped deltas.
    """
    (epoch, lineage, kernel), slot_base, results_handle, tasks, (chunk_id, trace) = (
        payload
    )
    overflow: ChunkOverflow = []
    started = _obs.clock()
    stats_base = tuple(_state.cache_stats) if _state is not None else (0, 0, 0)
    with _shipping.worker_tracing(trace) as capture, _verification(False):
        results = _results_for(results_handle)
        anchors = frozenset(lineage)
        with _obs.span("worker.chunk", chunk=chunk_id, tasks=len(tasks)):
            for offset, (candidate, reusable) in enumerate(tasks):
                _fault_point("worker.task_start")
                worker = _state_for(epoch, lineage)
                _fault_point("worker.follower_eval")
                window = _obs.window()
                if worker.follower_method == "naive":
                    total = len(
                        followers_naive(
                            worker.graph, candidate, anchors=anchors, base=worker.base
                        )
                    )
                    counts: dict[NodeId, int] | None = None
                else:
                    state = worker.state
                    assert state is not None  # _state_for always builds one
                    report = find_followers(
                        state, candidate, reusable_counts=reusable, kernel=kernel
                    )
                    total = report.total
                    counts = dict(report.counts)
                deltas = window.counters()
                encoded = _encode_row(
                    results,
                    slot_base + offset,
                    worker,
                    worker.attachment.csr.index[candidate],
                    total,
                    counts,
                    deltas,
                )
                if not encoded:
                    overflow.append((offset, (candidate, total, counts, deltas)))
    stats_now = _state.cache_stats if _state is not None else [0, 0, 0]
    telemetry: ChunkTelemetry = (
        os.getpid(),
        chunk_id,
        started,
        _obs.clock(),
        (
            stats_now[0] - stats_base[0],
            stats_now[1] - stats_base[1],
            stats_now[2] - stats_base[2],
        ),
        capture.batch(),
    )
    return overflow, telemetry
