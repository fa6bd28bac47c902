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

Results ride the chunk's return value: one ``(candidate, follower
total, per-node counts, counter deltas)`` tuple per task, in task order,
pickled once per chunk by the executor.

Determinism contract: a worker's state for a lineage equals
``AnchoredState.build(graph, set(lineage))`` structurally, and every
derived structure is deterministic given graph + anchor set, so
per-candidate follower counts are byte-identical to what the serial
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

from repro import obs as _obs
from repro.obs import shipping as _shipping
from repro.anchors.followers import FollowerSearch, followers_naive
from repro.anchors.incremental import apply_anchor
from repro.anchors.state import AnchoredState
from repro.core.decomposition import CoreDecomposition, core_decomposition
from repro.core.tree import NodeId
from repro.graphs.graph import Graph, Vertex
from repro.parallel.shm import AttachedCSR, SharedCSRHandle, attach
from repro.verify import verification as _verification

#: Chunk header, pickled once per chunk: (round epoch, anchors in
#: application order — sorted initial anchors first, then selections).
ChunkHeader = tuple[int, "tuple[Vertex, ...]"]
#: One candidate evaluation: (candidate, validated reuse counts —
#: ``None`` on the no-reuse / naive paths).
Task = tuple[Vertex, "dict[NodeId, int] | None"]
#: Per-chunk shipping directives: (chunk id, unique within a pool's
#: lifetime; whether this chunk records and ships worker spans).
ChunkMeta = tuple[int, bool]
#: One dispatched chunk: (header, the tasks, and the shipping directives).
ChunkPayload = tuple[ChunkHeader, "tuple[Task, ...]", ChunkMeta]
#: One result: (candidate, follower total, per-node counts for the
#: reuse cache — ``None`` on the naive path — and the counter deltas
#: this evaluation produced).
TaskResult = tuple[Vertex, int, "dict[NodeId, int] | None", "dict[str, int]"]
#: Worker-side telemetry piggybacked on every chunk return: (worker
#: pid, echoed chunk id, execute start/end ``obs.clock`` readings —
#: ``CLOCK_MONOTONIC``, comparable with the parent's dispatch clock on
#: the same host — lineage-cache (hits, advances, rebuilds) deltas,
#: and the shipped span batch, ``None`` for untraced chunks).
ChunkTelemetry = tuple[
    int, int, float, float, "tuple[int, int, int]", "_shipping.SpanBatch | None"
]
#: What ``evaluate_chunk`` returns: every task's result, in task order,
#: plus the chunk's telemetry.
ChunkReturn = tuple["list[TaskResult]", ChunkTelemetry]


class _WorkerState:
    """Per-process singleton: attached graph + persistent derived state."""

    __slots__ = (
        "attachment",
        "graph",
        "follower_method",
        "epoch",
        "lineage",
        "state",
        "base",
        "cache_stats",
    )

    def __init__(
        self,
        attachment: AttachedCSR,
        graph: Graph,
        follower_method: str,
    ) -> None:
        self.attachment = attachment
        self.graph = graph
        self.follower_method = follower_method
        self.epoch = -1
        self.lineage: tuple[Vertex, ...] | None = None
        self.state: AnchoredState | None = None
        self.base: CoreDecomposition | None = None
        #: Cumulative lineage-cache [hits, advances, rebuilds]; chunks
        #: ship per-chunk deltas of these to the parent's registry.
        self.cache_stats: list[int] = [0, 0, 0]


_state: _WorkerState | None = None


def init_worker(  # lint: obs-ok runs once before any traced dispatch; nothing to ship
    handle: SharedCSRHandle,
    follower_method: str,
) -> None:
    """Pool initializer: attach the shared CSR and build the graph once.

    A failed attach means the pool never becomes healthy and the first
    dispatch falls back to the serial scan.
    """
    global _state
    attachment = attach(handle)
    with _obs.tracing(False), _obs.suspended():
        graph = attachment.csr.to_graph()
    _state = _WorkerState(attachment, graph, follower_method)
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


def evaluate_chunk(payload: ChunkPayload) -> ChunkReturn:
    """Evaluate one chunk of candidates; results return with the chunk.

    The first half of the return holds every task's ``TaskResult`` in
    task order; the telemetry half carries the worker pid, chunk id,
    execute start/end clocks, lineage-cache deltas, and — for traced
    chunks — the span batch. A traced chunk wraps its task loop in a
    ``worker.chunk`` span, recorded via
    :func:`repro.obs.shipping.worker_tracing`. Each task runs the serial
    round's count-only :class:`~repro.anchors.followers.FollowerSearch`.
    """
    (epoch, lineage), tasks, (chunk_id, trace) = payload
    results: list[TaskResult] = []
    started = _obs.clock()
    stats_base = tuple(_state.cache_stats) if _state is not None else (0, 0, 0)
    with _shipping.worker_tracing(trace) as capture, _verification(False):
        anchors = frozenset(lineage)
        with _obs.span("worker.chunk", chunk=chunk_id, tasks=len(tasks)):
            for candidate, reusable in tasks:
                worker = _state_for(epoch, lineage)
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
                    search = FollowerSearch(state)
                    counts = search.counts(state.tables.index[candidate], reusable)
                    search.flush()
                    total = sum(counts.values())
                results.append((candidate, total, counts, window.counters()))
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
    return results, telemetry
