"""Parent-side process pool for the GAC candidate scan.

:class:`CandidateScanPool` owns a ``ProcessPoolExecutor`` whose workers
attach a one-time shared-memory export of the graph's CSR view
(:mod:`repro.parallel.shm`) and evaluate chunks of candidates
(:mod:`repro.parallel.worker`). The pool itself is policy-free: it
ships task chunks and returns results in dispatch order; the
determinism-preserving two-phase scan (bound-sorted chunks, threshold
barriers, serial replay merge) lives with the greedy in
:mod:`repro.anchors.gac`.

Dispatch economics: the epoch header — round number plus the anchor
lineage — is pickled once per *chunk*, not once per task; chunk sizes
adapt to the previous dispatch's measured per-task latency; each chunk's
``TaskResult`` tuples ride back on its return value. Adaptive sizing is
results-safe because the greedy's replay phase discards speculative
extras — a bigger or smaller chunk can only change *work*, never the
selected anchor.

Observability: every chunk return piggybacks a small telemetry tuple
(worker pid, execute start/end clocks, lineage-cache deltas, and — for
traced dispatches — the worker's span batch, see
:mod:`repro.obs.shipping`). The pool folds it into the registry as
``parallel.*`` health gauges/counters (dispatch latency, queue-wait vs
execute time, per-worker busy seconds, utilization, EWMA chunk sizing,
cache hit/advance/rebuild counts) and merges shipped spans into the
parent trace with per-worker pid lanes. Telemetry observes only: the
merged results are byte-identical whether or not tracing is on.

Failure model: any worker/pickling/executor/protocol error marks the pool
``broken`` and propagates to the caller, which falls back to the serial
scan — dispatch never mutates shared algorithm state, so a failed batch
leaves the round exactly where the serial scan would start it. A hard
worker death surfaces as ``BrokenProcessPool`` (the executor, unlike
``multiprocessing.Pool``, never hangs on it).
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

from repro import obs as _obs
from repro.core.tree import NodeId
from repro.faults import fault_point as _fault_point
from repro.obs import shipping as _shipping
from repro.graphs.csr import csr_view
from repro.graphs.graph import Graph, Vertex
from repro.parallel import worker as _worker
from repro.parallel.shm import SharedCSR
from repro.parallel.util import chunked

#: First-dispatch fallback before any latency measurement exists: keep
#: chunks small enough for load balancing but large enough to amortize
#: the per-submission IPC.
_TARGET_BATCHES_PER_WORKER = 4
#: Adaptive target: one chunk should cost a worker about this long, so
#: cheap tasks coalesce into big chunks and expensive ones spread out.
_TARGET_CHUNK_SECONDS = 0.02
#: Adaptive target for the greedy's speculative dispatch window (the
#: bound-sorted slice evaluated between threshold barriers).
_TARGET_DISPATCH_SECONDS = 0.10
#: First-round dispatch window per worker (pre-latency heuristic).
_CHUNK_PER_WORKER = 8
#: Hard cap on the adaptive dispatch window.
_MAX_DISPATCH = 65536


class PoolUnavailable(RuntimeError):
    """A candidate-scan pool cannot be built in this configuration."""


def _start_method() -> str | None:
    """``fork`` where the platform has it, else its default (``None``).

    ``fork`` makes worker start-up (and therefore small-graph runs)
    dramatically cheaper than ``spawn``; results are identical either
    way because workers rebuild all state from the shared CSR + task
    payloads.
    """
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else None


class CandidateScanPool:
    """A worker pool bound to one graph snapshot for follower evaluation.

    Args:
        graph: the (unmutated) graph the greedy is running on; its CSR
            view is exported to shared memory once, here.
        workers: process count (must be >= 2 — the caller handles the
            serial cases).
        follower_method: ``"tree"`` (Algorithm 4) or ``"naive"``.

    Raises:
        PoolUnavailable: a bad worker count, or executor start-up failure.
        GraphError: the vertex labels are mutually unorderable (no CSR
            view to export).
    """

    __slots__ = (
        "workers",
        "broken",
        "spans_shipped",
        "_shared",
        "_executor",
        "_latency",
        "_chunk_seq",
        "_busy_by_pid",
        "_busy_total",
        "_elapsed_total",
        "_queue_wait_total",
    )

    def __init__(
        self,
        graph: Graph,
        workers: int,
        *,
        follower_method: str = "tree",
    ) -> None:
        if workers < 2:
            raise PoolUnavailable(f"need >= 2 workers for a pool, got {workers}")
        csr = csr_view(graph)
        self.workers = workers
        self.broken = False
        #: Worker span events merged into the parent trace so far.
        self.spans_shipped = 0
        self._latency: float | None = None
        self._chunk_seq = 0
        self._busy_by_pid: dict[int, float] = {}
        self._busy_total = 0.0
        self._elapsed_total = 0.0
        self._queue_wait_total = 0.0
        self._shared = SharedCSR.export(csr)
        try:
            self._executor = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context(_start_method()),
                initializer=_worker.init_worker,
                initargs=(self._shared.handle, follower_method),
            )
        except Exception as exc:
            self._shared.close()
            raise PoolUnavailable(f"process pool failed to start: {exc}") from exc

    # ------------------------------------------------------------------
    # Adaptive sizing
    # ------------------------------------------------------------------
    def _chunk_tasks(self, n: int) -> int:
        """Tasks per chunk for an ``n``-task dispatch.

        The measured per-task latency sizes chunks to about
        :data:`_TARGET_CHUNK_SECONDS` each, capped so every worker still
        gets work. Before any measurement exists, fall back to a static
        split of :data:`_TARGET_BATCHES_PER_WORKER` chunks per worker.
        """
        if self._latency is not None and self._latency > 0:
            size = round(_TARGET_CHUNK_SECONDS / self._latency)
        else:
            size = -(-n // (self.workers * _TARGET_BATCHES_PER_WORKER))
        balanced = -(-n // self.workers)
        return max(1, min(size, balanced))

    def dispatch_size(self) -> int:
        """Candidates the greedy should dispatch between threshold barriers.

        Sized so one speculative window costs the pool about
        :data:`_TARGET_DISPATCH_SECONDS` of per-task work — small enough
        that the simulated threshold stays fresh (little wasted
        speculation), large enough that barrier overhead amortizes.
        Floor of two full chunks per worker; pre-latency it is a static
        :data:`_CHUNK_PER_WORKER` candidates per worker.
        """
        if self._latency is not None and self._latency > 0:
            size = round(_TARGET_DISPATCH_SECONDS / self._latency)
            return max(2 * self.workers, min(size, _MAX_DISPATCH))
        return max(16, _CHUNK_PER_WORKER * self.workers)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def evaluate(
        self,
        epoch: int,
        anchors: tuple[Vertex, ...],
        tasks: "list[tuple[Vertex, dict[NodeId, int] | None]]",
    ) -> list[_worker.TaskResult]:
        """Evaluate one batch of candidates; results in dispatch order.

        ``anchors`` is the anchor *lineage* in application order (sorted
        initial anchors, then selections) — workers key their persistent
        state cache on it. Any failure (worker crash, pickling error,
        broken executor, a result for the wrong candidate) marks the
        pool broken and re-raises; the caller falls back to the serial
        scan for the whole round.
        """
        n = len(tasks)
        header: _worker.ChunkHeader = (epoch, anchors)
        trace = _obs.tracing_enabled()
        try:
            size = self._chunk_tasks(n)
            payloads: list[_worker.ChunkPayload] = []
            for chunk in chunked(tasks, size):
                payloads.append((header, tuple(chunk), (self._chunk_seq, trace)))
                self._chunk_seq += 1
            _fault_point("parallel.dispatch")
            start = _obs.clock()
            returns = list(self._executor.map(_worker.evaluate_chunk, payloads))
            elapsed = _obs.clock() - start
            results = _merge(payloads, [chunk_return[0] for chunk_return in returns])
            self._record_health(
                [chunk_return[1] for chunk_return in returns], start, elapsed
            )
        except Exception:
            self.broken = True
            raise
        per_task = elapsed / n if n else elapsed
        self._latency = (
            per_task
            if self._latency is None
            else 0.5 * (self._latency + per_task)
        )
        _obs.gauge("parallel.task_latency_ewma_s", self._latency)
        _obs.gauge("parallel.chunk_size", size)
        _obs.gauge("parallel.dispatch_window", self.dispatch_size())
        _obs.add(_obs.PARALLEL_TASKS, n)
        _obs.add(_obs.PARALLEL_CHUNKS, len(payloads))
        _obs.add(_obs.PARALLEL_DISPATCHES)
        return results

    def _record_health(
        self,
        telemetry: "list[_worker.ChunkTelemetry]",
        dispatch_start: float,
        elapsed: float,
    ) -> None:
        """Fold one dispatch's worker telemetry into the obs registry.

        Per chunk the worker reports its pid, execute start/end clocks
        (``perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, so parent and
        worker readings share a timebase; elsewhere queue-wait figures
        are best-effort), lineage-cache deltas, and the span batch for
        traced dispatches. Everything lands in gauges/counters so
        ``python -m repro.obs report`` can print a pool section without
        holding a pool reference.
        """
        busy = 0.0
        queue_wait = 0.0
        hits = advances = rebuilds = 0
        batches = 0
        shipped = 0
        for pid, _chunk_id, exec_start, exec_end, cache_deltas, batch in telemetry:
            busy += exec_end - exec_start
            queue_wait += max(0.0, exec_start - dispatch_start)
            hits += cache_deltas[0]
            advances += cache_deltas[1]
            rebuilds += cache_deltas[2]
            self._busy_by_pid[pid] = self._busy_by_pid.get(pid, 0.0) + (
                exec_end - exec_start
            )
            if batch:
                batches += 1
                shipped += _shipping.absorb_batch(batch, pid)
        self._busy_total += busy
        self._elapsed_total += elapsed
        self._queue_wait_total += queue_wait
        self.spans_shipped += shipped
        if hits:
            _obs.add(_obs.PARALLEL_STATE_HITS, hits)
        if advances:
            _obs.add(_obs.PARALLEL_STATE_ADVANCES, advances)
        if rebuilds:
            _obs.add(_obs.PARALLEL_STATE_REBUILDS, rebuilds)
        if batches:
            _obs.add(_obs.PARALLEL_SPAN_BATCHES, batches)
            _obs.add(_obs.PARALLEL_SPANS_SHIPPED, shipped)
        _obs.gauge("parallel.dispatch_latency_s", elapsed)
        _obs.gauge("parallel.queue_wait_s", self._queue_wait_total)
        _obs.gauge("parallel.execute_s", self._busy_total)
        if self._elapsed_total > 0:
            _obs.gauge(
                "parallel.utilization",
                min(1.0, self._busy_total / (self._elapsed_total * self.workers)),
            )
        for pid, busy_s in sorted(self._busy_by_pid.items()):
            _obs.gauge(f"parallel.worker.{pid}.busy_s", busy_s)

    def close(self) -> None:
        """Shut the executor down, wait for its workers, release the graph block.

        Waits for the worker processes to exit, so none outlives the
        run that started it. Teardown failures are swallowed (gauged as
        ``parallel.close_error``): the scan results are already merged by
        the time the pool closes, and a cleanup error must not fail a
        finished run. The shared block gets its own attempt — an
        executor-shutdown error can never skip its release, and the OS
        reclaims anything still mapped at process exit. Hosts the
        ``shm.exporter_finalize`` fault site.
        """
        try:
            self._executor.shutdown(wait=True, cancel_futures=True)
        except Exception:
            _obs.gauge("parallel.close_error", 1.0)
        try:
            _fault_point("shm.exporter_finalize")
            self._shared.close()
        except Exception:
            _obs.gauge("parallel.close_error", 1.0)

    def __repr__(self) -> str:
        state = "broken" if self.broken else "ready"
        return f"CandidateScanPool(workers={self.workers}, {state})"


def _merge(
    payloads: "list[_worker.ChunkPayload]",
    returned: "list[list[_worker.TaskResult]]",
) -> list[_worker.TaskResult]:
    """Concatenate the chunks' results in task order, checking each one.

    Every result must name the candidate of the task in its position; a
    mismatch means the chunk protocol broke, and the whole dispatch is
    discarded in favor of the serial scan.
    """
    results: list[_worker.TaskResult] = []
    for (_header, chunk_tasks, _meta), chunk_results in zip(payloads, returned):
        if len(chunk_results) != len(chunk_tasks):
            raise RuntimeError(
                f"chunk returned {len(chunk_results)} results for "
                f"{len(chunk_tasks)} tasks — chunk protocol violation"
            )
        for (candidate, _reusable), result in zip(chunk_tasks, chunk_results):
            if result[0] != candidate:
                raise RuntimeError(
                    f"result for candidate {result[0]!r} where {candidate!r} "
                    "was dispatched — chunk protocol violation"
                )
            results.append(result)
    return results
