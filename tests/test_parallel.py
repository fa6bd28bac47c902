"""Tests for repro.parallel: shared CSR, pool lifecycle, and the
determinism contract of the parallel candidate scan.

The load-bearing assertion in this file is result *identity*: for every
worker count, ``greedy_anchored_coreness`` must return the same
``GreedyResult`` — anchors, gains, follower sets, and Figure-13 counter
totals — as the serial scan. Everything else (fallback gauges, crash
recovery, shm lifecycle) protects the machinery that keeps that true.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os

import pytest

# ``repro.anchors.__init__`` rebinds the name ``gac`` to the function, so
# ``import repro.anchors.gac`` would resolve the attribute, not the module.
gac_mod = importlib.import_module("repro.anchors.gac")
import repro.parallel.worker as worker_mod
from repro import obs
from repro.anchors.gac import gac, gac_u, greedy_anchored_coreness
from repro.datasets import registry
from repro.errors import GraphError
from repro.graphs.csr import csr_view
from repro.graphs.graph import Graph
from repro.parallel import (
    CandidateScanPool,
    PoolUnavailable,
    SharedCSR,
    SharedResults,
    attach,
    bucket_h_index,
    chunked,
    resolve_workers,
)

from conftest import needs_shm, small_random_graph

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture
def tiny_pools(monkeypatch):
    """Let pools spawn on the small graphs these tests use."""
    monkeypatch.setattr(gac_mod, "_MIN_PARALLEL_CANDIDATES", 1)


def _result_tuple(result):
    """Everything the determinism contract covers, as one comparable value."""
    return (
        result.anchors,
        result.gains,
        result.followers,
        result.truncated,
        [vars(t.counters) for t in result.traces],
        [t.candidate_count for t in result.traces],
    )


# ----------------------------------------------------------------------
# util helpers
# ----------------------------------------------------------------------
class TestUtil:
    def test_resolve_workers_explicit(self):
        assert resolve_workers(0) == 0
        assert resolve_workers(3) == 3
        assert resolve_workers(-2) == 0

    @pytest.mark.parametrize(
        ("raw", "expected"),
        [("", 0), ("  ", 0), ("nope", 0), ("-1", 0), ("2", 2), (" 4 ", 4)],
    )
    def test_resolve_workers_env(self, monkeypatch, raw, expected):
        monkeypatch.setenv("REPRO_PARALLEL", raw)
        assert resolve_workers(None) == expected

    def test_resolve_workers_env_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_PARALLEL", raising=False)
        assert resolve_workers(None) == 0

    def test_chunked(self):
        assert [list(c) for c in chunked([1, 2, 3, 4, 5], 2)] == [[1, 2], [3, 4], [5]]
        assert list(chunked([], 3)) == []
        with pytest.raises(ValueError):
            list(chunked([1], 0))

    def test_bucket_h_index_basics(self):
        assert bucket_h_index([]) == 0
        assert bucket_h_index([0, 0]) == 0
        assert bucket_h_index([3, 3, 3]) == 3
        assert bucket_h_index([5, 1, 1]) == 1
        assert bucket_h_index([100]) == 1


# ----------------------------------------------------------------------
# shared-memory CSR export / attach
# ----------------------------------------------------------------------
@needs_shm
class TestSharedCSR:
    def test_round_trip(self):
        graph = small_random_graph(3)
        csr = csr_view(graph)
        shared = SharedCSR.export(csr)
        try:
            attachment = attach(shared.handle)
            try:
                assert attachment.csr.num_vertices == csr.num_vertices
                assert attachment.csr.num_edges == csr.num_edges
                assert list(attachment.csr.labels) == list(csr.labels)
                assert attachment.csr.as_lists() == csr.as_lists()
            finally:
                attachment.close()
        finally:
            shared.close()

    def test_attached_graph_matches_original(self):
        graph = small_random_graph(5)
        shared = SharedCSR.export(csr_view(graph))
        try:
            attachment = attach(shared.handle)
            try:
                rebuilt = attachment.csr.to_graph()
                assert rebuilt.num_vertices == graph.num_vertices
                assert rebuilt.num_edges == graph.num_edges
                for u in graph.vertices():
                    assert rebuilt.neighbors(u) == graph.neighbors(u)
                # the CSR view is pre-interned on the rebuilt graph
                assert csr_view(rebuilt) is attachment.csr
            finally:
                attachment.close()
        finally:
            shared.close()

    def test_non_identity_labels_travel(self):
        graph = Graph.from_edges([(10, 20), (20, 30), (10, 30)])
        shared = SharedCSR.export(csr_view(graph))
        try:
            assert shared.handle.labels is not None
            attachment = attach(shared.handle)
            try:
                assert set(attachment.csr.labels) == {10, 20, 30}
            finally:
                attachment.close()
        finally:
            shared.close()

    def test_close_is_idempotent_and_unlinks(self):
        shared = SharedCSR.export(csr_view(small_random_graph(1)))
        handle = shared.handle
        assert not shared.closed
        shared.close()
        assert shared.closed
        shared.close()  # idempotent
        with pytest.raises(FileNotFoundError):
            attach(handle)

    def test_itemsize_mismatch_rejected(self):
        shared = SharedCSR.export(csr_view(small_random_graph(1)))
        try:
            from dataclasses import replace

            bad = replace(shared.handle, itemsize=shared.handle.itemsize * 2)
            with pytest.raises(ValueError, match="byte ints"):
                attach(bad)
        finally:
            shared.close()


# ----------------------------------------------------------------------
# pool construction and fallbacks
# ----------------------------------------------------------------------
class TestPoolConstruction:
    def test_rejects_single_worker(self):
        with pytest.raises(PoolUnavailable):
            CandidateScanPool(small_random_graph(0), 1)

    def test_rejects_graph_without_csr_view(self):
        # complex labels are mutually unorderable -> no CSR interning
        graph = Graph.from_edges([(1j, 2j), (2j, 3j), (1j, 3j)])
        with pytest.raises(GraphError, match="complex"):
            CandidateScanPool(graph, 2)

    def test_small_graph_falls_back_with_gauge(self):
        graph = small_random_graph(2)  # 40 vertices < _MIN_PARALLEL_CANDIDATES
        serial = gac(graph, 2, tie_break="id")
        parallel = gac(graph, 2, tie_break="id", workers=2)
        assert _result_tuple(serial) == _result_tuple(parallel)
        fallback = obs.gauges_snapshot().get("gac.parallel_fallback.small_graph")
        assert fallback == 1.0  # lint: float-eq-ok gauge stores the exact literal 1.0

    def test_single_worker_falls_back_with_gauge(self, tiny_pools):
        graph = small_random_graph(2)
        serial = gac(graph, 2, tie_break="id")
        one = gac(graph, 2, tie_break="id", workers=1)
        assert _result_tuple(serial) == _result_tuple(one)
        fallback = obs.gauges_snapshot().get("gac.parallel_fallback.single_worker")
        assert fallback == 1.0  # lint: float-eq-ok gauge stores the exact literal 1.0

    def test_verify_falls_back_with_gauge(self, tiny_pools):
        graph = small_random_graph(2)
        serial = gac(graph, 2, tie_break="id")
        verified = gac(graph, 2, tie_break="id", workers=2, verify=True)
        assert _result_tuple(serial) == _result_tuple(verified)
        fallback = obs.gauges_snapshot().get("gac.parallel_fallback.verify")
        assert fallback == 1.0  # lint: float-eq-ok gauge stores the exact literal 1.0


# ----------------------------------------------------------------------
# the determinism contract
# ----------------------------------------------------------------------
class TestScanDeterminism:
    _references: dict[str, tuple] = {}

    @pytest.mark.parametrize("workers", [0, 1, 2, 4])
    @pytest.mark.parametrize("dataset", ["arxiv", "brightkite"])
    def test_seed_datasets_identical(self, dataset, workers):
        graph = registry.load(dataset)
        if dataset not in self._references:
            self._references[dataset] = _result_tuple(
                greedy_anchored_coreness(graph, 3, workers=0)
            )
        run = greedy_anchored_coreness(graph, 3, workers=workers)
        assert _result_tuple(run) == self._references[dataset]

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 4])
    def test_random_graphs_identical(self, tiny_pools, seed, workers):
        graph = small_random_graph(seed, n=60, m=160)
        serial = gac(graph, 4, tie_break="id")
        parallel = gac(graph, 4, tie_break="id", workers=workers)
        assert _result_tuple(serial) == _result_tuple(parallel)

    def test_unpruned_variant_identical(self, tiny_pools):
        graph = small_random_graph(2, n=60, m=160)
        serial = gac_u(graph, 3, tie_break="id")
        parallel = gac_u(graph, 3, tie_break="id", workers=2)
        assert _result_tuple(serial) == _result_tuple(parallel)

    def test_random_tie_break_consumes_rng_identically(self, tiny_pools):
        graph = small_random_graph(0, n=60, m=160)
        serial = gac(graph, 3, tie_break="random", seed=99)
        parallel = gac(graph, 3, tie_break="random", seed=99, workers=2)
        assert _result_tuple(serial) == _result_tuple(parallel)

    @needs_shm
    def test_env_knob_engages_pool(self, tiny_pools, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "2")
        graph = small_random_graph(1, n=60, m=160)
        before = obs.get(obs.PARALLEL_TASKS)
        from_env = gac(graph, 2, tie_break="id")
        assert obs.get(obs.PARALLEL_TASKS) > before
        monkeypatch.setenv("REPRO_PARALLEL", "0")
        serial = gac(graph, 2, tie_break="id")
        assert _result_tuple(from_env) == _result_tuple(serial)

    def test_parallel_counters_outside_fig13(self, tiny_pools):
        """parallel.* counters must never leak into FollowerCounters."""
        graph = small_random_graph(1, n=60, m=160)
        run = gac(graph, 2, tie_break="id", workers=2)
        total = run.total_counters()
        assert set(vars(total)) == {
            "explored_nodes",
            "reused_nodes",
            "visited_vertices",
            "pruned_candidates",
            "evaluated_candidates",
        }


# ----------------------------------------------------------------------
# chunked dispatch: sizing knobs and row overflow never change results
# ----------------------------------------------------------------------
class TestChunkedDispatch:
    _reference: tuple | None = None

    def _serial(self):
        graph = small_random_graph(1, n=60, m=160)
        if TestChunkedDispatch._reference is None:
            TestChunkedDispatch._reference = _result_tuple(
                gac(graph, 3, tie_break="id", workers=0)
            )
        return graph, TestChunkedDispatch._reference

    @pytest.mark.parametrize("workers", [0, 2, 4])
    @pytest.mark.parametrize(
        "chunk", [None, "1", "10000"], ids=["adaptive", "one", "oversized"]
    )
    def test_chunk_size_matrix_identical(self, tiny_pools, monkeypatch, workers, chunk):
        if chunk is None:
            monkeypatch.delenv("REPRO_PARALLEL_CHUNK", raising=False)
        else:
            monkeypatch.setenv("REPRO_PARALLEL_CHUNK", chunk)
        graph, reference = self._serial()
        run = gac(graph, 3, tie_break="id", workers=workers)
        assert _result_tuple(run) == reference

    @needs_shm
    def test_row_overflow_falls_back_to_pickle(self, tiny_pools, monkeypatch):
        """Rows too narrow for any count set spill per task, same results."""
        import repro.parallel.pool as pool_mod

        # No inline pairs: every tree-path result with counts overflows.
        monkeypatch.setattr(
            pool_mod,
            "_ROW_INTS",
            pool_mod.ROW_FIXED_INTS + len(pool_mod._COUNTER_NAMES),
        )
        graph, reference = self._serial()
        before = obs.get(obs.PARALLEL_RESULT_OVERFLOWS)
        run = gac(graph, 3, tie_break="id", workers=2)
        assert _result_tuple(run) == reference
        assert obs.get(obs.PARALLEL_RESULT_OVERFLOWS) > before

    @needs_shm
    def test_chunk_counter_records_real_chunks(self, monkeypatch):
        """PARALLEL_CHUNKS counts shipped chunks, not dispatch calls."""
        monkeypatch.setenv("REPRO_PARALLEL_CHUNK", "1")
        graph = small_random_graph(1, n=60, m=160)
        pool = CandidateScanPool(graph, 2)
        try:
            tasks = [(u, None) for u in sorted(graph.vertices())[:10]]
            chunks_before = obs.get(obs.PARALLEL_CHUNKS)
            dispatches_before = obs.get(obs.PARALLEL_DISPATCHES)
            results = pool.evaluate(0, (), tasks)
            assert obs.get(obs.PARALLEL_CHUNKS) - chunks_before == len(tasks)
            assert obs.get(obs.PARALLEL_DISPATCHES) - dispatches_before == 1
            # decoded rows reproduce the serial oracle
            from repro.anchors.followers import find_followers
            from repro.anchors.state import AnchoredState

            state = AnchoredState.build(graph, frozenset())
            for (candidate, total, counts, _deltas), (u, _r) in zip(results, tasks):
                assert candidate == u
                report = find_followers(state, u)
                assert total == report.total
                assert counts == dict(report.counts)
        finally:
            pool.close()

    @needs_shm
    def test_close_releases_shm_when_shutdown_raises(self, monkeypatch):
        """The crash-fallback leak: a shutdown error must not skip shm."""
        graph = small_random_graph(1, n=60, m=160)
        pool = CandidateScanPool(graph, 2)
        executor = pool._executor
        real_shutdown = executor.shutdown
        try:
            pool.evaluate(0, (), [(u, None) for u in sorted(graph.vertices())[:4]])
            assert pool._results is not None

            def _boom(*args, **kwargs):
                raise RuntimeError("synthetic shutdown failure")

            monkeypatch.setattr(executor, "shutdown", _boom)
            pool.close()
            assert pool._shared.closed
            assert pool._results.closed
            error = obs.gauges_snapshot().get("parallel.close_error")
            assert error == 1.0  # lint: float-eq-ok gauge stores the exact literal 1.0
            # The registry must stay fully readable after the crash path —
            # reports and benches read it right after pool teardown.
            assert obs.counters_snapshot() is not None
            assert "parallel.close_error" in obs.counters_table(
                obs.gauges_snapshot()
            ).format()
            pool.close()  # idempotent: second close is a no-op, no raise
        finally:
            real_shutdown(wait=False, cancel_futures=True)


# ----------------------------------------------------------------------
# cross-process observability: span shipping and pool health
# ----------------------------------------------------------------------
@needs_shm
class TestSpanShipping:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_traced_scan_ships_worker_lanes(self, tiny_pools, workers):
        """A traced parallel run merges worker spans (foreign pids) into
        the parent collector and still matches the serial result."""
        graph = small_random_graph(1, n=60, m=160)
        serial = gac(graph, 3, tie_break="id")
        window = obs.window()
        with obs.tracing(True):
            run = gac(graph, 3, tie_break="id", workers=workers)
        assert _result_tuple(run) == _result_tuple(serial)
        events = window.events()
        worker_pids = {e.pid for e in events if e.pid != 0}
        assert worker_pids, "no worker spans were shipped"
        assert os.getpid() not in worker_pids
        worker_spans = [e for e in events if e.pid != 0]
        assert {e.name for e in worker_spans} >= {"worker.chunk"}
        shipped = window.counter(obs.PARALLEL_SPANS_SHIPPED)
        assert shipped == len(worker_spans)
        assert window.counter(obs.PARALLEL_SPAN_BATCHES) >= 1
        # The scan span advertises how many spans its dispatches shipped.
        scan_spans = [e for e in events if e.name == "gac.parallel_scan"]
        assert sum(e.args.get("shipped_spans", 0) for e in scan_spans) == shipped

    def test_untraced_scan_ships_nothing(self, tiny_pools):
        graph = small_random_graph(1, n=60, m=160)
        window = obs.window()
        gac(graph, 2, tie_break="id", workers=2)
        assert window.events() == []
        assert window.counter(obs.PARALLEL_SPANS_SHIPPED) == 0

    def test_tracing_does_not_change_results(self, tiny_pools):
        graph = small_random_graph(3, n=60, m=160)
        untraced = gac(graph, 3, tie_break="id", workers=2)
        with obs.tracing(True):
            traced = gac(graph, 3, tie_break="id", workers=2)
        assert _result_tuple(traced) == _result_tuple(untraced)


@needs_shm
class TestPoolHealth:
    def test_evaluate_populates_health_registry(self, tiny_pools):
        graph = small_random_graph(1, n=60, m=160)
        window = obs.window()
        gac(graph, 2, tie_break="id", workers=2)
        gauges = obs.gauges_snapshot()
        for name in (
            "parallel.dispatch_latency_s",
            "parallel.task_latency_ewma_s",
            "parallel.chunk_size",
            "parallel.dispatch_window",
            "parallel.queue_wait_s",
            "parallel.execute_s",
            "parallel.utilization",
        ):
            assert name in gauges, name
        assert 0.0 <= gauges["parallel.utilization"] <= 1.0
        worker_lanes = [
            name for name in gauges if name.startswith("parallel.worker.")
        ]
        assert worker_lanes, "per-worker busy gauges missing"
        assert window.counter(obs.PARALLEL_STATE_REBUILDS) >= 1
        assert window.counter(obs.PARALLEL_STATE_HITS) >= 0

    def test_shm_sizes_gauged(self, tiny_pools):
        graph = small_random_graph(1, n=60, m=160)
        pool = CandidateScanPool(graph, 2)
        try:
            gauges = obs.gauges_snapshot()
            assert gauges.get("shm.csr_bytes", 0) > 0
            pool.evaluate(0, (), [(u, None) for u in sorted(graph.vertices())[:4]])
            assert obs.gauges_snapshot().get("shm.result_bytes", 0) > 0
        finally:
            pool.close()


# ----------------------------------------------------------------------
# persistent worker state: the incremental lineage cache
# ----------------------------------------------------------------------
@needs_shm
class TestWorkerLineageCache:
    def test_incremental_advance_matches_fresh_build(self):
        """Extending the lineage advances the cached state in place and
        keeps every follower total equal to a fresh-build oracle."""
        from types import SimpleNamespace

        import repro.parallel.pool as pool_mod
        from repro.anchors.followers import find_followers
        from repro.anchors.state import AnchoredState
        from repro.core.decomposition import _sort_key

        graph = small_random_graph(2, n=60, m=160)
        csr = csr_view(graph)
        shared = SharedCSR.export(csr)
        rows = SharedResults.create(8, pool_mod._ROW_INTS)
        # The parent's row decoder, bound to this block and graph.
        decoder = SimpleNamespace(
            _results=rows, _index=csr.index, _labels=csr.labels
        )
        saved_state = worker_mod._state
        try:
            worker_mod.init_worker(shared.handle, "tree", pool_mod._COUNTER_NAMES)
            anchors_in_order = sorted(graph.vertices(), key=_sort_key)[:3]
            cached_ids = []
            for epoch in range(3):
                lineage = tuple(anchors_in_order[:epoch])
                candidates = [
                    u
                    for u in sorted(graph.vertices(), key=_sort_key)
                    if u not in lineage
                ][:6]
                payload = (
                    (epoch, lineage, None),  # kernel None: worker resolves
                    0,
                    rows.handle,
                    tuple((u, None) for u in candidates),
                    (epoch, False),  # chunk id, untraced
                )
                overflow, telemetry = worker_mod.evaluate_chunk(payload)
                assert len(overflow) < len(candidates)  # rows carry results
                pid, chunk_id, exec_start, exec_end, cache_stats, batch = telemetry
                assert pid == os.getpid()
                assert chunk_id == epoch
                assert exec_end >= exec_start
                assert batch is None  # untraced dispatch ships no spans
                hits, advances, rebuilds = cache_stats
                if epoch == 0:
                    assert rebuilds >= 1  # cold start builds the state
                else:
                    assert advances >= 1  # lineage grew by one anchor
                assert hits == len(candidates) - 1  # rest of chunk reuses it
                cached_ids.append(id(worker_mod._state.state))
                oracle = AnchoredState.build(graph, frozenset(lineage))
                spilled = dict(overflow)
                for offset, u in enumerate(candidates):
                    result = spilled.get(offset) or CandidateScanPool._decode_row(
                        decoder, offset, u
                    )
                    candidate, total, counts, _deltas = result
                    report = find_followers(oracle, candidate)
                    assert candidate == u
                    assert total == report.total
                    assert counts == dict(report.counts)
            # the same AnchoredState object advanced across epochs —
            # proof the incremental path ran instead of a rebuild
            assert cached_ids[1] == cached_ids[2]
        finally:
            state = worker_mod._state
            worker_mod._state = saved_state
            if state is not None:
                if state.results is not None:
                    state.results.close()
                state.attachment.close()
            rows.close()
            shared.close()


# ----------------------------------------------------------------------
# crash recovery: the pool must degrade, never corrupt
# ----------------------------------------------------------------------
def _soft_crash_evaluate(payload):
    """Evaluate normally in round 0, blow up from round 1 on."""
    if payload[0][0] >= 1:  # payload[0] is the (epoch, lineage, kernel) header
        raise RuntimeError("synthetic worker failure")
    return worker_mod.evaluate_chunk(payload)


def _hard_crash_evaluate(payload):
    """Kill the worker process outright (BrokenProcessPool in the parent)."""
    os._exit(1)


@needs_shm
@pytest.mark.skipif(not _HAS_FORK, reason="crash injection needs fork workers")
class TestCrashFallback:
    @pytest.fixture(autouse=True)
    def _fork_start(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_START", "fork")
        monkeypatch.setattr(gac_mod, "_MIN_PARALLEL_CANDIDATES", 1)

    @pytest.mark.parametrize(
        "crash", [_soft_crash_evaluate, _hard_crash_evaluate], ids=["soft", "hard"]
    )
    def test_worker_crash_mid_run_falls_back_to_serial(self, monkeypatch, crash):
        graph = small_random_graph(1, n=60, m=160)
        serial = gac(graph, 3, tie_break="id")
        monkeypatch.setattr(worker_mod, "evaluate_chunk", crash)
        crashed = gac(graph, 3, tie_break="id", workers=2)
        assert _result_tuple(crashed) == _result_tuple(serial)
        fallback = obs.gauges_snapshot().get("gac.parallel_fallback.scan_error")
        assert fallback == 1.0  # lint: float-eq-ok gauge stores the exact literal 1.0


# ----------------------------------------------------------------------
# CLI knob
# ----------------------------------------------------------------------
class TestCli:
    def test_anchor_workers_flag_matches_serial(self, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setattr(gac_mod, "_MIN_PARALLEL_CANDIDATES", 1)
        assert main(["anchor", "--dataset", "arxiv", "-b", "2", "--workers", "0"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["anchor", "--dataset", "arxiv", "-b", "2", "--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out
        assert "anchors" in serial_out
