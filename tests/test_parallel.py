"""Tests for repro.parallel: the per-round pool lifecycle and the
determinism contract of the parallel candidate scan.

The load-bearing assertion in this file is result *identity*: for every
worker count, ``greedy_anchored_coreness`` must return the same
``GreedyResult`` — anchors, gains, follower sets, and Figure-13 counter
totals — as the serial scan. Everything else (fallback gauges, crash
recovery, the fork-per-round lifecycle) protects the machinery that
keeps that true.
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
from repro.anchors.gac import baseline, gac, gac_u, greedy_anchored_coreness
from repro.datasets import registry
from repro.errors import GraphError
from repro.graphs.generators import powerlaw_social_graph
from repro.graphs.graph import Graph
from repro.obs import runtime as obs_runtime
from repro.parallel import (
    CandidateScanPool,
    PoolUnavailable,
    bucket_h_index,
    chunked,
    resolve_workers,
)

from conftest import needs_fork, pin_chunk_size, small_random_graph


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
# pool construction and fallbacks
# ----------------------------------------------------------------------
class TestPoolConstruction:
    def test_rejects_single_worker(self):
        with pytest.raises(PoolUnavailable):
            CandidateScanPool(1)

    def test_rejects_graph_without_csr_view(self, tiny_pools):
        # complex labels are mutually unorderable -> no CSR interning, so
        # the run fails in one line before any worker could fork
        graph = Graph.from_edges([(1j, 2j), (2j, 3j), (1j, 3j)])
        with pytest.raises(GraphError, match="complex"):
            gac(graph, 1, workers=2)

    def test_missing_fork_falls_back_with_gauge(self, tiny_pools, monkeypatch):
        """Without ``fork`` the pool is unavailable and the run stays serial."""
        graph = small_random_graph(1, n=60, m=160)
        serial = gac(graph, 2, tie_break="id")
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        with pytest.raises(PoolUnavailable, match="fork"):
            CandidateScanPool(2)
        monkeypatch.delitem(
            obs_runtime._gauges, "gac.parallel_fallback.unavailable", raising=False
        )
        tasks = obs.get(obs.PARALLEL_TASKS)
        run = gac(graph, 2, tie_break="id", workers=2)
        assert _result_tuple(run) == _result_tuple(serial)
        assert obs.get(obs.PARALLEL_TASKS) == tasks
        fallback = obs.gauges_snapshot().get("gac.parallel_fallback.unavailable")
        assert fallback == 1.0  # lint: float-eq-ok gauge stores the exact literal 1.0

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

    @needs_fork
    def test_env_knob_engages_pool(self, tiny_pools, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "2")
        graph = small_random_graph(1, n=60, m=160)
        before = obs.get(obs.PARALLEL_TASKS)
        from_env = gac(graph, 2, tie_break="id")
        assert obs.get(obs.PARALLEL_TASKS) > before
        monkeypatch.setenv("REPRO_PARALLEL", "0")
        serial = gac(graph, 2, tie_break="id")
        assert _result_tuple(from_env) == _result_tuple(serial)

    @needs_fork
    def test_baseline_naive_path_identical(self, tiny_pools):
        """The naive follower path (Baseline) through the pool equals serial:
        anchors, gains and per-iteration Figure-13 counters."""
        graph = powerlaw_social_graph(120, 5.0, 7)
        serial = baseline(graph, 3, tie_break="id")
        tasks = obs.get(obs.PARALLEL_TASKS)
        parallel = baseline(graph, 3, tie_break="id", workers=2)
        assert obs.get(obs.PARALLEL_TASKS) > tasks  # the pool ran
        assert _result_tuple(parallel) == _result_tuple(serial)
        assert all(t.counters.evaluated_candidates > 0 for t in parallel.traces)

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
# chunked dispatch: chunk sizes never change results
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
        "chunk", [None, 1, 10000], ids=["adaptive", "one", "oversized"]
    )
    def test_chunk_size_matrix_identical(self, tiny_pools, monkeypatch, workers, chunk):
        if chunk is not None:
            pin_chunk_size(monkeypatch, chunk)
        graph, reference = self._serial()
        run = gac(graph, 3, tie_break="id", workers=workers)
        assert _result_tuple(run) == reference

    @needs_fork
    def test_chunk_counter_records_real_chunks(self, monkeypatch):
        """PARALLEL_CHUNKS counts shipped chunks, not dispatch calls."""
        from repro.anchors.followers import FollowerSearch, find_followers
        from repro.anchors.state import AnchoredState

        pin_chunk_size(monkeypatch, 1)
        graph = small_random_graph(1, n=60, m=160)
        state = AnchoredState.build(graph, frozenset())
        search = FollowerSearch(state)

        def evaluate(i):
            ((_, counts, total),) = search.stream((i,))
            return total, counts

        pool = CandidateScanPool(2)
        ids = list(range(10))
        chunks_before = obs.get(obs.PARALLEL_CHUNKS)
        dispatches_before = obs.get(obs.PARALLEL_DISPATCHES)
        with pool.round(evaluate, search):
            results = pool.evaluate(ids)
        pool.close()  # idempotent: the round already closed the executor
        assert multiprocessing.active_children() == []
        assert worker_mod._round is None  # the slot is emptied with the round
        assert obs.get(obs.PARALLEL_CHUNKS) - chunks_before == len(ids)
        assert obs.get(obs.PARALLEL_DISPATCHES) - dispatches_before == 1
        # the returned results reproduce the serial oracle
        for (candidate, total, counts, tallies), i in zip(results, ids):
            assert candidate == i
            window = obs.window()
            report = find_followers(state, state.tables.labels[i])
            assert total == report.total
            assert counts == dict(report.counts)
            # (reused, explored, visited, evaluated): this task's work only
            assert tallies == (
                window.counter(obs.REUSED_NODES),
                window.counter(obs.EXPLORED_NODES),
                window.counter(obs.VISITED_VERTICES),
                window.counter(obs.EVALUATED_CANDIDATES),
            )
            assert tallies[3] == 1

    @needs_fork
    def test_no_worker_outlives_a_round(self, tiny_pools, monkeypatch):
        """Each round's workers are shut down before the round returns."""
        select_best = gac_mod._select_best
        rounds = []

        def checked(*args, **kwargs):
            outcome = select_best(*args, **kwargs)
            rounds.append(multiprocessing.active_children())
            return outcome

        monkeypatch.setattr(gac_mod, "_select_best", checked)
        tasks = obs.get(obs.PARALLEL_TASKS)
        gac(small_random_graph(1, n=60, m=160), 3, tie_break="id", workers=2)
        assert obs.get(obs.PARALLEL_TASKS) > tasks  # the pool ran
        assert rounds == [[], [], []]

    @needs_fork
    def test_no_worker_outlives_the_run(self):
        """close() waits for its workers: none is alive once gac returns."""
        graph = registry.load("brightkite")
        tasks_before = obs.get(obs.PARALLEL_TASKS)
        gac(graph, 2, workers=2)
        assert obs.get(obs.PARALLEL_TASKS) > tasks_before  # the pool ran
        assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# cross-process observability: span shipping and pool health
# ----------------------------------------------------------------------
@needs_fork
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


@needs_fork
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
        assert window.counter(obs.PARALLEL_DISPATCHES) >= 1


# ----------------------------------------------------------------------
# crash recovery: the pool must degrade, never corrupt
# ----------------------------------------------------------------------
def _soft_crash(i):
    """The evaluator raises in the worker (the exception ships back)."""
    raise RuntimeError("synthetic worker failure")


def _hard_crash(i):
    """Kill the worker process outright (BrokenProcessPool in the parent)."""
    os._exit(1)


@needs_fork
class TestCrashFallback:
    @pytest.fixture(autouse=True)
    def _tiny_pools(self, monkeypatch):
        monkeypatch.setattr(gac_mod, "_MIN_PARALLEL_CANDIDATES", 1)

    @pytest.mark.parametrize("crash", [_soft_crash, _hard_crash], ids=["soft", "hard"])
    def test_worker_crash_mid_run_falls_back_to_serial(self, monkeypatch, crash):
        """Round 0 runs pooled; from round 1 on the workers get a crashing
        evaluator, so the run finishes serially with the same result."""
        graph = small_random_graph(1, n=60, m=160)
        serial = gac(graph, 3, tie_break="id")
        install = worker_mod.install
        installs = 0

        def crash_from_round_one(round_):
            nonlocal installs
            if round_ is not None:
                installs += 1
                if installs > 1:
                    round_ = (crash, round_[1])
            install(round_)

        monkeypatch.setattr(worker_mod, "install", crash_from_round_one)
        crashed = gac(graph, 3, tie_break="id", workers=2)
        assert installs == 2  # round 0 pooled, round 1 broke, round 2 serial
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
