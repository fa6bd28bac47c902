"""Containment and kill-and-resume: one scenario per contained failure.

Each scenario makes one failure happen through a plain seam and asserts
the documented containment: the result is identical to the
uninterrupted run, and the gauge (or error) names the reason.

* Pool failures patch a callee before ``gac(..., workers=2)``. The pool
  forks each round's workers, so they inherit the patch; these
  scenarios skip where ``fork`` is unavailable. Callees are patched,
  never ``evaluate_chunk``: the executor pickles that one by name.
* Persistence failures are real: a checkpoint path inside a missing
  directory, and ``resume=`` pointing at a directory.
* Kills use ``conftest.kill_after_round``, which raises right after a
  round's checkpoint write.

``docs/fault-injection.md`` lists the same failures in its table;
:class:`TestCatalogCoverage` keeps the table and the scenarios in step.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import re
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro import obs
from repro.anchors.followers import FollowerSearch
from repro.anchors.gac import gac
from repro.errors import CheckpointError
from repro.graphs.graph import Graph
from repro.obs import runtime as obs_runtime
from repro.olak.olak import olak
from repro.parallel import pool as pool_mod
from repro.parallel import worker as worker_mod
from repro.parallel.pool import CandidateScanPool

from conftest import (
    HAS_FORK,
    Killed,
    kill_after_round,
    pin_chunk_size,
    small_random_graph,
)

gac_mod = importlib.import_module("repro.anchors.gac")

_DOCS = Path(__file__).resolve().parents[1] / "docs" / "fault-injection.md"


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


def _olak_tuple(result):
    return (result.anchors, result.followers, result.kcore_growth, result.coreness_gain)


def _gauge_set_by_this_run(monkeypatch, name):
    """Forget gauge ``name`` for this test, so a later read is this run's."""
    monkeypatch.delitem(obs_runtime._gauges, name, raising=False)


def _raise(*_args, **_kwargs):
    raise RuntimeError("injected by the test")


def _pool_run(monkeypatch, patch, *, gauge):
    """Run ``gac(workers=2)`` after ``patch()``; assert containment.

    The oracle is the serial run before the patch. The pooled run must
    equal it and set ``gauge``. ``verify=False`` because verification
    keeps runs off the pool.
    """
    if not HAS_FORK:
        pytest.skip("the pool forks its workers; this platform cannot")
    monkeypatch.setattr(gac_mod, "_MIN_PARALLEL_CANDIDATES", 1)
    graph = small_random_graph(1, n=60, m=160)
    serial = gac(graph, 3, tie_break="id", workers=0)
    patch()
    _gauge_set_by_this_run(monkeypatch, gauge)
    tasks = obs.get(obs.PARALLEL_TASKS)
    pooled = gac(graph, 3, tie_break="id", workers=2, verify=False)
    assert _result_tuple(pooled) == _result_tuple(serial)
    assert obs.gauges_snapshot().get(gauge) == 1.0  # lint: float-eq-ok gauge stores the exact literal 1.0
    return obs.get(obs.PARALLEL_TASKS) - tasks


def _workers_evaluate_with(monkeypatch, wrap):
    """Install ``wrap(evaluate)`` in the workers' slot instead of ``evaluate``.

    The parent's serial fallback still calls the round's own evaluator.
    """
    install = worker_mod.install

    def install_wrapped(round_):
        if round_ is not None:
            round_ = (wrap(round_[0]), round_[1])
        install(round_)

    monkeypatch.setattr(worker_mod, "install", install_wrapped)


# ----------------------------------------------------------------------
# one scenario per contained failure (the rows of the docs table)
# ----------------------------------------------------------------------
SCENARIOS = {}


def scenario(name):
    def register(fn):
        SCENARIOS[name] = fn
        return fn

    return register


def _raise_os_error(*_args, **_kwargs):
    raise OSError("injected by the test")


@scenario("worker.shm_attach")
def _worker_start_failure_keeps_the_run_serial(monkeypatch, _tmp_path):
    # The round's executor cannot start its workers (the fork fails).
    _pool_run(
        monkeypatch,
        lambda: monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", _raise_os_error),
        gauge="gac.parallel_fallback.spawn_error",
    )


@scenario("worker.task_start")
def _task_start_crash_falls_back(monkeypatch, _tmp_path):
    # The workers' evaluator raises on the first task of every chunk.
    _pool_run(
        monkeypatch,
        lambda: _workers_evaluate_with(monkeypatch, lambda evaluate: _raise),
        gauge="gac.parallel_fallback.scan_error",
    )


@scenario("worker.follower_eval")
def _follower_eval_crash_falls_back(monkeypatch, _tmp_path):
    # The follower search itself fails, but only in a worker process: the
    # serial fallback in the parent runs the same search unharmed.
    parent = os.getpid()
    stream = FollowerSearch.stream

    def stream_fails_in_workers(self, *args, **kwargs):
        if os.getpid() != parent:
            raise RuntimeError("injected by the test")
        return stream(self, *args, **kwargs)

    _pool_run(
        monkeypatch,
        lambda: monkeypatch.setattr(FollowerSearch, "stream", stream_fails_in_workers),
        gauge="gac.parallel_fallback.scan_error",
    )


@scenario("parallel.dispatch")
def _dispatch_failure_falls_back(monkeypatch, _tmp_path):
    # Chunking runs parent-side before anything ships.
    _pool_run(
        monkeypatch,
        lambda: monkeypatch.setattr(CandidateScanPool, "_chunk_tasks", _raise),
        gauge="gac.parallel_fallback.scan_error",
    )


@scenario("shm.exporter_finalize")
def _shutdown_failure_is_swallowed(monkeypatch, _tmp_path):
    shutdown = ProcessPoolExecutor.shutdown

    def shutdown_then_fail(self, *args, **kwargs):
        shutdown(self, *args, **kwargs)  # the workers exit; only the error is injected
        raise OSError("injected by the test")

    tasks = _pool_run(
        monkeypatch,
        lambda: monkeypatch.setattr(
            ProcessPoolExecutor, "shutdown", shutdown_then_fail
        ),
        gauge="parallel.close_error",
    )
    assert tasks > 0  # a teardown-only failure: the pool did the scan
    assert multiprocessing.active_children() == []
    # The registry stays readable after the swallowed error; reports
    # read it right after teardown.
    assert "parallel.close_error" in obs.counters_table(obs.gauges_snapshot()).format()


@scenario("checkpoint.write")
def _checkpoint_write_is_survivable(monkeypatch, tmp_path):
    graph = small_random_graph(3)
    clean = gac(graph, 3, tie_break="id")
    _gauge_set_by_this_run(monkeypatch, "gac.checkpoint.write_error")
    path = tmp_path / "missing" / "gac.ckpt"  # every write fails
    injured = gac(graph, 3, tie_break="id", checkpoint=path)
    assert _result_tuple(injured) == _result_tuple(clean)
    assert not path.parent.exists()
    assert obs.gauges_snapshot().get("gac.checkpoint.write_error") == 1.0  # lint: float-eq-ok gauge stores the exact literal 1.0


@scenario("checkpoint.load")
def _unreadable_resume_aborts(monkeypatch, tmp_path):
    graph = small_random_graph(3)
    rounds = obs.get(obs.GAC_ITERATIONS)
    with pytest.raises(CheckpointError, match="cannot read checkpoint"):
        gac(graph, 3, tie_break="id", resume=tmp_path)  # a directory
    assert obs.get(obs.GAC_ITERATIONS) == rounds  # nothing ran


@scenario("gac.round_commit")
def _gac_kill_after_a_round_resumes_identically(monkeypatch, tmp_path):
    graph = small_random_graph(3)
    clean = gac(graph, 4, tie_break="id")
    path = tmp_path / "gac.ckpt"
    with kill_after_round(2), pytest.raises(Killed):
        gac(graph, 4, tie_break="id", checkpoint=path)
    resumed = gac(graph, 4, tie_break="id", resume=path)
    assert _result_tuple(resumed) == _result_tuple(clean)


#: Triangle {0,1,2} plus two pendant pairs: anchoring 3 pulls 4 into the
#: 2-core and anchoring 5 pulls 6 in, so OLAK at k=2 has two rounds.
_OLAK_EDGES = [(0, 1), (1, 2), (0, 2), (3, 4), (0, 4), (5, 6), (1, 6)]


@scenario("olak.round_commit")
def _olak_kill_after_a_round_resumes_identically(monkeypatch, tmp_path):
    graph = Graph.from_edges(_OLAK_EDGES)
    clean = olak(graph, 2, 2)
    assert len(clean.anchors) == 2  # the kill lands between two rounds
    path = tmp_path / "olak.ckpt"
    with kill_after_round(1), pytest.raises(Killed):
        olak(graph, 2, 2, checkpoint=path)
    resumed = olak(graph, 2, 2, resume=path)
    assert _olak_tuple(resumed) == _olak_tuple(clean)


def test_crash_mid_chunk_falls_back_identically(monkeypatch):
    """A worker dying partway through a multi-task chunk (on its 5th
    task, chunks pinned wide enough to guarantee mid-chunk impact) must
    discard the whole dispatch and fall back to the serial scan."""

    def dies_on_fifth_task(evaluate):
        calls = 0

        def evaluate_until_fifth(i):
            nonlocal calls  # per worker: each forked process has its own count
            calls += 1
            if calls == 5:
                raise RuntimeError("injected by the test")
            return evaluate(i)

        return evaluate_until_fifth

    pin_chunk_size(monkeypatch, 10000)
    _pool_run(
        monkeypatch,
        lambda: _workers_evaluate_with(monkeypatch, dies_on_fifth_task),
        gauge="gac.parallel_fallback.scan_error",
    )


def _documented_failures() -> set[str]:
    """The failure names in the first column of the docs table."""
    text = _DOCS.read_text(encoding="utf-8")
    table = text[text.index("## Contained failures") :]
    table = table[: table.index("\n## ")]
    return set(re.findall(r"^\| `([a-z_.]+)` \|", table, re.MULTILINE))


class TestCatalogCoverage:
    @pytest.mark.parametrize("site", list(SCENARIOS), ids=lambda s: s)
    def test_every_site_has_a_scenario(self, site, monkeypatch, tmp_path):
        SCENARIOS[site](monkeypatch, tmp_path)

    def test_no_stale_scenarios(self):
        """Every documented failure has a scenario, and no scenario more."""
        assert _documented_failures() == set(SCENARIOS)


class TestCli:
    def test_heuristics_reject_fault_knobs(self, tmp_path, capsys):
        """Only GAC and OLAK checkpoint; a heuristic refuses the flags."""
        from repro.cli import main

        argv = ["anchor", "--dataset", "arxiv", "--method", "Deg", "-b", "2"]
        assert main([*argv, "--checkpoint", str(tmp_path / "run.ckpt")]) == 2
        err = capsys.readouterr().err
        assert err == "error: --checkpoint/--resume apply to gac and olak only\n"
