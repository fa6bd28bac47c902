"""Tests for repro.faults: spec grammar, arming semantics, and the
site catalog.

The load-bearing design here is the ``SCENARIOS`` registry: the main
test parametrizes over :func:`repro.faults.catalog`, so registering a
new fault site in ``repro.faults.sites`` without adding a scenario to
this file fails CI loudly instead of shipping an untested injection
point. Each parallel-path scenario asserts the documented containment
behavior — serial fallback (or swallowed teardown) plus the reason
gauge — and byte-identical results versus the uninterrupted run.
"""

from __future__ import annotations

import importlib
import os
import pickle
import tempfile

import pytest

gac_mod = importlib.import_module("repro.anchors.gac")
from repro import faults, obs
from repro.anchors.gac import gac
from repro.errors import ReproError
from repro.faults import FaultInjected, FaultPlan, FaultSpecError
from repro.graphs.graph import Graph
from repro.olak.olak import olak

from conftest import SHM_UNAVAILABLE, pin_chunk_size, small_random_graph


@pytest.fixture(autouse=True)
def _fresh_fault_plans(monkeypatch):
    """Each test starts disarmed with fresh env-plan hit counters."""
    monkeypatch.delenv(faults.ENV_FAULTS, raising=False)
    faults.reset()
    yield
    faults.reset()


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
# spec grammar
# ----------------------------------------------------------------------
class TestSpecParsing:
    def test_multi_clause_spec(self):
        plan = FaultPlan.parse(
            "gac.round_commit=raise@3,worker.task_start=delay:0.5,"
        )
        assert set(plan.rules) == {"gac.round_commit", "worker.task_start"}
        assert plan.rules["gac.round_commit"].nth == 3
        assert plan.rules["worker.task_start"].seconds == 0.5  # lint: float-eq-ok parsed literal

    def test_empty_spec_is_a_noop_plan(self):
        assert FaultPlan.parse("").rules == {}

    @pytest.mark.parametrize(
        "spec",
        [
            "gac.round_commit",  # no action
            "gac.round_commit=",  # empty action
            "=raise",  # empty site
            "no.such.site=raise",  # unknown site
            "gac.round_commit=raise,gac.round_commit=raise",  # armed twice
            "gac.round_commit=raise@0",  # N < 1
            "gac.round_commit=raise@x",  # non-integer N
            "gac.round_commit=raise:3",  # raise takes no ':'
            "gac.round_commit=delay",  # missing seconds
            "gac.round_commit=delay:x",  # non-numeric seconds
            "gac.round_commit=delay:-1",  # negative seconds
            "gac.round_commit=p:1.5",  # probability out of range
            "gac.round_commit=p:0.5:x",  # non-integer seed
            "gac.round_commit=p:0.5:1:2",  # too many parts
            "gac.round_commit=explode",  # unknown action
        ],
    )
    def test_malformed_specs_fail_loudly(self, spec):
        with pytest.raises(FaultSpecError):
            FaultPlan.parse(spec)

    def test_spec_error_is_a_repro_value_error(self):
        with pytest.raises(ReproError):
            FaultPlan.parse("typo=raise")
        with pytest.raises(ValueError):
            FaultPlan.parse("typo=raise")

    def test_raise_fires_every_hit(self):
        plan = FaultPlan.parse("gac.round_commit=raise")
        for _ in range(3):
            with pytest.raises(FaultInjected):
                plan.visit("gac.round_commit")

    def test_raise_at_n_fires_exactly_once(self):
        plan = FaultPlan.parse("gac.round_commit=raise@2")
        plan.visit("gac.round_commit")  # hit 1: no fire
        with pytest.raises(FaultInjected) as excinfo:
            plan.visit("gac.round_commit")  # hit 2: fires
        assert excinfo.value.site == "gac.round_commit"
        assert excinfo.value.hit == 2
        plan.visit("gac.round_commit")  # hit 3: already past N

    def test_unarmed_site_is_untouched(self):
        plan = FaultPlan.parse("gac.round_commit=raise")
        plan.visit("olak.round_commit")  # no rule: no raise, no count
        assert plan.rules["gac.round_commit"].hits == 0

    def test_probability_stream_is_seeded_and_reproducible(self):
        def pattern(spec: str) -> list[bool]:
            plan = FaultPlan.parse(spec)
            fired = []
            for _ in range(32):
                try:
                    plan.visit("gac.round_commit")
                    fired.append(False)
                except FaultInjected:
                    fired.append(True)
            return fired

        first = pattern("gac.round_commit=p:0.5:7")
        assert pattern("gac.round_commit=p:0.5:7") == first
        assert any(first) and not all(first)
        assert pattern("gac.round_commit=p:0.5:8") != first
        # default seed 0 is itself a fixed stream
        assert pattern("gac.round_commit=p:0.5") == pattern("gac.round_commit=p:0.5:0")
        assert not any(pattern("gac.round_commit=p:0"))
        assert all(pattern("gac.round_commit=p:1"))

    def test_injected_exception_survives_pickling(self):
        # workers ship FaultInjected across the process boundary
        exc = FaultInjected("worker.task_start", 4)
        clone = pickle.loads(pickle.dumps(exc))
        assert clone.site == "worker.task_start"
        assert clone.hit == 4
        assert str(clone) == str(exc)


# ----------------------------------------------------------------------
# arming: kwarg plans vs the REPRO_FAULTS environment
# ----------------------------------------------------------------------
class TestArming:
    def test_env_spec_arms_fault_points(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULTS, "gac.round_commit=raise")
        with pytest.raises(FaultInjected):
            faults.fault_point("gac.round_commit")
        faults.fault_point("olak.round_commit")  # unarmed site passes

    def test_env_hit_counters_accumulate_until_reset(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULTS, "gac.round_commit=raise@2")
        faults.fault_point("gac.round_commit")  # hit 1
        with pytest.raises(FaultInjected):
            faults.fault_point("gac.round_commit")  # hit 2, cached plan
        faults.fault_point("gac.round_commit")  # hit 3: past N
        faults.reset()
        faults.fault_point("gac.round_commit")  # fresh hit 1
        with pytest.raises(FaultInjected):
            faults.fault_point("gac.round_commit")  # fresh hit 2

    def test_kwarg_plan_replaces_env_plan(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULTS, "gac.round_commit=raise")
        with faults.arming(FaultPlan()):
            faults.fault_point("gac.round_commit")  # env plan masked
        with pytest.raises(FaultInjected):
            faults.fault_point("gac.round_commit")  # env plan back

    def test_arming_none_is_passthrough(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULTS, "gac.round_commit=raise")
        with faults.arming(None):
            with pytest.raises(FaultInjected):
                faults.fault_point("gac.round_commit")

    def test_arming_parses_spec_strings(self):
        with faults.arming("gac.round_commit=raise@1"):
            with pytest.raises(FaultInjected):
                faults.fault_point("gac.round_commit")

    def test_visits_and_injections_are_counted(self):
        visited = faults.VISITED_PREFIX + "gac.round_commit"
        injected = faults.INJECTED_PREFIX + "gac.round_commit"
        v0, i0 = obs.get(visited), obs.get(injected)
        with faults.arming("gac.round_commit=raise@2"):
            faults.fault_point("gac.round_commit")
            with pytest.raises(FaultInjected):
                faults.fault_point("gac.round_commit")
        assert obs.get(visited) - v0 == 2
        assert obs.get(injected) - i0 == 1

    def test_delay_counts_as_injection_without_raising(self):
        injected = faults.INJECTED_PREFIX + "gac.round_commit"
        i0 = obs.get(injected)
        with faults.arming("gac.round_commit=delay:0"):
            faults.fault_point("gac.round_commit")
        assert obs.get(injected) - i0 == 1


# ----------------------------------------------------------------------
# the per-site scenario registry
# ----------------------------------------------------------------------
SCENARIOS = {}


def scenario(site):
    def register(fn):
        SCENARIOS[site] = fn
        return fn

    return register


def _parallel_fault_run(monkeypatch, spec, *, gauge, counted_site=None):
    """Arm ``spec`` via the env for a workers=2 run and assert containment.

    The injected run must be byte-identical to the serial oracle and
    record ``gauge`` as its reason. ``counted_site`` additionally
    asserts the parent-side injection counter moved (worker-side sites
    count in the worker's registry, which is not shipped back).
    """
    if SHM_UNAVAILABLE is not None:
        pytest.skip(f"needs POSIX shared memory: {SHM_UNAVAILABLE}")
    monkeypatch.setattr(gac_mod, "_MIN_PARALLEL_CANDIDATES", 1)
    graph = small_random_graph(1, n=60, m=160)
    serial = gac(graph, 3, tie_break="id")
    before = obs.get(faults.INJECTED_PREFIX + counted_site) if counted_site else 0
    monkeypatch.setenv(faults.ENV_FAULTS, spec)
    faults.reset()
    injected = gac(graph, 3, tie_break="id", workers=2)
    assert _result_tuple(injected) == _result_tuple(serial)
    assert obs.gauges_snapshot().get(gauge) == 1.0  # lint: float-eq-ok gauge stores the exact literal 1.0
    if counted_site:
        assert obs.get(faults.INJECTED_PREFIX + counted_site) > before


@scenario("worker.shm_attach")
def _shm_attach_keeps_pool_unhealthy(monkeypatch):
    # the initializer dies in every worker; the first dispatch breaks the
    # pool and the whole run stays serial (noisy initializer tracebacks
    # on stderr are expected — concurrent.futures logs the death)
    _parallel_fault_run(
        monkeypatch,
        "worker.shm_attach=raise",
        gauge="gac.parallel_fallback.scan_error",
    )


@scenario("worker.task_start")
def _task_start_crash_falls_back(monkeypatch):
    _parallel_fault_run(
        monkeypatch,
        "worker.task_start=raise",
        gauge="gac.parallel_fallback.scan_error",
    )


@scenario("worker.follower_eval")
def _follower_eval_crash_falls_back(monkeypatch):
    _parallel_fault_run(
        monkeypatch,
        "worker.follower_eval=raise",
        gauge="gac.parallel_fallback.scan_error",
    )


@scenario("parallel.dispatch")
def _dispatch_failure_falls_back(monkeypatch):
    _parallel_fault_run(
        monkeypatch,
        "parallel.dispatch=raise",
        gauge="gac.parallel_fallback.scan_error",
        counted_site="parallel.dispatch",
    )


@scenario("shm.exporter_finalize")
def _exporter_finalize_is_swallowed(monkeypatch):
    # teardown-only fault: the scan itself succeeds, close() swallows
    _parallel_fault_run(
        monkeypatch,
        "shm.exporter_finalize=raise",
        gauge="parallel.close_error",
        counted_site="shm.exporter_finalize",
    )


def test_crash_mid_chunk_falls_back_identically(monkeypatch):
    """A worker dying partway through a multi-task chunk (raise on its
    5th task, chunks pinned wide enough to guarantee mid-chunk impact)
    must discard the whole dispatch and fall back to the serial scan."""
    pin_chunk_size(monkeypatch, 10000)
    _parallel_fault_run(
        monkeypatch,
        "worker.task_start=raise@5",
        gauge="gac.parallel_fallback.scan_error",
    )


@scenario("checkpoint.write")
def _checkpoint_write_is_survivable(monkeypatch):
    graph = small_random_graph(3)
    clean = gac(graph, 3, tie_break="id")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "gac.ckpt")
        injured = gac(
            graph,
            3,
            tie_break="id",
            checkpoint=path,
            faults="checkpoint.write=raise",
        )
        assert _result_tuple(injured) == _result_tuple(clean)
        assert not os.path.exists(path)  # every write failed, atomically
    assert obs.gauges_snapshot().get("gac.checkpoint.write_error") == 1.0  # lint: float-eq-ok gauge stores the exact literal 1.0


@scenario("checkpoint.load")
def _checkpoint_load_aborts_resume(monkeypatch):
    graph = small_random_graph(3)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "gac.ckpt")
        gac(graph, 2, tie_break="id", checkpoint=path)
        assert os.path.exists(path)
        with pytest.raises(FaultInjected):
            gac(
                graph,
                3,
                tie_break="id",
                resume=path,
                faults="checkpoint.load=raise",
            )


@scenario("gac.round_commit")
def _gac_round_commit_simulates_a_kill(monkeypatch):
    graph = small_random_graph(3)
    with pytest.raises(FaultInjected) as excinfo:
        gac(graph, 4, tie_break="id", faults="gac.round_commit=raise@2")
    assert excinfo.value.site == "gac.round_commit"
    assert excinfo.value.hit == 2


#: Triangle {0,1,2} plus a pendant path: anchoring 3 pulls 4 into the
#: 2-core (4's neighbors become {anchor 3, core member 0}), so OLAK at
#: k=2 selects an anchor and the round-commit site is reachable.
_OLAK_EDGES = [(0, 1), (1, 2), (0, 2), (3, 4), (0, 4)]


@scenario("olak.round_commit")
def _olak_round_commit_simulates_a_kill(monkeypatch):
    graph = Graph.from_edges(_OLAK_EDGES)
    assert olak(graph, 2, 1).anchors  # sanity: the site is reachable
    with pytest.raises(FaultInjected) as excinfo:
        olak(graph, 2, 1, faults="olak.round_commit=raise@1")
    assert excinfo.value.site == "olak.round_commit"


class TestCatalogCoverage:
    @pytest.mark.parametrize(
        "site", [s.name for s in faults.catalog()], ids=lambda s: s
    )
    def test_every_site_has_a_scenario(self, site, monkeypatch):
        if site not in SCENARIOS:
            pytest.fail(
                f"fault site {site!r} is registered in repro.faults.sites but "
                "has no scenario in tests/test_faults.py — add one so the "
                "injection point stays tested"
            )
        SCENARIOS[site](monkeypatch)

    def test_no_stale_scenarios(self):
        stale = set(SCENARIOS) - set(faults.site_names())
        assert not stale, f"scenarios for unregistered sites: {sorted(stale)}"

    def test_catalog_lookup(self):
        site = faults.catalog()[0]
        assert faults.lookup(site.name) is site
        assert faults.lookup("no.such.site") is None


# ----------------------------------------------------------------------
# delays: timeout simulation must never change results
# ----------------------------------------------------------------------
class TestDelay:
    def test_round_commit_delay_leaves_results_unchanged(self):
        graph = small_random_graph(3)
        clean = gac(graph, 3, tie_break="id")
        injected = faults.INJECTED_PREFIX + "gac.round_commit"
        i0 = obs.get(injected)
        delayed = gac(graph, 3, tie_break="id", faults="gac.round_commit=delay:0")
        assert _result_tuple(delayed) == _result_tuple(clean)
        assert obs.get(injected) - i0 == len(clean.anchors)

    def test_worker_delay_keeps_counter_deltas_identical(self, monkeypatch):
        # delays fire before the worker's counter window opens, so the
        # shipped Figure-13 deltas — and therefore the merged traces —
        # must be byte-identical to the undelayed parallel run
        if SHM_UNAVAILABLE is not None:
            pytest.skip(f"needs POSIX shared memory: {SHM_UNAVAILABLE}")
        monkeypatch.setattr(gac_mod, "_MIN_PARALLEL_CANDIDATES", 1)
        graph = small_random_graph(1, n=60, m=160)
        serial = gac(graph, 2, tie_break="id")
        monkeypatch.setenv(faults.ENV_FAULTS, "worker.follower_eval=delay:0.001")
        faults.reset()
        tasks_before = obs.get(obs.PARALLEL_TASKS)
        delayed = gac(graph, 2, tie_break="id", workers=2)
        assert _result_tuple(delayed) == _result_tuple(serial)
        # the pool stayed engaged: a delay is not a fallback
        assert obs.get(obs.PARALLEL_TASKS) > tasks_before


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCli:
    def test_faults_command_prints_the_catalog(self, capsys):
        from repro.cli import main

        assert main(["faults"]) == 0
        out = capsys.readouterr().out
        for site in faults.catalog():
            assert site.name in out

    def test_anchor_faults_flag_arms_the_run(self):
        from repro.cli import main

        with pytest.raises(FaultInjected):
            main(
                [
                    "anchor",
                    "--dataset",
                    "arxiv",
                    "-b",
                    "2",
                    "--faults",
                    "gac.round_commit=raise@1",
                ]
            )

    def test_heuristics_reject_fault_knobs(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="gac and"):
            main(
                [
                    "anchor",
                    "--dataset",
                    "arxiv",
                    "--method",
                    "Deg",
                    "-b",
                    "2",
                    "--faults",
                    "gac.round_commit=raise",
                ]
            )
