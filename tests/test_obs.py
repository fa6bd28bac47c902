"""Tests for the repro.obs observability substrate.

Covers the span runtime (no-op fast path and its <2% overhead gate,
nesting, self-time), the
counter registry and Window deltas, suspension, the exporters (phase
profile, tables, Chrome trace write/validate), and the two contracts
the instrumented algorithms must keep: tracing on vs off changes no
algorithm output, and Figure 13's registry reads agree with the
``FollowerCounters`` façades.
"""

from __future__ import annotations

import json
import time
import timeit

import pytest

from repro import obs
from repro.anchors.followers import FollowerCounters
from repro.anchors.gac import gac, gac_u, gac_u_r
from repro.core.decomposition import core_decomposition
from repro.datasets import registry
from repro.datasets.toy import figure2_graph
from repro.experiments import fig13
from repro.obs import runtime

from conftest import small_random_graph


@pytest.fixture(autouse=True)
def untraced(monkeypatch):
    """Each test starts untraced with a clean forced-tracing state."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    assert not obs.tracing_enabled()
    yield


class TestSpanRuntime:
    def test_disabled_span_is_the_shared_noop(self):
        assert obs.span("a") is obs.span("b", n=3)
        assert obs.span("a") is runtime._NULL_SPAN
        assert obs.span("a").elapsed_seconds == 0.0  # lint: float-eq-ok exact class attribute

    def test_disabled_span_records_no_events(self):
        window = obs.window()
        with obs.span("quiet"):
            pass
        assert window.events() == []

    def test_enabled_span_records_event(self):
        window = obs.window()
        with obs.tracing(True):
            with obs.span("outer", k=2) as sp:
                assert isinstance(sp, obs.Span)
        (event,) = window.events()
        assert event.name == "outer"
        assert event.args == {"k": 2}
        assert event.depth == 0
        assert event.duration >= 0.0

    def test_nesting_depth_and_self_time(self):
        window = obs.window()
        with obs.tracing(True):
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        inner, outer = window.events()  # children close first
        assert (inner.name, inner.depth) == ("inner", 1)
        assert (outer.name, outer.depth) == ("outer", 0)
        assert outer.duration >= inner.duration
        assert outer.self_time == pytest.approx(
            outer.duration - inner.duration, abs=1e-9
        )

    def test_tracing_context_restores_previous_state(self):
        with obs.tracing(True):
            assert obs.tracing_enabled()
            with obs.tracing(False):
                assert not obs.tracing_enabled()
            assert obs.tracing_enabled()
        assert not obs.tracing_enabled()

    def test_tracing_none_is_passthrough(self):
        with obs.tracing(None):
            assert not obs.tracing_enabled()

    def test_env_var_enables_tracing(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert obs.tracing_enabled()

    def test_disabled_overhead_below_two_percent_of_bucket_pass(self):
        """Per decomposition call the obs hooks cost one no-op span plus
        two counter adds; that fixed cost must stay below 2% of the
        peel kernel itself (best of 3 on a warm CSR view)."""
        graph = registry.load("brightkite")
        with obs.tracing(False):
            core_decomposition(graph)  # interns the CSR view
            best = min(
                timeit.repeat(lambda: core_decomposition(graph), number=1, repeat=3)
            )
            reps = 10_000
            t0 = time.perf_counter()
            for _ in range(reps):
                with obs.span("bench.noop", n=0):
                    pass
                obs.add(obs.PEEL_POPS, 0)
                obs.add(obs.CSR_CACHE_HITS, 0)
            per_call = (time.perf_counter() - t0) / reps
        assert per_call < 0.02 * best


class TestCounterRegistry:
    def test_window_sees_only_its_delta(self):
        obs.add(obs.GAC_ITERATIONS, 5)
        window = obs.window()
        obs.add(obs.GAC_ITERATIONS, 2)
        assert window.counter(obs.GAC_ITERATIONS) == 2
        assert window.counters() == {obs.GAC_ITERATIONS: 2}

    def test_zero_deltas_are_omitted(self):
        window = obs.window()
        obs.add(obs.GAC_ITERATIONS, 0)
        assert window.counters() == {}

    def test_suspension_mutes_counters(self):
        window = obs.window()
        with obs.suspended():
            obs.add(obs.GAC_ITERATIONS)
        assert window.counter(obs.GAC_ITERATIONS) == 0

    def test_suspension_mutes_spans(self):
        window = obs.window()
        with obs.tracing(True), obs.suspended():
            with obs.span("hidden"):
                pass
        assert window.events() == []

    def test_gauge_round_trip(self):
        obs.gauge("test.gauge", 7)
        assert obs.gauges_snapshot()["test.gauge"] == 7


class TestExporters:
    def _events(self):
        window = obs.window()
        with obs.tracing(True):
            with obs.span("phase.a"):
                with obs.span("phase.b"):
                    pass
            with obs.span("phase.b"):
                pass
        return window.events()

    def test_phase_profile_aggregates_by_name(self):
        stats = obs.phase_profile(self._events())
        by_name = {s.name: s for s in stats}
        assert by_name["phase.b"].calls == 2
        assert by_name["phase.a"].calls == 1
        assert by_name["phase.a"].total_s >= by_name["phase.a"].self_s
        assert stats == sorted(stats, key=lambda s: (-s.total_s, s.name))

    def test_tables_render(self):
        events = self._events()
        text = obs.profile_table(obs.phase_profile(events)).format()
        assert "phase.a" in text and "phase.b" in text
        counters_text = obs.counters_table({obs.GAC_ITERATIONS: 3}).format()
        assert obs.GAC_ITERATIONS in counters_text

    def test_chrome_trace_round_trip(self, tmp_path):
        events = self._events()
        path = tmp_path / "trace.json"
        obs.write_chrome_trace(path, events, {obs.GAC_ITERATIONS: 3})
        assert obs.validate_chrome_trace(path) == []
        document = json.loads(path.read_text(encoding="utf-8"))
        spans = [row for row in document["traceEvents"] if row["ph"] == "X"]
        lanes = [row for row in document["traceEvents"] if row["ph"] == "M"]
        assert len(spans) == len(events)
        assert [lane["args"]["name"] for lane in lanes] == ["parent"]
        assert document["otherData"]["counters"][obs.GAC_ITERATIONS] == 3
        for row in spans:
            assert row["ts"] >= 0 and row["dur"] >= 0
            assert row["pid"] == 0

    def test_chrome_trace_worker_lanes(self, tmp_path):
        from repro.obs import shipping

        events = self._events()
        batch = shipping.encode_events(events)
        events = events + shipping.decode_batch(batch, pid=4242)
        path = tmp_path / "trace.json"
        obs.write_chrome_trace(path, events, {})
        assert obs.validate_chrome_trace(path) == []
        document = json.loads(path.read_text(encoding="utf-8"))
        lanes = {
            row["args"]["name"]
            for row in document["traceEvents"]
            if row["ph"] == "M"
        }
        assert lanes == {"parent", "worker-4242"}
        worker_spans = [
            row
            for row in document["traceEvents"]
            if row["ph"] == "X" and row["pid"] == 4242
        ]
        assert len(worker_spans) == len(batch)

    def test_chrome_trace_resource_timeline(self, tmp_path):
        from repro.obs import resources

        events = self._events()
        samples = [
            resources.ResourceSample(t=events[0].start, rss_kb=2048, user_s=0.1, sys_s=0.0),
            resources.ResourceSample(t=events[0].start + 0.01, rss_kb=None, user_s=0.2, sys_s=0.1),
        ]
        path = tmp_path / "trace.json"
        obs.write_chrome_trace(path, events, {}, samples)
        assert obs.validate_chrome_trace(path) == []
        document = json.loads(path.read_text(encoding="utf-8"))
        gauges = [row for row in document["traceEvents"] if row["ph"] == "C"]
        names = [row["name"] for row in gauges]
        # rss_mb is skipped for the rss_kb=None sample, cpu_s never is.
        assert names.count("resource.rss_mb") == 1
        assert names.count("resource.cpu_s") == 2
        assert gauges[0]["args"]["rss_mb"] == pytest.approx(2.0)

    def test_validate_flags_empty_trace(self, tmp_path):
        path = tmp_path / "empty.json"
        obs.write_chrome_trace(path, [], {})
        assert obs.validate_chrome_trace(path) != []

    def test_validate_flags_malformed_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert obs.validate_chrome_trace(path) != []
        missing = tmp_path / "nope.json"
        assert obs.validate_chrome_trace(missing) != []


class TestWindowUnderSuspension:
    """Window snapshot-diffs must stay coherent under nested suspension."""

    def test_nested_suspended_mutes_everything_reentrantly(self):
        window = obs.window()
        obs.add(obs.GAC_ITERATIONS)
        with obs.tracing(True):
            with obs.suspended():
                obs.add(obs.GAC_ITERATIONS, 10)
                with obs.suspended():  # nested — must not unmute on exit
                    obs.add(obs.GAC_ITERATIONS, 100)
                    with obs.span("inner.hidden"):
                        pass
                obs.add(obs.GAC_ITERATIONS, 1000)
                with obs.span("outer.hidden"):
                    pass
            obs.add(obs.GAC_ITERATIONS, 2)
            with obs.span("visible"):
                pass
        assert window.counter(obs.GAC_ITERATIONS) == 3
        assert [e.name for e in window.events()] == ["visible"]

    def test_window_opened_inside_suspension_sees_later_deltas(self):
        with obs.suspended():
            obs.add(obs.GAC_ITERATIONS, 5)
            window = obs.window()
        obs.add(obs.GAC_ITERATIONS, 2)
        assert window.counter(obs.GAC_ITERATIONS) == 2

    def test_suspension_mutes_imported_batches(self):
        from repro.obs import shipping

        window = obs.window()
        batch = shipping.encode_events(
            [runtime.SpanEvent("w", 0.0, 1.0, 1.0, 0, {})]
        )
        with obs.suspended():
            assert shipping.absorb_batch(batch, pid=7) == 0
        assert window.events() == []
        assert shipping.absorb_batch(batch, pid=7) == 1
        (event,) = window.events()
        assert (event.name, event.pid) == ("w", 7)


class TestSpanShipping:
    def test_encode_decode_round_trip(self):
        from repro.obs import shipping

        window = obs.window()
        with obs.tracing(True):
            with obs.span("chunk", chunk=3):
                with obs.span("task"):
                    pass
        events = window.events()
        decoded = shipping.decode_batch(shipping.encode_events(events), pid=99)
        assert [(e.name, e.depth, e.args) for e in decoded] == [
            (e.name, e.depth, e.args) for e in events
        ]
        assert all(e.pid == 99 for e in decoded)
        assert all(e.pid == 0 for e in events)

    def test_worker_tracing_ships_and_trims(self):
        from repro.obs import shipping

        window = obs.window()
        with shipping.worker_tracing(True) as capture:
            with obs.span("worker.chunk"):
                pass
        batch = capture.batch()
        assert batch is not None and len(batch) == 1
        assert batch[0][0] == "worker.chunk"
        # Shipped events are trimmed from the local collector.
        assert window.events() == []

    def test_worker_tracing_disabled_captures_nothing(self):
        from repro.obs import shipping

        window = obs.window()
        with obs.tracing(True):  # even under a traced parent state
            with shipping.worker_tracing(False) as capture:
                with obs.span("worker.chunk"):
                    pass
        assert capture.batch() is None
        assert window.events() == []

    def test_worker_tracing_trims_on_exception(self):
        from repro.obs import shipping

        window = obs.window()
        with pytest.raises(RuntimeError):
            with shipping.worker_tracing(True):
                with obs.span("doomed"):
                    pass
                raise RuntimeError("chunk failed")
        assert window.events() == []


class TestResourceSampler:
    def test_sample_shape(self):
        from repro.obs import resources

        reading = resources.sample()
        assert reading.t > 0
        assert reading.user_s >= 0 and reading.sys_s >= 0
        assert reading.rss_kb is None or reading.rss_kb > 0

    def test_sampler_collects_at_least_two_points(self):
        with obs.ResourceSampler(interval_s=0.005) as sampler:
            pass
        assert len(sampler.samples) >= 2
        ts = [s.t for s in sampler.samples]
        assert ts == sorted(ts)

    def test_stop_is_idempotent(self):
        sampler = obs.ResourceSampler(interval_s=0.005)
        sampler.start()
        sampler.stop()
        count = len(sampler.samples)
        sampler.stop()
        assert len(sampler.samples) == count

    def test_read_rss_survives_missing_procfs(self, monkeypatch):
        from repro.obs import resources

        monkeypatch.setattr(resources, "_PROC_STATUS", "/nonexistent/status")
        assert resources.read_rss_kb() is None
        reading = resources.sample()  # degrades to CPU-only, never raises
        assert reading.rss_kb is None


class TestCli:
    def test_validate_missing_file_exits_nonzero(self, capsys):
        from repro.obs.__main__ import main

        assert main(["validate", "/nonexistent/trace.json"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_report_unknown_dataset_exits_2(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        assert main(["report", "--dataset", "not-a-dataset"]) == 2
        err = capsys.readouterr().err
        assert "unknown dataset" in err and "Traceback" not in err
        malformed = tmp_path / "edges.txt"
        malformed.write_text("foo\n", encoding="utf-8")
        assert main(["report", "--edges", str(malformed)]) == 2
        err = capsys.readouterr().err
        assert "expected two fields" in err and "Traceback" not in err

    def test_report_missing_edges_exits_2(self, capsys):
        from repro.obs.__main__ import main

        assert main(["report", "--edges", "/nonexistent/edges.txt"]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestTracingChangesNothing:
    """The core contract: tracing on/off yields byte-identical results."""

    @pytest.mark.parametrize("seed", range(4))
    def test_gac_results_identical(self, seed):
        g = small_random_graph(seed)
        off = gac(g, 3, tie_break="id", obs=False)
        on = gac(g, 3, tie_break="id", obs=True)
        assert on.anchors == off.anchors
        assert on.gains == off.gains
        assert on.followers == off.followers
        assert [t.counters for t in on.traces] == [
            t.counters for t in off.traces
        ]

    def test_decomposition_identical(self):
        g = figure2_graph()
        with obs.tracing(False):
            off = core_decomposition(g)
        with obs.tracing(True):
            on = core_decomposition(g)
        assert on.coreness == off.coreness


class TestFig13Parity:
    """Figure 13 reads the registry; the façades must agree with it."""

    @pytest.mark.parametrize("fn", [gac, gac_u, gac_u_r])
    def test_window_matches_total_counters(self, fn):
        g = small_random_graph(1)
        window = obs.window()
        result = fn(g, 3)
        from_registry = FollowerCounters.from_window(window)
        totals = result.total_counters()
        assert from_registry.explored_nodes == totals.explored_nodes
        assert from_registry.reused_nodes == totals.reused_nodes
        assert from_registry.visited_vertices == totals.visited_vertices
        assert from_registry.pruned_candidates == totals.pruned_candidates

    def test_fig13_run_reports_registry_totals(self):
        result = fig13.run(datasets=["brightkite"], budget=2)
        reported = result.data["nodes"]["brightkite"]["GAC"]
        window = obs.window()
        res = gac(registry.load("brightkite"), 2)
        assert reported == window.counter(obs.EXPLORED_NODES)
        assert reported == res.total_counters().explored_nodes
        assert result.data["vertices"]["brightkite"]["GAC"] > 0
