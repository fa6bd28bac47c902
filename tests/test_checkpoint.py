"""Tests for repro.checkpoint and the GAC/OLAK kill-and-resume paths.

The acceptance criterion under test: a run killed at *any* round
boundary and resumed from its checkpoint is byte-identical to the
uninterrupted run — anchors, marginal gains, follower sets, the RNG
stream (``tie_break="random"``), and the Figure-13 counter traces —
for both the serial and the parallel candidate scan. Kills are
simulated by ``conftest.kill_after_round``, which raises right after the
round's checkpoint write, exactly where a SIGKILL would land.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import os
import pickle
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import checkpoint as ckpt
from repro import obs
from repro.anchors.gac import gac, greedy_anchored_coreness
from repro.datasets import registry
from repro.errors import CheckpointError, VerificationError
from repro.graphs.graph import Graph
from repro.olak.olak import olak

from conftest import Killed, kill_after_round, small_random_graph, string_labeled


@pytest.fixture
def ckpt_path(tmp_path):
    return str(tmp_path / "run.ckpt")


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


def _kill_and_resume(graph, budget, kill_round, path, *, workers=0, **kwargs):
    """Run to ``kill_round``, die there, resume to ``budget``; the result."""
    with kill_after_round(kill_round), pytest.raises(Killed):
        gac(graph, budget, workers=workers, checkpoint=path, **kwargs)
    return gac(graph, budget, workers=workers, resume=path, checkpoint=path, **kwargs)


def _sample_state(**changes):
    state = ckpt.RoundState(
        algo="gac",
        fingerprint="f" * 64,
        params={"tie_break": "id", "seed": None},
        anchors=(1, 2),
        followers=((0, 3), ()),
        base_coreness=(1, 1, 2, 1),
        gains=(3, 1),
        traces=((0.25, 4, (1, 0, 6, 2, 2)), (0.125, 3, (0, 1, 2, 2, 1))),
        rng_state=random.Random(5).getstate(),
        cache=((0, ((0, 1, 2), (3, 1, 1))),),
    )
    return dataclasses.replace(state, **changes)


def _write_document(path, **fields):
    document = {"magic": ckpt.MAGIC, "version": ckpt.VERSION, **fields}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)


# ----------------------------------------------------------------------
# the record: save / load / validate
# ----------------------------------------------------------------------
class TestEnvelope:
    def test_round_trip(self, ckpt_path):
        original = _sample_state()
        w0 = obs.get(obs.CHECKPOINT_WRITES)
        r0 = obs.get(obs.CHECKPOINT_RESUMES)
        ckpt.save(ckpt_path, original)
        loaded = ckpt.load(ckpt_path)
        assert loaded == original
        assert loaded.rounds == 2
        assert obs.get(obs.CHECKPOINT_WRITES) - w0 == 1
        assert obs.get(obs.CHECKPOINT_RESUMES) - r0 == 1

    def test_file_holds_only_json(self, ckpt_path):
        ckpt.save(ckpt_path, _sample_state())
        with open(ckpt_path, encoding="ascii") as handle:
            document = json.load(handle)
        assert document["magic"] == ckpt.MAGIC
        assert document["version"] == ckpt.VERSION == 2
        assert document["anchors"] == [1, 2]

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            ckpt.load(tmp_path / "nope.ckpt")

    def test_corrupt_bytes(self, tmp_path):
        path = tmp_path / "torn.ckpt"
        path.write_bytes(b"\x80\x05 definitely not a pickle")
        with pytest.raises(CheckpointError, match="corrupt"):
            ckpt.load(path)

    def test_foreign_pickle_rejected(self, tmp_path):
        path = tmp_path / "foreign.ckpt"
        path.write_bytes(pickle.dumps({"magic": "something-else"}))
        with pytest.raises(CheckpointError, match="not a repro-checkpoint"):
            ckpt.load(path)
        path.write_text(json.dumps({"magic": "something-else"}))
        with pytest.raises(CheckpointError, match="not a repro-checkpoint"):
            ckpt.load(path)
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(CheckpointError, match="not a repro-checkpoint"):
            ckpt.load(path)

    def test_v1_pickle_is_rejected_without_being_read(self, tmp_path):
        sentinel = tmp_path / "unpickled"

        class Plant:
            def __reduce__(self):
                return (open, (str(sentinel), "w"))

        path = tmp_path / "v1.ckpt"
        path.write_bytes(pickle.dumps({"magic": ckpt.MAGIC, "version": 1,
                                       "payload": Plant()}))
        with pytest.raises(CheckpointError, match="corrupt"):
            ckpt.load(path)
        assert not sentinel.exists()

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "future.ckpt"
        _write_document(path, version=ckpt.VERSION + 1, algo="gac")
        with pytest.raises(CheckpointError, match="format version"):
            ckpt.load(path)

    def test_missing_and_unknown_fields_rejected(self, tmp_path, ckpt_path):
        ckpt.save(ckpt_path, _sample_state())
        with open(ckpt_path, encoding="utf-8") as handle:
            document = json.load(handle)
        path = tmp_path / "edited.ckpt"
        path.write_text(json.dumps({**document, "payload": {}}))
        with pytest.raises(CheckpointError, match="unknown field.*payload"):
            ckpt.load(path)
        del document["cache"]
        path.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match="lacks field 'cache'"):
            ckpt.load(path)

    def test_olak_record_leaves_the_gac_fields_empty(self):
        with pytest.raises(CheckpointError, match="GAC-only field 'gains'"):
            _sample_state(algo="olak", traces=(), rng_state=(), cache=())
        with pytest.raises(CheckpointError, match="'gains' has 1 entries"):
            _sample_state(gains=(3,))

    def test_validate_accepts_exact_match(self):
        state = _sample_state()
        ckpt.validate(
            state, algo="gac", fingerprint="f" * 64, params=dict(state.params)
        )

    def test_validate_rejects_algo_mismatch(self):
        with pytest.raises(CheckpointError, match="algorithm"):
            ckpt.validate(
                _sample_state(), algo="olak", fingerprint="f" * 64, params={}
            )

    def test_validate_rejects_fingerprint_mismatch(self):
        with pytest.raises(CheckpointError, match="different graph"):
            ckpt.validate(
                _sample_state(),
                algo="gac",
                fingerprint="0" * 64,
                params={"tie_break": "id", "seed": None},
            )

    def test_validate_names_the_differing_params(self):
        with pytest.raises(CheckpointError, match="tie_break='id'"):
            ckpt.validate(
                _sample_state(),
                algo="gac",
                fingerprint="f" * 64,
                params={"tie_break": "degree", "seed": None},
            )

    def test_failed_write_preserves_previous_snapshot(
        self, tmp_path, ckpt_path, monkeypatch
    ):
        first = _sample_state()
        ckpt.save(ckpt_path, first)

        def disk_full(src, dst):
            raise OSError(28, "No space left on device")

        # Fails after the temp file is written: the rename never happens.
        monkeypatch.setattr(ckpt.os, "replace", disk_full)
        with pytest.raises(OSError, match="No space"):
            ckpt.save(ckpt_path, _sample_state(fingerprint="x"))
        monkeypatch.undo()
        assert ckpt.load(ckpt_path) == first  # previous file intact
        assert [p.name for p in tmp_path.iterdir()] == ["run.ckpt"]  # no tmp litter

    def test_graph_fingerprint_is_structural(self):
        a = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
        b = Graph.from_edges([(1, 2), (0, 2), (0, 1)])  # same graph, other order
        c = Graph.from_edges([(0, 1), (1, 2)])
        assert ckpt.graph_fingerprint(a) == ckpt.graph_fingerprint(b)
        assert ckpt.graph_fingerprint(a) != ckpt.graph_fingerprint(c)


@settings(max_examples=200, database=None, deadline=None)
@given(st.binary(max_size=256))
def test_arbitrary_bytes_raise_checkpoint_error(tmp_path_factory, data):
    """No byte string loads as a record, and none fails as anything else."""
    path = tmp_path_factory.mktemp("fuzz") / "run.ckpt"
    path.write_bytes(data)
    with pytest.raises(CheckpointError):
        ckpt.load(path)


class TestGacResume:
    def test_kill_and_resume_every_round(self, ckpt_path):
        graph = small_random_graph(3)
        oracle = _result_tuple(gac(graph, 4, tie_break="id"))
        for kill_round in (1, 2, 3):
            resumed = _kill_and_resume(
                graph, 4, kill_round, ckpt_path, tie_break="id"
            )
            assert _result_tuple(resumed) == oracle, f"diverged at round {kill_round}"

    def test_random_tie_break_restores_the_rng_stream(self, ckpt_path):
        graph = small_random_graph(1)
        oracle = _result_tuple(gac(graph, 4, tie_break="random", seed=7))
        resumed = _kill_and_resume(
            graph, 4, 2, ckpt_path, tie_break="random", seed=7
        )
        assert _result_tuple(resumed) == oracle

    def test_resume_extends_the_budget(self, ckpt_path):
        graph = small_random_graph(3)
        gac(graph, 2, tie_break="id", checkpoint=ckpt_path)
        extended = gac(graph, 4, tie_break="id", resume=ckpt_path)
        fresh = gac(graph, 4, tie_break="id")
        assert _result_tuple(extended) == _result_tuple(fresh)

    def test_resume_with_met_budget_returns_immediately(self, ckpt_path):
        graph = small_random_graph(3)
        done = gac(graph, 3, tie_break="id", checkpoint=ckpt_path)
        resumed = gac(graph, 3, tie_break="id", resume=ckpt_path)
        assert _result_tuple(resumed) == _result_tuple(done)

    def test_resume_rejects_param_mismatch(self, ckpt_path):
        graph = small_random_graph(3)
        gac(graph, 2, tie_break="id", checkpoint=ckpt_path)
        with pytest.raises(CheckpointError, match="tie_break"):
            gac(graph, 3, tie_break="degree", resume=ckpt_path)

    def test_resume_rejects_a_different_graph(self, ckpt_path):
        gac(small_random_graph(3), 2, tie_break="id", checkpoint=ckpt_path)
        with pytest.raises(CheckpointError, match="different graph"):
            gac(small_random_graph(5), 3, tie_break="id", resume=ckpt_path)

    def test_resume_rejects_the_wrong_algorithm(self, ckpt_path):
        graph = small_random_graph(3)
        foreign = ckpt.RoundState(
            algo="olak",
            fingerprint=ckpt.graph_fingerprint(graph),
            params={"k": 2},
            anchors=(),
            followers=(),
            base_coreness=(0,) * graph.num_vertices,
        )
        ckpt.save(ckpt_path, foreign)
        with pytest.raises(CheckpointError, match="algorithm"):
            gac(graph, 2, tie_break="id", resume=ckpt_path)

    def test_resume_rejects_anchors_beyond_budget(self, ckpt_path):
        graph = small_random_graph(3)
        gac(graph, 3, tie_break="id", checkpoint=ckpt_path)
        with pytest.raises(CheckpointError, match="budget"):
            gac(graph, 2, tie_break="id", resume=ckpt_path)

    def test_resume_rejects_a_gutted_payload(self, ckpt_path):
        graph = small_random_graph(3)
        gac(graph, 2, tie_break="id", checkpoint=ckpt_path)
        with open(ckpt_path, encoding="utf-8") as handle:
            document = json.load(handle)
        del document["rng_state"]
        with open(ckpt_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        with pytest.raises(CheckpointError, match="rng_state"):
            gac(graph, 3, tie_break="id", resume=ckpt_path)

    def test_checkpoint_every_thins_writes_but_keeps_the_final_round(
        self, ckpt_path
    ):
        graph = small_random_graph(3)
        w0 = obs.get(obs.CHECKPOINT_WRITES)
        gac(graph, 3, tie_break="id", checkpoint=ckpt_path, checkpoint_every=2)
        # round 2 (multiple of 2) and round 3 (final) are written
        assert obs.get(obs.CHECKPOINT_WRITES) - w0 == 2
        assert ckpt.load(ckpt_path).rounds == 3

    def test_checkpoint_every_must_be_positive(self, ckpt_path):
        with pytest.raises(ValueError, match="checkpoint_every"):
            gac(small_random_graph(3), 2, checkpoint=ckpt_path, checkpoint_every=0)

    def test_resume_replay_invariant_accepts_a_faithful_snapshot(self, ckpt_path):
        graph = small_random_graph(3)
        oracle = _result_tuple(gac(graph, 3, tie_break="id"))
        resumed = _kill_and_resume(
            graph, 3, 2, ckpt_path, tie_break="id", verify=True
        )
        assert _result_tuple(resumed) == oracle

    def test_resume_replay_invariant_rejects_a_tampered_snapshot(self, ckpt_path):
        graph = small_random_graph(3)
        with kill_after_round(2), pytest.raises(Killed):
            gac(graph, 3, tie_break="id", checkpoint=ckpt_path)
        snapshot = ckpt.load(ckpt_path)
        assert snapshot.rounds == 2
        # a greedy prefix never selects in this order
        ckpt.save(
            ckpt_path,
            dataclasses.replace(
                snapshot,
                anchors=snapshot.anchors[::-1],
                followers=snapshot.followers[::-1],
                gains=snapshot.gains[::-1],
            ),
        )
        with pytest.raises(VerificationError, match="resume-replay"):
            gac(graph, 3, tie_break="id", resume=ckpt_path, verify=True)


# ----------------------------------------------------------------------
# OLAK kill-and-resume
# ----------------------------------------------------------------------
#: Triangle {0,1,2} plus two pendant pairs; anchoring 3 pulls 4 into
#: the 2-core and anchoring 5 pulls 6 in, so OLAK at k=2 has two
#: productive rounds on seven vertices.
_OLAK_EDGES = [(0, 1), (1, 2), (0, 2), (3, 4), (0, 4), (5, 6), (1, 6)]


class TestOlakResume:
    def test_kill_and_resume_matches_uninterrupted(self, ckpt_path):
        graph = Graph.from_edges(_OLAK_EDGES)
        oracle = olak(graph, 2, 2)
        assert len(oracle.anchors) == 2  # both rounds are productive
        with kill_after_round(1), pytest.raises(Killed):
            olak(graph, 2, 2, checkpoint=ckpt_path)
        resumed = olak(graph, 2, 2, resume=ckpt_path)
        assert _olak_tuple(resumed) == _olak_tuple(oracle)

    def test_resume_rejects_k_mismatch(self, ckpt_path):
        graph = Graph.from_edges(_OLAK_EDGES)
        olak(graph, 2, 1, checkpoint=ckpt_path)
        with pytest.raises(CheckpointError, match="k="):
            olak(graph, 3, 2, resume=ckpt_path)

    def test_checkpoint_write_fault_is_survivable(self, tmp_path):
        graph = Graph.from_edges(_OLAK_EDGES)
        clean = olak(graph, 2, 2)
        path = tmp_path / "missing" / "run.ckpt"  # every write fails
        injured = olak(graph, 2, 2, checkpoint=path)
        assert _olak_tuple(injured) == _olak_tuple(clean)
        assert not path.parent.exists()
        assert obs.gauges_snapshot().get("olak.checkpoint.write_error") == 1.0  # lint: float-eq-ok gauge stores the exact literal 1.0


# ----------------------------------------------------------------------
# labels other than ints: the file holds CSR ids, read back as labels
# ----------------------------------------------------------------------
class TestLabelTypes:
    @pytest.mark.parametrize(
        "relabel", [lambda u: f"v{u:02d}", lambda u: (u % 3, str(u))],
        ids=["str", "tuple"],
    )
    def test_kill_and_resume_is_byte_identical(self, ckpt_path, relabel):
        base = small_random_graph(1)
        graph = Graph()
        for u in base.vertices():
            graph.add_vertex(relabel(u))
        for u, v in base.edges():
            graph.add_edge(relabel(u), relabel(v))
        oracle = _result_tuple(gac(graph, 4, tie_break="random", seed=3))
        with kill_after_round(3), pytest.raises(Killed):
            gac(graph, 4, tie_break="random", seed=3, checkpoint=ckpt_path)
        state = ckpt.load(ckpt_path)
        assert all(type(i) is int for i in state.anchors + state.followers[0])
        assert any(rows for _, rows in state.cache), "reuse counts are recorded"
        resumed = gac(graph, 4, tie_break="random", seed=3, resume=ckpt_path)
        assert _result_tuple(resumed) == oracle


# ----------------------------------------------------------------------
# the format across versions: files written by an earlier build
# ----------------------------------------------------------------------
FIXTURES = Path(__file__).parent / "fixtures" / "checkpoints"
GAC_FIXTURE = FIXTURES / "gac-brightkite-b3-r2.json"
OLAK_FIXTURE = FIXTURES / "olak-youtube-k10-b3.json"


@pytest.fixture
def frozen_clock(monkeypatch):
    """GAC traces record elapsed seconds; a constant clock makes them 0.0."""
    gac_mod = importlib.import_module("repro.anchors.gac")
    monkeypatch.setattr(gac_mod, "_clock", lambda: 0.0)


class TestFormatFixtures:
    """Checkpoints committed under ``tests/fixtures/checkpoints``.

    They were written before the greedy round keyed its reuse cache and
    baseline corenesses by CSR id: ``gac(brightkite, 3, seed=0)`` killed
    after round 2 and ``olak(youtube, 10, 3)``, both on string-labeled
    replicas (``conftest.string_labeled``) so ids and labels disagree,
    with the GAC clock frozen. Each must resume to the uninterrupted
    run, and the same run today must write the same bytes.
    """

    def test_gac_fixture_resumes_to_the_uninterrupted_run(self, frozen_clock):
        graph = string_labeled(registry.load("brightkite"))
        oracle = gac(graph, 3, seed=0)
        resumed = gac(graph, 3, seed=0, resume=GAC_FIXTURE)
        assert _result_tuple(resumed) == _result_tuple(oracle)
        assert [t.elapsed_seconds for t in resumed.traces] == [0.0] * 3

    def test_gac_fixture_is_rewritten_byte_for_byte(self, frozen_clock, tmp_path):
        graph = string_labeled(registry.load("brightkite"))
        path = tmp_path / "gac.ckpt"
        with kill_after_round(2), pytest.raises(Killed):
            gac(graph, 3, seed=0, checkpoint=path)
        assert ckpt.load(GAC_FIXTURE).cache, "the fixture pins cache rows"
        assert path.read_bytes() == GAC_FIXTURE.read_bytes()

    @pytest.mark.parametrize("where", ["row", "node"])
    def test_cache_id_outside_the_graph_is_rejected(self, tmp_path, where):
        """Cache ids are restored as ids, still range-checked against n."""
        document = json.loads(GAC_FIXTURE.read_text(encoding="utf-8"))
        row = document["cache"][0]
        if where == "row":
            row[0] = 10**6
        else:
            row[1][0][0] = 10**6
        path = tmp_path / "bad.ckpt"
        path.write_text(json.dumps(document), encoding="utf-8")
        graph = string_labeled(registry.load("brightkite"))
        with pytest.raises(CheckpointError, match="names vertex id 1000000"):
            gac(graph, 3, seed=0, resume=path)

    def test_olak_fixture_resumes_to_the_uninterrupted_run(self):
        graph = string_labeled(registry.load("youtube"))
        oracle = olak(graph, 10, 3)
        assert _olak_tuple(olak(graph, 10, 3, resume=OLAK_FIXTURE)) == _olak_tuple(
            oracle
        )

    def test_olak_fixture_is_rewritten_byte_for_byte(self, tmp_path):
        graph = string_labeled(registry.load("youtube"))
        path = tmp_path / "olak.ckpt"
        olak(graph, 10, 3, checkpoint=path)
        assert path.read_bytes() == OLAK_FIXTURE.read_bytes()


# ----------------------------------------------------------------------
# tampered records: CheckpointError and nothing else
# ----------------------------------------------------------------------
_TAMPER_GRAPH = small_random_graph(1)
_JSON_KINDS = {
    "null": st.none(),
    "bool": st.booleans(),
    "number": st.integers() | st.floats(allow_nan=False),
    "string": st.text(max_size=4),
    "array": st.lists(st.integers(), max_size=2),
    "object": st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
}


def _kind(value):
    for name, types in [("null", type(None)), ("bool", bool), ("number", (int, float)),
                        ("string", str), ("array", list), ("object", dict)]:
        if isinstance(value, types):
            return name
    raise AssertionError(value)


@functools.cache
def _valid_record(algo):
    """A real record written by a run: GAC with RNG state and reuse cache."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.ckpt")
        if algo == "gac":
            gac(_TAMPER_GRAPH, 3, tie_break="random", seed=3, checkpoint=path)
        else:
            olak(Graph.from_edges(_OLAK_EDGES), 2, 2, checkpoint=path)
        with open(path, encoding="utf-8") as handle:
            return handle.read()


def _leaf_paths(value, path=()):
    """Every scalar (or empty container) position inside ``value``."""
    if isinstance(value, dict):
        children = list(value.items())
    else:
        children = list(enumerate(value)) if isinstance(value, list) else []
    if not children:
        yield path
    for key, child in children:
        yield from _leaf_paths(child, path + (key,))


def _broken(leaf):
    """A same-place value the record can never hold there."""
    if isinstance(leaf, bool):
        return not leaf
    if isinstance(leaf, (int, float)):
        return -1 - leaf  # every number in a record is non-negative
    if isinstance(leaf, str):
        return leaf + "~"
    return -1 if leaf is None else [-1]


@settings(max_examples=150, database=None, deadline=None)
@given(data=st.data(), algo=st.sampled_from(["gac", "olak"]))
def test_tampered_record_raises_checkpoint_error(tmp_path_factory, data, algo):
    """Any one field mutated, dropped or retyped fails the resume cleanly."""
    document = json.loads(_valid_record(algo))
    name = data.draw(st.sampled_from(sorted(document)), label="field")
    how = data.draw(st.sampled_from(["mutate", "drop", "retype"]), label="how")
    if how == "drop":
        del document[name]
    elif how == "retype":
        kind = data.draw(
            st.sampled_from(sorted(set(_JSON_KINDS) - {_kind(document[name])}))
        )
        document[name] = data.draw(_JSON_KINDS[kind], label="value")
    else:
        leaf = data.draw(st.sampled_from(list(_leaf_paths(document[name]))))
        parent = document
        for key in (name,) + leaf[:-1]:
            parent = parent[key]
        if leaf:
            parent[leaf[-1]] = _broken(parent[leaf[-1]])
        else:
            document[name] = _broken(document[name])
    path = tmp_path_factory.mktemp("tamper") / "run.ckpt"
    path.write_text(json.dumps(document), encoding="utf-8")
    with pytest.raises(CheckpointError):
        if algo == "gac":
            gac(_TAMPER_GRAPH, 3, tie_break="random", seed=3, resume=path)
        else:
            olak(Graph.from_edges(_OLAK_EDGES), 2, 2, resume=path)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCli:
    def test_checkpoint_then_resume_extends_the_run(self, capsys, tmp_path):
        from repro.cli import main

        path = str(tmp_path / "cli.ckpt")
        assert (
            main(["anchor", "--dataset", "arxiv", "-b", "2", "--checkpoint", path])
            == 0
        )
        first = capsys.readouterr().out
        assert (
            main(["anchor", "--dataset", "arxiv", "-b", "3", "--resume", path]) == 0
        )
        resumed = capsys.readouterr().out
        assert main(["anchor", "--dataset", "arxiv", "-b", "3"]) == 0
        fresh = capsys.readouterr().out
        assert resumed == fresh
        first_anchors = first.splitlines()[0].split()[1:]
        resumed_anchors = resumed.splitlines()[0].split()[1:]
        assert resumed_anchors[: len(first_anchors)] == first_anchors


# ----------------------------------------------------------------------
# the acceptance criterion, on a seed dataset
# ----------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.integration
class TestSeedDatasetAcceptance:
    """Kill-and-resume at every round boundary of an arxiv b=5 run."""

    _oracles: dict[int, tuple] = {}

    def _oracle(self, graph, workers):
        if workers not in self._oracles:
            self._oracles[workers] = _result_tuple(
                greedy_anchored_coreness(graph, 5, workers=workers)
            )
        return self._oracles[workers]

    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize("kill_round", [1, 2, 3, 4])
    def test_every_round_boundary_is_byte_identical(
        self, tmp_path, workers, kill_round
    ):
        graph = registry.load("arxiv")
        oracle = self._oracle(graph, workers)
        path = str(tmp_path / f"arxiv-{workers}-{kill_round}.ckpt")
        with kill_after_round(kill_round), pytest.raises(Killed):
            greedy_anchored_coreness(graph, 5, workers=workers, checkpoint=path)
        assert ckpt.load(path).rounds == kill_round
        resumed = greedy_anchored_coreness(graph, 5, workers=workers, resume=path)
        assert _result_tuple(resumed) == oracle

    def test_random_tie_break_stream_survives_a_kill(self, tmp_path):
        graph = registry.load("arxiv")
        oracle = _result_tuple(
            greedy_anchored_coreness(graph, 5, tie_break="random", seed=13)
        )
        path = str(tmp_path / "arxiv-random.ckpt")
        with kill_after_round(3), pytest.raises(Killed):
            greedy_anchored_coreness(
                graph, 5, tie_break="random", seed=13, checkpoint=path
            )
        resumed = greedy_anchored_coreness(
            graph, 5, tie_break="random", seed=13, resume=path
        )
        assert _result_tuple(resumed) == oracle
