"""Round-granular checkpoint files for the long-running greedy loops.

A checkpoint is one :class:`RoundState` record — the state a greedy
loop carries between rounds — written as JSON, atomically (temp file +
``os.replace``), at a round boundary. GAC fills every field: anchors,
marginal gains, follower sets, per-iteration traces, the RNG state,
Algorithm 3's reuse cache ``F[u][id]`` and the baseline corenesses.
OLAK fills anchors, follower sets and baseline corenesses and leaves
the GAC-only fields empty; its k-core growth is the total follower
count, so it is derived on resume rather than stored. Resuming a run
killed at any round boundary is byte-identical (anchors, gains, RNG
stream, Figure-13 counters) to the uninterrupted run; see
``docs/fault-injection.md`` for the format, the resume semantics and
how the tests reach each failure path.

Every vertex is written as its :func:`~repro.graphs.csr.csr_view` id
(anchors and followers read back through ``csr.labels``; the loops key
the cache and base corenesses by id already): the graph fingerprint
pins the graph, hence its interning, so the file holds only ints,
strings and floats whatever the vertex labels are. Each field is declared once,
with the reader that validates it; :func:`save` and :func:`load` both
iterate :func:`dataclasses.fields`, so writer and reader cannot drift.

Safety model: a resume must never silently continue from the wrong
snapshot, and reading a file must never run code. :func:`load` parses
JSON only — bytes that are not a version-2 record (a version-1 pickle
included) fail without being interpreted — and rejects any missing,
unknown or ill-typed field with a one-line
:class:`~repro.errors.CheckpointError`. The record carries the
algorithm name, a SHA-256 fingerprint of the graph's adjacency and the
algorithm parameters; :func:`validate` aborts on any mismatch.
Conversely a *failed write* must never kill the run it exists to
protect: :func:`commit` gauges write errors
(``<algo>.checkpoint.write_error``) and the run continues
un-checkpointed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from collections.abc import Callable
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro import obs as _obs
from repro.core.decomposition import _sort_key
from repro.errors import CheckpointError
from repro.graphs.csr import csr_view
from repro.graphs.graph import Graph, Vertex

if TYPE_CHECKING:
    import random

    from repro.anchors.gac import GreedyResult
    from repro.anchors.reuse import FollowerCache
    from repro.olak.olak import OlakResult

#: File-format identity: bump VERSION on any schema change so a stale
#: file aborts the resume instead of rehydrating garbage.
MAGIC = "repro-checkpoint"
VERSION = 2


# ----------------------------------------------------------------------
# field readers: a decoded JSON value -> the field's type, or ValueError
# ----------------------------------------------------------------------
def _show(raw: object) -> str:
    text = repr(raw)
    return text if len(text) <= 40 else text[:37] + "..."


def _str(raw: object) -> str:
    if not isinstance(raw, str):
        raise ValueError(f"expected a string, got {_show(raw)}")
    return raw


def _int(raw: object) -> int:
    if isinstance(raw, int) and not isinstance(raw, bool) and raw >= 0:
        return raw
    raise ValueError(f"expected a non-negative integer, got {_show(raw)}")


def _seconds(raw: object) -> float:
    if (
        isinstance(raw, bool)
        or not isinstance(raw, (int, float))
        or not 0 <= raw < math.inf
    ):
        raise ValueError(f"expected a non-negative duration, got {_show(raw)}")
    return raw


def _gauss(raw: object) -> float | None:
    if raw is not None and type(raw) is not float:
        raise ValueError(f"expected null or a float, got {_show(raw)}")
    return raw


def _object(raw: object) -> dict[str, Any]:
    if not isinstance(raw, dict):
        raise ValueError(f"expected an object, got {_show(raw)}")
    return raw


def _list(raw: object) -> list[Any]:
    if not isinstance(raw, list):
        raise ValueError(f"expected a list, got {_show(raw)}")
    return raw


def _seq(item: Callable[[Any], Any]) -> Callable[[object], tuple[Any, ...]]:
    """A list of ``item`` values, read back as a tuple."""
    return lambda raw: tuple(item(x) for x in _list(raw))


def _row(*items: Callable[[Any], Any]) -> Callable[[object], tuple[Any, ...]]:
    """A fixed-length list whose positions have their own readers."""

    def read(raw: object) -> tuple[Any, ...]:
        values = _list(raw)
        if len(values) != len(items):
            raise ValueError(f"expected {len(items)} entries, got {_show(raw)}")
        return tuple(item(x) for item, x in zip(items, values))

    return read


def _rng(raw: object) -> tuple[Any, ...]:
    """``random.Random.getstate()``'s ``(version, ints, gauss)``, or ``()``."""
    return () if raw == [] else _row(_int, _seq(_int), _gauss)(raw)


def _field(
    read: Callable[[object], Any],
    *,
    per_round: bool = False,
    gac_only: bool = False,
    **kwargs: Any,
) -> Any:
    """A record field: its reader, whether it holds one entry per anchor,
    and whether it stays empty in an OLAK record."""
    return field(
        metadata={"read": read, "per_round": per_round, "gac_only": gac_only},
        **kwargs,
    )


#: One trace row: (elapsed_seconds, candidate_count, FollowerCounters
#: values in field order).
TraceRow = tuple[float, int, tuple[int, ...]]
#: One cache row: (vertex id, ((node id, node coreness, count), ...)).
CacheRow = tuple[int, tuple[tuple[int, int, int], ...]]


@dataclass(frozen=True)
class RoundState:
    """The greedy loop's state at a committed round boundary, as CSR ids.

    Attributes:
        algo: ``"gac"`` or ``"olak"`` — a file from one greedy never
            resumes the other.
        fingerprint: :func:`graph_fingerprint` of the run's graph.
        params: the parameters that shape the greedy trajectory (budget
            excluded — a resume may extend it); vertices as sorted ids.
        anchors: anchor ids in selection order.
        followers: per anchor, its follower ids (ascending).
        base_coreness: coreness before any selection, indexed by id.
        gains: (GAC) marginal gain of each anchor.
        traces: (GAC) one :data:`TraceRow` per anchor.
        rng_state: (GAC) the tie-break RNG's ``getstate()``.
        cache: (GAC) Algorithm 3's ``F[u][id]`` counts, in cache order.
    """

    algo: str = _field(_str)
    fingerprint: str = _field(_str)
    params: dict[str, Any] = _field(_object)
    anchors: tuple[int, ...] = _field(_seq(_int))
    followers: tuple[tuple[int, ...], ...] = _field(_seq(_seq(_int)), per_round=True)
    base_coreness: tuple[int, ...] = _field(_seq(_int))
    gains: tuple[int, ...] = _field(
        _seq(_int), per_round=True, gac_only=True, default=()
    )
    traces: tuple[TraceRow, ...] = _field(
        _seq(_row(_seconds, _int, _seq(_int))),
        per_round=True,
        gac_only=True,
        default=(),
    )
    rng_state: tuple[Any, ...] = _field(_rng, gac_only=True, default=())
    cache: tuple[CacheRow, ...] = _field(
        _seq(_row(_int, _seq(_row(_int, _int, _int)))), gac_only=True, default=()
    )

    def __post_init__(self) -> None:
        rounds = len(self.anchors)
        if len(set(self.anchors)) != rounds:
            raise CheckpointError("checkpoint names an anchor twice")
        gac = self.algo == "gac"
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.metadata["gac_only"] and not gac:
                if value:
                    raise CheckpointError(
                        f"{self.algo!r} checkpoint sets the GAC-only field "
                        f"{spec.name!r}"
                    )
            elif spec.metadata["per_round"] and len(value) != rounds:
                raise CheckpointError(
                    f"checkpoint field {spec.name!r} has {len(value)} entries "
                    f"for {rounds} anchors"
                )
        if gac and not self.rng_state:
            raise CheckpointError("GAC checkpoint lacks the RNG state")

    @property
    def rounds(self) -> int:
        """How many greedy rounds the snapshot has completed."""
        return len(self.anchors)

    @classmethod
    def capture(
        cls,
        graph: Graph,
        algo: str,
        fingerprint: str,
        params: dict[str, Any],
        result: "GreedyResult | OlakResult",
        base_coreness: list[int],
        *,
        rng: "random.Random | None" = None,
        cache: "FollowerCache | None" = None,
    ) -> "RoundState":
        """Record a loop's committed round; every vertex becomes its id."""
        csr = csr_view(graph)
        index = csr.index
        return cls(
            algo=algo,
            fingerprint=fingerprint,
            params=params,
            anchors=tuple(index[a] for a in result.anchors),
            followers=tuple(
                tuple(sorted(index[v] for v in result.followers[a]))
                for a in result.anchors
            ),
            base_coreness=tuple(base_coreness),
            gains=tuple(getattr(result, "gains", ())),
            traces=tuple(
                (t.elapsed_seconds, t.candidate_count, astuple(t.counters))
                for t in getattr(result, "traces", ())
            ),
            rng_state=() if rng is None else rng.getstate(),
            cache=() if cache is None else tuple(
                (i, tuple((nid, cache.cores[i][nid], n) for nid, n in counts.items()))
                for i, counts in cache.entries.items()
            ),
        )

    def restore(
        self,
        graph: Graph,
        result: "GreedyResult | OlakResult",
        *,
        rng: "random.Random | None" = None,
        cache: "FollowerCache | None" = None,
    ) -> list[int]:
        """Rehydrate the record into a loop's state; returns base corenesses.

        The inverse of :meth:`capture`: ids are checked against ``n``,
        cache entries become ``{nid: count}`` and ``{nid: k}`` rows and
        the RNG state ``(version, tuple(ints), gauss)``.
        """
        labels = csr_view(graph).labels
        n = len(labels)
        if len(self.base_coreness) != n:
            raise CheckpointError(
                f"checkpoint holds {len(self.base_coreness)} corenesses for a "
                f"graph of {n} vertices"
            )

        def checked(i: int) -> int:
            if i >= n:
                raise CheckpointError(
                    f"checkpoint names vertex id {i} in a graph of {n} vertices"
                )
            return i

        result.anchors = [labels[checked(i)] for i in self.anchors]
        result.followers = {
            a: frozenset(labels[checked(i)] for i in ids)
            for a, ids in zip(result.anchors, self.followers)
        }
        if self.algo == "gac":
            # Lazy: the greedy loops import this module.
            from repro.anchors.followers import FollowerCounters
            from repro.anchors.gac import GreedyResult, IterationTrace

            assert isinstance(result, GreedyResult)
            assert rng is not None and cache is not None
            width = len(fields(FollowerCounters))
            if any(len(counters) != width for _, _, counters in self.traces):
                raise CheckpointError(f"checkpoint trace counters are not {width} wide")
            result.gains = list(self.gains)
            result.traces = [
                IterationTrace(anchor, gain, elapsed, FollowerCounters(*row), count)
                for anchor, gain, (elapsed, count, row) in zip(
                    result.anchors, self.gains, self.traces
                )
            ]
            try:
                rng.setstate(self.rng_state)
            except (TypeError, ValueError, OverflowError) as exc:
                raise CheckpointError(f"checkpoint RNG state: {exc}") from exc
            cache.entries = {
                checked(i): {checked(nid): count for nid, _, count in rows}
                for i, rows in self.cache
            }
            cache.cores = {i: {nid: k for nid, k, _ in rows} for i, rows in self.cache}
        return list(self.base_coreness)


def graph_fingerprint(graph: Graph) -> str:
    """SHA-256 over the sorted adjacency — one id per graph structure.

    Deterministic across processes and runs (sorted vertices, sorted
    neighbor lists, ``repr`` labels), so a checkpoint taken on one host
    validates on another as long as the graph is truly the same.
    """
    digest = hashlib.sha256()
    for u in sorted(graph.vertices(), key=_sort_key):
        digest.update(repr(u).encode())
        for v in sorted(graph.neighbors(u), key=_sort_key):
            digest.update(b"|")
            digest.update(repr(v).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def save(path: "str | os.PathLike[str]", state: RoundState) -> None:
    """Write ``state`` as JSON, atomically (temp file + ``os.replace``).

    A reader (or a resume after a kill) either sees the previous
    complete file or the new complete file, never a torn write. Counts
    ``checkpoint.writes`` in the obs registry.
    """
    target = Path(path)
    document = {"magic": MAGIC, "version": VERSION}
    document.update((spec.name, getattr(state, spec.name)) for spec in fields(state))
    data = json.dumps(document, separators=(",", ":"), allow_nan=False).encode()
    fd, tmp_name = tempfile.mkstemp(
        prefix=target.name + ".", suffix=".tmp", dir=target.parent or Path(".")
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    _obs.add(_obs.CHECKPOINT_WRITES)


def load(path: "str | os.PathLike[str]") -> RoundState:
    """Read a checkpoint file, raising :class:`CheckpointError` on damage.

    Counts ``checkpoint.resumes`` in the obs registry. Any failure
    propagates: a resume that cannot read its snapshot must abort, not
    run fresh.
    """
    target = Path(path)
    try:
        raw = target.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {target}: {exc}") from exc
    try:
        document = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise CheckpointError(
            f"corrupt checkpoint {target}: not a {MAGIC} JSON document ({exc})"
        ) from exc
    if not isinstance(document, dict) or document.get("magic") != MAGIC:
        raise CheckpointError(f"{target} is not a {MAGIC} file")
    version = document.get("version")
    if version != VERSION:
        raise CheckpointError(
            f"checkpoint {target} has format version {_show(version)}, "
            f"this build reads version {VERSION}"
        )
    specs = fields(RoundState)
    unknown = set(document) - {"magic", "version"} - {spec.name for spec in specs}
    if unknown:
        raise CheckpointError(
            f"checkpoint {target} has unknown field(s) {_show(sorted(unknown))}"
        )
    values: dict[str, Any] = {}
    for spec in specs:
        if spec.name not in document:
            raise CheckpointError(f"checkpoint {target} lacks field {spec.name!r}")
        try:
            values[spec.name] = spec.metadata["read"](document[spec.name])
        except ValueError as exc:
            raise CheckpointError(
                f"checkpoint {target} field {spec.name!r}: {exc}"
            ) from exc
    state = RoundState(**values)
    _obs.add(_obs.CHECKPOINT_RESUMES)
    return state


def validate(
    state: RoundState,
    *,
    algo: str,
    fingerprint: str,
    params: dict[str, Any],
) -> None:
    """Abort the resume unless the snapshot matches the run exactly.

    ``params`` must be equal key-for-key: a checkpoint taken under
    different pruning/reuse/tie-break settings (or a different graph —
    the fingerprint) would diverge from the uninterrupted trajectory
    the resume promises to reproduce.
    """
    if state.algo != algo:
        raise CheckpointError(
            f"checkpoint is for algorithm {state.algo!r}, not {algo!r}"
        )
    if state.fingerprint != fingerprint:
        raise CheckpointError(
            "checkpoint was taken on a different graph "
            f"(fingerprint {state.fingerprint[:12]}... != {fingerprint[:12]}...)"
        )
    if state.params != params:
        differing = sorted(
            key
            for key in set(state.params) | set(params)
            if state.params.get(key) != params.get(key)
        )
        raise CheckpointError(
            "checkpoint parameters do not match the resuming run: "
            + ", ".join(
                f"{key}={state.params.get(key)!r} (run: {params.get(key)!r})"
                for key in differing
            )
        )


def commit(
    path: "str | os.PathLike[str]",
    graph: Graph,
    algo: str,
    fingerprint: str,
    params: dict[str, Any],
    result: "GreedyResult | OlakResult",
    base_coreness: list[int],
    *,
    rng: "random.Random | None" = None,
    cache: "FollowerCache | None" = None,
) -> None:
    """Snapshot a committed round; a failed write is gauged, never fatal."""
    try:
        save(
            path,
            RoundState.capture(
                graph, algo, fingerprint, params, result, base_coreness,
                rng=rng, cache=cache,
            ),
        )
    except Exception:
        # The checkpoint exists to protect the run; a failed write must
        # not be the thing that kills it. Gauged for diagnosability.
        _obs.gauge(f"{algo}.checkpoint.write_error", 1.0)


def resume(
    path: "str | os.PathLike[str]",
    graph: Graph,
    budget: int,
    *,
    algo: str,
    fingerprint: str,
    params: dict[str, Any],
    result: "GreedyResult | OlakResult",
    rng: "random.Random | None" = None,
    cache: "FollowerCache | None" = None,
) -> list[int]:
    """Load, validate and rehydrate a snapshot; returns base corenesses.

    Everything that shapes the remaining rounds — selections so far,
    the RNG stream position, the Algorithm-3 cache — is restored
    exactly, so the continuation replays the uninterrupted trajectory.
    """
    state = load(path)
    validate(state, algo=algo, fingerprint=fingerprint, params=params)
    if state.rounds > budget:
        raise CheckpointError(
            f"checkpoint already holds {state.rounds} anchors, more than "
            f"the budget {budget} of the resuming run"
        )
    return state.restore(graph, result, rng=rng, cache=cache)


__all__ = [
    "MAGIC",
    "VERSION",
    "RoundState",
    "commit",
    "graph_fingerprint",
    "load",
    "resume",
    "save",
    "validate",
]
