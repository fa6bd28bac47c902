"""Outside-in per-layer timing of one greedy run.

The program is not edited to be measured: for the length of a traced
run, :meth:`Tracer.patched` wraps the public entry point of each layer
in a span and puts the original back afterwards. A function is wrapped
in every loaded ``repro`` module that holds it (the modules that import
it, e.g. ``sys.modules["repro.anchors.gac"]``, whose name the ``gac``
function shadows on the package); a method is wrapped on its class, so
every caller sees it.

Spans are kept in memory as ``[name, start, end, parent, run]`` and can
be written out as Chrome trace-event JSON (one lane per run).
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

#: (span name, defining module, function or ``Class.method``). The span
#: name is the layer metric's prefix: ``core.peel`` gives ``core.peel_s``.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("graphs.csr_build", "repro.graphs.csr", "CSRGraph.from_graph"),
    ("graphs.subgraph", "repro.graphs.graph", "Graph.subgraph"),
    ("core.peel", "repro.core.decomposition", "peel_decomposition"),
    ("core.core_decomposition", "repro.core.decomposition", "core_decomposition"),
    ("core.tree_build", "repro.core.tree", "CoreComponentTree.build"),
    ("core.tree_adjacency", "repro.core.tree", "TreeAdjacency.__init__"),
    ("state.build", "repro.anchors.state", "AnchoredState.build"),
    ("bounds.compute", "repro.anchors.bounds", "compute_upper_bounds"),
    ("bounds.refine", "repro.anchors.bounds", "refined_total"),
    ("followers.search", "repro.anchors.followers", "find_followers"),
    (
        "kernels.apply_update",
        "repro.anchors.kernels.flat_backend",
        "FlatTables.apply_update",
    ),
    ("reuse.validate", "repro.anchors.reuse", "FollowerCache.valid_counts"),
    ("reuse.store", "repro.anchors.reuse", "FollowerCache.store"),
    ("reuse.apply_removals", "repro.anchors.reuse", "FollowerCache.apply_removals"),
    ("incremental.apply_anchor", "repro.anchors.incremental", "apply_anchor"),
    ("parallel.pool_start", "repro.parallel.pool", "CandidateScanPool.__init__"),
    ("parallel.evaluate", "repro.parallel.pool", "CandidateScanPool.evaluate"),
    ("parallel.close", "repro.parallel.pool", "CandidateScanPool.close"),
)

#: Work counters read from ``repro.obs.window()`` deltas, reported as-is.
COUNTERS: tuple[str, ...] = (
    "csr.builds",
    "decomposition.peel_pops",
    "gac.pruned_candidates",
    "followers.evaluated_candidates",
    "followers.explored_nodes",
    "followers.visited_vertices",
    "reuse.counts_served",
    "reuse.entries_dropped",
    "parallel.tasks",
    "parallel.chunks",
    "parallel.dispatches",
)

_ROOT = "run"


class Tracer:
    """Nested spans of the traced runs, recorded in memory."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [name, start, end, parent, run]
        self.run = 0
        self._stack: list[int] = []

    def enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run])
        self._stack.append(index)
        return index

    def exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def traced_call(self, fn: Callable[[], Any]) -> tuple[Any, int]:
        """Run ``fn`` under a root span with every layer patched.

        Returns ``(result, root)``; ``self.spans[root:]`` is the run.
        The patches are in place only while ``fn`` runs.
        """
        self.run += 1
        with self.patched():
            root = self.enter(_ROOT)
            try:
                result = fn()
            finally:
                self.exit(root)
        return result, root

    @contextmanager
    def patched(self) -> Iterator[None]:
        """Wrap every loaded target in a span; restore all on exit."""
        undo: list[tuple[Any, str, Any]] = []
        try:
            for name, module_name, path in TARGETS:
                module = sys.modules.get(module_name)
                if module is None:
                    continue  # never imported, so no run can reach it
                _patch(self, name, module, path, undo)
            yield
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def write_chrome(self, path: Path) -> None:
        """Write every recorded span as Chrome trace-event JSON."""
        origin = min((s[1] for s in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": run,
                "args": {"parent": parent},
            }
            for name, start, end, parent, run in self.spans
        ]
        path.write_text(
            json.dumps(
                {"traceEvents": events, "displayTimeUnit": "ms"},
                separators=(",", ":"),
            ),
            encoding="utf-8",
        )


def _patch(
    tracer: Tracer, name: str, module: Any, path: str, undo: list[tuple[Any, str, Any]]
) -> None:
    if "." in path:
        cls_name, attr = path.split(".")
        owner = getattr(module, cls_name)
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(_wrap(tracer, name, raw.__func__))
        else:
            wrapped = _wrap(tracer, name, raw)
        undo.append((owner, attr, raw))
        setattr(owner, attr, wrapped)
        return
    original = getattr(module, path)
    wrapped = _wrap(tracer, name, original)
    for mod_name in sorted(sys.modules):
        mod = sys.modules[mod_name]
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, attr, value))
                setattr(mod, attr, wrapped)


def _wrap(tracer: Tracer, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        index = tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(index)

    return traced


def run_metrics(
    spans: list[list[Any]], root: int, counters: dict[str, int]
) -> dict[str, float]:
    """The per-layer metrics of the traced run rooted at ``spans[root]``.

    A layer's time counts each span once, not again inside a span of
    the same name. ``incremental.apply_anchor_self_s`` and
    ``loop.self_s`` are the span's duration minus its direct children.
    """
    wall = spans[root][2] - spans[root][1]
    out: dict[str, float] = {f"{name}_s": 0.0 for name, _, _ in TARGETS}
    children: dict[int, float] = {}
    anchorings: list[int] = []
    search_us: list[float] = []
    peel_calls = 0
    for index in range(root + 1, len(spans)):
        name, start, end, parent, _ = spans[index]
        duration = end - start
        children[parent] = children.get(parent, 0.0) + duration
        if not _inside_same(spans, index):
            out[f"{name}_s"] += duration
            if name == "incremental.apply_anchor":
                anchorings.append(index)
        if name == "followers.search":
            search_us.append(duration * 1e6)
        elif name == "core.peel":
            peel_calls += 1
    out["incremental.apply_anchor_self_s"] = sum(
        spans[i][2] - spans[i][1] - children.get(i, 0.0) for i in anchorings
    )
    covered = children.get(root, 0.0)
    out["loop.self_s"] = wall - covered
    out["trace.coverage_frac"] = covered / wall
    out["core.peel_calls"] = float(peel_calls)
    out["followers.search_calls"] = float(len(search_us))
    out["followers.search_us.p50"] = _quantile(search_us, 50)
    out["followers.search_us.p99"] = _quantile(search_us, 99)
    for name in COUNTERS:
        out[name] = float(counters.get(name, 0))
    pruned = counters.get("gac.pruned_candidates", 0)
    evaluated = counters.get("followers.evaluated_candidates", 0)
    reused = counters.get("followers.reused_nodes", 0)
    explored = counters.get("followers.explored_nodes", 0)
    tasks = counters.get("parallel.tasks", 0)
    out["bounds.prune_ratio"] = _ratio(pruned, pruned + evaluated)
    out["reuse.hit_ratio"] = _ratio(reused, reused + explored)
    out["parallel.useful_ratio"] = _ratio(evaluated, tasks)
    return out


def _inside_same(spans: list[list[Any]], index: int) -> bool:
    name = spans[index][0]
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _quantile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
