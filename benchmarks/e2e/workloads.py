"""The benchmark's workloads, their seeded inputs, and their result digests.

Each workload is one whole greedy call on one replica dataset, driven
through the program's public API only. Inputs come from the seed:

* seed 0 is the committed replica, edge for edge what
  ``repro.datasets.registry.load(name)`` returns;
* seed N > 0 is the same replica rebuilt, then relabeled with a seeded,
  strictly increasing id map (gaps of 1..16) and re-inserted in a seeded
  shuffled vertex and edge order, with each edge's endpoints randomly
  swapped.

The relabeling keeps every id comparison the program makes (all of its
tie-breaks go through the vertex sort key), so a correct program returns
the same anchors, gains and followers on every seed once the labels are
mapped back. Set and dict iteration orders, hash layouts and id spacing
all change, so each seed is also an order-invariance check. Offsetting
the generator seeds instead gives a different graph per seed: on seeds
0..9 that moved the median whole-run time by 9-15% (quartile spread
over median), more than the benchmark's bounds can absorb.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.graphs.graph import Graph


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload: the same greedy call, run back to back.

    Attributes:
        name: the workload name used in ``BENCHMARK.json``.
        dataset: the replica dataset key.
        algo: ``"gac"`` or ``"olak"``.
        budget: anchors to choose per run.
        k: OLAK's core parameter (unused by GAC).
        workers: the ``workers=`` value passed to ``gac`` (0 = serial).
        same_as: another workload whose results this one must reproduce.
    """

    name: str
    dataset: str
    algo: str
    budget: int
    k: int = 0
    workers: int = 0
    same_as: str | None = None

    def run(self, graph: Graph) -> Any:
        """One whole greedy call: the unit every time metric measures."""
        # The program is imported where it is used, so ``run.py``, which
        # only reads these specs, runs without it.
        from repro.anchors import gac
        from repro.olak.olak import olak

        if self.algo == "olak":
            return olak(graph, self.k, self.budget)
        return gac(graph, self.budget, workers=self.workers)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("gac-lj-b6", "livejournal", "gac", 6),
        Workload("gac-gowalla-b20", "gowalla", "gac", 20),
        Workload("olak-youtube-k10-b20", "youtube", "olak", 20, k=10),
        Workload(
            "gac-lj-b6-w2", "livejournal", "gac", 6, workers=2, same_as="gac-lj-b6"
        ),
    )
}


def build_input(dataset: str, seed: int) -> tuple[Graph, dict[Any, Any]]:
    """A freshly generated replica for ``seed`` and its label map back.

    Returns ``(graph, original)`` where ``original[v]`` is the committed
    replica's label of ``graph``'s vertex ``v``.
    """
    from repro.datasets import registry
    from repro.graphs.graph import Graph

    # The registry caches per process; the undecorated function
    # regenerates the replica with the program's own generators.
    base = registry.load.__wrapped__(dataset)
    if seed == 0:
        return base, {u: u for u in base.vertices()}
    rng = random.Random(seed)
    new_id: dict[Any, int] = {}
    label = 0
    for u in sorted(base.vertices()):
        label += rng.randint(1, 16)
        new_id[u] = label
    vertices = list(base.vertices())
    rng.shuffle(vertices)
    edges = list(base.edges())
    rng.shuffle(edges)
    graph = Graph()
    for u in vertices:
        graph.add_vertex(new_id[u])
    for u, v in edges:
        if rng.random() < 0.5:
            u, v = v, u
        graph.add_edge(new_id[u], new_id[v])
    return graph, {v: u for u, v in new_id.items()}


def gain_of(result: Any) -> int:
    """The anchored-coreness objective ``g(A, G)`` of a GAC or OLAK result."""
    if hasattr(result, "coreness_gain"):
        return int(result.coreness_gain)
    return int(result.total_gain)


def digest(result: Any, original: dict[Any, Any]) -> str:
    """A label-independent fingerprint of everything a run decided.

    Covers the anchors in selection order and each anchor's follower
    set, plus the per-anchor gains (GAC) or the k-core growth and
    coreness gain (OLAK), all in the committed replica's labels.
    """
    record: dict[str, Any] = {
        "anchors": [original[a] for a in result.anchors],
        "followers": [
            sorted(original[v] for v in result.followers[a]) for a in result.anchors
        ],
    }
    if hasattr(result, "kcore_growth"):
        record["kcore_growth"] = result.kcore_growth
        record["coreness_gain"] = result.coreness_gain
    else:
        record["gains"] = list(result.gains)
    payload = json.dumps(record, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]
