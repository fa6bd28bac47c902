"""One workload's process: set up, warm up, then run greedy calls on request.

``run.py`` starts one of these per workload with every ``REPRO_*``
variable removed and ``PYTHONHASHSEED=0``. The process sets up
(:data:`SETUP_REPEATS` fresh replica generations, each followed by a
CSR build), makes one untimed warm-up run whose gain it checks against
the reference peel of :mod:`repro.verify.reference`, and reports ready.
It then answers one JSON line per command read from stdin:

* ``{"cmd": "run", "traced": false}`` — one timed greedy call, then one
  host-speed sample (:func:`calibrate`);
* ``{"cmd": "run", "traced": true}`` — one call with every layer
  patched (see :mod:`tracer`), answered with its per-layer metrics;
* ``{"cmd": "finish"}`` — report memory use, write the trace, exit.

Answers go to the original stdout; anything else the process prints is
sent to stderr so it cannot corrupt the protocol.
"""

from __future__ import annotations

import argparse
import functools
import gc
import heapq
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Any

from tracer import Tracer, run_metrics
from workloads import Workload, build_input, digest, gain_of

from repro import obs
from repro.anchors.kernels import resolve_kernel
from repro.graphs.csr import csr_view
from repro.verify.reference import reference_gain

#: Set-up repetitions; ``setup_s`` is their median.
SETUP_REPEATS = 11
#: Least time one host-speed sample takes.
CALIBRATION_S = 0.2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", required=True, help="the Workload as JSON")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args(argv)

    channel = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(2, 1)

    def send(message: dict[str, Any]) -> None:
        channel.write(json.dumps(message) + "\n")
        channel.flush()

    workload = Workload(**json.loads(args.spec))
    setup_s: list[float] = []
    generate_s: list[float] = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        graph, original = build_input(workload.dataset, args.seed)
        generated = time.perf_counter()
        csr_view(graph)
        setup_s.append(time.perf_counter() - start)
        generate_s.append(generated - start)
    adjacency = {u: list(graph.neighbors(u)) for u in graph.vertices()}

    tracer = Tracer()
    ready, result = _run(workload, graph, original, None)
    if result is not None:
        try:
            ready["reference_gain"] = reference_gain(graph, frozenset(result.anchors))
        except Exception:
            ready["error"] = traceback.format_exc(limit=3)
    ready.update(
        setup_s=setup_s,
        generate_s=generate_s,
        kernel=resolve_kernel(None, graph=graph),
        workers=workload.workers,
    )
    send(ready)

    for line in sys.stdin:
        command = json.loads(line)
        if command["cmd"] != "run":
            break
        kept = len(tracer.spans)
        if command["traced"]:
            reply, _ = _run(workload, graph, original, tracer)
            if args.trace_out is None or tracer.run > 1:
                del tracer.spans[kept:]  # the trace file holds the first traced run
        else:
            reply, _ = _run(workload, graph, original, None)
            reply["calibration_s"] = calibrate(adjacency)
        send(reply)

    if args.trace_out is not None and tracer.spans:
        tracer.write_chrome(args.trace_out)
    send(
        {
            "peak_rss_mb": _max_rss_mb(resource.RUSAGE_SELF),
            "worker_rss_mb": _max_rss_mb(resource.RUSAGE_CHILDREN),
        }
    )
    return 0


def _run(
    workload: Workload,
    graph: Any,
    original: dict[Any, Any],
    tracer: Tracer | None,
) -> tuple[dict[str, Any], Any]:
    """One greedy call, timed around the call alone, then fingerprinted.

    Returns the reply and the result (``None`` when the call raised).
    """
    call = functools.partial(workload.run, graph)
    result = None
    reply: dict[str, Any] = {"traced": tracer is not None, "wall": None, "error": None}
    gc.collect()
    window = obs.window()
    try:
        if tracer is None:
            start = time.perf_counter()
            result = call()
            reply["wall"] = time.perf_counter() - start
        else:
            result, root = tracer.traced_call(call)
            reply["wall"] = tracer.spans[root][2] - tracer.spans[root][1]
            reply["layers"] = run_metrics(tracer.spans, root, window.counters())
        reply["digest"] = digest(result, original)
        reply["gain"] = gain_of(result)
        reply["anchors"] = len(result.anchors)
    except Exception:
        reply["error"] = traceback.format_exc(limit=3)
        result = None
    return reply, result


def calibrate(adjacency: dict[Any, list[Any]]) -> float:
    """Seconds per pass of a fixed peel: how fast the host runs right now.

    On a shared host the speed can drift by 10-30% over minutes (as
    measured on a shared 2-core host), far more than run-to-run noise. This
    textbook heap peel over the benchmark's own copy of the workload's
    adjacency does the same kind of work as the program (dict, set and
    heap operations on the same vertices), but no change to the program
    can make it faster or slower, so it measures the host alone. Passes
    repeat until :data:`CALIBRATION_S` has elapsed. The garbage of the
    run before is collected first and the collector is off while
    timing, so no collection of the program's objects is counted.
    """
    gc.collect()
    gc.disable()
    try:
        passes = 0
        start = time.perf_counter()
        while True:
            degree = {u: len(vs) for u, vs in adjacency.items()}
            heap = [(d, u) for u, d in degree.items()]
            heapq.heapify(heap)
            removed: set[Any] = set()
            while heap:
                d, u = heapq.heappop(heap)
                if u in removed or d != degree[u]:
                    continue
                removed.add(u)
                for v in adjacency[u]:
                    if v not in removed:
                        degree[v] -= 1
                        heapq.heappush(heap, (degree[v], v))
            passes += 1
            elapsed = time.perf_counter() - start
            if elapsed >= CALIBRATION_S:
                return elapsed / passes
    finally:
        gc.enable()


def _max_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


if __name__ == "__main__":
    sys.exit(main())
