"""repro.parallel — shared-memory process-pool evaluation for GAC.

The per-round candidate scan of the greedy (Algorithm 6) is
embarrassingly parallel: each candidate's follower computation
(Algorithms 4/5) is read-only over the graph and independent of the
others. This package fans it out across worker processes while keeping
the package-wide determinism contract — ``workers=N`` returns the same
``GreedyResult`` (anchors, gains, tie-break order) and the same work
counters as the serial scan, for every ``N``:

* :mod:`repro.parallel.shm` — the graph travels once (interned CSR
  buffers exported to POSIX shared memory, attached zero-copy in each
  worker), so it is never pickled per task;
* :mod:`repro.parallel.worker` — per-process state (graph, persistent
  lineage-keyed anchored state advanced by incremental anchor deltas)
  plus the chunk evaluator, tracing/verification forced off; each
  chunk returns its tasks' results and counter deltas;
* :mod:`repro.parallel.pool` — :class:`CandidateScanPool`, the parent's
  executor wrapper (chunked dispatch with latency-adaptive sizing,
  dispatch-ordered results, broken-pool detection);
* :mod:`repro.parallel.util` — worker-count resolution
  (``REPRO_PARALLEL``), the O(d) bucket h-index, chunking.

The deterministic two-phase scan that drives the pool lives in
:mod:`repro.anchors.gac`; the contract and the lifecycle are documented
in ``docs/parallelism.md``. Lint rule R8 keeps ``multiprocessing`` /
``concurrent.futures`` imports contained to this package.
"""

from typing import TYPE_CHECKING

from repro.parallel.util import ENV_WORKERS, bucket_h_index, chunked, resolve_workers

if TYPE_CHECKING:
    from repro.parallel.pool import CandidateScanPool, PoolUnavailable
    from repro.parallel.shm import AttachedCSR, SharedCSR, SharedCSRHandle, attach

# The heavy halves (multiprocessing, shared memory, and the anchors
# modules the worker pulls in) load lazily via PEP 562 so that light
# consumers — repro.distributed borrowing the bucket h-index, the greedy
# resolving a worker count that turns out to be serial — never pay for
# them and never risk an import cycle through repro.anchors.
_LAZY = {
    "CandidateScanPool": "repro.parallel.pool",
    "PoolUnavailable": "repro.parallel.pool",
    "AttachedCSR": "repro.parallel.shm",
    "SharedCSR": "repro.parallel.shm",
    "SharedCSRHandle": "repro.parallel.shm",
    "attach": "repro.parallel.shm",
}


def __getattr__(name: str) -> object:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


__all__ = [
    "ENV_WORKERS",
    "AttachedCSR",
    "CandidateScanPool",
    "PoolUnavailable",
    "SharedCSR",
    "SharedCSRHandle",
    "attach",
    "bucket_h_index",
    "chunked",
    "resolve_workers",
]
