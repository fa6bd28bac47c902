"""repro.parallel — per-round forked process pool for the GAC scan.

The per-round candidate scan of the greedy (Algorithm 6) is
embarrassingly parallel: each candidate's follower computation
(Algorithms 4/5) only reads that round's anchored state and is
independent of the others. This package fans it out across worker
processes forked from the live state while keeping the package-wide
determinism contract — ``workers=N`` returns the same ``GreedyResult``
(anchors, gains, tie-break order) and the same work counters as the
serial scan, for every ``N``:

* :mod:`repro.parallel.worker` — the evaluator slot the forked workers
  read, and the chunk evaluator (candidate ids in; results, Figure-13
  tallies and shipped spans out);
* :mod:`repro.parallel.pool` — :class:`CandidateScanPool`, the parent's
  per-round executor (fork after install, chunked dispatch with
  latency-adaptive sizing, dispatch-ordered results, broken-pool
  detection, shutdown before the round returns);
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

# The pool (multiprocessing and the executor) loads lazily via PEP 562
# so that light consumers — repro.distributed borrowing the bucket
# h-index, the greedy resolving a worker count that turns out to be
# serial — never pay for it.
_LAZY = {
    "CandidateScanPool": "repro.parallel.pool",
    "PoolUnavailable": "repro.parallel.pool",
}


def __getattr__(name: str) -> object:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


__all__ = [
    "ENV_WORKERS",
    "CandidateScanPool",
    "PoolUnavailable",
    "bucket_h_index",
    "chunked",
    "resolve_workers",
]
