"""repro.bench — workload-grid benchmarking and regression gating.

The measurement substrate the ROADMAP's speed items prove themselves
against. Two commands (``python -m repro.bench``):

* ``run``  — sweep a checked-in dataset × budget × workers × kernel
  (× reserved strategy) grid spec best-of-N with byte-identity
  asserted across repeats and against the serial reference, recording
  variance-aware statistics and per-cell :mod:`repro.obs` phase
  profiles into a schema-5 ``BENCH_grid.json``;
* ``gate`` — the regression gate over two grid artifacts: per-cell
  headline speedups with host-class trajectories, the kernel
  reference-pair floor, :mod:`repro.obs.diffs` variance thresholds and
  honest starved-host skips.

``BENCH_grid.json`` is the only perf artifact either command reads or
writes.

See ``docs/benchmarking.md``.
"""

from repro.bench.grid import Cell, GridSpec, load_grid
from repro.bench.runner import STRATEGIES, IdentityError, host_core_count, run_grid

__all__ = [
    "Cell",
    "GridSpec",
    "IdentityError",
    "STRATEGIES",
    "host_core_count",
    "load_grid",
    "run_grid",
]
