"""Small deterministic helpers shared by the parallel layer (and friends).

Kept free of heavyweight imports so sibling modules (and
:mod:`repro.distributed`, which borrows :func:`bucket_h_index`) can pull
individual helpers without dragging in ``multiprocessing``.
"""

from __future__ import annotations

import os
from collections.abc import Iterator, Sequence
from typing import TypeVar

T = TypeVar("T")

#: Worker-count environment knob read when ``workers=None`` is passed to
#: the greedy entry points (0 / unset / unparsable all mean serial).
ENV_WORKERS = "REPRO_PARALLEL"


def bucket_h_index(  # lint: obs-ok pure O(n) arithmetic
    values: Sequence[int],
) -> int:
    """The largest ``h`` such that at least ``h`` values are ``>= h``.

    O(len) counting-sort formulation: a value ``v`` can only support
    h-indices up to ``min(v, n)``, so it is bucketed there and the
    buckets are scanned from ``n`` downward until the suffix count
    reaches ``h``. Replaces the O(d log d) sort the simulated
    distributed decomposition previously paid per vertex per round.
    """
    n = len(values)
    if n == 0:
        return 0
    counts = [0] * (n + 1)
    for value in values:
        if value > 0:
            counts[value if value < n else n] += 1
    total = 0
    for h in range(n, 0, -1):
        total += counts[h]
        if total >= h:
            return h
    return 0


def chunked(  # lint: obs-ok pure slicing generator
    items: Sequence[T], size: int
) -> Iterator[Sequence[T]]:
    """Successive slices of ``items`` of length ``size`` (last may be short)."""
    if size <= 0:
        raise ValueError(f"chunk size must be positive, got {size}")
    for start in range(0, len(items), size):
        yield items[start : start + size]


def resolve_workers(  # lint: obs-ok trivial config resolution
    workers: int | None,
) -> int:
    """Effective worker count: the explicit argument, else ``REPRO_PARALLEL``.

    ``None`` defers to the environment; absent, empty, unparsable, or
    negative values resolve to 0 (serial). Explicit negatives clamp to 0
    as well so callers can treat the result as a plain count.
    """
    if workers is not None:
        return max(workers, 0)
    raw = os.environ.get(ENV_WORKERS, "").strip()
    if not raw:
        return 0
    try:
        value = int(raw)
    except ValueError:
        return 0
    return max(value, 0)
