"""The follower-search kernel (the Algorithm 4/5 inner loop).

The follower search is the hot path of every greedy anchor scan, so the
per-node exploration runs on flat arrays over the interned CSR ids
(:mod:`repro.anchors.kernels.flat_backend`): dense per-id tables, an
int-packed ``(shell, layer, id)`` heap key, generation-stamped scratch
arrays. It is the only search :func:`repro.anchors.followers.find_followers`
runs.

:mod:`repro.anchors.kernels.dict_backend` keeps the original
dict-of-sets exploration as a test oracle: it shares no table code with
the flat kernel, and the differential harness in
``tests/test_properties.py`` plus ``tests/test_kernels.py`` require the
two to agree byte for byte — follower sets, Figure-13 counters, heap
pop counts, anchor sequences (``docs/kernels.md``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.graphs.csr import csr_view

if TYPE_CHECKING:
    from repro.graphs.graph import Graph


def resolve_kernel(
    kernel: "str | None" = None, graph: "Graph | None" = None
) -> str:
    """The kernel a run uses: always ``"flat"``.

    Given a graph, builds its interned CSR view up front, so a graph
    the flat kernel cannot index (mutually unorderable labels) fails
    with a one-line :class:`~repro.errors.GraphError` instead of
    mid-search.

    Raises:
        ValueError: for any ``kernel`` other than ``None`` or ``"flat"``.
    """
    if kernel not in (None, "flat"):
        raise ValueError(f"unknown follower kernel {kernel!r}; expected 'flat'")
    if graph is not None:
        csr_view(graph)
    return "flat"
