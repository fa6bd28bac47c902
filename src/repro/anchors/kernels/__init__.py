"""Interchangeable follower-search kernels (the Algorithm 4/5 inner loop).

The follower search is the hot path of every greedy anchor scan — about
a third of a serial GAC run on livejournal is spent inside
``followers.search`` — so the per-node exploration is factored into
swappable *backends* behind one tiny interface:

``dict``
    The original dict-of-sets implementation, kept verbatim as the
    oracle (:mod:`repro.anchors.kernels.dict_backend`) that tests
    select explicitly.
``flat``
    Flat-array rewrite against the interned CSR ids
    (:mod:`repro.anchors.kernels.flat_backend`): dense per-id tables,
    an int-packed ``(shell, layer, id)`` heap key, generation-stamped
    scratch arrays. The production kernel and the default.

Both backends are *byte-identical* — follower sets, Figure-13
counters, heap pop counts, anchor sequences — enforced by the
differential harness in ``tests/test_properties.py`` and the backend
matrix in ``tests/test_kernels.py``; the backend changes wall-clock
only.

Selection precedence (``docs/kernels.md``): an explicit ``kernel=``
kwarg (or ``--kernel`` CLI flag, which feeds it) beats the
``REPRO_KERNEL`` environment variable, which beats the default.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable, Protocol

from repro.graphs.csr import csr_view

if TYPE_CHECKING:
    from repro.anchors.state import AnchoredState
    from repro.core.tree import NodeId
    from repro.graphs.graph import Graph, Vertex


class FollowerExplorer(Protocol):
    """What a backend's per-candidate exploration context must provide."""

    def explore_nodes(
        self, todo: "list[tuple[NodeId, bool]]"
    ) -> "list[tuple[NodeId, set[Vertex], int]]":
        """Explore every ``(node id, is_own_node)`` pair in order.

        One call per candidate: the caller hands over the full list of
        tree nodes that survived the reuse/shell filters, and the
        backend returns ``(node id, surviving followers, heap pops)``
        per entry in the same order. Batching lets backends hoist their
        per-candidate table bindings out of the per-node loop.
        """
        ...

#: The recognized backend names, in documentation order.
KERNELS = ("dict", "flat")
#: Environment knob read when no explicit ``kernel=`` is given.
ENV_KERNEL = "REPRO_KERNEL"
#: Requested when neither kwarg nor environment chooses: the flat CSR
#: kernel.
DEFAULT_KERNEL = "flat"


def requested_kernel(kernel: "str | None" = None) -> str:
    """The backend name the caller asked for, before availability checks.

    Precedence: explicit ``kernel`` argument (the CLI's ``--kernel``
    arrives here as a kwarg) > ``REPRO_KERNEL`` > :data:`DEFAULT_KERNEL`.

    Raises:
        ValueError: for a name outside :data:`KERNELS` — a typo'd
            environment variable must fail loudly, not silently run the
            default backend.
    """
    if kernel is None:
        kernel = os.environ.get(ENV_KERNEL, "").strip() or DEFAULT_KERNEL
    if kernel not in KERNELS:
        raise ValueError(
            f"unknown follower kernel {kernel!r}; expected one of {KERNELS}"
        )
    return kernel


def resolve_kernel(
    kernel: "str | None" = None, graph: "Graph | None" = None
) -> str:
    """The backend a run will use: :func:`requested_kernel`, checked.

    Callers that resolve once per run (GAC, OLAK) pass the graph: the
    flat kernel needs its interned CSR view, which is built here, so a
    graph it cannot index fails up front with a one-line
    :class:`~repro.errors.GraphError` instead of mid-search.
    """
    name = requested_kernel(kernel)
    if name == "flat" and graph is not None:
        csr_view(graph)
    return name


#: Explorer factories by backend name, filled on first use so the
#: per-candidate dispatch is one dict lookup (the hot path builds one
#: explorer per evaluated candidate).
_FACTORIES: dict[str, "Callable[[AnchoredState, Vertex], FollowerExplorer]"] = {}


def _factory(name: str) -> "Callable[[AnchoredState, Vertex], FollowerExplorer]":
    factory = _FACTORIES.get(name)
    if factory is None:
        if name == "flat":
            from repro.anchors.kernels import flat_backend

            factory = flat_backend.flat_explorer
        else:
            from repro.anchors.kernels import dict_backend

            factory = dict_backend.DictExplorer
        _FACTORIES[name] = factory  # lint: race-ok idempotent memo — every writer stores the same factory object
    return factory


def make_explorer(
    name: str, state: "AnchoredState", x: "Vertex"
) -> FollowerExplorer:
    """A per-candidate explorer: ``explore_nodes(todo) -> [(nid, set, pops)]``.

    ``name`` must be a checked backend name (pass it through
    :func:`resolve_kernel` first).
    """
    return _factory(name)(state, x)
