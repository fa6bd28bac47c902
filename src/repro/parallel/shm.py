"""CSR + result buffers in POSIX shared memory: export once, attach per worker.

The candidate-scan pool never pickles the graph per task. The parent
exports the interned CSR view's two ``array('i')`` buffers into one
:mod:`multiprocessing.shared_memory` block (:class:`SharedCSR`); each
worker attaches by name and rebuilds a zero-copy
:class:`~repro.graphs.csr.CSRGraph` whose ``indptr`` / ``neighbors``
are ``memoryview`` slices of the mapped block (:func:`attach`).

Results travel the same road in the opposite direction:
:class:`SharedResults` is a parent-owned block of fixed-width int rows,
one row per in-flight task. Workers attach (:func:`attach_results`) and
write each task's encoded result — candidate id, follower total,
counter deltas, inline per-node counts — into the disjoint row slot the
parent assigned to that task, so no two writers ever touch the same
bytes and no lock is needed. Results that do not fit a row (oversized
count sets, unknown counter names) fall back to the executor's pickle
channel per task. The export cost is paid once per pool and amortized
across rounds.

Lifecycle and crash safety
--------------------------
* The **exporter** owns the block: :meth:`SharedCSR.close` (also run by
  a ``weakref.finalize`` hook on garbage collection / interpreter exit)
  closes the mapping and unlinks the name. The finalizer is pid-guarded
  so ``fork``-started workers, which inherit the parent's object, can
  never unlink a segment the parent still serves.
* **Attachers** suppress ``multiprocessing.resource_tracker``
  registration for the duration of the attach: on this Python the
  tracker registers every attach as if it were a create (there is no
  ``track=False`` until 3.13), and a worker exiting would otherwise
  prompt the shared tracker to unlink the block under the parent.
  (Unregistering *after* the attach is not enough: the tracker's cache
  is a set, so concurrent workers' register/unregister pairs interleave
  into spurious ``KeyError`` noise.) The cost is that a crashed
  *parent* leaks the segment until the OS cleans ``/dev/shm``; the
  normal-exit path is covered by the finalizer.
* :meth:`AttachedCSR.close` releases the exported memoryviews *before*
  closing the mapping (closing first raises ``BufferError``); workers
  run it from an ``atexit`` hook so interpreter teardown stays silent.
"""

from __future__ import annotations

import os
import weakref
from array import array
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

from repro import obs as _obs
from repro.graphs.csr import CSRGraph
from repro.graphs.graph import Vertex

_INT_FORMAT = "i"
_INT_SIZE = array(_INT_FORMAT).itemsize


@dataclass(frozen=True)
class SharedCSRHandle:
    """Picklable recipe for re-attaching an exported CSR view.

    ``labels`` is ``None`` when the original labels are exactly
    ``0..n-1`` (the common interned case), sparing the pickle; otherwise
    it carries the label list verbatim.
    """

    name: str
    num_vertices: int
    indptr_bytes: int
    neighbors_bytes: int
    itemsize: int
    labels: tuple[Vertex, ...] | None


def _register_noop(name: str, rtype: str) -> None:
    """Stand-in for ``resource_tracker.register`` during an attach."""


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to ``name`` without registering it with the resource tracker.

    ``SharedMemory(name=...)`` unconditionally registers on this Python
    (``track=False`` lands in 3.13); swapping the hook out for the call
    keeps attachers invisible to the tracker — the exporter alone owns
    the segment's lifetime. ``setattr`` keeps the patch explicit for the
    type checker; attach runs single-threaded in each worker.
    """
    original = resource_tracker.register
    setattr(resource_tracker, "register", _register_noop)  # lint: race-ok reversed below, attach-time only
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        setattr(resource_tracker, "register", original)  # lint: race-ok restores the patched hook


def _destroy(shm: shared_memory.SharedMemory, owner_pid: int) -> None:
    """Finalizer body: close + unlink, but only in the exporting process."""
    if os.getpid() != owner_pid:
        return
    try:
        shm.close()
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already unlinked elsewhere
        pass


class SharedCSR:
    """Exporter-side owner of a CSR view copied into shared memory."""

    __slots__ = ("handle", "_shm", "_finalizer", "__weakref__")

    def __init__(self, shm: shared_memory.SharedMemory, handle: SharedCSRHandle) -> None:
        self._shm = shm
        self.handle = handle
        self._finalizer = weakref.finalize(self, _destroy, shm, os.getpid())

    @classmethod
    def export(cls, csr: CSRGraph) -> "SharedCSR":
        """Copy ``csr``'s flat buffers into one fresh shared-memory block."""
        indptr_bytes = csr.indptr.tobytes()
        neighbors_bytes = csr.neighbors.tobytes()
        size = max(1, len(indptr_bytes) + len(neighbors_bytes))
        shm = shared_memory.SharedMemory(create=True, size=size)
        shm.buf[: len(indptr_bytes)] = indptr_bytes
        shm.buf[len(indptr_bytes) : len(indptr_bytes) + len(neighbors_bytes)] = (
            neighbors_bytes
        )
        labels = csr.labels
        identity = all(
            isinstance(label, int) and label == i for i, label in enumerate(labels)
        )
        handle = SharedCSRHandle(
            name=shm.name,
            num_vertices=csr.num_vertices,
            indptr_bytes=len(indptr_bytes),
            neighbors_bytes=len(neighbors_bytes),
            itemsize=csr.indptr.itemsize,
            labels=None if identity else tuple(labels),
        )
        _obs.gauge("shm.csr_bytes", size)
        return cls(shm, handle)

    def close(self) -> None:
        """Close the mapping and unlink the name (idempotent)."""
        self._finalizer()

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"SharedCSR(name={self.handle.name!r}, {state})"


class AttachedCSR:
    """Worker-side attachment: a zero-copy CSR view over the mapped block.

    Keep this object alive as long as ``csr`` is in use — its
    memoryviews point straight into the mapping. :meth:`close` releases
    the views and the mapping; it never unlinks (the exporter owns the
    name).
    """

    __slots__ = ("csr", "_shm", "_views")

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        csr: CSRGraph,
        views: tuple[memoryview, ...],
    ) -> None:
        self._shm = shm
        self.csr = csr
        self._views = views

    def close(self) -> None:
        for view in self._views:
            view.release()
        self._views = ()
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - a caller still holds a view
            pass


def attach(handle: SharedCSRHandle) -> AttachedCSR:  # lint: obs-ok runs before worker obs exists
    """Map an exported CSR view back into this process, zero-copy.

    Raises:
        FileNotFoundError: the exporter already unlinked the block.
        ValueError: the block was exported by an ABI with a different
            ``array('i')`` item size (cannot happen between a parent and
            the workers it spawned on the same interpreter).
    """
    if handle.itemsize != _INT_SIZE:
        raise ValueError(
            f"shared CSR uses {handle.itemsize}-byte ints, "
            f"this interpreter uses {_INT_SIZE}-byte ints"
        )
    shm = _attach_untracked(handle.name)
    split = handle.indptr_bytes
    indptr = shm.buf[:split].cast(_INT_FORMAT)
    neighbors = shm.buf[split : split + handle.neighbors_bytes].cast(_INT_FORMAT)
    if handle.labels is None:
        labels: list[Vertex] = list(range(handle.num_vertices))
    else:
        labels = list(handle.labels)
    csr = CSRGraph.from_buffers(indptr, neighbors, labels)
    return AttachedCSR(shm, csr, (indptr, neighbors))


# ----------------------------------------------------------------------
# Fixed-width result rows (worker -> parent, no pickling)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ResultsHandle:
    """Picklable recipe for re-attaching a :class:`SharedResults` block."""

    name: str
    rows: int
    row_ints: int
    itemsize: int


def _destroy_results(
    shm: shared_memory.SharedMemory, views: list[memoryview], owner_pid: int
) -> None:
    """Finalizer body: release views, close + unlink in the owner only."""
    if os.getpid() != owner_pid:
        return
    for view in views:
        view.release()
    views.clear()
    try:
        shm.close()
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already unlinked elsewhere
        pass


class SharedResults:
    """Parent-owned block of fixed-width int result rows.

    The parent assigns each dispatched task a distinct ``slot``; the
    worker evaluating it writes that row and nothing else, so rows are
    single-writer by construction. The parent reads rows back only
    after the dispatch barrier (``executor.map`` has returned), so no
    read ever races a write. Lifecycle mirrors :class:`SharedCSR`: the
    exporter owns close + unlink behind a pid-guarded finalizer,
    attachers stay invisible to the resource tracker.
    """

    __slots__ = ("handle", "_shm", "_view", "_views", "_finalizer", "__weakref__")

    def __init__(self, shm: shared_memory.SharedMemory, handle: ResultsHandle) -> None:
        self._shm = shm
        self.handle = handle
        self._view = shm.buf.cast(_INT_FORMAT)
        self._views = [self._view]
        self._finalizer = weakref.finalize(
            self, _destroy_results, shm, self._views, os.getpid()
        )

    @classmethod
    def create(cls, rows: int, row_ints: int) -> "SharedResults":
        """Allocate a zeroed block with ``rows`` rows of ``row_ints`` ints."""
        if rows < 1 or row_ints < 1:
            raise ValueError(f"need positive rows/row_ints, got {rows}x{row_ints}")
        size = rows * row_ints * _INT_SIZE
        shm = shared_memory.SharedMemory(create=True, size=size)
        handle = ResultsHandle(
            name=shm.name, rows=rows, row_ints=row_ints, itemsize=_INT_SIZE
        )
        _obs.gauge("shm.result_bytes", size)
        return cls(shm, handle)

    def row(self, slot: int) -> list[int]:
        """Read row ``slot`` as a plain int list (parent side, post-barrier)."""
        width = self.handle.row_ints
        start = slot * width
        return self._view[start : start + width].tolist()

    def close(self) -> None:
        """Release the view, close the mapping, unlink the name (idempotent)."""
        self._finalizer()

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return (
            f"SharedResults(name={self.handle.name!r}, "
            f"{self.handle.rows}x{self.handle.row_ints}, {state})"
        )


class AttachedResults:
    """Worker-side attachment to a :class:`SharedResults` block.

    ``write_row`` is the only mutation workers perform on shared
    memory; each call targets the disjoint slot the parent assigned, so
    concurrent workers never overlap. :meth:`close` releases the view
    and the mapping; it never unlinks (the exporter owns the name).
    """

    __slots__ = ("handle", "_shm", "_view")

    def __init__(
        self, shm: shared_memory.SharedMemory, handle: ResultsHandle
    ) -> None:
        self._shm = shm
        self.handle = handle
        self._view = shm.buf.cast(_INT_FORMAT)

    def write_row(self, slot: int, values: "array[int]") -> None:
        """Write ``values`` at the start of row ``slot`` (single writer)."""
        start = slot * self.handle.row_ints
        self._view[start : start + len(values)] = values  # lint: race-ok disjoint slot per task, parent reads only after the dispatch barrier

    def close(self) -> None:
        view, self._view = self._view, None  # type: ignore[assignment]
        if view is not None:
            view.release()
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - a caller still holds a view
            pass


def attach_results(handle: ResultsHandle) -> AttachedResults:  # lint: obs-ok pure mapping attach, runs before worker obs exists
    """Map a parent's result block into this process (untracked attach).

    Raises:
        FileNotFoundError: the exporter already unlinked the block.
        ValueError: exported by an ABI with a different int size
            (cannot happen between a parent and its own workers).
    """
    if handle.itemsize != _INT_SIZE:
        raise ValueError(
            f"shared results use {handle.itemsize}-byte ints, "
            f"this interpreter uses {_INT_SIZE}-byte ints"
        )
    shm = _attach_untracked(handle.name)
    return AttachedResults(shm, handle)
