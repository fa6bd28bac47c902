"""Additional graph serialization formats: METIS and adjacency JSON.

The SNAP-style edge list (:mod:`repro.graphs.io`) is the primary
format; these two cover the other ecosystems the k-core literature
exchanges graphs in:

* **METIS** — 1-indexed adjacency lines with an ``n m`` header, the
  input format of graph partitioners and many C++ decomposition codes;
* **adjacency JSON** — ``{"vertex": [neighbors...]}``, convenient for
  web tooling and human inspection.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.errors import GraphError, ParseError
from repro.graphs.graph import Graph, Vertex


def write_metis(graph: Graph, path: str | Path) -> dict[int, object]:
    """Write in METIS format; returns the ``metis id -> vertex`` mapping.

    METIS requires consecutive 1-based integer ids, so vertices are
    relabelled in sorted order; the mapping lets callers translate
    results back.
    """
    path = Path(path)
    ordered = sorted(graph.vertices(), key=repr)
    to_metis = {u: i + 1 for i, u in enumerate(ordered)}
    lines = [f"{graph.num_vertices} {graph.num_edges}"]
    for u in ordered:
        neighbors = sorted(to_metis[v] for v in graph.neighbors(u))
        lines.append(" ".join(str(i) for i in neighbors))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {i: u for u, i in to_metis.items()}


def read_metis(path: str | Path) -> Graph:
    """Read a METIS adjacency file into a graph with 1-based int labels.

    Raises:
        ParseError: on bytes that are not UTF-8, malformed headers, ids
            out of range, or an edge count that disagrees with the header.
    """
    path = Path(path)
    # keep empty lines — an isolated vertex's adjacency line is empty —
    # but drop comments entirely
    lines = [
        line
        for line in _read_text(path).splitlines()
        if not line.lstrip().startswith("%")
    ]
    while lines and not lines[0].strip():
        lines.pop(0)
    if not lines:
        raise ParseError(f"{path}: empty METIS file")
    header = lines[0].split()
    if len(header) < 2:
        raise ParseError(f"{path}: METIS header needs 'n m', got {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ParseError(f"{path}: non-integer METIS header {lines[0]!r}") from exc
    if len(lines) - 1 != n:
        raise ParseError(f"{path}: header says n={n} but {len(lines) - 1} adjacency lines")
    graph = Graph()
    for u in range(1, n + 1):
        graph.add_vertex(u)
    for u, line in enumerate(lines[1:], start=1):
        for field in line.split():
            try:
                v = int(field)
            except ValueError as exc:
                raise ParseError(f"{path}: non-integer neighbor {field!r}") from exc
            if not 1 <= v <= n:
                raise ParseError(f"{path}: neighbor {v} out of range 1..{n}")
            if v != u:
                graph.add_edge_if_absent(u, v)
    if graph.num_edges != m:
        raise ParseError(
            f"{path}: header says m={m} but adjacency encodes {graph.num_edges} edges"
        )
    return graph


def write_adjacency_json(graph: Graph, path: str | Path) -> None:
    """Write ``{"vertex": [neighbors...]}`` JSON (keys are stringified).

    Raises ``GraphError`` naming a label that would not read back as
    itself: only ``int`` and non-numeric ``str`` labels round-trip.
    """
    ordered = sorted(graph.vertices(), key=repr)
    for u in ordered:
        if not (type(u) is int or (type(u) is str and not u.lstrip("-").isdigit())):
            raise GraphError(f"label {u!r:.60} would not read back from adjacency JSON")
    payload = {
        str(u): sorted((v for v in graph.neighbors(u)), key=repr) for u in ordered
    }
    Path(path).write_text(json.dumps(payload, indent=1), encoding="utf-8")


def read_adjacency_json(path: str | Path) -> Graph:
    """Read adjacency JSON; integer-looking keys become ints.

    Raises:
        ParseError: when the bytes are not UTF-8 JSON, the payload is not
            an object of lists, a neighbor is a list or an object, or a
            digit-only label is not an integer.
    """
    text = _read_text(path)
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: expected a JSON object of adjacency lists")

    def _label(raw: Any) -> Vertex:
        if isinstance(raw, (list, dict)):
            raise ParseError(f"{path}: neighbor {raw!r:.40} is not a vertex label")
        if not (isinstance(raw, str) and raw.lstrip("-").isdigit()):
            return raw
        try:
            return int(raw)
        except ValueError as exc:  # "²", "--1", or too many digits
            raise ParseError(f"{path}: malformed integer label {raw[:20]!r}") from exc

    graph = Graph()
    for key, neighbors in payload.items():
        if not isinstance(neighbors, list):
            raise ParseError(f"{path}: adjacency of {key!r} is not a list")
        u = _label(key)
        graph.add_vertex(u)
        for raw in neighbors:
            graph.add_edge_if_absent(u, _label(raw))
    return graph


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8 text ({exc.reason})") from exc
