"""Edge-list I/O in the SNAP-style whitespace-separated format.

The SNAP datasets the paper uses (``http://snap.stanford.edu``) ship as
plain edge lists with ``#`` comment lines; we read and write the same
format so real data can be dropped in when available.
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import IO, Iterator

from repro.errors import ParseError
from repro.graphs.graph import Graph

_COMMENT_PREFIXES = ("#", "%")


def _open_text(path: Path, mode: str) -> IO[str]:
    # Undecodable bytes read back as lone surrogates, so the parser can
    # name the exact line instead of the chunk the decoder choked on.
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8", errors="surrogateescape")
    return open(path, mode, encoding="utf-8", errors="surrogateescape")


def iter_edge_list(path: str | Path) -> Iterator[tuple[int, int]]:
    """Yield ``(u, v)`` integer pairs from an edge-list file.

    Comment lines starting with ``#`` or ``%`` and blank lines are
    skipped. Lines must contain at least two whitespace-separated integer
    fields; extra fields (weights, timestamps) are ignored.

    Raises:
        ParseError: on a malformed data line or bytes that are not UTF-8,
            with the line number.
    """
    path = Path(path)
    with _open_text(path, "r") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    raise ParseError(f"{path}:{lineno}: not valid UTF-8 text") from exc
            stripped = line.strip()
            if not stripped or stripped.startswith(_COMMENT_PREFIXES):
                continue
            fields = stripped.split()
            if len(fields) < 2:
                raise ParseError(f"{path}:{lineno}: expected two fields, got {stripped!r}")
            try:
                u, v = int(fields[0]), int(fields[1])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: non-integer endpoint in {stripped!r}") from exc
            yield u, v


def read_edge_list(path: str | Path) -> Graph:
    """Load an undirected simple graph from an edge-list file.

    Self-loops and duplicate edges (including reversed duplicates, as in
    directed dumps of undirected graphs) are dropped, matching how the
    paper treats the SNAP/KONECT datasets. A dropped self-loop still
    registers its endpoint as an (isolated) vertex: a vertex whose only
    data line is ``u u`` must exist in the loaded graph, not vanish.
    """
    graph = Graph()
    for u, v in iter_edge_list(path):
        if u == v:
            graph.add_vertex(u)
        else:
            graph.add_edge_if_absent(u, v)
    return graph


def write_edge_list(graph: Graph, path: str | Path, header: str | None = None) -> None:
    """Write a graph as a whitespace-separated edge list.

    Args:
        graph: the graph to serialize.
        path: output path; a ``.gz`` suffix enables gzip compression.
        header: optional comment text placed at the top (``# `` prefixed).
    """
    path = Path(path)
    with _open_text(path, "w") as handle:
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        handle.write(f"# nodes: {graph.num_vertices} edges: {graph.num_edges}\n")
        for u, v in sorted((min(u, v), max(u, v)) for u, v in graph.edges()):
            handle.write(f"{u}\t{v}\n")
