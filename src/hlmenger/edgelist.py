"""Edge-list text format shared by all CLI subcommands.

Layout::

    p <n_vertices> <n_edges>
    e <u> <v>            one line per edge, 0-based, ascending (min,max) order
    l <v> <label>        optional label lines, ascending by vertex, one each

Writers always emit the canonical ordering so identical graphs serialize to
identical bytes. Readers refuse a p line that declares more than
topologies.MAX_LINE_EDGES vertices or edges, before allocating anything.
"""

from __future__ import annotations

from .graph import Graph, build_graph
from .topologies import MAX_LINE_EDGES


def dumps(g: Graph) -> str:
    lines = [f"p {g.n_vertices} {len(g.edges)}"]
    lines.extend(f"e {u} {v}" for u, v in g.edges)
    if g.labels:
        lines.extend(f"l {v} {g.labels[v]}" for v in sorted(g.labels))
    return "\n".join(lines) + "\n"


def loads(text: str) -> Graph:
    n_vertices = None
    declared_edges = None
    edges: list[tuple[int, int]] = []
    labels: dict[int, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "p":
            if n_vertices is not None:
                raise ValueError(f"line {lineno}: duplicate p line")
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 'p <n> <m>'")
            n_vertices, declared_edges = _ints(parts, lineno)
            if max(n_vertices, declared_edges) > MAX_LINE_EDGES:
                raise ValueError(
                    f"line {lineno}: p line declares {n_vertices} vertices "
                    f"and {declared_edges} edges; more than MAX_LINE_EDGES "
                    f"= {MAX_LINE_EDGES} of either is refused")
        elif kind == "e":
            if n_vertices is None:
                raise ValueError(f"line {lineno}: e line before p line")
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 'e <u> <v>'")
            edges.append(tuple(_ints(parts, lineno)))
        elif kind == "l":
            if n_vertices is None:
                raise ValueError(f"line {lineno}: l line before p line")
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 'l <v> <label>'")
            v = _ints(parts[:2], lineno)[0]
            if v in labels:
                raise ValueError(
                    f"line {lineno}: second l line for vertex {v}")
            labels[v] = parts[2]
        else:
            raise ValueError(f"line {lineno}: unknown record type {kind!r}")
    if n_vertices is None:
        raise ValueError("missing p line")
    if len(edges) != declared_edges:
        raise ValueError(
            f"p line declares {declared_edges} edges but {len(edges)} found")
    return build_graph(n_vertices, edges, labels or None)


def _ints(parts: list[str], lineno: int) -> list[int]:
    """The integer fields after the record type, naming the line on error."""
    try:
        return [int(p) for p in parts[1:]]
    except ValueError:
        raise ValueError(f"line {lineno}: non-integer field in {parts[0]!r} "
                         f"record: {' '.join(parts[1:])!r}") from None
