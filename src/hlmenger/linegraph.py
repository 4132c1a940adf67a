"""Line graphs with edge-vertex provenance, plus the BCDC graph pair.

Line vertex i corresponds to the i-th base edge in ascending canonical
order; two line vertices are adjacent iff their base edges share an
endpoint. When the base is a hypercube-like network the line vertices of
its matching edges (the f-vertices) are identified, which is what
Proposition 3.1's check and the adversarial suite's f-incident windows key
on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .graph import Graph, build_graph, canonical_edge
from .report import VerificationReport
from .topologies import MAX_LINE_EDGES, HLNetwork, check_size, gen_family


@dataclass(frozen=True)
class LineGraph:
    """A line graph together with the bijection to its base graph's edges."""

    graph: Graph
    base: Graph
    vertex_of_edge: dict[tuple[int, int], int]
    edge_of_vertex: tuple[tuple[int, int], ...]
    f_vertices: Optional[frozenset[int]] = None
    base_dimension: Optional[int] = None


def line_graph(base: Graph) -> LineGraph:
    """Construct L(base) with both direction maps populated.

    In a simple graph two distinct edges share at most one endpoint, so
    every adjacency in the line graph arises from exactly one base vertex
    and a single pass over the base vertices emits each line edge once.
    Raises ValueError, before any line edge is built, when L(base) would
    have more than MAX_LINE_EDGES edges: sum of C(deg v, 2) over the base.
    """
    base_edges = base.edges
    incident: list[list[int]] = [[] for _ in range(base.n_vertices)]
    for i, (u, v) in enumerate(base_edges):
        incident[u].append(i)
        incident[v].append(i)
    n_line_edges = sum(len(ids) * (len(ids) - 1) // 2 for ids in incident)
    if n_line_edges > MAX_LINE_EDGES:
        raise ValueError(
            f"base graph is too large: its line graph would have "
            f"V = {len(base_edges)} vertices and E = {n_line_edges} edges, "
            f"more than MAX_LINE_EDGES = {MAX_LINE_EDGES}")
    index = {e: i for i, e in enumerate(base_edges)}
    edges = []
    for ids in incident:
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                edges.append(canonical_edge(ids[a], ids[b]))
    labels = None
    if base.labels:
        labels = {
            i: f"{base.labels[u]},{base.labels[v]}"
            for i, (u, v) in enumerate(base_edges)
        }
    return LineGraph(
        graph=build_graph(len(base_edges), edges, labels),
        base=base,
        vertex_of_edge=index,
        edge_of_vertex=tuple(base_edges),
    )


def line_graph_of_hl(h: HLNetwork) -> LineGraph:
    """Line graph of a hypercube-like network with its f-vertices marked."""
    lg = line_graph(h.graph)
    f_ids = frozenset(lg.vertex_of_edge[e] for e in h.f_edges)
    return replace(lg, f_vertices=f_ids, base_dimension=h.dimension)


def vertex_side(lg: LineGraph, v: int) -> int:
    """0 if v's base edge lies in the left half, 1 if right, -1 if it
    joins the halves (an f-vertex)."""
    x, y = lg.edge_of_vertex[v]
    half = lg.base.n_vertices // 2
    if x < half and y < half:
        return 0
    if x >= half and y >= half:
        return 1
    return -1


def check_prop_3_1(h: HLNetwork) -> VerificationReport:
    """Count f-neighbors of half vertices and half-neighbors of f-vertices.

    Every non-f line vertex must see exactly 2 f-vertices, and every
    f-vertex exactly n-1 line vertices of each half.
    """
    n = h.dimension
    if n < 2:
        raise ValueError("requires dimension >= 2")
    lg = line_graph_of_hl(h)
    g = lg.graph
    fset = lg.f_vertices
    violations = []
    checked = 0
    for v in range(g.n_vertices):
        nbrs = g.neighbors(v)
        if v in fset:
            left = sum(1 for w in nbrs if vertex_side(lg, w) == 0)
            right = sum(1 for w in nbrs if vertex_side(lg, w) == 1)
            checked += 1
            if left != n - 1 or right != n - 1:
                violations.append(
                    {"vertex": v, "kind": "f", "left": left, "right": right,
                     "expected": n - 1})
        else:
            f_count = sum(1 for w in nbrs if w in fset)
            checked += 1
            if f_count != 2:
                violations.append(
                    {"vertex": v, "kind": "half", "f_neighbors": f_count,
                     "expected": 2})
    return VerificationReport(
        check_name="prop-3-1",
        target={"dimension": n, "line_vertices": g.n_vertices},
        mode="exhaustive",
        parameters={},
        counts={"visited": checked, "skipped_conditional": 0,
                "failures": len(violations)},
        witness=violations[0] if violations else None,
        details=violations,
    )


@dataclass(frozen=True)
class BCDCPair:
    """Original graph (subdivided crossed cube) and logical graph (its line graph).

    In the original graph the first 2^n ids are the switch nodes (the
    crossed cube's vertices) and id 2^n + i is the server inserted on the
    i-th canonical edge.
    """

    original: Graph
    logical: LineGraph
    dimension: int


def bcdc(n: int) -> BCDCPair:
    """Build the n-dimensional data-center pair (original, logical).

    The original graph subdivides every edge of the crossed cube; the
    logical graph is the crossed cube's line graph. Server labels are the
    ordered pair of their two switch codes. Refuses a dimension whose
    line graph check_size rejects.
    """
    if n < 2:
        raise ValueError("requires dimension >= 2")
    check_size(n)
    cq = gen_family("crossed", n)
    base = cq.graph
    n_switch = base.n_vertices
    edges = []
    labels = dict(base.labels)
    for i, (u, v) in enumerate(base.edges):
        server = n_switch + i
        edges.append((u, server))
        edges.append((server, v))
        labels[server] = f"{base.labels[u]},{base.labels[v]}"
    original = build_graph(n_switch + len(base.edges), edges, labels)
    logical = line_graph_of_hl(cq)
    return BCDCPair(original=original, logical=logical, dimension=n)
