"""SMEC of a faulted line graph L(H) - F decided from small sides on H.

Let H be an n-regular base network with n >= 3 (HL_n is one), L = L(H)
its line graph and F a set of edges of L. A vertex of L is an edge of H,
and an edge of L joins two edges of H that share one base vertex, its
host: the n line vertices at a base vertex u form a clique of L. Every
line vertex has degree 2n - 2 in L. Write L' = L - F, deg' for degrees
in L' and delta'(X) for the edges of L' that leave a set X of line
vertices.

Reduction. L' is SMEC iff no vertex set X has

    |delta'(X)| < min(max deg' in X, max deg' outside X).

Such an X fails (x, y), its largest-degree vertex and the largest one
outside it: lambda'(x, y) <= |delta'(X)| < min(deg' x, deg' y).
Conversely a violating pair (x, y) has a minimum cut side S with
|delta'(S)| = lambda'(x, y) < min(deg' x, deg' y), which is at most
min(max deg' in S, max deg' outside S). The test is symmetric in X and
its complement. violating_sides lists the violating sides of the search
below; fails stops at the first, and least_pair reads the first
violating pair, a campaign's witness pair, off all of them.

Mixed vertices. For a set X of edges of H let t_u be the number of
X-edges at base vertex u. The clique at u has t_u (n - t_u) edges
between X and the rest, so |delta_L(X)| = sum over u of t_u (n - t_u).
Call u mixed when 0 < t_u < n; each mixed u costs at least n - 1. A
violating side S has |delta'(S)| <= 2n - 3, as no degree passes 2n - 2,
so |delta_L(S)| <= 2n - 3 + |F| < theta = 2n - 2 + |F|, and S has at
most mu = floor((theta - 1) / (n - 1)) mixed vertices.

The kappa argument. A full vertex (t_u = n) has every edge in S, so no
neighbour of it is empty (t = 0), and an empty one has no full
neighbour. When both kinds exist, every path from a full vertex to an
empty one meets a mixed vertex, so the mixed set M separates H and
|M| >= kappa(H). Hence, when kappa(H) > mu, S has no full vertex or no
empty one. In the first case S is a set of edges of H[M] that covers M;
in the second its complement is. Take that side, X, and the component
X1 of the graph (M, X) that holds X's largest-degree vertex. Distinct
components share no base vertex, so no edge of L joins them, and the
cut of X is the disjoint union of its components' cuts. So
|delta'(X1)| <= |delta'(X)|, X1 keeps X's largest degree, and the side
outside X1 only grows: X1 violates too. So, when kappa(H) > mu, L' is
SMEC iff no connected edge set X of H spanning at most mu base vertices
violates. As kappa(H) <= n, such an X spans M with |M| <= mu < n, so
t_u <= |M| - 1 < n and every vertex of M is mixed. For the restricted
cuts of ROADMAP item 1 (lambda_2 and lambda_3 below theta <= 6n - 12)
the components cannot be taken apart so freely; there the cut is still
additive over the components, a one-edge piece costs 2n - 2 and a
two-edge path 4n - 6, so two or more pieces of a side of at least two
edges cost 4n - 4 > 4n - 6, and of a side of at least three edges with
no piece of three edges cost at least min(3(2n - 2), (2n - 2) +
(4n - 6), 2(4n - 6)) = 6n - 8 > 6n - 12: a side that beats theta has a
connected piece that does, and connected_edge_sets lists it.

Fault-free mixed vertices. The clique edges at a mixed vertex u that
leave X number t_u (n - t_u) >= n - 1, and only faults hosted at u can
remove them. So u adds at least max(0, n - 1 - f_u) to |delta'(X)|, with
f_u the faults hosted at u. Two vertices that host no fault add
2n - 2 > 2n - 3: a violating X spans at most one of them. The search
keeps the sum of max(0, n - 1 - f_u) over M at most 2n - 3.

The fault-count filter. A single edge of H is one line vertex, whose cut
is its degree: it never violates, so a violating X spans k >= 3 base
vertices. Its cost in L is at least 4n - 6: with k >= 4, each of the k
mixed vertices costs n - 1 or more; with k = 3, X is a path or a
triangle, and some vertex has t = 2 <= n - 1, costing 2(n - 2) beside
two more of at least n - 1 each. A cut edge of L at u joins an X-edge at
u to another edge at u, so u is in M, and F must remove at least
(4n - 6) - (2n - 3) = 2n - 3 of them. So the faults hosted in M number
2n - 3 or more; as |M| <= mu, so do the mu largest per-host fault counts
of F. When they do not, L' is SMEC with no search, in O(|F|).
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, Optional, Sequence

from .graph import Edge, vertex_connectivity
from .linegraph import LineGraph


class Layout:
    """The base layout of a campaign on L = L(H): H's degree n and
    adjacency, L's adjacency, the host at[k] of each edge k of L (the
    base vertex its two ends share), the ends of each edge of L, and the
    maps between base edges and line vertices. It depends on L alone;
    layout() builds it once the campaign's kappa check has passed."""

    __slots__ = ("n", "adj", "line_adj", "at", "ends", "vertex", "edge")

    def __init__(self, L: LineGraph):
        base = L.base
        self.n = L.base_dimension
        self.adj = tuple(base.neighbors(u) for u in range(base.n_vertices))
        self.line_adj = tuple(map(L.graph.neighbors,
                                  range(L.graph.n_vertices)))
        self.vertex = L.vertex_of_edge
        self.edge = be = L.edge_of_vertex
        self.ends = L.graph.edges
        self.at = [be[x][0] if be[x][0] in be[y] else be[x][1]
                   for x, y in self.ends]


def layout(L: LineGraph, m: int) -> Optional[Layout]:
    """The layout of L for fault sets of at most m edges, or None when
    the small sides would not be exact there: L has no HL base dimension, n <= 2,
    the base is not n-regular, or kappa(H) <= mu at |F| = m. mu grows with
    |F|, so one check at the campaign's m covers every smaller set."""
    n = L.base_dimension
    if n is None or n < 3:
        return None
    base = L.base
    if any(base.degree(u) != n for u in range(base.n_vertices)):
        return None
    mu = (2 * n - 3 + m) // (n - 1)
    if vertex_connectivity(base, mu + 1) <= mu:
        return None
    return Layout(L)


def connected_edge_sets(adj: Sequence[Sequence[int]], roots: Sequence[int],
                        size: int, weight: Sequence[int], cap: int,
                        gain: Sequence[int], need: int
                        ) -> Iterator[tuple[tuple[int, ...], list[Edge]]]:
    """Yield (M, X) once for each connected edge set X of the graph with
    adjacency `adj` whose vertex set is M, for every M of 2 to `size`
    vertices that holds a vertex of `roots`, whose weights sum to at most
    `cap` and whose gains sum to at least `need`. gain[i] is the gain of
    roots[i], in non-increasing order; every other vertex gains 0. X is an
    ascending list of edges (u, w), u < w.

    Vertex sets come from ESU (Wernicke, IEEE/ACM TCBB 2006): the roots
    rank first in the given order, every other vertex after them by id,
    and M grows from its lowest-ranked vertex r, each step adding a
    vertex of the extension set, which only takes neighbours of the new
    vertex that rank above r and lie outside M and M's neighbourhood. So
    each connected M is reached once. A branch is cut when no superset
    in it can qualify: the weights are not negative, so a set over the
    cap stays over it, and the vertices still to come rank above r, so
    their gains are at most those of the next roots after r.
    Each M then gives the edge sets of H[M] that connect it, each once.
    """
    n_roots = len(roots)
    rank = list(range(n_roots, n_roots + len(adj)))
    for i, v in enumerate(roots):
        rank[v] = i
    gains = [0] * len(adj)
    top = [0]                  # top[j]: the gains of roots[:j], summed
    for v, g in zip(roots, gain):
        gains[v] = g
        top.append(top[-1] + g)
    top += [top[-1]] * size

    def grow(sub, ext, closed, load, got, r):
        if got >= need and len(sub) > 1:
            yield from ((sub, x) for x in _spanning(adj, sub))
        left = size - len(sub)
        if not left or got + top[r + 1 + left] - top[r + 1] < need:
            return
        ext = ext[:]
        while ext:
            w = ext.pop()
            total = load + weight[w]
            if total <= cap:
                fresh = [u for u in adj[w] if u not in closed and rank[u] > r]
                yield from grow(sub + (w,), ext + fresh, closed.union(adj[w]),
                                total, got + gains[w], r)

    for r, v in enumerate(roots):
        if weight[v] <= cap:
            ext = [u for u in adj[v] if rank[u] > r]
            yield from grow((v,), ext, {v, *adj[v]}, weight[v], gains[v], r)


def _spanning(adj, verts: tuple[int, ...]) -> Iterator[list[Edge]]:
    """The edge sets of the subgraph induced on `verts` that connect all
    of verts, each once, as ascending lists of edges (u, w), u < w."""
    inside = set(verts)
    edges = sorted((u, w) for u in verts for w in adj[u]
                   if u < w and w in inside)
    need = len(verts) - 1
    if len(edges) == need:       # a tree: no proper subset connects it
        yield edges
        return
    for mask in range(1, 1 << len(edges)):
        if mask.bit_count() < need:
            continue
        chosen = [e for i, e in enumerate(edges) if mask >> i & 1]
        parent = {v: v for v in verts}
        joined = 0
        for u, w in chosen:
            while parent[u] != u:
                u = parent[u]
            while parent[w] != w:
                w = parent[w]
            if u != w:
                parent[u] = w
                joined += 1
        if joined == need:
            yield chosen


def violating_sides(layout: Layout, fault_idx: Sequence[int]
                    ) -> Iterator[tuple[set[int], int]]:
    """Yield (X, |delta'(X)|) for violating sides X of L' = L - F, F the
    edges of L with indices fault_idx, for a layout that layout(L, m)
    gave with m >= |F|: sets of line vertices with |delta'(X)| < min(max
    deg' in X, max deg' outside X). Every connected edge set X of H
    spanning at most mu base vertices, at most one of them hosting no
    fault, that violates comes up, so L' is SMEC iff none does. The
    module docstring holds the proof, the bound on the fault-free
    vertices and the fault-count filter that passes most sets first.

    Degrees come from F alone: deg' y is 2n - 2 less the faults at y, so
    the largest degree outside X is 2n - 2 when more line vertices have
    no fault than X holds. Each X is charged exactly: |delta'(X)| is
    |delta_L(X)|, the sum of t_u (n - t_u) over the base vertices u of
    X, less the faults hosted at them with one end in X (a fault hosted
    elsewhere has no end in X). Any X that passes the test is a
    violating side, so other sets come first: each fault end y of deg' 1
    or 2 offers its pocket, y with its live neighbours, the side that
    both sharp constructions leave. Then the search grows M from the
    fault hosts, ranked first, and keeps only the M whose hosted faults
    number 2n - 3 or more."""
    n = layout.n
    slack = 2 * n - 3          # a violating cut is at most this
    top = slack + 1            # 2n - 2, every degree of L
    at, ends, edge = layout.at, layout.ends, layout.edge
    hosted: dict[int, list[Edge]] = {}
    for k in fault_idx:
        hosted.setdefault(at[k], []).append(ends[k])
    mu = (slack + len(fault_idx)) // (n - 1)
    if sum(sorted(map(len, hosted.values()), reverse=True)[:mu]) < slack:
        return
    lost = _lost(layout, fault_idx)
    free = len(edge) - len(lost)   # line vertices with no fault

    pockets = []
    for y, c in lost.items():
        if 0 < top - c < 3:    # y's pocket: y and its live neighbours
            side = {y, *layout.line_adj[y]}
            for k in fault_idx:
                if y in ends[k]:
                    side.difference_update(ends[k])
            side.add(y)
            pockets.append(side)

    def searched():
        weight = [n - 1] * len(layout.adj)
        for u, fs in hosted.items():
            weight[u] = max(0, n - 1 - len(fs))
        roots = sorted(hosted, key=lambda u: (-len(hosted[u]), u))
        for _, x in connected_edge_sets(layout.adj, roots, mu, weight, slack,
                                        [len(hosted[u]) for u in roots],
                                        slack):
            yield {layout.vertex[e] for e in x}

    for side in chain(pockets, searched()):
        t: dict[int, int] = {}
        for y in side:
            for u in edge[y]:
                t[u] = t.get(u, 0) + 1
        cut = sum(c * (n - c) for c in t.values())
        for u in t:
            for a, b in hosted.get(u, ()):
                if (a in side) != (b in side):
                    cut -= 1
        if cut < top - min(lost.get(y, 0) for y in side) and (
                free > len(side) or cut < max(
                    (top - lost.get(y, 0) for y in range(len(edge))
                     if y not in side), default=0)):
            yield side, cut


def _lost(layout: Layout, fault_idx: Sequence[int]) -> dict[int, int]:
    """Each line vertex with a fault at it -> the number of its faults."""
    lost: dict[int, int] = {}
    for k in fault_idx:
        for y in layout.ends[k]:
            lost[y] = lost.get(y, 0) + 1
    return lost


def fails(layout: Layout, fault_idx: Sequence[int]) -> bool:
    """True iff L - F is not SMEC (see violating_sides): stops at the
    first violating side."""
    return next(violating_sides(layout, fault_idx), None) is not None


def least_pair(layout: Layout, fault_idx: Sequence[int]
               ) -> Optional[tuple[int, int]]:
    """The first violating pair of L' = L - F in ascending order, or None
    when L' is SMEC; the arguments are those of violating_sides.

    A side X with cut c fails exactly the pairs with one end in X, one
    outside and both of deg' > c, so the least of them is sorted(a, b):
    a the lowest vertex of X with deg' > c, b the lowest such vertex
    outside. Every violating pair is failed by some side that
    violating_sides yields: take a minimum cut side S of the pair. The
    kappa argument of the module docstring makes S, or its complement,
    an edge set X of H[M], and the component of (M, X) that holds the
    pair's end on that side separates the pair with no larger cut. Both
    the bound on the fault-free vertices and the fault-count filter hold
    for any cut of at most 2n - 3, which a violating pair's minimum cut
    is. So the least pair over all the sides is the first violating
    pair."""
    top = 2 * layout.n - 2
    lost = _lost(layout, fault_idx)
    pairs = []
    for side, cut in violating_sides(layout, fault_idx):
        a = min(y for y in side if top - lost.get(y, 0) > cut)
        b = next(y for y in range(len(layout.edge))
                 if y not in side and top - lost.get(y, 0) > cut)
        pairs.append((a, b) if a < b else (b, a))
    return min(pairs, default=None)
