"""SMEC and the largest component of a faulted line graph L(H) - F,
decided from small sides on H.

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

The charge bound. The clique edges at a mixed vertex u that leave X
number t_u (n - t_u), and only faults hosted at u can remove them, so u
adds at least max(0, t_u (n - t_u) - f_u) to |delta'(X)|, with f_u the
faults hosted at u. Where a layout exists, mu < kappa(H) <= n, so
mu <= n - 1, and a connected X over at most mu base vertices has
t_u <= |M| - 1 <= mu - 1. On 1 <= t <= mu - 1, t (n - t) is concave, so
it is at least c(t) = min(t (n - t), (mu - 1)(n - mu + 1)), and c never
falls as t grows: t (n - t) rises up to n / 2, and past it stays at or
above its value at mu - 1. The search charges each vertex of M
max(0, c(t_u) - f_u), which only grows as X grows, and keeps the sum at
most 2n - 3. With 2 <= mu <= n - 1, c(1) = n - 1, so two vertices that
host no fault add 2n - 2 > 2n - 3: a violating X spans at most one.

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

Component floors. A component K of L' has no live edge leaving it, so
delta_L(K) lies in F. Each mixed vertex u of K loses its t_u (n - t_u)
>= n - 1 cut clique edges, all hosted at u, so u is heavy: f_u >= n - 1.
Each fault has one host, so at most |F| / (n - 1) vertices are heavy,
at most mu = floor(m / (n - 1)) for |F| <= m, and floor_layout requires
kappa(H) > mu. By the kappa argument K then has no full vertex or no
empty one. In the first case every edge of H in K joins two mixed, so
heavy, vertices; in the second every edge outside K does. So K or its
complement lies in C, the line vertices that join two heavy hosts. Not
every base vertex is heavy (there are at most mu < kappa(H) < |V(H)|
heavy ones), so C is not all of L, and two components outside C would
each lie in the other's complement, inside C. So exactly one component,
the giant, is not inside C, and the largest component is the giant,
|V(L)| less the components inside C, or the largest of those. A search
of L' from a vertex of C either stays in C and closes such a component,
or reaches a vertex outside C, or one an earlier search reached (a
closed component has no live edge out), and then all it saw is in the
giant. With fewer than two heavy hosts C is empty and L' is connected,
found in O(|F|).
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Iterator, Optional, Sequence

from .graph import Edge, vertex_connectivity
from .linegraph import LineGraph


class Layout:
    """The base layout of a campaign on L = L(H): H's degree n and
    adjacency, L's adjacency, the host at[k] of each edge k of L (the
    base vertex its two ends share), the ends of each edge of L, and the
    maps between base edges and line vertices. It depends on L alone;
    layout() and floor_layout() build it once the campaign's kappa check
    has passed."""

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
    """The layout of L for SMEC checks of fault sets of at most m edges,
    or None when the small sides would not be exact there (see _checked):
    a violating side has a cut of at most 2n - 3 + m edges in L."""
    return _checked(L, lambda n: 2 * n - 3 + m)


def floor_layout(L: LineGraph, m: int) -> Optional[Layout]:
    """The layout of L for component floors under fault sets of at most m
    edges, or None when largest_component would not be exact there (see
    _checked): a component of L - F has a cut of at most m edges in L."""
    return _checked(L, lambda n: m)


def _checked(L: LineGraph, cut: Callable[[int], int]) -> Optional[Layout]:
    """Layout(L), or None when L has no HL base dimension n, n <= 2, the
    base is not n-regular, or kappa(H) <= mu = floor(cut(n) / (n - 1)),
    where cut(n) bounds the cut in L of the sides the caller decides at
    the campaign's m. That bound only shrinks with |F|, so one check at
    m covers every smaller set."""
    n = L.base_dimension
    if n is None or n < 3:
        return None
    base = L.base
    if any(base.degree(u) != n for u in range(base.n_vertices)):
        return None
    mu = cut(n) // (n - 1)
    if vertex_connectivity(base, mu + 1) <= mu:
        return None
    return Layout(L)


def connected_edge_sets(adj: Sequence[Sequence[int]], roots: Sequence[int],
                        size: int, f: Sequence[int], charge: Sequence[int],
                        cap: int, need: int) -> Iterator[tuple[Edge, ...]]:
    """Yield once each connected edge set X of the graph with adjacency
    `adj` whose vertex set M holds a vertex of `roots`, has at most
    `size` vertices, charges at most `cap` and hosts at least `need`: with
    t_u the number of X-edges at u, M charges the sum over u of
    max(0, charge[t_u] - f[u]) and hosts the sum of f[u]. charge[0] is 0,
    charge does not fall and has an entry for each t < size, and the
    roots hold every vertex with f > 0, in non-increasing order of f. X
    is a tuple of edges (u, w), u < w.

    The sets come from ESU (Wernicke, IEEE/ACM TCBB 2006) on the edges.
    Vertices rank roots first, in the given order, then the others by id,
    and an edge ranks by its ends' ranks, lower end first. So the lowest
    edge of X has the lowest vertex a of M as its lower end, a root when
    M holds one, and every edge of X has both ends at or above a. X grows
    from M = {a}, with t_a = 0 and no edge yet: ESU on those edges, with a
    as one more node, ranked first and joined to each edge at a. A step
    adds an edge (v, w) of the extension set, v in M. The edges next to
    the set so far are those with an end in M, so when w is new the step
    offers the edges from w to vertices outside M that rank above a, and
    when w is in M it offers none. So each connected X whose lowest
    vertex is a is reached once.

    A branch is cut before it is entered when no set in it can qualify.
    Adding an edge never lowers |M| or the charge, as charge does not
    fall in t. The vertices still to come rank above a and lie outside
    M, so the faults they host are at most those of as many roots right
    after a, the roots being sorted by f."""
    rank = list(range(len(roots), len(roots) + len(adj)))
    cost = [charge] * len(adj)
    top = [0]                  # top[j]: the faults hosted at roots[:j]
    for i, v in enumerate(roots):
        rank[v] = i
        cost[v] = [max(0, c - f[v]) for c in charge]
        top.append(top[-1] + f[v])
    top += [top[-1]] * size

    def grow(sub, ext, t, load, got, r):
        if sub and got >= need:
            yield tuple((v, w) if v < w else (w, v) for v, w in sub)
        while ext:                        # each call owns its ext
            v, w = e = ext.pop()          # v is in M
            tv, tw = t[v], t.get(w, 0)
            k = len(t) + (not tw)         # |M| with e
            if k > size:
                continue
            cv, cw = cost[v], cost[w]
            total = load + cv[tv + 1] - cv[tv] + cw[tw + 1] - cw[tw]
            gain = got if tw else got + f[w]
            if total > cap or gain + top[r + 1 + size - k] - top[r + 1] < need:
                continue
            fresh = [(w, x) for x in adj[w] if x not in t and rank[x] > r] \
                if not tw and k < size else []
            yield from grow(sub + (e,), ext + fresh,
                            {**t, v: tv + 1, w: tw + 1}, total, gain, r)

    for r, a in enumerate(roots):
        if top[r + size] - top[r] < need:
            break
        yield from grow((), [(a, x) for x in adj[a] if rank[x] > r], {a: 0},
                        0, f[a], r)


def violating_sides(layout: Layout, fault_idx: Sequence[int]
                    ) -> Iterator[tuple[set[int], int]]:
    """Yield (X, |delta'(X)|) for violating sides X of L' = L - F, F the
    edges of L with indices fault_idx, for a layout that layout(L, m)
    gave with m >= |F|: sets of line vertices with |delta'(X)| < min(max
    deg' in X, max deg' outside X). Every connected edge set X of H
    spanning at most mu base vertices, at most one of them hosting no
    fault, that violates comes up, so L' is SMEC iff none does. The
    module docstring holds the proof, the charge bound and the
    fault-count filter that passes most sets first.

    Degrees come from F alone: deg' y is 2n - 2 less the faults at y, so
    the largest degree outside X is 2n - 2 when more line vertices have
    no fault than X holds. Each X is charged exactly: |delta'(X)| is
    |delta_L(X)|, the sum of t_u (n - t_u) over the base vertices u of
    X, less the faults hosted at them with one end in X (a fault hosted
    elsewhere has no end in X). Any X that passes the test is a
    violating side, so other sets come first: each fault end y of deg' 1
    or 2 offers its pocket, y with its live neighbours, the side that
    both sharp constructions leave. Then the search grows X from the
    fault hosts, ranked first, charges each vertex of M its charge bound
    and keeps only the M whose hosted faults number 2n - 3 or more."""
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
        f = [0] * len(layout.adj)
        for u, fs in hosted.items():
            f[u] = len(fs)
        roots = sorted(hosted, key=lambda u: (-f[u], u))
        charge = [min(t * (n - t), (mu - 1) * (n - mu + 1))
                  for t in range(mu)]
        for x in connected_edge_sets(layout.adj, roots, mu, f, charge, slack,
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
    the charge bound and the fault-count filter hold for any cut of at
    most 2n - 3, which a violating pair's minimum cut is. So the least
    pair over all the sides is the first violating pair."""
    top = 2 * layout.n - 2
    lost = _lost(layout, fault_idx)
    pairs = []
    for side, cut in violating_sides(layout, fault_idx):
        a = min(y for y in side if top - lost.get(y, 0) > cut)
        b = next(y for y in range(len(layout.edge))
                 if y not in side and top - lost.get(y, 0) > cut)
        pairs.append((a, b) if a < b else (b, a))
    return min(pairs, default=None)


def largest_component(layout: Layout, fault_idx: Sequence[int]) -> int:
    """The size of the largest component of L - F, F the edges of L with
    indices fault_idx, for a layout that floor_layout(L, m) gave with
    m >= |F|. Only components inside C, the line vertices that join two
    hosts of n - 1 or more faults each, can differ from the giant (see
    the module docstring), so L - F is searched from each vertex of C
    that no earlier search reached, until the search leaves C."""
    at = layout.at
    hosted: dict[int, int] = {}
    for k in fault_idx:
        hosted[at[k]] = hosted.get(at[k], 0) + 1
    heavy = {u for u, f in hosted.items() if f >= layout.n - 1}
    total = len(layout.edge)
    if len(heavy) < 2:
        return total
    inside = {layout.vertex[u, w] for u in heavy for w in layout.adj[u]
              if u < w and w in heavy}
    ends, line_adj = layout.ends, layout.line_adj
    dead = {ends[k] for k in fault_idx}
    seen: set[int] = set()
    closed = []
    for y in inside:
        if y in seen:
            continue
        part, stack, giant = {y}, [y], False
        while stack and not giant:
            x = stack.pop()
            for z in line_adj[x]:
                if z in part or ((x, z) if x < z else (z, x)) in dead:
                    continue
                if z in seen or z not in inside:
                    giant = True
                    break
                part.add(z)
                stack.append(z)
        seen |= part
        if not giant:
            closed.append(len(part))
    return max([total - sum(closed), *closed])
