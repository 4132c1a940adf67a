"""Immutable undirected simple graphs with exact connectivity primitives.

Vertices are integers 0..n_vertices-1, edges are canonical (min, max) pairs,
and every operation here is a pure function of its inputs. Connectivity
quantities are exact integers: edge-disjoint path counts come from
unit-capacity max-flow, edge connectivity from the minimum degree and
capped flows from vertex 0 to the rest of a dominating set (Matula 1987),
and vertex connectivity from a vertex-splitting reduction to a directed
network of unit arcs, in which capped flows between the neighbours of a
minimum-degree vertex (Esfahanian and Hakimi 1984) and fans into each
later vertex from the vertices before it (Even 1975), each fan starting
from paths of one and two hops read off the adjacency lists, replace a
cold flow from one vertex to every other.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Optional

from .flow import DirectedFlow, UnitFlowEngine

Edge = tuple[int, int]


class BudgetExceeded(RuntimeError):
    """An enumeration would exceed its configured combinatorial budget."""


def canonical_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable simple undirected graph.

    Construct through build_graph(), which validates ids and rejects loops
    and duplicates; the constructor itself trusts `edges` to be distinct
    canonical pairs in ascending order. Instances are safe to share across
    workers; all methods are read-only.
    """

    __slots__ = ("n_vertices", "edges", "labels", "_edge_set", "_adj")

    def __init__(self, n_vertices: int, edges: tuple[Edge, ...],
                 labels: Optional[dict[int, str]]):
        self.n_vertices = n_vertices
        self.edges = edges                      # canonical, ascending
        self.labels = labels
        self._edge_set = frozenset(edges)
        adj: list[list[int]] = [[] for _ in range(n_vertices)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = tuple(tuple(a) for a in adj)

    # -- basic accessors -------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return canonical_edge(u, v) in self._edge_set

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adj[v])

    def min_degree(self) -> int:
        if self.n_vertices == 0:
            return 0
        return min(len(a) for a in self._adj)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n_vertices:
            raise ValueError(f"vertex id {v} out of range [0, {self.n_vertices})")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n_vertices == other.n_vertices
                and self._edge_set == other._edge_set
                and self.labels == other.labels)

    def __hash__(self) -> int:
        return hash((self.n_vertices, self._edge_set))

    def __repr__(self) -> str:
        return f"Graph(n_vertices={self.n_vertices}, n_edges={len(self.edges)})"


def build_graph(n_vertices: int, edges: Iterable[Edge],
                labels: Optional[Mapping[int, str]] = None) -> Graph:
    """Validate and build an immutable graph.

    Rejects out-of-range ids, self-loops and duplicate edges (after
    canonicalization to (min, max)), naming the offending pair. Labels,
    when given, must cover every vertex; the first unlabeled one is named.
    """
    if n_vertices < 0:
        raise ValueError("n_vertices must be non-negative")
    seen: set[Edge] = set()
    canon: list[Edge] = []
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) not allowed")
        if not 0 <= u < n_vertices or not 0 <= v < n_vertices:
            raise ValueError(f"edge ({u}, {v}) has endpoint outside [0, {n_vertices})")
        e = canonical_edge(u, v)
        if e in seen:
            raise ValueError(f"duplicate edge ({u}, {v})")
        seen.add(e)
        canon.append(e)
    canon.sort()
    label_map = None
    if labels is not None:
        for v in labels:
            if not 0 <= v < n_vertices:
                raise ValueError(f"label for out-of-range vertex {v}")
        unlabeled = next((v for v in range(n_vertices) if v not in labels),
                         None)
        if unlabeled is not None:
            raise ValueError(f"vertex {unlabeled} has no label; label every "
                             "vertex or none")
        label_map = dict(labels)
    return Graph(n_vertices, tuple(canon), label_map)


@dataclass(frozen=True)
class FlowResult:
    """Exact edge-disjoint path count with a minimum-cut certificate."""

    value: int
    cut: tuple[Edge, ...]


def remove_edges(g: Graph, faults: Iterable[Edge]) -> Graph:
    """New graph on the same vertex set with the fault edges deleted."""
    drop = frozenset(canonical_edge(u, v) for u, v in faults)
    foreign = drop - g._edge_set
    if foreign:
        raise ValueError(f"edge {sorted(foreign)[0]} not in graph")
    return Graph(g.n_vertices, tuple(e for e in g.edges if e not in drop),
                 g.labels)


def incidence(g: Graph) -> list[dict[int, int]]:
    """inc[x] maps each neighbour y of x to the index k of the edge {x, y}
    in g.edges. Each inc[x] iterates in ascending neighbour order, which
    is also ascending index order: edges are sorted canonical pairs, so
    x's edges to lower neighbours come first and those to higher ones
    after, each by neighbour."""
    inc: list[dict[int, int]] = [{} for _ in range(g.n_vertices)]
    for k, (u, v) in enumerate(g.edges):
        inc[u][v] = k
        inc[v][u] = k
    return inc


def components(g: Graph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by minimum id."""
    seen = [False] * g.n_vertices
    out: list[list[int]] = []
    for start in range(g.n_vertices):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        stack = [start]
        while stack:
            u = stack.pop()
            for v in g._adj[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    stack.append(v)
        comp.sort()
        out.append(comp)
    return out


def largest_component_size(g: Graph) -> int:
    if g.n_vertices == 0:
        return 0
    return max(len(c) for c in components(g))


def is_connected(g: Graph) -> bool:
    return g.n_vertices <= 1 or len(components(g)) == 1


def max_edge_disjoint_paths(g: Graph, u: int, v: int) -> FlowResult:
    """Maximum number of pairwise edge-disjoint u-v paths, with a cut witness.

    By Menger's theorem (edge form) the value equals the minimum u-v edge
    cut; the returned cut achieves it, so |cut| == value and deleting the
    cut separates u from v.
    """
    g._check_vertex(u)
    g._check_vertex(v)
    if u == v:
        raise ValueError("endpoints must be distinct")
    engine = UnitFlowEngine(g.n_vertices, g.edges)
    value, cut = engine.min_cut(u, v)
    return FlowResult(value, tuple(cut))


def edge_connectivity(g: Graph) -> int:
    """Exact lambda(G); 0 for disconnected or single-vertex graphs.

    Matula's argument (FOCS 1987): take D, a dominating set of G picked
    first fit in id order (UnitFlowEngine.dominating_set), whose first
    vertex is 0. lambda(G) is the minimum of delta and the flows from 0
    to each other vertex of D, each capped at the least value so far.
    No flow is below lambda. If lambda < delta, let T be the side of a
    minimum cut without 0: |delta(T)| = lambda < delta, and every vertex
    of T has degree >= delta, so by the dominating-set lemma (flow) T
    holds a vertex of D, whose flow from 0 is at most lambda.
    """
    n = g.n_vertices
    if n <= 1:
        return 0
    engine = UnitFlowEngine(n, g.edges)
    every = [True] * n
    first, *others = engine.dominating_set(every, every)
    best = g.min_degree()
    for d in others:
        best = min(best, engine.max_flow(first, d, best))
    return best


def split_network(g: Graph) -> DirectedFlow:
    """Vertex splitting on unit arcs, with a source node for vertex fans.

    Node w is w_in and node w + n is w_out; node 2n is the source. Arc 2w
    is w_in -> w_out. Each edge {a, b} then gives a_out -> b_in and
    b_out -> a_in. The last 2n arc slots hold the source arcs 2n -> w_in,
    arc 2(n + 2m + w) for vertex w (m edges), all closed.
    """
    n = g.n_vertices
    arcs = [(w, w + n) for w in range(n)]
    for a, b in g.edges:
        arcs += ((a + n, b), (b + n, a))
    arcs += ((2 * n, w) for w in range(n))
    net = DirectedFlow(2 * n + 1, arcs)
    for w in range(n):
        net.set_open(2 * (len(arcs) - n + w), False)
    return net


def vertex_connectivity(g: Graph, cap: Optional[int] = None) -> int:
    """Exact kappa(G) via vertex splitting; 0 for disconnected graphs.
    With `cap`, min(kappa(G), cap): every flow below is capped at best,
    and best starts at min(delta, cap), so a caller that only asks
    whether kappa reaches some value runs fewer and smaller flows.

    Local vertex connectivity between non-adjacent u, v is the max flow
    from u_out to v_in in split_network(g) (Even and Tarjan 1975). Its
    edge arcs have unit capacity, and uncapped ones would give the same
    maximum. An edge arc a_out -> b_in enters b_in, whose only out-arc is
    the unit arc b_in -> b_out, and leaves a_out, whose only in-arc is the
    unit arc a_in -> a_out. Flow is conserved everywhere but at the
    source and the sink, so no feasible flow puts more than one unit on
    the arc unless it runs from the source into the sink, and that arc
    would need the edge {u, v}, which non-adjacency excludes.

    Take v0 of minimum degree delta; kappa <= best = delta, or
    best = min(delta, cap) with a cap. Two kinds of flow, each capped at
    best, lower best:
    - Pairs (Esfahanian and Hakimi, Networks 14, 1984): kappa(x, y) for
      each non-adjacent pair of v0's neighbours.
    - Prefix fans (Even, SIAM J. Comput. 4, 1975): order the vertices
      v0, then N(v0), then the rest by ascending id. For each later v,
      the flow from the source node into v_in, with the source arcs open
      into the earlier vertices, is v's fan: the most paths from v to
      distinct earlier vertices that share only v. It starts from the
      direct paths source -> w_in -> w_out -> v_in through v's earlier
      neighbours w. Then, for each later neighbour x of v in turn, it
      takes the first earlier neighbour w of x not yet in the start and
      adds source -> w_in -> w_out -> x_in -> x_out -> v_in, until the
      start reaches best; v is skipped when the start alone does.
    The source arc of an earlier vertex with no later neighbour is
    closed. That leaves every fan as it is: cut a fan path at its last
    earlier vertex w, which is followed by v or a later vertex, so its
    arc is open; the cut paths still share only v.

    Each start is a feasible flow, so augmenting from it gives the fan's
    value (capped at best) as a cold flow would: each w is used once; the
    x are distinct later vertices, so none is an earlier w; and every
    w's source arc is open, as v or x is a later neighbour of w.

    Exactness. No flow is below min(kappa, best): a pair flow is
    min(kappa(x, y), best). A fan's minimum cut is a vertex set T,
    without v, that meets every path from an earlier vertex to v. If T
    holds every earlier vertex, |T| >= delta + 1 > best, as v0 and N(v0)
    come first. Otherwise T separates some earlier w from v, w is not
    adjacent to v, and |T| >= kappa(w, v) >= kappa. And when
    kappa < delta some flow is at most kappa, so the result is
    min(kappa, delta, cap) = min(kappa, cap). Take a minimum separator
    S. If v0 is in S, v0 has a neighbour in every component of G - S, or
    S - v0 would separate; two of them, in different components, are a
    non-adjacent pair that S separates.
    If v0 is not in S, let C be v0's component of G - S and v the first
    vertex in the order outside C and S. It exists, it comes after
    N(v0), which lies in C and S, and every earlier vertex lies in C or
    S, so S meets every path from them to v, and v's fan is <= |S|.
    """
    n = g.n_vertices
    if n <= 1 or not is_connected(g):
        return 0
    if len(g.edges) == n * (n - 1) // 2:
        return n - 1 if cap is None else min(n - 1, cap)

    net = split_network(g)
    source = 2 * n
    first = 2 * (n + 2 * len(g.edges))       # the source arc of vertex 0
    adj = g._adj
    v0 = min(range(n), key=g.degree)
    best = len(adj[v0]) if cap is None else min(len(adj[v0]), cap)
    for x, y in combinations(adj[v0], 2):
        if not g.has_edge(x, y):
            best = min(best, net.max_flow(x + n, y, best))

    earlier = [False] * n
    later = [len(a) for a in adj]            # neighbours not yet earlier

    def join(w: int) -> None:
        earlier[w] = True
        if later[w]:
            net.set_open(first + 2 * w, True)
        for u in adj[w]:
            later[u] -= 1
            if earlier[u] and not later[u]:
                net.set_open(first + 2 * u, False)

    join(v0)
    for w in adj[v0]:
        join(w)
    tail, radj = net.tail, net.radj
    for v in range(n):
        if earlier[v]:
            continue
        # the arcs into v_in: one from w_out for each neighbour w, the
        # source arc (tail 2n) and the twin of v's split arc (tail v_out)
        start = []
        used = set()                         # the earlier w in the start
        hops = []                            # (x, arc x_out -> v_in), x later
        for a in radj[v]:
            w = tail[a] - n
            if 0 <= w < n and w != v:
                if earlier[w]:
                    start.append((first + 2 * w, 2 * w, a))
                    used.add(w)
                else:
                    hops.append((w, a))
        for x, a in hops:
            if len(start) >= best:
                break
            for b in radj[x]:
                w = tail[b] - n
                if 0 <= w < n and earlier[w] and w not in used:
                    used.add(w)
                    start.append((first + 2 * w, 2 * w, b, 2 * x, a))
                    break
        if len(start) < best:
            best = min(best, net.max_flow(source, v, best, start))
        join(v)
    return best
