"""Max-flow over one network of unit arcs, for exact connectivity.

Internal module. DirectedFlow is the network. Arc pair k is arc 2k and
its residual twin 2k + 1 = 2k ^ 1, and each pair is open or closed
between queries. The network keeps both views of its arcs: adj and head
for the arcs out of a vertex, radj and tail for the arcs into it. An open
pair of a directed arc holds capacities (1, 0). UnitFlowEngine is the
undirected face of the same network: one pair per edge, open both ways as
(1, 1), with the pairs of faulted edges closed. Every query runs the one
augmenting loop (`_augment`) on the network's residual in place, then
reopens the pairs it touched, so it never copies every arc.

The loop finds its unit s-t paths by bidirectional searches of the
residual network (Pohl 1971): a tree grows from s along residual arcs
out of its frontier and another grows into t along residual arcs into
its frontier, one level at a time on the smaller frontier, until they
meet. One scan loop serves both trees, and when the tree into t runs dry
first, that same loop runs on over the tree from s until it is closed.
On these expander-like line graphs a search from s alone floods most of
the network before it reaches t; the two trees meet after a small
fraction of that. The level where they meet usually meets them in
several vertices, and each of those closes a path through the two
trees, so one search augments every such path whose arcs an earlier one
left free, as the phases of Even and Tarjan (1975) take several
augmenting paths from one search: on L(MQ_7), lambda's flows ran 169
searches in place of 756. With no path left, the loop returns the
residual s-side, the smallest s-side of a minimum cut, which min_cut
and min_cuts read.

* DirectedFlow: the vertex-splitting reduction for vertex connectivity
  (graph.split_network) uses it as it is, opening and closing its source
  arcs between queries. Its queries take a cutoff and a start flow.
* UnitFlowEngine: undirected unit-capacity flow over one fixed edge
  layout, whose fault mask is the set of closed pairs, so campaigns can
  re-query thousands of fault sets without rebuilding anything.

A query may start from a feasible flow (`start`, short arc-disjoint s-t
paths): augmenting from a feasible flow is exact, so only the missing
units cost a search. Vertex connectivity's fans start from paths of one
and two hops (graph.vertex_connectivity). A capped flow from a feasible
start has the same value as a cold one. Every other flow takes no start:
those of the SMEC hub check and its pair scan (_campaign_exec), min_cut,
max_flow_with_side and the capped flows of min_cuts.

Dominating-set lemma (Matula 1987). Degrees and neighbourhoods count
live edges only. If a vertex set T has |delta(T)| < k and holds a vertex
of degree >= k, then some vertex of T has its whole closed neighbourhood
in T. Proof: otherwise each of T's t vertices has an edge leaving T. The
vertex of degree >= k has at most t - 1 neighbours in T, so at least
k - t + 1 of its edges leave T, and the t - 1 others add one each:
|delta(T)| >= k. So a set D that dominates T (each vertex of T is in D
or next to a vertex of D) has a vertex in T: the one that dominates the
vertex whose closed neighbourhood lies in T. UnitFlowEngine.dominating_set
picks such a D; graph.edge_connectivity (Matula's argument) and
`min_cuts(s, targets)` use the lemma. min_cuts returns the minimum cut
from one source to each of many targets, as min_cut would, but confirms
at once every target that shares the first target's cut, with one capped
flow per dominating vertex.
"""

from __future__ import annotations


def _augment(net, cap, s: int, t: int, cutoff: int | None,
             start, log: list[int]) -> tuple[int, list[bool] | None]:
    """Push `start`, arc-disjoint s-t paths of arcs with capacity, through
    the residual capacities `cap`, then augment unit s-t paths until none is
    left or the flow reaches cutoff. `net` holds the arcs: arc a runs from
    tail[a] to head[a], its twin a ^ 1 runs back, adj[x] lists the arcs
    out of x and radj[x] the arcs into x. Each arc of the start and of the
    augmented paths is appended to `log` before its capacity changes, so
    the caller can undo exactly the arcs in the log. Returns the flow and
    the source side of the final residual, or None for the side when the
    cutoff stopped the loop. Raises ValueError when s == t: the two
    searches would close cycles through s forever.

    The paths come from level-synchronous bidirectional searches. One
    scan loop grows both trees: a step expands one whole level of the
    smaller frontier, the forward one on ties, through the arcs a with
    cap[a] of adj (out of the frontier, from s) or of radj (into the
    frontier, toward t), marking the far end. The first level that marks
    a vertex both trees mark is scanned to its end, and every such
    vertex, in scan order, closes an s-t path: its tree arcs back to s,
    then its tree arcs on to t. Each is walked once to check that every
    arc still has capacity, and walked again to augment it if so; else it
    is skipped. The first always passes. Taking stops at the cutoff, and
    the loop searches again while the searches meet.

    Exactness. Say the level expanded marks v in the forward tree (the
    backward case is the mirror). The s-part of v's path lies in the
    earlier forward levels, plus v; the t-part lies in the earlier
    backward levels. Each tree path is simple, and the two parts share
    only v: a vertex of both sets of earlier levels had both marks before
    this level, and the search would have met when it got the second.
    So every path is simple, and one that is taken has capacity on every
    arc of the current residual: it is an augmenting path, and each flow
    stays feasible and integral. The loop ends only when a search finds
    no meeting vertex, so the value is the maximum, or the cutoff, and
    the side is read as before. With no path left, one side runs dry. If
    it is the forward side, every vertex it marked was expanded, so the
    marks are exactly the vertices reachable from s in the residual. If
    the backward side runs dry first, the same loop keeps expanding the
    forward side until its frontier is empty, and only then is the side
    read; it cannot meet the backward marks, which are every vertex that
    reaches t, as s would be one of them. Either way the side is the
    residual s-side of a maximum flow, the smallest s-side of a minimum
    cut, whichever maximum flow was found, so every value and side is
    the one a search per path gives.
    """
    if s == t:
        raise ValueError(f"source and sink are both {s}")
    for path in start:
        log.extend(path)
        for a in path:
            cap[a] -= 1
            cap[a ^ 1] += 1
    flow = len(start)
    adj, radj, head, tail = net.adj, net.radj, net.head, net.tail
    push = log.append
    n = len(adj)
    while cutoff is None or flow < cutoff:
        fwd = [-1] * n     # tree arc into v from s's side; -2 at s
        bwd = [-1] * n     # tree arc out of v toward t; -2 at t
        fwd[s] = -2
        bwd[t] = -2
        front = [s]
        back = [t]
        meets = []
        while front and not meets:
            if back and len(back) < len(front):
                frontier, arcs, ends, mine, other = back, radj, tail, bwd, fwd
            else:
                frontier, arcs, ends, mine, other = front, adj, head, fwd, bwd
            level = []
            for x in frontier:
                for a in arcs[x]:
                    if cap[a]:
                        v = ends[a]
                        if mine[v] == -1:
                            mine[v] = a
                            if other[v] == -1:
                                level.append(v)
                            else:
                                meets.append(v)
            if mine is fwd:
                front = level
            else:
                back = level
        if not meets:
            return flow, [p != -1 for p in fwd]
        halves = (fwd, tail, s), (bwd, head, t)
        for meet in meets:
            if flow == cutoff:
                break
            for marks, ends, root in halves:
                v = meet
                while v != root and cap[marks[v]]:
                    v = ends[marks[v]]
                if v != root:     # an earlier path of this search took an arc
                    break
            else:
                for marks, ends, root in halves:
                    v = meet
                    while v != root:
                        a = marks[v]
                        push(a)
                        cap[a] -= 1
                        cap[a ^ 1] += 1
                        v = ends[a]
                flow += 1
    return flow, None


class DirectedFlow:
    """Network of unit arcs whose pairs open and close between queries.

    Arc pair k of `arcs` is arc 2k, from u to v, and its residual twin
    2k + 1, from v to u, so tail[a] = head[a ^ 1]; radj[x] lists b ^ 1
    for each b in adj[x], in that order. Between queries `_template`
    holds (1, _BACK) for each open pair and (0, 0) for each closed one;
    a query augments on it in place and reopens the pairs it touched.
    """

    _BACK = 0      # capacity of an open pair's twin: none for an arc

    def __init__(self, n_nodes: int, arcs):
        m = len(arcs)
        self.head = head = [0] * (2 * m)
        self.adj = adj = [[] for _ in range(n_nodes)]
        self.radj = radj = [[] for _ in range(n_nodes)]
        for k, (u, v) in enumerate(arcs):
            a = 2 * k
            head[a] = v
            head[a + 1] = u
            adj[u].append(a)
            radj[u].append(a + 1)
            adj[v].append(a + 1)
            radj[v].append(a)
        self.tail = tail = [0] * (2 * m)
        tail[::2] = head[1::2]
        tail[1::2] = head[::2]
        self._template = [1, self._BACK] * m

    def set_open(self, a: int, is_open: bool) -> None:
        """Open or close the pair of arc a (even) between queries."""
        self._template[a:a + 2] = (1, self._BACK) if is_open else (0, 0)

    def max_flow(self, s: int, t: int, cutoff: int | None = None,
                 start=()) -> int:
        """Maximum number of arc-disjoint s-t paths over the open arcs,
        capped at cutoff; `start` is a list of arc-disjoint s-t paths of
        open arcs, and augmentation continues from that flow."""
        return self._run(s, t, cutoff, start)[0]

    def _run(self, s: int, t: int, cutoff: int | None,
             start=()) -> tuple[int, list[bool] | None]:
        """Augment on `_template` in place, then reopen the pair of each
        arc in the log, the start's and the augmented paths': a closed
        pair has no capacity either way, so every such pair was open and
        the template holds again, whatever the loop raised."""
        cap = self._template
        log: list[int] = []
        try:
            return _augment(self, cap, s, t, cutoff, start, log)
        finally:
            # reopen each pair as (1, 1), one chained store per arc (the
            # hot path of the SMEC flows); a directed twin then goes to 0
            for a in log:
                cap[a] = cap[a ^ 1] = 1
            if not self._BACK:
                for a in log:
                    cap[a | 1] = 0


class UnitFlowEngine(DirectedFlow):
    """Reusable unit-capacity max-flow over an undirected edge list.

    Edge k of the canonical edge list is arc pair k, open both ways: arcs
    2k (u->v) and 2k+1 (v->u). A fault closes its edge's pair, which
    keeps its slots, so edge indices stay stable across queries; between
    queries `_template` is exactly the fault mask.
    """

    _BACK = 1

    def __init__(self, n_vertices: int, edges):
        self.n = n_vertices
        self.edges = list(edges)
        super().__init__(n_vertices, self.edges)
        self.base_degrees = [len(a) for a in self.adj]
        self.fault: tuple[int, ...] = ()  # installed fault edge indices
        self.degrees = self.base_degrees[:]

    def set_fault_indices(self, edge_indices) -> None:
        """Install a fault set given as indices into the canonical edge list."""
        for k in self.fault:
            self.set_open(2 * k, True)
        self.fault = tuple(edge_indices)
        deg = self.base_degrees[:]
        for k in self.fault:
            self.set_open(2 * k, False)
            u, v = self.edges[k]
            deg[u] -= 1
            deg[v] -= 1
        self.degrees = deg

    # The flow queries are written here, not inherited, so that the
    # benchmark counts undirected flows apart from DirectedFlow.max_flow.
    def max_flow(self, s: int, t: int, cutoff: int | None = None,
                 start=()) -> int:
        """Exact max number of edge-disjoint s-t paths, capped at cutoff.

        `start` is a list of edge-disjoint s-t paths of arcs avoiding the
        installed faults. Augmentation continues from that flow.
        """
        return self._run(s, t, cutoff, start)[0]

    def max_flow_with_side(self, s: int, t: int) -> tuple[int, list[bool]]:
        """Max flow plus the source-side reachable set of the final residual."""
        return self._run(s, t, None)

    def min_cut(self, s: int, t: int) -> tuple[int, list[tuple[int, int]]]:
        """(flow value, cut edges) where the cut crosses the residual s-side.

        The returned edges exclude faulted ones and |cut| equals the value.
        """
        flow, side = self._run(s, t, None)
        return flow, self._cut(side)

    def _cut(self, side: list[bool]) -> list[tuple[int, int]]:
        """Live edges with one end in `side`, in canonical order, read
        from the arcs out of the smaller of the two sides: each such edge
        has exactly one arc that leaves it."""
        small = 2 * sum(side) <= len(side)   # the smaller side's mark
        cap, head, adj = self._template, self.head, self.adj
        cut = sorted(a >> 1 for x, mark in enumerate(side) if mark == small
                     for a in adj[x] if cap[a] and side[head[a]] != small)
        return [self.edges[k] for k in cut]

    def dominating_set(self, members: list[bool],
                       eligible: list[bool]) -> list[int] | None:
        """Eligible vertices that dominate the members over live edges:
        each member is one of them or has a live edge to one. First fit
        in id order: a member not yet dominated adds itself when
        eligible, else its first eligible live neighbour. None when some
        member has neither."""
        cap, head, adj = self._template, self.head, self.adj
        covered = [False] * self.n
        chosen = []
        for x in range(self.n):
            if members[x] and not covered[x]:
                d = x if eligible[x] else next(
                    (head[a] for a in adj[x] if cap[a] and eligible[head[a]]),
                    None)
                if d is None:
                    return None
                chosen.append(d)
                covered[d] = True
                for a in adj[d]:
                    if cap[a]:
                        covered[head[a]] = True
        return chosen

    def min_cuts(self, s: int,
                 targets: list[int]) -> list[tuple[int, list[tuple[int, int]]]]:
        """Exactly [self.min_cut(s, t) for t in targets], with fewer flows.

        One flow from s to t0 = targets[0] gives k = lambda(s, t0) and the
        residual s-side R, whose cut is t0's result. Every other target w
        outside R of degree >= k shares it when a certificate holds: D, a
        dominating set of V - R chosen among the vertices of V - R of
        degree >= k, and a flow from t0 to each vertex of D but t0,
        capped at k, that reaches k. Every other target, and every target
        outside R when no such D exists or one of its flows falls short,
        gets its own min_cut(s, w).

        Exactness. R is an s-w cut of size k, so lambda(s, w) <= k.
        Suppose lambda(s, w) < k, with a minimum s-w cut of s-side A.
        A meets t0, or it would be an s-t0 cut below k. By submodularity
        |delta(A | R)| + |delta(A & R)| <= |delta(A)| + |delta(R)|, and
        A & R is an s-t0 cut, so |delta(A | R)| <= |delta(A)| < k. Then
        T = V - (A | R) lies in V - R, holds w, of degree >= k, and not
        t0. By the lemma some vertex of T has its closed neighbourhood in
        T, and the vertex of D that dominates it lies in T too. delta(T)
        separates it from t0, so its flow falls short of k. Hence
        lambda(s, w) = k. The residual s-side of any maximum flow is the
        smallest s-side of a minimum cut. R is a minimum s-w cut, so R_w,
        the s-side min_cut(s, w) would find, is inside R; then R_w is
        also a minimum s-t0 cut, so R is inside R_w. Hence R_w = R and
        the cut edges are the same list. Only public flow methods run
        here, so wrappers of them see every flow.
        """
        if not targets:
            return []
        t0 = targets[0]
        k, side = self.max_flow_with_side(s, t0)
        cut = self._cut(side)
        deg = self.degrees
        same = {t0}             # targets whose result is (k, cut)
        rest = [w for w in targets if not side[w] and deg[w] >= k]
        if any(w != t0 for w in rest):
            outside = [not x for x in side]
            dom = self.dominating_set(
                outside, [o and d >= k for o, d in zip(outside, deg)])
            if dom is not None and all(self.max_flow(t0, d, k) >= k
                                       for d in dom if d != t0):
                same.update(rest)
        return [(k, cut[:]) if t in same else self.min_cut(s, t)
                for t in targets]
