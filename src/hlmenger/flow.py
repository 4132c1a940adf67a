"""Max-flow workhorses for exact connectivity computation.

Internal module. One augmenting loop (`_augment`) runs over unit arcs,
where arc a's twin is a ^ 1, for two network layouts. Each layout keeps
both views of its arcs: adj and head for the arcs out of a vertex, radj
and tail for the arcs into it. The loop finds each unit s-t path by a
bidirectional search of the residual network (Pohl 1971): a tree grows
from s along residual arcs out of its frontier and another grows into t
along residual arcs into its frontier, one level at a time on the smaller
frontier, until they meet. One scan loop serves both trees, and when the
tree into t runs dry first, that same loop runs on over the tree from s
until it is closed. On these expander-like line graphs a search from s
alone floods most of the network before it reaches t; the two trees meet
after a small fraction of that. With no path left, the loop returns the
residual s-side, the smallest s-side of a minimum cut, which min_cut
and min_cuts read.

* UnitFlowEngine: undirected unit-capacity flow over one fixed edge layout,
  with a mutable fault mask so campaigns can re-query thousands of fault sets
  without rebuilding anything.
* DirectedFlow: a directed network of unit arcs, any of which can be
  closed between queries, used only by the vertex-splitting reduction
  for vertex connectivity. Its queries take a cutoff and a start flow,
  augment on its residual in place and reset the arcs they touched, as
  UnitFlowEngine's do.

UnitFlowEngine serves the SMEC hub check (see _campaign_exec.hub_deficits).
It picks a few hubs of maximum degree and lazily stores, per hub and per
vertex u, up to deg(u) edge-disjoint u->hub paths of the fault-free graph,
with an index from each edge to the stored paths through it; `hub_starts`
finds the paths the installed faults kill from the fault edges alone and
hands out the rest. A query may start from any feasible flow (`start`),
such as those paths: augmenting from a feasible flow is exact, so only
the missing units cost a search. A query augments on the engine's
residual in place and then resets only the arcs it touched (the start
and the augmented paths), so it never copies every arc. A failing fault
set's witness comes from the hub check's deficient vertices and capped
single-pair flows. `min_cuts(s, targets)` returns the minimum cut from
one source to each of many targets, as min_cut would, but confirms a
target that shares the first target's cut with a capped flow from a
neighbouring target (lambda(x, y) >= min(lambda(x, w), lambda(w, y)),
Gomory and Hu 1961); edge connectivity and the tightness checks use it.
"""

from __future__ import annotations

from collections import deque

# hubs per engine; a fault set must touch all of them to force cold flows
_HUBS = 3


def _augment(net, cap, s: int, t: int, cutoff: int | None,
             start, log: list[int]) -> tuple[int, list[bool] | None]:
    """Push the s-t arc paths `start` through the residual capacities
    `cap`, then augment unit s-t paths until none is left or the flow
    reaches cutoff. `net` holds the arcs: arc a runs from tail[a] to
    head[a], its twin a ^ 1 runs back, adj[x] lists the arcs out of x and
    radj[x] the arcs into x. Each augmented arc is appended to `log`
    before its capacity changes, so the caller can undo exactly the arcs
    of the start and the log. Returns the flow and the source side of the
    final residual, or None for the side when the cutoff stopped the
    loop. Raises ValueError when s == t: the two searches would close
    cycles through s forever.

    Each path comes from a level-synchronous bidirectional search. One
    scan loop grows both trees: a step expands one whole level of the
    smaller frontier, the forward one on ties, through the arcs a with
    cap[a] of adj (out of the frontier, from s) or of radj (into the
    frontier, toward t), marking the far end. The first vertex both trees
    mark closes a simple s-t path, and one walk loop augments its two
    halves. With no path left, one side runs dry. If it is the forward
    side, every vertex it marked was expanded, so the marks are exactly
    the vertices reachable from s in the residual. If the backward side
    runs dry first, the same loop keeps expanding the forward side until
    its frontier is empty, and only then is the side read; it cannot
    meet the backward marks, which are every vertex that reaches t, as s
    would be one of them. Either way the side is the residual s-side of
    a maximum flow, the smallest s-side of a minimum cut, whichever
    maximum flow was found.
    """
    if s == t:
        raise ValueError(f"source and sink are both {s}")
    for path in start:
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
        meet = -1
        while front and meet == -1:
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
                            if other[v] != -1:
                                meet = v
                                break
                            level.append(v)
                if meet != -1:
                    break
            if mine is fwd:
                front = level
            else:
                back = level
        if meet == -1:
            return flow, [p != -1 for p in fwd]
        for marks, ends, root in ((fwd, tail, s), (bwd, head, t)):
            v = meet
            while v != root:
                a = marks[v]
                push(a)
                cap[a] -= 1
                cap[a ^ 1] += 1
                v = ends[a]
        flow += 1
    return flow, None


class UnitFlowEngine:
    """Reusable unit-capacity max-flow over an undirected edge list.

    Edge k of the canonical edge list becomes the twin arcs 2k (u->v) and
    2k+1 (v->u), so tail[a] = head[a ^ 1]; radj[x] lists b ^ 1 for each
    b in adj[x], in that order. Faulted edges keep their slots but carry
    capacity 0, so edge indices stay stable across queries. Between
    queries `_template` holds exactly that fault mask; a query augments
    on it in place and puts back the arcs it touched.
    Paths into a hub, and their edge index, are stored on first use,
    never here.
    """

    def __init__(self, n_vertices: int, edges):
        self.n = n_vertices
        self.edges = list(edges)
        m = len(self.edges)
        self.head = head = [0] * (2 * m)
        self.adj = adj = [[] for _ in range(n_vertices)]
        self.radj = radj = [[] for _ in range(n_vertices)]
        for k, (u, v) in enumerate(self.edges):
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
        self.base_degrees = [len(a) for a in self.adj]
        # the residual, which is the fault mask between queries
        self._template = [1] * (2 * m)
        self.fault: tuple[int, ...] = ()  # installed fault edge indices
        self.degrees = self.base_degrees[:]
        # up to _HUBS vertices of maximum degree, spread over the id range:
        # in a line graph nearby ids tend to share a base vertex, so faults
        # bunched around one vertex seldom touch two hubs
        top = max(self.base_degrees, default=0)
        tops = [v for v, d in enumerate(self.base_degrees) if d == top]
        self.hubs = tops[::max(1, len(tops) // _HUBS)][:_HUBS]
        # per hub: (paths, index, short); paths[u] are the stored u->hub
        # paths, index[k] lists the (u, i) whose path paths[u][i] uses
        # edge k, and short counts the u != hub with fewer paths than deg u
        self._stored: dict[int, tuple[list, list, int]] = {}

    def set_fault_indices(self, edge_indices) -> None:
        """Install a fault set given as indices into the canonical edge list."""
        tpl = self._template
        for k in self.fault:
            tpl[2 * k] = 1
            tpl[2 * k + 1] = 1
        self.fault = tuple(edge_indices)
        deg = self.base_degrees[:]
        for k in self.fault:
            tpl[2 * k] = 0
            tpl[2 * k + 1] = 0
            u, v = self.edges[k]
            deg[u] -= 1
            deg[v] -= 1
        self.degrees = deg

    def max_flow(self, s: int, t: int, cutoff: int | None = None,
                 start=()) -> int:
        """Exact max number of edge-disjoint s-t paths, capped at cutoff.

        `start` is a list of edge-disjoint s-t arc paths avoiding the
        installed faults; augmentation continues from that flow.
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

    def min_cuts(self, s: int,
                 targets: list[int]) -> list[tuple[int, list[tuple[int, int]]]]:
        """Exactly [self.min_cut(s, t) for t in targets], with cheaper flows.

        One flow from s to t0 = targets[0] gives k = lambda(s, t0) and the
        residual s-side R, whose cut is t0's result. A BFS from t0 over
        edges between targets then grows a tree of targets that share it:
        a target w next to a tree vertex p joins when w is not in R and a
        flow from p to w, capped at k, reaches k. Every other target gets
        its own min_cut(s, w). A flow between neighbours finds its k short
        augmenting paths fast, where a flow from s to a far target is cold
        and long.

        Exactness: lambda(s, w) >= min(lambda(s, p), lambda(p, w)) >= k
        by induction down the tree, and w outside R makes the cut of R an
        s-w cut of size k, so lambda(s, w) = k. The residual s-side of any
        maximum flow is the smallest s-side of a minimum cut. R is a
        minimum s-w cut, so R_w, the s-side min_cut(s, w) would find, is
        inside R; then R_w is also a minimum s-t0 cut, so R is inside R_w.
        Hence R_w = R and the cut edges are the same list. Only public
        flow methods run here, so wrappers of them see every flow.
        """
        if not targets:
            return []
        t0 = targets[0]
        k, side = self.max_flow_with_side(s, t0)
        cut = self._cut(side)
        untried = set(targets)
        untried.discard(t0)
        same = {t0}           # targets whose result is (k, cut)
        head = self.head
        queue = deque((t0,))
        while queue:
            p = queue.popleft()
            for a in self.adj[p]:
                w = head[a]
                if w in untried:
                    untried.remove(w)
                    if not side[w] and self.max_flow(p, w, k) >= k:
                        same.add(w)
                        queue.append(w)
        return [(k, cut[:]) if t in same else self.min_cut(s, t)
                for t in targets]

    def _run(self, s: int, t: int, cutoff: int | None,
             start=()) -> tuple[int, list[bool] | None]:
        """Augment on `_template` in place, then reset the arcs of the
        start and of the augmented paths: every such arc is live, so the
        fault mask holds again, whatever the loop raised."""
        cap = self._template
        log = []
        try:
            return _augment(self, cap, s, t, cutoff, start, log)
        finally:
            for path in start:
                for a in path:
                    cap[a] = cap[a ^ 1] = 1
            for a in log:
                cap[a] = cap[a ^ 1] = 1

    def stored_paths(self, hub: int) -> list[list[tuple[int, ...]]]:
        """Per vertex u, min(deg u, lambda(u, hub)) edge-disjoint u->hub paths.

        Paths are arc tuples in the fault-free graph (none for the hub
        itself), computed on the first call for each hub, together with
        their edge index.
        """
        stored = self._stored.get(hub)
        if stored is None:
            paths = [self._route(u, hub) if u != hub else []
                     for u in range(self.n)]
            index = [[] for _ in self.edges]
            for u, mine in enumerate(paths):
                for i, path in enumerate(mine):
                    for a in path:
                        index[a >> 1].append((u, i))
            base = self.base_degrees
            short = sum(len(mine) < base[u] for u, mine in enumerate(paths)
                        if u != hub)
            self._stored[hub] = stored = paths, index, short
        return stored[0]

    def hub_starts(self, hub: int) -> tuple[int, list[list[tuple[int, ...]]]]:
        """(short, starts): starts[u] lists the stored u->hub paths that
        avoid the installed faults, in stored order, a feasible start for
        a flow from u into the hub; short counts the u != hub with fewer
        of them than deg u, the flows a hub check into this hub must run.

        The edge index gives the paths the faults kill from the fault
        edges alone, so only their vertices and the fault ends are looked
        at.
        """
        self.stored_paths(hub)
        paths, index, short = self._stored[hub]
        dead: dict[int, set[int]] = {}
        for k in self.fault:
            for u, i in index[k]:
                dead.setdefault(u, set()).add(i)
        starts = paths[:]
        for u, gone in dead.items():
            starts[u] = [p for i, p in enumerate(paths[u]) if i not in gone]
        deg, base, edges = self.degrees, self.base_degrees, self.edges
        for u in dead.keys() | {x for k in self.fault for x in edges[k]}:
            if u != hub:
                short += ((len(starts[u]) < deg[u])
                          - (len(paths[u]) < base[u]))
        return short, starts

    def _route(self, s: int, t: int) -> list[tuple[int, ...]]:
        """Max s-t flow capped at deg(s) in the fault-free graph, split
        into arc paths; it runs on its own residual, whatever faults are
        installed."""
        cap = [1] * len(self.head)
        _augment(self, cap, s, t, self.base_degrees[s], (), [])
        adj = self.adj
        head = self.head
        paths = []
        # with no faults an arc carries flow iff its residual is 0; no flow
        # enters s or leaves t, so every walk from s ends at t
        for first in adj[s]:
            if cap[first]:
                continue
            path = []
            a = first
            while True:
                cap[a] = cap[a ^ 1] = 1       # consume the unit
                path.append(a)
                v = head[a]
                if v == t:
                    break
                a = next(b for b in adj[v] if not cap[b])
            paths.append(tuple(path))
        return paths


class DirectedFlow:
    """Directed network of unit arcs; arc 2k+1 is the residual twin of 2k.
    adj, radj, head and tail are laid out as in UnitFlowEngine. Between
    queries `_template` holds (1, 0) for each open arc and its twin and
    (0, 0) for each closed one; a query augments on it in place and puts
    back the arcs it touched."""

    def __init__(self, n_nodes: int):
        self.head: list[int] = []
        self.tail: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(n_nodes)]
        self.radj: list[list[int]] = [[] for _ in range(n_nodes)]
        self._template: list[int] = []

    def add_arc(self, u: int, v: int, is_open: bool = True) -> None:
        a = len(self.head)
        self.adj[u].append(a)
        self.radj[u].append(a + 1)
        self.adj[v].append(a + 1)
        self.radj[v].append(a)
        self.head += (v, u)
        self.tail += (u, v)
        self._template += (int(is_open), 0)

    def set_open(self, a: int, is_open: bool) -> None:
        """Open or close arc a (even) between queries."""
        self._template[a] = int(is_open)

    def max_flow(self, s: int, t: int, cutoff: int | None = None,
                 start=()) -> int:
        """Maximum number of arc-disjoint s-t paths over the open arcs,
        capped at cutoff; `start` is a list of arc-disjoint s-t paths of
        open arcs, and augmentation continues from that flow.

        The loop runs on `_template` in place. Every arc of the start and
        of the augmented paths belongs to an open arc pair (a closed pair
        has no capacity either way), so resetting each such pair to (1, 0)
        restores the template, whatever the loop raised.
        """
        cap = self._template
        log: list[int] = []
        try:
            return _augment(self, cap, s, t, cutoff, start, log)[0]
        finally:
            for path in start:
                for a in path:
                    cap[a & ~1] = 1
                    cap[a | 1] = 0
            for a in log:
                cap[a & ~1] = 1
                cap[a | 1] = 0
