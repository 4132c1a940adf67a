"""Fault-campaign evaluation loop, in process or across worker processes.

Fault sets are consumed from the caller's stream in canonical order and
evaluated in fixed-size chunks by one chunk runner, in process for one job
and in a pool otherwise, so the merged counts and the first-in-order
failure witness are identical whatever the worker count. For SMEC checks
each worker builds its own flow engine from the (n, edges) layout once.
For component checks the parent builds the fault-free component index
(component_index) once per campaign and hands it to the workers, which
inherit it when forked. The stream holds only sets to evaluate: the
conditional mode's minimum-degree admission happens where the sets are
produced, so every set here is visited.

Per fault set F the component-floor check (largest_component_under_faults)
works only around F's edges. The ends of each F edge are first joined
through a live common neighbour, two dictionary lookups per neighbour:
in a line graph the two ends of an edge share a base vertex, so they
have n-2 common neighbours. Only when none is live does a bidirectional
search between the ends run, which either joins them or closes a whole
component of G - F. A second pass between the live ends of F edges
whose far end closed joins what is left of each component of G. So a
set that splits nothing usually costs a few lookups per fault edge and
no search, not a pass over every edge (Even and Shiloach 1981).

Per fault set F the SMEC decision is the hub check, deficient_vertices,
whose docstring describes it with its proof; smec_violation and
smec_witness turn its deficient vertices into the first violating pair
and a minimum cut of it.

A report keeps only the counts and the first failure's witness, so each
chunk computes a witness only for its first failing set. Every later set
of the chunk is decided by its verdict alone. First pocket_fails looks
for a small cut around a fault end of degree 1 or 2, the shape both
sharp constructions leave; a hit fails the set with no hub work.
Otherwise the hub check stops at the first deficient vertex. Neither
runs a pair scan or a min cut. A pocket claims only failures that the
hub check finds too, and the hub lemma makes the hub check's verdict
the full check's, so the failure count cannot move. Each chunk still
computes the witness of its own first failure, and _merge keeps it from
the first chunk that has one: that is the stream's first failure, at
any worker count.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice
from multiprocessing import Pool
from typing import Callable, Iterator, Optional

from .flow import UnitFlowEngine
from .graph import Edge, Graph, components, incidence

_CHUNK_SIZE = 512

_WORKER_STATE = None


def deficient_vertices(engine: UnitFlowEngine) -> Iterator[tuple[int, int]]:
    """Yield (u, lambda_H(u, r)) for each u != r with lambda_H(u, r) <
    deg_H u, in id order, where H = G - F for the faults F installed in
    the engine. Flows run only as items are asked for, so a reader that
    stops after the first item runs no flow past that vertex's.

    This is the SMEC hub check, described here once.

    Hub lemma: for r of maximum degree in H, H is SMEC iff
    lambda_H(u, r) >= deg_H(u) for every u != r. A violating pair (u, v)
    has a cut delta(S) with u in S, v outside, smaller than deg u and
    deg v; if r is outside S then (u, r) violates, as deg r >= deg v,
    else (v, r) does. So V-1 flows into r, each capped at deg_H(u),
    find every deficient u, and a capped flow that falls short is exact;
    H fails as soon as one u falls short.

    Hubs: the engine stores, on first use, for each of a few vertices of
    maximum degree in G (engine.hubs) and each vertex u, up to deg_G(u)
    edge-disjoint u -> hub paths of G, indexed by edge.
    engine.hub_losses(hub) gives the short vertices: each u != hub left
    with fewer than deg_H(u) live stored paths, with the indices of its
    dead paths, found through the index of F's edges. A stored hub that
    F leaves untouched keeps its maximum degree in H. Of those, the one
    with the fewest short vertices is r, the earlier in engine.hubs on
    ties. Only r's short vertices are looked at further, in id order: a
    vertex with deg_H(u) live stored paths is not deficient. When F
    touches every stored hub, flows into the lowest vertex of maximum
    degree in H run cold, one for each u != r of positive degree, in id
    order.

    Starts: engine.hub_start gives a short u's start, its live stored
    paths, then the dead ones it mends, both in stored order. Each fault
    arc a -> b on a dead path becomes a -> x -> b through a common neighbour x
    whose edges {a, x} and {x, b} are live in H and lie on none of u's
    stored paths and on no detour taken before (in a line graph the two
    ends of an edge share n - 2 neighbours). The stored paths share no
    edge, so the start is a list of edge-disjoint u -> r trails of H. A
    mended trail may revisit a vertex or pass through r, but as arc
    flows the trails keep conservation at every vertex but u and r, so
    they are a feasible flow of value len(start). If len(start) >=
    deg_H(u), each trail holds a u-r path on its own edges, so
    lambda_H(u, r) >= deg_H(u): u is covered and no flow runs. Otherwise
    the flow, capped at deg_H(u), augments from the whole start;
    augmenting from a feasible flow is exact, so its value is a cold
    flow's and only the missing units cost a search. So the items and
    their order are those of cold flows into r, whatever the stored
    paths and the mends.

    The choice of r changes no verdict and no witness. By the lemma, H
    is SMEC iff no u is deficient, for every r of maximum degree, and
    every violating pair has an endpoint that is deficient for every
    such r, so each r's pair scan (smec_violation) reaches every
    violating pair. That scan goes over pairs in ascending order and
    decides each one exactly, so its first violating pair and that
    pair's path count are facts of H alone. smec_witness then cuts the
    pair with a flow of its own, whose residual s-side is the smallest
    s-side of a minimum cut of the pair, whichever r came before.
    """
    deg = engine.degrees
    base = engine.base_degrees
    best = None
    for h in engine.hubs:
        if deg[h] == base[h]:
            short = engine.hub_losses(h)
            if best is None or len(short) < len(best[1]):
                best = h, short
            if not short:
                break
    if best is None:
        hub = max(range(engine.n), key=deg.__getitem__, default=None)
        starts = ((u, []) for u in range(engine.n) if u != hub)
    else:
        hub, short = best
        starts = ((u, engine.hub_start(hub, u, short[u]))
                  for u in sorted(short))
    for u, start in starts:
        need = deg[u]
        if len(start) < need:
            flow = engine.max_flow(u, hub, need, start)
            if flow < need:
                yield u, flow


def pocket_fails(engine: UnitFlowEngine) -> bool:
    """True when a pocket around a fault end proves H = G - F not SMEC,
    for the faults F installed in the engine; False says nothing.

    A pocket is S = N_H[x], the closed neighbourhood of a fault end x with
    deg_H x in {1, 2}. Its cut is |delta_H(S)|, the sum of deg_H y over
    y in S minus twice the live edges inside S, counted here as the live
    arcs from S to the rest of H. Let d be the largest degree in S, held
    by u. If |delta_H(S)| < d and some w outside S has deg_H w >= d, then
    lambda_H(u, w) <= |delta_H(S)| < d = min(deg u, deg w), so (u, w)
    violates and H is not SMEC: the hub check would find it too. The
    2n-3 construction leaves such a pocket of two vertices (a dead end
    and its neighbour), and the 4n-9 one a triangle; either cut has
    2n-3 edges, one less than a full degree of L(HL_n).
    """
    deg = engine.degrees
    # live arcs: the engine's residual template between queries is its
    # fault mask, 1 on both arcs of a live edge and 0 on a faulted one
    cap, head, adj = engine._template, engine.head, engine.adj
    for k in engine.fault:
        for x in engine.edges[k]:
            if not 0 < deg[x] < 3:
                continue
            pocket = {x, *(head[a] for a in adj[x] if cap[a])}
            cut = sum(1 for y in pocket for a in adj[y]
                      if cap[a] and head[a] not in pocket)
            d = max(deg[y] for y in pocket)
            if cut < d and any(deg[w] >= d for w in range(engine.n)
                               if w not in pocket):
                return True
    return False


def hub_deficits(engine: UnitFlowEngine) -> dict[int, int]:
    """{u: lambda_H(u, r)} over every deficient vertex of
    deficient_vertices, H = G - F for the installed faults F: empty
    exactly when H is SMEC."""
    return dict(deficient_vertices(engine))


def smec_violation(engine: UnitFlowEngine) -> Optional[tuple[int, int, int, int]]:
    """First (u, v, paths, required) in ascending pair order, or None.

    With B the deficient vertices of hub_deficits and f_x = lambda(x, r)
    for x in B, deg x otherwise, lambda(u, v) >= min(f_u, f_v) for every
    pair. So a pair can violate only if min(f_u, f_v) < min(deg u, deg v),
    which needs an endpoint in B. If exactly one endpoint x is in B, the
    test leaves deg y > f_x for the other, y, and the hub flows fix
    lambda(x, y) = f_x: it is >= min(f_x, deg y) = f_x, and a larger
    value would give lambda(x, r) >= min(lambda(x, y), lambda(y, r)) > f_x.
    Only pairs with both endpoints in B get a direct max-flow, capped at
    the requirement. Pairs whose smaller endpoint degree is 0 are vacuous.
    """
    deficits = hub_deficits(engine)
    if not deficits:
        return None
    deg = engine.degrees
    f = [deficits.get(x, d) for x, d in enumerate(deg)]
    deficient = sorted(deficits)
    for u in range(engine.n):
        if not deg[u]:
            continue
        partners = (range(u + 1, engine.n) if f[u] < deg[u]
                    else deficient[bisect_right(deficient, u):])
        for v in partners:
            req = deg[u] if deg[u] < deg[v] else deg[v]
            if min(f[u], f[v]) >= req:
                continue
            if (f[u] < deg[u]) != (f[v] < deg[v]):
                return u, v, min(f[u], f[v]), req
            paths = engine.max_flow(u, v, req)
            if paths < req:
                return u, v, paths, req
    raise RuntimeError("hub check and pair scan disagree")


@dataclass(frozen=True)
class SmecWitness:
    """A pair with fewer edge-disjoint paths than required, and a minimum
    cut of that size separating it, in ascending edge order."""

    u: int
    v: int
    path_count: int
    required: int
    cut: tuple[Edge, ...]

    def to_dict(self) -> dict:
        return {
            "pair": [self.u, self.v],
            "path_count": self.path_count,
            "required": self.required,
            "cut": [list(e) for e in self.cut],
        }


def smec_witness(engine: UnitFlowEngine) -> Optional[SmecWitness]:
    """None if G - F is SMEC, else the first violating pair in ascending
    order with a minimum cut of it."""
    hit = smec_violation(engine)
    if hit is None:
        return None
    u, v, paths, req = hit
    value, cut = engine.min_cut(u, v)
    if value != paths:
        raise RuntimeError("pair scan and direct max-flow disagree")
    return SmecWitness(u, v, paths, req, tuple(cut))


def component_index(g: Graph) -> tuple:
    """(edges, inc, comp, comp_size) of G, the fault-free state of
    largest_component_under_faults: inc = incidence(G) maps inc[x][y] to
    the index of edge {x, y}, comp[x] is x's component in G and
    comp_size[c] the size of component c."""
    comp = [0] * g.n_vertices
    comp_size = []
    for c, members in enumerate(components(g)):
        for x in members:
            comp[x] = c
        comp_size.append(len(members))
    return g.edges, incidence(g), comp, comp_size


def largest_component_under_faults(index: tuple, fault_idx) -> int:
    """Size of the largest component of G - F, F the given edge indices
    and index = component_index(G), joining the ends of F's edges
    through live common neighbours and searching only around F's edges.

    A search between a and b grows a tree from each in G - F, one whole
    level of the smaller frontier at a time. Either the trees meet, and
    every F endpoint either tree marked joins a's class in a union-find
    over F's endpoints, or a tree runs dry: its marks are then a whole
    component of G - F, which is closed, with its size and G-component.
    1. Each F edge (u, v), in order, is skipped if an endpoint is closed
       or u and v are already in one class. Otherwise, if some x has both
       {u, x} and {x, v} live, u and v are joined: the path u-x-v is a
       search between them that meets after one level, and what follows
       uses only that u and v end up joined. Only when no such x exists
       is (u, v) searched.
    2. If nothing closed, every F edge's ends are joined in G - F, so any
       path of G through F can be rerouted: G's components are intact.
    3. Otherwise the boundary anchors are the live ends of F edges whose
       other end is closed. Within each G-component, two live anchors of
       different classes are searched until one class is left; each
       search joins two classes or closes one more component.
    4. The answer is the largest of the closed sizes and, for every
       G-component B_c, the size of its remainder R_c = B_c minus the
       closed vertices.
    R_c is connected: a part P of it other than B_c has an edge of G
    leaving P inside B_c, which must be an F edge (x, y) with x in P. If y
    were in R_c too, step 1 joined (x, y) through a common neighbour,
    searched it or found them joined, and a search that closes neither
    end meets, so x and y would be joined.
    Hence y is closed, x is a boundary anchor, and every part of R_c
    holds one. Step 3 makes no new anchor: an F edge with no end closed
    after step 1 has its ends joined, so they close together or not at
    all. After step 3 the live anchors of B_c form one class, so R_c is
    one part.
    """
    edges, inc, comp, comp_size = index
    if not fault_idx:
        return max(comp_size, default=0)
    dead = set(fault_idx)
    parent = {}
    for k in fault_idx:
        u, v = edges[k]
        parent[u] = u
        parent[v] = v
    closed = set()
    sizes = []
    closed_in = {}

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def search(a, b):
        seen_a, seen_b = {a}, {b}
        front_a, front_b = [a], [b]
        hits = [b]        # F endpoints marked, besides a
        while True:
            if len(front_b) < len(front_a):
                front, mine, other = front_b, seen_b, seen_a
            else:
                front, mine, other = front_a, seen_a, seen_b
            level = []
            for x in front:
                for y, k in inc[x].items():
                    if y not in mine and k not in dead:
                        if y in other:
                            r = find(a)
                            for z in hits:
                                parent[find(z)] = r
                            return
                        mine.add(y)
                        level.append(y)
                        if y in parent:
                            hits.append(y)
            if not level:
                closed.update(mine)
                sizes.append(len(mine))
                c = comp[a]
                closed_in[c] = closed_in.get(c, 0) + len(mine)
                return
            if mine is seen_a:
                front_a = level
            else:
                front_b = level

    for k in fault_idx:
        u, v = edges[k]
        if u in closed or v in closed or find(u) == find(v):
            continue
        at_v = inc[v]
        for x, j in inc[u].items():
            # k is dead, so an x that is not v's neighbour fails the test
            if j not in dead and at_v.get(x, k) not in dead:
                parent[find(v)] = find(u)
                break
        else:
            search(u, v)
    if not sizes:
        return max(comp_size)
    anchors = {}          # G-component -> its boundary anchors, in order
    for k in fault_idx:
        u, v = edges[k]
        if (u in closed) != (v in closed):
            a = v if u in closed else u
            anchors.setdefault(comp[a], {})[a] = None
    for group in anchors.values():
        while True:
            live = [a for a in group if a not in closed]
            b = next((x for x in live if find(x) != find(live[0])), None)
            if b is None:
                break
            search(live[0], b)
    best = max(sizes)
    for c, size in enumerate(comp_size):
        rest = size - closed_in.get(c, 0)
        if rest > best:
            best = rest
    return best


def _evaluate_one(engine: Optional[UnitFlowEngine], index: Optional[tuple],
                  edges, idx, kind: str, floor: int,
                  witness: bool) -> Optional[dict]:
    """None when the fault set passes, else its failure witness. Component
    checks read the component index and have no engine; SMEC checks have
    an engine and no index. A failing SMEC set checked with `witness`
    false gives {}: a pocket's cut (pocket_fails) fails it with no hub
    work, or else its hub check stops at the first deficient vertex,
    with no pair scan and no min cut either way."""
    if kind == "component":
        size = largest_component_under_faults(index, idx)
        if size < floor:
            return {
                "fault_edges": [list(edges[k]) for k in idx],
                "largest_component": size,
                "floor": floor,
            }
        return None

    engine.set_fault_indices(idx)
    if not witness:
        failed = (pocket_fails(engine)
                  or next(deficient_vertices(engine), None) is not None)
        return {} if failed else None
    w = smec_witness(engine)
    if w is None:
        return None
    return {"fault_edges": [list(edges[k]) for k in idx], **w.to_dict()}


def _init_worker(n, edges, kind, floor, index):
    global _WORKER_STATE
    engine = UnitFlowEngine(n, edges) if kind == "smec" else None
    _WORKER_STATE = (engine, index, edges, kind, floor)


def _run_chunk(chunk):
    engine, index, edges, kind, floor = _WORKER_STATE
    failures = 0
    first = None
    for idx in chunk:
        # after the chunk's first failure only verdicts count (see _merge)
        out = _evaluate_one(engine, index, edges, idx, kind, floor,
                            first is None)
        if out is not None:
            failures += 1
            if first is None:
                first = out
    return len(chunk), failures, first


def _chunks(stream: Iterator, size: int) -> Iterator[list]:
    while True:
        block = list(islice(stream, size))
        if not block:
            return
        yield block


def evaluate_stream(g, stream, kind: str, floor: int, counters: dict,
                    jobs: int,
                    progress: Optional[Callable[[], None]] = None
                    ) -> Optional[dict]:
    """Evaluate every fault set; returns the first-in-order failure witness.
    At most os.cpu_count() worker processes start, whatever `jobs` asks
    for, and one job runs in process. `progress`, when given, is called
    after each chunk's tallies are merged into counters."""
    global _WORKER_STATE
    jobs = min(jobs, os.cpu_count() or 1)
    index = component_index(g) if kind == "component" else None
    initargs = (g.n_vertices, g.edges, kind, floor, index)
    chunks = _chunks(stream, _CHUNK_SIZE)
    if jobs <= 1:
        _init_worker(*initargs)
        try:
            return _merge(map(_run_chunk, chunks), counters, progress)
        finally:
            _WORKER_STATE = None
    with Pool(jobs, initializer=_init_worker, initargs=initargs) as pool:
        return _merge(pool.imap(_run_chunk, chunks), counters, progress)


def _merge(results, counters: dict,
           progress: Optional[Callable[[], None]]) -> Optional[dict]:
    """Add per-chunk tallies into counters; keep the first failure witness."""
    first_witness = None
    for visited, failures, first in results:
        counters["visited"] += visited
        counters["failures"] += failures
        if first_witness is None:
            first_witness = first
        if progress is not None:
            progress()
    return first_witness
