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

Per fault set F the SMEC check is decided from the small sides on the
base network when the campaign has a line graph L(H) of an HL network
with kappa(H) > mu (smallsides, whose docstrings hold the proofs): the
parent hands (L, m) to the workers, and each builds smallsides.layout
on its first set, so a campaign of no sets builds none and checks no
kappa. smallsides.fails gives the verdict from F alone, with no flow and
without installing F in the flow engine, and smallsides.least_pair gives
a failing set's witness pair, the first violating pair in ascending
order. F is installed only then, and one min_cut of the pair gives its
path count and cut. So such a campaign runs no hub check. Otherwise
(kappa(H) <= mu, n <= 2, or a graph with no HL base) the verdict is the
cold hub check, deficient_vertices, and the witness is smec_witness's:
smec_violation turns the hub check's deficient vertices into the first
violating pair, cut by the same min_cut. The witness is a fact of G - F,
whichever path gave it.

A report keeps only the counts and the first failure's witness, so each
chunk computes a witness only for its first failing set. Every later set
of the chunk is decided by its verdict alone: by smallsides.fails where
there is a layout, and otherwise by the hub check, stopped at the first
deficient vertex. Neither runs a pair scan or a min cut, and each gives
the full check's verdict, so the failure count cannot move. Each chunk
still computes the witness of its own first failure, and _merge keeps it
from the first chunk that has one: that is the stream's first failure,
at any worker count.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice
from multiprocessing import Pool
from typing import Callable, Iterator, Optional

from . import smallsides
from .flow import UnitFlowEngine
from .graph import Edge, Graph, components, incidence

_CHUNK_SIZE = 512

_WORKER_STATE = None


def deficient_vertices(engine: UnitFlowEngine) -> Iterator[tuple[int, int]]:
    """Yield (u, lambda_H(u, r)) for each u != r with lambda_H(u, r) <
    deg_H u, in id order, where H = G - F for the faults F installed in
    the engine and r is the lowest vertex of maximum degree in H. Flows
    run only as items are asked for, so a reader that stops after the
    first item runs no flow past that vertex's.

    This is the SMEC hub check, described here once.

    Hub lemma: for r of maximum degree in H, H is SMEC iff
    lambda_H(u, r) >= deg_H(u) for every u != r. A violating pair (u, v)
    has a cut delta(S) with u in S, v outside, smaller than deg u and
    deg v; if r is outside S then (u, r) violates, as deg r >= deg v,
    else (v, r) does. So the flows into r, one from each u != r of
    positive degree, each cold and capped at deg_H(u), find every
    deficient u, and a capped flow that falls short is exact; H fails
    as soon as one u falls short.

    Every violating pair has an endpoint that is deficient for every r
    of maximum degree, so the pair scan (smec_violation) reaches every
    violating pair whichever r it starts from. That scan goes over pairs
    in ascending order and decides each one exactly, so its first
    violating pair and that pair's path count are facts of H alone.
    smec_witness then cuts the pair with a flow of its own, whose
    residual s-side is the smallest s-side of a minimum cut of the pair.
    """
    deg = engine.degrees
    hub = max(range(engine.n), key=deg.__getitem__, default=None)
    for u in range(engine.n):
        if u != hub and deg[u]:
            flow = engine.max_flow(u, hub, deg[u])
            if flow < deg[u]:
                yield u, flow


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


def _evaluate_one(engine: Optional[UnitFlowEngine], index,
                  edges, idx, kind: str, floor: int,
                  witness: bool) -> Optional[dict]:
    """None when the fault set passes, else its failure witness. Component
    checks read the component index and have no engine; SMEC checks have
    an engine, and as index the small-side layout (smallsides.layout) or
    None when there is none. With a layout, the small sides decide the
    set from F alone, and only a failing set checked with `witness`
    installs F, for one min_cut of its least pair. Without one, the hub
    check decides. A failing set checked with `witness` false gives {}:
    no pair scan and no min cut runs for it."""
    if kind == "component":
        size = largest_component_under_faults(index, idx)
        if size < floor:
            return {
                "fault_edges": [list(edges[k]) for k in idx],
                "largest_component": size,
                "floor": floor,
            }
        return None

    if index is None:
        engine.set_fault_indices(idx)
        if not witness:
            failed = next(deficient_vertices(engine), None) is not None
            return {} if failed else None
        w = smec_witness(engine)
        if w is None:
            return None
    elif not witness:
        return {} if smallsides.fails(index, idx) else None
    else:
        pair = smallsides.least_pair(index, idx)
        if pair is None:
            return None
        engine.set_fault_indices(idx)
        u, v = pair
        req = min(engine.degrees[u], engine.degrees[v])
        paths, cut = engine.min_cut(u, v)
        if paths >= req:
            raise RuntimeError("small sides and min cut disagree")
        w = SmecWitness(u, v, paths, req, tuple(cut))
    return {"fault_edges": [list(edges[k]) for k in idx], **w.to_dict()}


def _init_worker(n, edges, kind, floor, index, sides):
    global _WORKER_STATE
    engine = UnitFlowEngine(n, edges) if kind == "smec" else None
    _WORKER_STATE = (engine, index, sides, edges, kind, floor)


def _run_chunk(chunk):
    global _WORKER_STATE
    engine, index, sides, edges, kind, floor = _WORKER_STATE
    if sides is not None:
        # this worker's first SMEC set: the (L, m) source becomes the
        # small-side layout, or None where it would not be exact
        index = smallsides.layout(*sides)
        _WORKER_STATE = (engine, index, None, edges, kind, floor)
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
                    progress: Optional[Callable[[], None]] = None,
                    sides: Optional[tuple] = None) -> Optional[dict]:
    """Evaluate every fault set; returns the first-in-order failure witness.
    At most os.cpu_count() worker processes start, whatever `jobs` asks
    for, and one job runs in process. `progress`, when given, is called
    after each chunk's tallies are merged into counters. `sides` is
    (L, m), g = L.graph, given to SMEC checks only: each worker builds
    smallsides.layout(L, m) on its first set, so a campaign of no sets
    builds none."""
    global _WORKER_STATE
    jobs = min(jobs, os.cpu_count() or 1)
    index = component_index(g) if kind == "component" else None
    initargs = (g.n_vertices, g.edges, kind, floor, index, sides)
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
