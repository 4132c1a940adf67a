"""Fault-campaign evaluation loop, in process or across worker processes.

Fault sets are consumed from the caller's stream in canonical order and
evaluated in fixed-size chunks by one chunk runner, in process for one job
and in a pool otherwise, so the merged counts and the first-in-order
failure witness are identical whatever the worker count. For SMEC checks
each worker builds its own flow engine from the (n, edges) layout once.
The parent hands (L, m) to the workers, and each builds what its checks
read on its first set, so a campaign of no sets builds none. The stream
holds only sets to evaluate: the conditional mode's minimum-degree
admission happens where the sets are produced, so every set here is
visited.

Per fault set F the component-floor check is decided on the base
network when the campaign has a line graph L(H) of an HL network with
kappa(H) > mu = floor(m / (n - 1)): each worker builds
smallsides.floor_layout on its first set, and
smallsides.largest_component gives the size from the hosts of F's
edges, searching L - F only from the line vertices between two hosts of
n - 1 or more faults (the proof is in smallsides). Otherwise
(kappa(H) <= mu, n <= 2, or a graph with no HL base)
largest_component_under_faults runs a plain component search of the
rebuilt G - F. On HL_n that happens only from m = n(n - 1), past every
floor budget of the paper.

Per fault set F the SMEC check is decided from the small sides on the
base network when the campaign has a line graph L(H) of an HL network
with kappa(H) > mu (smallsides, whose docstrings hold the proofs): each
worker builds smallsides.layout on its first set, so a campaign of no
sets checks no kappa. smallsides.fails gives the verdict from F alone,
with no flow and without installing F in the flow engine, and
smallsides.least_pair gives a failing set's witness pair, the first
violating pair in ascending order. F is installed only then, and one
min_cut of the pair gives its path count and cut. So such a campaign
runs no hub check. Otherwise (kappa(H) <= mu, n <= 2, or a graph with no
HL base) the verdict is the cold hub check, deficient_vertices, and the
witness is smec_witness's: smec_violation turns the hub check's
deficient vertices into the first violating pair, cut by the same
min_cut. The witness is a fact of G - F, whichever path gave it.

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
from .graph import Edge, Graph, largest_component_size, remove_edges

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


def largest_component_under_faults(g: Graph, fault_idx) -> int:
    """Size of the largest component of G - F, F the given edge indices:
    the floor check where there is no floor layout. perfbench's
    exec.union_find layer counts the calls by this name."""
    return largest_component_size(
        remove_edges(g, [g.edges[k] for k in fault_idx]))


def _evaluate_one(engine: Optional[UnitFlowEngine], index,
                  edges, idx, kind: str, floor: int,
                  witness: bool) -> Optional[dict]:
    """None when the fault set passes, else its failure witness. Component
    checks have no engine, and as index the floor layout
    (smallsides.floor_layout) or, where there is none, the graph for
    largest_component_under_faults. SMEC checks have an engine,
    and as index the small-side layout (smallsides.layout) or None when
    there is none. With a layout,
    the small sides decide the set from F alone, and only a failing set
    checked with `witness` installs F, for one min_cut of its least pair.
    Without one, the hub check decides. A failing set checked with
    `witness` false gives {}: no pair scan and no min cut runs for it."""
    if kind == "component":
        if isinstance(index, smallsides.Layout):
            size = smallsides.largest_component(index, idx)
        else:
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


def _init_worker(n, edges, kind, floor, sides):
    global _WORKER_STATE
    engine = UnitFlowEngine(n, edges) if kind == "smec" else None
    _WORKER_STATE = (engine, None, sides, edges, kind, floor)


def _run_chunk(chunk):
    global _WORKER_STATE
    engine, index, sides, edges, kind, floor = _WORKER_STATE
    if sides is not None:
        # this worker's first set: the (L, m) source becomes the layout,
        # or where it would not be exact, None for SMEC (the hub check)
        # and the graph for floors (a plain component search)
        if kind == "smec":
            index = smallsides.layout(*sides)
        else:
            index = smallsides.floor_layout(*sides) or sides[0].graph
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
    (L, m), g = L.graph: each worker builds the layout of L for m
    (smallsides.layout or floor_layout) on its first set, so a campaign
    of no sets builds none."""
    global _WORKER_STATE
    jobs = min(jobs, os.cpu_count() or 1)
    initargs = (g.n_vertices, g.edges, kind, floor, sides)
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
