"""Fault-campaign evaluation loop, in process or across worker processes.

Fault sets are consumed from the caller's stream in canonical order and
evaluated in fixed-size chunks by one chunk runner, in process for one job
and in a pool otherwise, so the merged counts and the first-in-order
failure witness are identical whatever the worker count. Workers share
nothing: for SMEC checks each builds its own flow engine from the
(n, edges) layout once; component checks build none.
The stream holds only sets to evaluate: the conditional mode's
minimum-degree admission happens where the sets are produced, so every
set here is visited.

Per fault set F the SMEC decision is the hub check (hub_deficits): V-1
capped max-flows into one vertex r of maximum degree in G-F, warm-started
from the stored fault-free paths that avoid F, which the engine hands out
(live_paths), with cold flows when F touches every stored hub. It returns
every deficient vertex, and the set passes when there is none. Only pairs
with a deficient endpoint can violate. The witness scan goes over those
pairs in ascending order: the hub flows already fix the value of a pair
with one deficient endpoint, and a pair with two gets a capped direct
max-flow; a min cut on the first violating pair is the certificate
(SmecWitness).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice
from multiprocessing import Pool
from typing import Iterator, Optional

from .flow import UnitFlowEngine
from .graph import Edge

_CHUNK_SIZE = 512

_WORKER_STATE = None


def hub_deficits(engine: UnitFlowEngine) -> dict[int, int]:
    """{u: lambda_H(u, r)} over the u != r with lambda_H(u, r) < deg_H u,
    where H = G - F for the faults F installed in the engine.

    Hub lemma: for r of maximum degree in H, H is SMEC iff
    lambda_H(u, r) >= deg_H(u) for every u != r. A violating pair (u, v)
    has a cut delta(S) with u in S, v outside, smaller than deg u and
    deg v; if r is outside S then (u, r) violates, as deg r >= deg v,
    else (v, r) does. So V-1 flows into r, each capped at deg_H(u),
    find every deficient u, and a capped flow that falls short is exact.
    A stored hub that F leaves untouched keeps its maximum base degree;
    its stored paths that avoid F start each flow, so only the missing
    units are augmented. When F touches every stored hub, flows into the
    lowest vertex of maximum degree in H run cold. Vertices are visited
    in id order.
    """
    deg = engine.degrees
    base = engine.base_degrees
    hub = next((h for h in engine.hubs if deg[h] == base[h]), None)
    if hub is None:
        hub = max(range(engine.n), key=deg.__getitem__, default=None)
        starts = [()] * engine.n
    else:
        starts = engine.live_paths(hub)
    deficits = {}
    for u in range(engine.n):
        need = deg[u]
        if u == hub or len(starts[u]) >= need:
            continue
        flow = engine.max_flow(u, hub, need, starts[u])
        if flow < need:
            deficits[u] = flow
    return deficits


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
    return SmecWitness(u, v, paths, req, tuple(sorted(cut)))


def largest_component_under_faults(n: int, edges, fault_idx) -> int:
    """Largest component size after deleting the given (sorted) edge indices."""
    parent = list(range(n))
    k = 0
    nf = len(fault_idx)
    for i, (u, v) in enumerate(edges):
        if k < nf and fault_idx[k] == i:
            k += 1
            continue
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        if u != v:
            parent[u] = v
    counts = [0] * n
    best = 0
    for x in range(n):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        c = counts[x] + 1
        counts[x] = c
        if c > best:
            best = c
    return best


def _evaluate_one(engine: Optional[UnitFlowEngine], n: int, edges, idx,
                  kind: str, floor: int) -> Optional[dict]:
    """None when the fault set passes, else its failure witness. The
    engine is None for component checks, which need no flow."""
    if kind == "component":
        size = largest_component_under_faults(n, edges, idx)
        if size < floor:
            return {
                "fault_edges": [list(edges[k]) for k in idx],
                "largest_component": size,
                "floor": floor,
            }
        return None

    engine.set_fault_indices(idx)
    w = smec_witness(engine)
    if w is None:
        return None
    return {"fault_edges": [list(edges[k]) for k in idx], **w.to_dict()}


def _init_worker(n, edges, kind, floor):
    global _WORKER_STATE
    engine = UnitFlowEngine(n, edges) if kind == "smec" else None
    _WORKER_STATE = (engine, n, edges, kind, floor)


def _run_chunk(chunk):
    engine, n, edges, kind, floor = _WORKER_STATE
    failures = 0
    first = None
    for idx in chunk:
        out = _evaluate_one(engine, n, edges, idx, kind, floor)
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
                    jobs: int) -> Optional[dict]:
    """Evaluate every fault set; returns the first-in-order failure witness."""
    global _WORKER_STATE
    initargs = (g.n_vertices, g.edges, kind, floor)
    chunks = _chunks(stream, _CHUNK_SIZE)
    if jobs <= 1:
        _init_worker(*initargs)
        try:
            return _merge(map(_run_chunk, chunks), counters)
        finally:
            _WORKER_STATE = None
    with Pool(jobs, initializer=_init_worker, initargs=initargs) as pool:
        return _merge(pool.imap(_run_chunk, chunks), counters)


def _merge(results, counters: dict) -> Optional[dict]:
    """Add per-chunk tallies into counters; keep the first failure witness."""
    first_witness = None
    for visited, failures, first in results:
        counters["visited"] += visited
        counters["failures"] += failures
        if first_witness is None:
            first_witness = first
    return first_witness
