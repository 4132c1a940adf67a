"""Fault-campaign evaluation loop, in process or across worker processes.

Fault sets are consumed from the caller's stream in canonical order and
evaluated in fixed-size chunks by one chunk runner, in process for one job
and in a pool otherwise, so the merged counts and the first-in-order
failing set are identical whatever the worker count. One job runs its
chunks in process on the caller's state; a pool worker builds its own.
Each state is built from (L, m, floor) alone, floor None for SMEC, and
each part of it when its checks first read it: the layout on the
state's first set, the flow engine when a flow first runs. So a
campaign of no sets builds neither, and a SMEC campaign its layout
decides builds no engine unless a set fails. The stream holds only sets
to evaluate: the conditional mode's minimum-degree admission happens
where the sets are produced, so every set here is visited.

Per fault set F the component-floor check is decided on the base
network when the campaign has a line graph L(H) of an HL network with
kappa(H) > mu = floor(m / (n - 1)): each process builds
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
process builds smallsides.layout on its first set, so a campaign of no
sets checks no kappa. smallsides.fails gives the verdict from F alone,
with no flow and without installing F in the flow engine, and
smallsides.least_pair gives a failing set's witness pair, the first
violating pair in ascending order. F is installed only then, and one
min_cut of the pair gives its path count and cut. So such a campaign
runs no hub check. Otherwise (kappa(H) <= mu, n <= 2, or a graph with no
HL base) the verdict is the cold hub check, deficient_vertices, stopped
at its first deficient vertex, which already fails the set, and the
witness is smec_witness's: a scan of the pairs with an endpoint the
hub check found deficient, in ascending order, each decided by one
capped flow, gives the first violating pair, cut by the same min_cut.
The witness is a fact of G - F, whichever path gave it.

A report keeps only the counts and the first failing set's witness, so
the chunk runner gives verdicts only: no verdict runs a pair scan or a
min cut, and each gives the full check's verdict, so the failure count
cannot move. Each chunk returns its counts and its first failing set,
and _merge keeps the set of the first chunk that has one. As imap keeps
chunk order, that is the stream's first failing set at any worker count.
evaluate_stream then computes that one set's witness on the caller's
state at any worker count: at one job the state the chunks ran on, at
more one the pool's chunks never read, whose parts are built only then.
The witness is a fact of G - F, so which state computes it cannot
change it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import islice
from multiprocessing import Pool
from typing import Callable, Iterator, Optional, Sequence

from . import smallsides
from .flow import UnitFlowEngine
from .graph import Edge, Graph, largest_component_size, remove_edges
from .linegraph import LineGraph

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
    of maximum degree, so smec_witness's pair scan, over the pairs with
    a deficient endpoint, reaches every violating pair whichever r it
    starts from. That scan goes over pairs in ascending order and
    decides each one exactly, so its first violating pair and that
    pair's path count are facts of H alone. smec_witness then cuts the
    pair with a flow of its own, whose residual s-side is the smallest
    s-side of a minimum cut of the pair.
    """
    deg = engine.degrees
    hub = max(range(engine.n), key=deg.__getitem__, default=None)
    for u in range(engine.n):
        if u != hub and deg[u]:
            flow = engine.max_flow(u, hub, deg[u])
            if flow < deg[u]:
                yield u, flow


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


def _cut_pair(engine: UnitFlowEngine, u: int, v: int) -> SmecWitness:
    """The violating pair (u, v) of G - F, F installed in the engine, with
    a minimum cut of it."""
    required = min(engine.degrees[u], engine.degrees[v])
    paths, cut = engine.min_cut(u, v)
    if paths >= required:
        raise RuntimeError("violating pair has its required paths")
    return SmecWitness(u, v, paths, required, tuple(cut))


def smec_witness(engine: UnitFlowEngine) -> Optional[SmecWitness]:
    """None if G - F is SMEC, else the first violating pair in ascending
    order with a minimum cut of it.

    The pair scan: with B the deficient vertices of deficient_vertices,
    the pairs (u, v), u < v, with min(deg u, deg v) > 0 and an endpoint
    in B are decided in ascending order, each by one flow capped at its
    requirement, which is exact when it falls short. Every violating pair
    has an endpoint in B, so the first pair that falls short is the first
    violating pair of G - F."""
    deficient = {u for u, _ in deficient_vertices(engine)}
    if not deficient:
        return None
    deg = engine.degrees
    for u in range(engine.n):
        for v in range(u + 1, engine.n):
            req = min(deg[u], deg[v])
            if req and (u in deficient or v in deficient):
                paths = engine.max_flow(u, v, req)
                if paths < req:
                    w = _cut_pair(engine, u, v)
                    if w.path_count != paths:
                        raise RuntimeError(
                            "pair scan and direct max-flow disagree")
                    return w
    raise RuntimeError("hub check and pair scan disagree")


def largest_component_under_faults(g: Graph, fault_idx) -> int:
    """Size of the largest component of G - F, F the given edge indices:
    the floor check where there is no floor layout. perfbench's
    exec.union_find layer counts the calls by this name."""
    return largest_component_size(
        remove_edges(g, [g.edges[k] for k in fault_idx]))


class _State:
    """What one process's checks read, from (L, m, floor) alone: the
    component floor, or None for SMEC. `layout` is built on the state's
    first set and `engine` when a flow first runs."""

    def __init__(self, L: LineGraph, m: int, floor: Optional[int]):
        self.L, self.m, self.floor = L, m, floor

    @cached_property
    def layout(self) -> Optional[smallsides.Layout]:
        """The layout of L for m (smallsides.layout, or floor_layout for
        floors), or None where it would not be exact."""
        if self.floor is None:
            return smallsides.layout(self.L, self.m)
        return smallsides.floor_layout(self.L, self.m)

    @cached_property
    def component_size(self) -> Callable[[Sequence[int]], int]:
        """F -> the size of the largest component of L - F: from the
        floor layout, or where there is none a plain component search."""
        if self.layout is not None:
            return partial(smallsides.largest_component, self.layout)
        return partial(largest_component_under_faults, self.L.graph)

    @cached_property
    def engine(self) -> UnitFlowEngine:
        g = self.L.graph
        return UnitFlowEngine(g.n_vertices, g.edges)


def _evaluate_one(state: _State, idx) -> bool:
    """True when the fault set fails the check: the component floor, or
    SMEC decided by the small sides from F alone where there is a layout
    and otherwise by the hub check stopped at its first deficient
    vertex. No pair scan and no min cut runs."""
    if state.floor is not None:
        return state.component_size(idx) < state.floor
    if state.layout is not None:
        return smallsides.fails(state.layout, idx)
    engine = state.engine
    engine.set_fault_indices(idx)
    return next(deficient_vertices(engine), None) is not None


def _witness(state: _State, idx) -> dict:
    """The failure witness of a set that _evaluate_one failed: the size
    for floors, else the least violating pair with one min_cut of it."""
    out = {"fault_edges": [list(state.L.graph.edges[k]) for k in idx]}
    if state.floor is not None:
        return {**out, "largest_component": state.component_size(idx),
                "floor": state.floor}
    engine = state.engine
    engine.set_fault_indices(idx)
    if state.layout is None:
        w = smec_witness(engine)
    else:
        w = _cut_pair(engine, *smallsides.least_pair(state.layout, idx))
    return {**out, **w.to_dict()}


def _init_worker(*args):
    global _WORKER_STATE
    _WORKER_STATE = _State(*args)


def _run_chunk(chunk, state: Optional[_State] = None):
    """(sets, failures, the first failing set or None) of one chunk, on
    `state`, or in a pool worker on the worker's own."""
    state = state or _WORKER_STATE
    failing = [idx for idx in chunk if _evaluate_one(state, idx)]
    return len(chunk), len(failing), failing[0] if failing else None


def _chunks(stream: Iterator, size: int) -> Iterator[list]:
    while True:
        block = list(islice(stream, size))
        if not block:
            return
        yield block


def evaluate_stream(L: LineGraph, m: int, stream, floor: Optional[int],
                    counters: dict, jobs: int,
                    progress: Optional[Callable[[], None]] = None
                    ) -> Optional[dict]:
    """Evaluate every fault set of L.graph for a campaign of budget m,
    against the component floor, or SMEC when floor is None; returns the
    first-in-order failure witness, computed on this call's own state.
    One job runs its chunks in process on that same state; more run them
    in a pool of at most os.cpu_count() worker processes, whatever `jobs`
    asks for, each on a state of its own. `progress`, when given, is
    called after each chunk's tallies are merged into counters."""
    jobs = min(jobs, os.cpu_count() or 1)
    state = _State(L, m, floor)
    chunks = _chunks(stream, _CHUNK_SIZE)
    if jobs <= 1:
        results = (_run_chunk(chunk, state) for chunk in chunks)
        first = _merge(results, counters, progress)
    else:
        with Pool(jobs, initializer=_init_worker,
                  initargs=(L, m, floor)) as pool:
            first = _merge(pool.imap(_run_chunk, chunks), counters, progress)
    return None if first is None else _witness(state, first)


def _merge(results, counters: dict,
           progress: Optional[Callable[[], None]]):
    """Add per-chunk tallies into counters; return the first failing set."""
    first_failing = None
    for visited, failures, first in results:
        counters["visited"] += visited
        counters["failures"] += failures
        if first_failing is None:
            first_failing = first
        if progress is not None:
            progress()
    return first_failing
