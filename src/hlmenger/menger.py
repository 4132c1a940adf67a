"""Strong Menger edge connectivity verification under edge faults.

A graph is strongly Menger edge connected (SMEC) when every pair of distinct
vertices u, v is joined by min(deg(u), deg(v)) edge-disjoint paths. The
checks here inject edge fault sets into a line graph and verify either the
SMEC predicate or the giant-component floor, exhaustively or by seeded
sampling, in unconditional or conditional (min degree >= 2 after faults)
mode; conditional mode admits each set where it is produced (_admitted),
so the evaluation loop only evaluates. Two explicit fault constructions
certify that the fault-tolerance bounds are tight; their patterns, one
vertex stripped to a single edge (_strip) and the 4n-9 triangle strip
(_triangle_faults), are written once and also seed the adversarial suite.
`BOUNDS` is the one table of the paper's numeric claims: each check's
fault budget or construction size, component floor and the dimensions it
holds for; the CLI, the constructions and the tests read it.

All path counts are exact. Per fault set F the verdict comes from the hub
check: with r a vertex of maximum degree in H = G - F, H is SMEC iff every
u != r has deg_H(u) edge-disjoint u-r paths, so V-1 capped max-flows into
r decide it. The flow engine stores fault-free paths into a few hubs on
first use, indexed by edge; a flow into an untouched hub starts from the
stored paths that avoid F and augments only the missing units. Of the
untouched hubs, the one that leaves the fewest vertices short of live
paths is taken, which moves no verdict or witness, and when F touches
every stored hub the flows run cold into a maximum-degree vertex. A
failing set runs the hub check to the end: only pairs with a deficient
endpoint (fewer than deg u paths into r) can violate. Over those pairs, in
ascending order, the hub flows fix the value of a pair with one deficient
endpoint and a capped direct max-flow decides a pair with two; the first
violating pair is the witness, and a min cut on it is the certificate.
The tightness checks confirm their far vertices with
UnitFlowEngine.min_cuts: one cold flow from u, then capped flows between
neighbouring far vertices confirm that they share its cut. Campaign
enumeration order is canonical (sizes ascending, then lexicographic by
edge index) and sampled mode is reproducible from its seed, so reports
are byte-identical across runs and worker counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from itertools import chain, combinations, islice, permutations
from math import comb
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .flow import UnitFlowEngine
from .graph import BudgetExceeded, Edge, Graph
from .linegraph import LineGraph
from .report import VerificationReport
from .rng import PRNG_NAME, SplitMix64
from . import _campaign_exec as _exec
from ._campaign_exec import SmecWitness, smec_witness


@dataclass(frozen=True)
class Bound:
    """One numeric claim of the paper about L(HL_n), for min_n <= n <= max_n.

    `faults` is the campaign's fault budget, or the size of a tightness
    construction; `floor`, when set, is the component floor under it.
    """

    min_n: int
    faults: Callable[[int], int]
    floor: Optional[Callable[[int], int]] = None
    max_n: Optional[int] = None


BOUNDS: dict[str, Bound] = {
    "ft-smec": Bound(2, lambda n: 2 * n - 4),
    "cond-ft-smec": Bound(3, lambda n: 4 * n - 10),
    "lemma32": Bound(3, lambda n: 4 * n - 7, lambda n: n * (1 << (n - 1)) - 1),
    "lemma41": Bound(4, lambda n: 6 * n - 13, lambda n: n * (1 << (n - 1)) - 2),
    "appendixA": Bound(4, lambda n: 11, lambda n: 30, max_n=4),
    "tight-uncond": Bound(3, lambda n: 2 * n - 3),
    "tight-cond": Bound(4, lambda n: 4 * n - 9),
}


def require_dimension(check: str, n: Optional[int]) -> Bound:
    """The bound of `check`, or ValueError when it does not cover dimension n."""
    bound = BOUNDS[check]
    if n is None:
        raise ValueError(f"{check} requires a line graph built from a "
                         "hypercube-like network")
    if n < bound.min_n or bound.max_n is not None and n > bound.max_n:
        if bound.max_n == bound.min_n:
            raise ValueError(f"{check} is the n={bound.min_n} case, got n={n}")
        raise ValueError(f"{check} requires dimension >= {bound.min_n}, got {n}")
    return bound


@dataclass(frozen=True)
class SmecVerdict:
    holds: bool
    witness: Optional[SmecWitness] = None


@dataclass(frozen=True)
class FaultCampaign:
    """How to sweep fault sets over a graph.

    mode 'exhaustive' visits every canonical fault set of size <= m once;
    'sampled' draws `samples` seeded random sets, 80% of them at the
    maximum size m and 20% at a uniform smaller size (SMEC under faults is
    not assumed monotone in the fault count). In conditional mode sampled
    draws violating min degree >= 2 are rejected and redrawn while
    enumerated or adversarial sets are skipped; both tallies land in
    skipped_conditional. `budget` caps the exhaustive enumeration size.
    """

    mode: str                      # "exhaustive" | "sampled"
    m: int
    conditional: bool = False
    samples: int = 0
    seed: int = 0
    adversarial: bool = False
    budget: int = 10_000_000


@dataclass(frozen=True)
class TightnessWitness:
    """A constructed fault set certifying a fault-tolerance bound is sharp."""

    fault_set: tuple[Edge, ...]
    u: int
    v: int
    expected_max_paths: int
    core: tuple[int, ...]          # (u0,) or the triangle (u, u1, u2)


# ---------------------------------------------------------------------------
# SMEC predicate
# ---------------------------------------------------------------------------


def is_smec(g: Graph) -> SmecVerdict:
    """Does every distinct pair have min(deg u, deg v) edge-disjoint paths?

    Decided by the hub check. On failure returns the first violating pair
    in ascending (u, v) order among the pairs with an endpoint the hub
    check found deficient, with a minimum-cut certificate of the deficient
    path count.
    """
    w = smec_witness(UnitFlowEngine(g.n_vertices, g.edges))
    return SmecVerdict(w is None, w)


# ---------------------------------------------------------------------------
# Fault-set sources
# ---------------------------------------------------------------------------


def _strip(g: Graph, v: int, keep: Iterable[int]) -> list[Edge]:
    """The edges at v to neighbours outside `keep`, in ascending neighbour
    order, which is also ascending edge order."""
    # canonical_edge inlined: the suite strips about 17k times on L(CQ_6)
    return [(v, w) if v < w else (w, v)
            for w in g.neighbors(v) if w not in keep]


def _triangle_faults(g: Graph, u: int, u1: int,
                     u2: int) -> Optional[tuple[Edge, ...]]:
    """The 4n-9 pattern on the triangle (u, u1, u2), sorted: u2 stripped
    down to {u, u1, u3}, with u3 its lowest neighbour outside the triangle,
    and u1 stripped down to {u, u2}. None when u2 has no such neighbour."""
    u3 = min((w for w in g.neighbors(u2) if w not in (u, u1)), default=None)
    if u3 is None:
        return None
    return tuple(sorted(_strip(g, u2, (u, u1, u3)) + _strip(g, u1, (u, u2))))


def adversarial_fault_indices(L: LineGraph, budget: int) -> list[tuple[int, ...]]:
    """Deterministic stress suite mirroring the extremal proof cases.

    Includes, deduplicated and capped at `budget` edges per set:
    * the first min(budget, deg v) incident edges of every vertex;
    * for every adjacent pair (v, u): the edges from v to all its other
      neighbors (a near-isolating split, leaving only the v-u link), the
      pattern of the 2n-3 construction (tightness_unconditional);
    * for every triangle and vertex assignment (u, u1, u2): the 4n-9
      pattern of the conditional construction (_triangle_faults);
    * every contiguous window of `budget` f-incident edges, when the line
      graph knows its f-vertices.
    """
    g = L.graph
    if budget > len(g.edges):
        raise ValueError("budget exceeds the number of edges")
    index = {e: i for i, e in enumerate(g.edges)}
    ordered: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()

    def push(edges: Sequence[Edge]) -> None:
        if len(edges) > budget:
            return
        key = tuple(sorted(map(index.__getitem__, edges)))
        if key not in seen:
            seen.add(key)
            ordered.append(key)

    for v in range(g.n_vertices):
        push(_strip(g, v, ())[:budget])

    if budget >= 1:
        for v in range(g.n_vertices):
            for u in g.neighbors(v):
                push(_strip(g, v, (u,))[:budget])

    for triangle in _triangles(g):
        for u, u1, u2 in permutations(triangle):
            faults = _triangle_faults(g, u, u1, u2)
            if faults is not None:
                push(faults)

    if L.f_vertices and budget >= 1:
        ef = [e for e in g.edges
              if e[0] in L.f_vertices or e[1] in L.f_vertices]
        for start in range(len(ef) - budget + 1):
            push(ef[start:start + budget])

    return ordered


def _triangles(g: Graph) -> Iterator[tuple[int, int, int]]:
    """All triangles (a, b, c) with a < b < c, in lexicographic order."""
    for a in range(g.n_vertices):
        nbrs = [w for w in g.neighbors(a) if w > a]
        for b, c in combinations(nbrs, 2):
            if g.has_edge(b, c):
                yield a, b, c


def _exhaustive_count(n_edges: int, m: int) -> int:
    return sum(comb(n_edges, k) for k in range(m + 1))


def _sample_stream(g: Graph, c: FaultCampaign) -> Iterator[tuple[int, ...]]:
    """Endless seeded draws of edge indices, sorted within each draw."""
    rng = SplitMix64(c.seed)
    n_edges = len(g.edges)
    while True:
        if c.m == 0:
            size = 0
        elif rng.randbelow(5) < 4:
            size = c.m
        else:
            size = rng.randbelow(c.m)
        yield tuple(rng.sample_indices(n_edges, size))


def _exhaustive_stream(n_edges: int, m: int) -> Iterator[tuple[int, ...]]:
    for k in range(m + 1):
        yield from combinations(range(n_edges), k)


def _admitted(g: Graph, sets: Iterable[tuple[int, ...]],
              counters: dict) -> Iterator[tuple[int, ...]]:
    """The sets F after which every vertex of g - F keeps degree >= 2, the
    conditional mode's condition; every other set is counted in
    counters["skipped_conditional"]."""
    edges = g.edges
    base = [g.degree(v) for v in range(g.n_vertices)]
    for idx in sets:
        deg = base[:]
        for k in idx:
            a, b = edges[k]
            deg[a] -= 1
            deg[b] -= 1
        if min(deg) >= 2:
            yield idx
        else:
            counters["skipped_conditional"] += 1


# ---------------------------------------------------------------------------
# Campaign driver
# ---------------------------------------------------------------------------


# progress(visited, total, failures, elapsed seconds) after each chunk
Progress = Callable[[int, int, int, float], None]


def _drive(L: LineGraph, c: FaultCampaign, kind: str, floor: int,
           check_name: str, target: Optional[dict], jobs: int,
           extra_params: Optional[dict] = None,
           progress: Optional[Progress] = None) -> VerificationReport:
    g = L.graph
    n_edges = len(g.edges)
    if c.m < 0:
        raise ValueError(f"m={c.m} must be >= 0")
    if c.samples < 0:
        raise ValueError(f"samples={c.samples} must be >= 0")
    if c.m > n_edges:
        raise ValueError(f"m={c.m} exceeds the {n_edges} available edges")
    if c.mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown campaign mode {c.mode!r}")
    swept = c.samples     # sets the sweep yields before admission
    if c.mode == "exhaustive":
        swept = _exhaustive_count(n_edges, c.m)
        if swept > c.budget:
            raise BudgetExceeded(
                f"exhaustive sweep of {swept} fault sets exceeds budget {c.budget}")
    elif c.conditional and g.min_degree() < 2:
        # every F has delta(G-F) <= delta(G) < 2: rejection would never end
        raise ValueError("graph already violates the min-degree-2 condition")

    started = time.perf_counter()
    counters = {"visited": 0, "skipped_conditional": 0, "failures": 0}

    adversarial = (adversarial_fault_indices(L, c.m) if c.adversarial else [])

    def admit(sets: Iterable[tuple[int, ...]]) -> Iterable[tuple[int, ...]]:
        return _admitted(g, sets, counters) if c.conditional else sets

    if c.mode == "exhaustive":
        sweep = admit(_exhaustive_stream(n_edges, c.m))
    else:
        sweep = islice(admit(_sample_stream(g, c)), c.samples)
    on_chunk = None
    if progress is not None:
        total = len(adversarial) + swept

        def on_chunk():
            progress(counters["visited"], total, counters["failures"],
                     time.perf_counter() - started)
    witness = _exec.evaluate_stream(
        g, chain(admit(adversarial), sweep), kind, floor, counters, jobs,
        on_chunk)

    if target is None:
        target = {"line_vertices": g.n_vertices, "line_edges": n_edges}
        if L.base_dimension is not None:
            target["base_dimension"] = L.base_dimension
    params = {
        "m": c.m,
        "mode": c.mode,
        "conditional": c.conditional,
        "samples": c.samples if c.mode == "sampled" else None,
        "seed": c.seed if c.mode == "sampled" else None,
        "sizes_policy": "default",
        "adversarial": c.adversarial,
        "adversarial_count": len(adversarial),
        "prng": PRNG_NAME,
        "pair_order": "ascending-lexicographic",
        "fault_order": "sizes-ascending-then-lex-by-edge-index",
    }
    if extra_params:
        params.update(extra_params)
    return VerificationReport(
        check_name=check_name,
        target=target,
        mode=c.mode,
        parameters=params,
        counts=dict(counters),
        witness=witness,
        timing_seconds=time.perf_counter() - started,
    )


def run_campaign(L: LineGraph, c: FaultCampaign, jobs: int = 1,
                 target: Optional[dict] = None,
                 progress: Optional[Progress] = None) -> VerificationReport:
    """Check SMEC of L minus every visited fault set of size <= c.m.

    `progress` is called after each evaluated chunk with the sets visited
    so far, the total the sweep and the adversarial suite can yield before
    the conditional admission, the failures so far and the elapsed time.
    """
    name = "cond-ft-smec" if c.conditional else "ft-smec"
    return _drive(L, c, "smec", 0, name, target, jobs, progress=progress)


def check_component_lemma(L: LineGraph, fault_budget: int, floor: int,
                          c: FaultCampaign, jobs: int = 1,
                          target: Optional[dict] = None,
                          progress: Optional[Progress] = None
                          ) -> VerificationReport:
    """Assert L minus each visited fault set keeps a component >= floor.
    `progress` is as in run_campaign."""
    if floor > L.graph.n_vertices:
        raise ValueError("floor exceeds the vertex count")
    c = replace(c, m=fault_budget)
    return _drive(L, c, "component", floor, "component-floor", target, jobs,
                  extra_params={"floor": floor}, progress=progress)


# ---------------------------------------------------------------------------
# Tightness constructions
# ---------------------------------------------------------------------------


def _far_vertices(g: Graph, core: tuple[int, ...]) -> Iterator[int]:
    """Vertices outside the closed neighbourhood of `core`, ascending."""
    blocked = set(core)
    for t in core:
        blocked.update(g.neighbors(t))
    return (w for w in range(g.n_vertices) if w not in blocked)


def tightness_unconditional(L: LineGraph) -> TightnessWitness:
    """Fault set of size 2n-3 that breaks SMEC, per the sharp bound.

    Deterministic choices: u0 is the lowest vertex id, u its lowest
    neighbor, v the lowest vertex outside u0's closed neighborhood. The
    faults remove every edge at u0 except the one to u, leaving u0 a dead
    end, so at most 2n-3 of u's 2n-2 edges can start disjoint u-v paths.
    """
    n = L.base_dimension
    size = require_dimension("tight-uncond", n).faults(n)
    g = L.graph
    u0 = 0
    u = min(g.neighbors(u0))
    faults = tuple(_strip(g, u0, (u,)))
    return _tightness_witness(g, faults, size, u, (u0,))


def tightness_conditional(L: LineGraph) -> TightnessWitness:
    """Fault set of size 4n-9 with min degree >= 2 that still breaks SMEC.

    The triangle u < u1 < u2 is the three lowest line vertices sharing the
    lowest base vertex; u3 is u2's lowest neighbor outside the triangle.
    The faults strip u2 down to {u, u1, u3} and u1 down to {u, u2}, so the
    set {u, u1, u2} has only 2n-3 outgoing edges and any v outside its
    neighborhood is reachable by at most 2n-3 disjoint paths.
    """
    n = L.base_dimension
    size = require_dimension("tight-cond", n).faults(n)
    g = L.graph
    base_x = 0  # base graph is n-regular with n >= 4, so degree >= 3 holds
    clique = sorted(
        i for i, e in enumerate(L.edge_of_vertex) if base_x in e)
    if len(clique) < 3:
        raise RuntimeError("no triangle at the lowest base vertex; "
                           "line graph integrity failure")
    u, u1, u2 = clique[:3]
    faults = _triangle_faults(g, u, u1, u2)
    if faults is None:
        raise RuntimeError("u2 has no neighbor outside the triangle")
    return _tightness_witness(g, faults, size, u, (u, u1, u2))


def _tightness_witness(g: Graph, faults: tuple[Edge, ...], size: int, u: int,
                       core: tuple[int, ...]) -> TightnessWitness:
    """Both constructions leave the core deg(u) - 1 = 2n-3 live edges to the
    rest of the graph, which bounds the u-v paths for any far vertex v."""
    if len(faults) != size:
        raise RuntimeError("construction size mismatch; line graph is not "
                           "regular of the expected degree")
    v = next(_far_vertices(g, core))
    return TightnessWitness(faults, u, v, g.degree(u) - 1, core)


def check_tightness(L: LineGraph, conditional: bool,
                    all_witnesses: bool = False,
                    target: Optional[dict] = None) -> VerificationReport:
    """Run a tightness construction and confirm it certifies a violation.

    The report's `failures` count is the number of confirmed violating
    pairs (1 when the construction works, more under all_witnesses), so a
    working construction yields a counterexample report. With
    all_witnesses=True every admissible v is checked, not only the
    deterministic lowest one. engine.min_cuts gives each candidate its
    exact path count and minimum cut: one flow from u to the first
    candidate, then for each other one a capped flow from a neighbouring
    candidate that confirms it shares that cut.
    """
    started = time.perf_counter()
    g = L.graph
    witness = (tightness_conditional(L) if conditional
               else tightness_unconditional(L))
    engine = UnitFlowEngine(g.n_vertices, g.edges)
    edge_index = {e: i for i, e in enumerate(g.edges)}
    engine.set_fault_indices([edge_index[e] for e in witness.fault_set])
    deg = engine.degrees

    candidates = (list(_far_vertices(g, witness.core)) if all_witnesses
                  else [witness.v])

    confirmed = []
    cuts = engine.min_cuts(witness.u, candidates)
    for v, (paths, cut) in zip(candidates, cuts):
        required = min(deg[witness.u], deg[v])
        if paths < required:
            confirmed.append(SmecWitness(witness.u, v, paths, required,
                                         tuple(cut)).to_dict())

    result_witness = None
    if confirmed:
        result_witness = {
            "fault_edges": [list(e) for e in witness.fault_set],
            "fault_size": len(witness.fault_set),
            "expected_max_paths": witness.expected_max_paths,
            "min_degree_after": min(deg),
            **confirmed[0],
        }
        if conditional:
            _, u1, u2 = witness.core
            result_witness["triangle"] = list(witness.core)
            result_witness["deg_u1_after"] = deg[u1]
            result_witness["deg_u2_after"] = deg[u2]
    return VerificationReport(
        check_name="tight-cond" if conditional else "tight-uncond",
        target=target or {"line_vertices": g.n_vertices,
                          "base_dimension": L.base_dimension},
        mode="direct",
        parameters={
            "conditional": conditional,
            "all_witnesses": all_witnesses,
            "expected_fault_size": len(witness.fault_set),
        },
        counts={"visited": len(candidates), "skipped_conditional": 0,
                "failures": len(confirmed)},
        witness=result_witness,
        details=confirmed if all_witnesses else [],
        timing_seconds=time.perf_counter() - started,
    )
