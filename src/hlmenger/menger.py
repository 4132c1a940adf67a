"""Strong Menger edge connectivity verification under edge faults.

A graph is strongly Menger edge connected (SMEC) when every pair of distinct
vertices u, v is joined by min(deg(u), deg(v)) edge-disjoint paths. The
checks here inject edge fault sets into a line graph and verify either the
SMEC predicate or the giant-component floor, exhaustively or by seeded
sampling, in unconditional or conditional (min degree >= 2 after faults)
mode; conditional mode admits each set where it is produced (_admitted),
so the evaluation loop only evaluates. Every extremal fault pattern is a
cut-off delta(S) - K, the edges leaving a small side S less a kept set K,
and one writer, _cutoff, gives each as ascending edge indices read off
the graph's incidence maps. The adversarial suite holds three of them,
vertex strips (S = {v}, K empty), near-isolating splits (S = {v},
K = {vu}) and 4n-9 triangle strips (S = {u1, u2}, K = {u1u, u2u, u2u3}),
and windows of f-incident edges. The two constructions that certify the
fault-tolerance bounds are tight are the first split and the first
triangle strip of that suite.
`BOUNDS` is the one table of the paper's numeric claims: each check's
fault budget or construction size, component floor and the dimensions it
holds for; the CLI, the constructions and the tests read it.

All path counts are exact. Per fault set F of a campaign on L(HL_n) the
verdict and the witness pair come from the small sides of L - F on the
base network (smallsides, no flow) whenever kappa(HL_n) > mu at the
campaign's budget; otherwise, and in is_smec, from the cold SMEC hub
check, _campaign_exec.deficient_vertices, and smec_witness's scan of
the pairs with a deficient endpoint, one capped flow each. Each module
describes its check with its proof. A campaign computes one witness, one
minimum cut of the pair, for its first failing set alone, in the calling
process (see _campaign_exec).
The tightness checks confirm their far vertices with
UnitFlowEngine.min_cuts: one flow from u to the first far vertex gives
the cut, and capped flows from it to a dominating set of the far side
confirm at once that every other far vertex shares that cut (the
dominating-set lemma, flow). A far vertex the certificate cannot confirm
gets its own min_cut, so the reports do not depend on which path gave
a cut. Campaign
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
from .graph import BudgetExceeded, Edge, Graph, incidence
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
    in ascending (u, v) order, found by one capped flow per pair with an
    endpoint the hub check found deficient, with a minimum-cut
    certificate of its path count.
    """
    w = smec_witness(UnitFlowEngine(g.n_vertices, g.edges))
    return SmecVerdict(w is None, w)


# ---------------------------------------------------------------------------
# Fault-set sources
# ---------------------------------------------------------------------------


def _cutoff(inc: list[dict[int, int]], side: Sequence[int],
            keep: Sequence[tuple[int, ...]]) -> list[int]:
    """delta(side) - K in ascending edge indices, with inc = incidence(g):
    the edges at side[i] to neighbours outside keep[i], for each i.
    keep[i] holds the members of side adjacent to side[i], whose edges are
    not in the cut, and the far ends of the kept edges K at side[i]."""
    if len(side) > 1:
        return sorted([k for v, kept in zip(side, keep)
                       for w, k in inc[v].items() if w not in kept])
    # inc[v] iterates in ascending index order: no sort
    (v,), (kept,) = side, keep
    return [k for w, k in inc[v].items() if w not in kept]


def _triangle_strips(inc: list[dict[int, int]]) -> Iterator[tuple]:
    """(u, side, keep) of the 4n-9 pattern for every triangle (_triangles
    order) and vertex assignment (u, u1, u2) (permutations order): S =
    (u1, u2) and K = {u1u, u2u, u2u3}, with u3 u2's lowest neighbour
    outside the triangle; an assignment without such a u3 is skipped."""
    for triangle in _triangles(inc):
        for u, u1, u2 in permutations(triangle):
            u3 = next((w for w in inc[u2] if w != u and w != u1), None)
            if u3 is not None:
                yield u, (u1, u2), ((u, u2), (u, u1, u3))


def _patterns(L: LineGraph, budget: int) -> Iterator[Sequence[int]]:
    """The suite's patterns in adversarial_fault_indices' order, before
    its dedupe and budget filter."""
    g = L.graph
    inc = incidence(g)
    for v in range(g.n_vertices):
        yield _cutoff(inc, (v,), ((),))[:budget]

    if budget >= 1:
        for v, at_v in enumerate(inc):
            side = (v,)
            for u in at_v:
                yield _cutoff(inc, side, ((u,),))[:budget]

    if 2 * g.min_degree() - 5 <= budget:
        for _, side, keep in _triangle_strips(inc):
            yield _cutoff(inc, side, keep)

    if L.f_vertices and budget >= 1:
        fv = L.f_vertices
        ef = [k for k, (a, b) in enumerate(g.edges) if a in fv or b in fv]
        for start in range(len(ef) - budget + 1):
            yield ef[start:start + budget]


def adversarial_fault_indices(L: LineGraph, budget: int) -> list[tuple[int, ...]]:
    """Deterministic stress suite mirroring the extremal proof cases.

    Every pattern but the last is a cut-off delta(S) - K (_cutoff): the
    edges leaving a small side S, less a kept set K. The patterns come
    from one generator, _patterns, in this order:
    * vertex strips, S = {v} and K empty, for every vertex v: the first
      min(budget, deg v) edges of v;
    * near-isolating splits, S = {v} and K = {vu}, for every adjacent pair
      (v, u), truncated the same way: the pattern of the 2n-3
      construction (tightness_unconditional);
    * triangle strips, S = {u1, u2} and K = {u1u, u2u, u2u3}, for every
      triangle and vertex assignment (u, u1, u2) (_triangle_strips): the
      4n-9 pattern of the conditional construction, with
      deg u1 + deg u2 - 5 edges, so no triangle is listed when twice the
      minimum degree less 5 passes the budget;
    * every contiguous window of `budget` f-incident edges, when the line
      graph knows its f-vertices.
    Every pattern comes as ascending edge indices read off incidence(g),
    so a set is keyed as it comes and no edge is looked up. The suite
    keeps the patterns of at most `budget` edges, each at its first
    place: dict.fromkeys drops the repeats, in the order they come.
    """
    if budget > len(L.graph.edges):
        raise ValueError("budget exceeds the number of edges")
    return list(dict.fromkeys(key for key in map(tuple, _patterns(L, budget))
                              if len(key) <= budget))


def _triangles(inc: list[dict[int, int]]) -> Iterator[tuple[int, int, int]]:
    """All triangles (a, b, c) with a < b < c of the graph whose incidence
    is inc, in lexicographic order."""
    for a, at_a in enumerate(inc):
        nbrs = [w for w in at_a if w > a]
        for b, c in combinations(nbrs, 2):
            if c in inc[b]:
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
    counters["skipped_conditional"]. Only the ends of F's edges lose
    degree, so the base's minimum degree is read once and each set costs
    O(|F|): it is admitted iff the base's minimum degree is >= 2 and each
    end of F keeps degree >= 2."""
    edges = g.edges
    deg = [g.degree(v) for v in range(g.n_vertices)]
    whole = min(deg) >= 2
    for idx in sets:
        for k in idx:
            a, b = edges[k]
            deg[a] -= 1
            deg[b] -= 1
        kept = whole
        for k in idx:
            # each end is tested before its first restore: at its
            # degree in g - F
            a, b = edges[k]
            if deg[a] < 2 or deg[b] < 2:
                kept = False
            deg[a] += 1
            deg[b] += 1
        if kept:
            yield idx
        else:
            counters["skipped_conditional"] += 1


# ---------------------------------------------------------------------------
# Campaign driver
# ---------------------------------------------------------------------------


# progress(visited, total, failures, elapsed seconds) after each chunk
Progress = Callable[[int, int, int, float], None]


def _drive(L: LineGraph, c: FaultCampaign, floor: Optional[int],
           target: Optional[dict], jobs: int,
           progress: Optional[Progress] = None) -> VerificationReport:
    """The campaign c on L, of SMEC when floor is None, else of the
    component floor. A floor campaign reports as component-floor with
    its floor among the parameters, a SMEC one as cond-ft-smec or
    ft-smec."""
    g = L.graph
    n_edges = len(g.edges)
    if c.m < 0:
        raise ValueError(f"m={c.m} must be >= 0")
    if c.samples < 0:
        raise ValueError(f"samples={c.samples} must be >= 0")
    if c.m > n_edges:
        raise ValueError(f"m={c.m} exceeds the {n_edges} available edges")
    counters = {"visited": 0, "skipped_conditional": 0, "failures": 0}

    def admit(sets: Iterable[tuple[int, ...]]) -> Iterable[tuple[int, ...]]:
        return _admitted(g, sets, counters) if c.conditional else sets

    swept = c.samples     # sets the sweep yields before admission
    if c.mode == "exhaustive":
        swept = _exhaustive_count(n_edges, c.m)
        if swept > c.budget:
            raise BudgetExceeded(
                f"exhaustive sweep of {swept} fault sets exceeds budget {c.budget}")
        sweep = admit(_exhaustive_stream(n_edges, c.m))
    elif c.mode != "sampled":
        raise ValueError(f"unknown campaign mode {c.mode!r}")
    elif c.conditional and g.min_degree() < 2:
        # every F has delta(G-F) <= delta(G) < 2: rejection would never end
        raise ValueError("graph already violates the min-degree-2 condition")
    else:
        sweep = islice(admit(_sample_stream(g, c)), c.samples)

    started = time.perf_counter()
    adversarial = (adversarial_fault_indices(L, c.m) if c.adversarial else [])
    on_chunk = None
    if progress is not None:
        total = len(adversarial) + swept

        def on_chunk():
            progress(counters["visited"], total, counters["failures"],
                     time.perf_counter() - started)
    witness = _exec.evaluate_stream(
        L, c.m, chain(admit(adversarial), sweep), floor, counters, jobs,
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
    check_name = "cond-ft-smec" if c.conditional else "ft-smec"
    if floor is not None:
        check_name, params["floor"] = "component-floor", floor
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
    return _drive(L, c, None, target, jobs, progress)


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
    return _drive(L, c, floor, target, jobs, progress)


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

    The suite's first near-isolating split: S = {u0} with u0 = 0 and K the
    edge to u, u0's lowest neighbor; v is the lowest vertex outside u0's
    closed neighborhood. The faults remove every edge at u0 except the one
    to u, leaving u0 a dead end, so at most 2n-3 of u's 2n-2 edges can
    start disjoint u-v paths.
    """
    n = L.base_dimension
    size = require_dimension("tight-uncond", n).faults(n)
    g = L.graph
    inc = incidence(g)
    u = min(inc[0])
    return _tightness_witness(g, _cutoff(inc, (0,), ((u,),)), size, u, (0,))


def tightness_conditional(L: LineGraph) -> TightnessWitness:
    """Fault set of size 4n-9 with min degree >= 2 that still breaks SMEC.

    The suite's first triangle strip (_triangle_strips). L's first
    triangle u < u1 < u2 is (0, 1, 2), the three lowest edges at base
    vertex 0, which has degree n >= 4, and u3 is u2's lowest neighbor
    outside it. The faults strip u2 down to {u, u1, u3} and u1 down to
    {u, u2}, so the set {u, u1, u2} has only 2n-3 outgoing edges and any
    v outside its neighborhood is reachable by at most 2n-3 disjoint
    paths.
    """
    n = L.base_dimension
    size = require_dimension("tight-cond", n).faults(n)
    g = L.graph
    inc = incidence(g)
    u, side, keep = next(_triangle_strips(inc))
    return _tightness_witness(g, _cutoff(inc, side, keep), size, u,
                              (u, *side))


def _tightness_witness(g: Graph, fault_idx: Sequence[int], size: int,
                       u: int, core: tuple[int, ...]) -> TightnessWitness:
    """Both constructions leave the core deg(u) - 1 = 2n-3 live edges to the
    rest of the graph, which bounds the u-v paths for any far vertex v.
    fault_idx are the construction's ascending edge indices."""
    if len(fault_idx) != size:
        raise RuntimeError("construction size mismatch; line graph is not "
                           "regular of the expected degree")
    v = next(_far_vertices(g, core))
    return TightnessWitness(tuple(g.edges[k] for k in fault_idx), u, v,
                            g.degree(u) - 1, core)


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
    candidate, then capped flows from it to a dominating set of the far
    side, which confirm that every other candidate shares that cut.
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
