"""A slow reference verifier for whole campaign reports, built on networkx.

Used only in tests. `reference_json` gives, for a `verify` request of a
campaign check, the canonical JSON (the report without its timing field)
that `hlmenger verify` must print. It shares with the package only the
network and line-graph builders (util.lgraph), the SplitMix64 generator
and the edge-tuple adversarial suite (util.reference_suite). The draws,
the conditional admission, every verdict, the counts and the witness are
computed here, each fault set F on a networkx copy of L - F.

Floors: the largest of nx.connected_components.

SMEC: a pair (u, v) violates when lambda(u, v) < min(deg u, deg v) in
L - F. Not every pair is flowed. Let r be the lowest vertex of maximum
degree and D the vertices u with lambda(u, r) < deg u (hub lemma). A
violating pair has a cut delta(S) with u in S, v outside and
|delta(S)| < min(deg u, deg v). If r is outside S, the same cut gives
lambda(u, r) < deg u; otherwise it gives lambda(v, r) < deg v, as
deg r >= deg v. So every violating pair has an endpoint in D, L - F is
SMEC iff D is empty, and the pairs with no endpoint in D are skipped.

The witness is the first failing set's: in stream order, the admitted
adversarial suite and then the sweep; in that set, the first violating
pair in ascending order. Its path count is the value of an uncapped
edmonds_karp flow from u to v, and its cut is delta of the vertices that
u reaches in that flow's residual network, the smallest u-side of a
minimum cut, which every maximum flow gives. nx.minimum_cut would not
do: its partition is the complement of the vertices that reach v, which
differs whenever minimum cuts are not unique.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import chain, combinations, islice

import networkx as nx
from networkx.algorithms.connectivity import local_edge_connectivity
from networkx.algorithms.flow import build_residual_network, edmonds_karp

from hlmenger.rng import SplitMix64

from util import lgraph, reference_suite

# check -> (fault budget at n, component floor at n or None, conditional)
CHECKS = {
    "smec": (lambda n: 0, None, False),
    "ft-smec": (lambda n: 2 * n - 4, None, False),
    "cond-ft-smec": (lambda n: 4 * n - 10, None, True),
    "lemma32": (lambda n: 4 * n - 7, lambda n: n * 2 ** (n - 1) - 1, False),
    "lemma41": (lambda n: 6 * n - 13, lambda n: n * 2 ** (n - 1) - 2, False),
    "appendixA": (lambda n: 11, lambda n: 30, False),
}


def _line(family: str, n: int, seed):
    return lgraph(family, n, seed if family == "random" else None)


def _faulted(family: str, n: int, seed, idx) -> nx.Graph:
    g = _line(family, n, seed).graph
    h = nx.Graph()
    h.add_nodes_from(range(g.n_vertices))
    dead = set(idx)
    h.add_edges_from(e for k, e in enumerate(g.edges) if k not in dead)
    return h


def _arcs(h: nx.Graph) -> nx.DiGraph:
    d = nx.DiGraph()
    d.add_nodes_from(h)
    for a, b in h.edges:
        d.add_edge(a, b, capacity=1)
        d.add_edge(b, a, capacity=1)
    return d


def _min_cut(h: nx.Graph, arcs: nx.DiGraph, u: int, v: int):
    """(lambda(u, v), cut): the cut is delta of u's side of the residual
    network of an edmonds_karp flow, as ascending edges (a, b), a < b."""
    residual = edmonds_karp(arcs, u, v)
    side, stack = {u}, [u]
    while stack:
        x = stack.pop()
        for y, arc in residual.succ[x].items():
            if y not in side and arc["capacity"] - arc["flow"] > 0:
                side.add(y)
                stack.append(y)
    cut = sorted(tuple(sorted(e)) for e in h.edges
                 if (e[0] in side) != (e[1] in side))
    return residual.graph["flow_value"], cut


@lru_cache(maxsize=None)
def smec_failure(family: str, n: int, seed, idx: tuple):
    """None when L - F is SMEC, else its failure witness without the
    fault edges: the first violating pair, its path count, its
    requirement and its cut."""
    h = _faulted(family, n, seed, idx)
    deg = dict(h.degree)
    arcs = _arcs(h)
    residual = build_residual_network(arcs, "capacity")
    r = min(h, key=lambda x: (-deg[x], x))
    deficient = {u for u in h if u != r and deg[u] and local_edge_connectivity(
        h, u, r, auxiliary=arcs, residual=residual, cutoff=deg[u]) < deg[u]}
    for u, v in combinations(sorted(h), 2):
        need = min(deg[u], deg[v])
        if need and (u in deficient or v in deficient):
            paths, cut = _min_cut(h, arcs, u, v)
            if paths < need:
                return {"pair": [u, v], "path_count": paths,
                        "required": need, "cut": [list(e) for e in cut]}
    if deficient:
        raise AssertionError("a deficient vertex with no violating pair")
    return None


@lru_cache(maxsize=None)
def largest_component(family: str, n: int, seed, idx: tuple) -> int:
    h = _faulted(family, n, seed, idx)
    return max(map(len, nx.connected_components(h)), default=0)


def _draws(n_edges: int, m: int, seed: int):
    """The sampler's endless draws: m faults four times in five, else a
    uniform smaller size, each a sorted sample of edge indices."""
    rng = SplitMix64(seed)
    while True:
        if m == 0:
            size = 0
        elif rng.randbelow(5) < 4:
            size = m
        else:
            size = rng.randbelow(m)
        yield tuple(rng.sample_indices(n_edges, size))


def reference_json(check: str, family: str, n: int, seed, m: int,
                   mode: str, samples: int, adversarial: bool) -> str:
    """The canonical JSON of `hlmenger verify --check check --family family
    --n n [--seed seed] [--m m --mode mode --samples samples
    --adversarial]`; mode is "exhaustive" or "sample", and check "smec"
    takes m = 0, exhaustive, with no suite."""
    budget, floor, conditional = CHECKS[check]
    L = _line(family, n, seed)
    g = L.graph
    n_edges = len(g.edges)
    sampled = mode == "sample"
    counts = {"visited": 0, "skipped_conditional": 0, "failures": 0}

    def admitted(sets):
        for idx in sets:
            if conditional and min(
                    d for _, d in _faulted(family, n, seed, idx).degree) < 2:
                counts["skipped_conditional"] += 1
            else:
                yield idx

    suite = reference_suite(L, m) if adversarial else []
    if sampled:
        sweep = islice(admitted(_draws(n_edges, m, seed or 0)), samples)
    else:
        sweep = admitted(chain.from_iterable(
            combinations(range(n_edges), k) for k in range(m + 1)))
    witness = None
    for idx in chain(admitted(suite), sweep):
        counts["visited"] += 1
        if floor is None:
            failure = smec_failure(family, n, seed, idx)
        else:
            size = largest_component(family, n, seed, idx)
            failure = None if size >= floor(n) else {
                "largest_component": size, "floor": floor(n)}
        if failure is not None:
            counts["failures"] += 1
            if witness is None:
                witness = {"fault_edges": [list(g.edges[k]) for k in idx],
                           **failure}
    target = {"family": family, "n": n}
    if family == "random":
        target["seed"] = seed
    parameters = {
        "m": m,
        "mode": "sampled" if sampled else "exhaustive",
        "conditional": conditional,
        "samples": samples if sampled else None,
        "seed": (seed or 0) if sampled else None,
        "sizes_policy": "default",
        "adversarial": adversarial,
        "adversarial_count": len(suite),
        "prng": "splitmix64-v1",
        "pair_order": "ascending-lexicographic",
        "fault_order": "sizes-ascending-then-lex-by-edge-index",
    }
    if floor is not None:
        parameters["floor"] = floor(n)
    report = {
        "check_name": check,
        "target": target,
        "mode": parameters["mode"],
        "parameters": parameters,
        "counts": counts,
        "witness": witness,
        "details": [],
        "schema_version": "1",
    }
    return json.dumps(report, indent=2, sort_keys=True)
