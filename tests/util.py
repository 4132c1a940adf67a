"""Shared helpers for the test suite: cached corpus builders and oracles."""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb

from hlmenger import (
    BudgetExceeded,
    Graph,
    HLNetwork,
    LineGraph,
    NAMED_FAMILIES,
    build_graph,
    components,
    gen_family,
    gen_random_hl,
    largest_component_size,
    max_edge_disjoint_paths,
    remove_edges,
)
from hlmenger.graph import canonical_edge, is_connected, split_network
from hlmenger.linegraph import BCDCPair, line_graph_of_hl
from hlmenger.rng import SplitMix64

RANDOM_SEEDS = (1, 2, 3, 4, 5)

# 16 vertices, 4-regular, with a perfect matching across the top half
# boundary, kappa = lambda = 4; but the left half holds the triangle
# 0-2-6, so the coding is not HL_4 below the top bit level
NOT_HL4_EDGES = (
    (0, 1), (0, 2), (0, 6), (1, 5), (1, 7), (2, 4), (2, 6), (3, 4), (3, 6),
    (3, 7), (4, 5), (5, 7), (8, 10), (8, 12), (8, 13), (9, 10), (9, 14),
    (9, 15), (10, 11), (11, 12), (11, 13), (12, 14), (13, 15), (14, 15),
    (0, 8), (1, 9), (2, 10), (3, 11), (4, 12), (5, 13), (6, 14), (7, 15),
)


@lru_cache(maxsize=None)
def network(kind: str, n: int, seed: int | None = None) -> HLNetwork:
    if kind == "random":
        return gen_random_hl(n, seed)
    return gen_family(kind, n)


@lru_cache(maxsize=None)
def lgraph(kind: str, n: int, seed: int | None = None) -> LineGraph:
    return line_graph_of_hl(network(kind, n, seed))


def corpus(n: int) -> list[tuple[str, HLNetwork]]:
    """The acceptance corpus: every named family plus five seeded randoms."""
    out = [(kind, network(kind, n)) for kind in NAMED_FAMILIES]
    out.extend((f"random{s}", network("random", n, s)) for s in RANDOM_SEEDS)
    return out


def random_graph(seed: int, max_vertices: int = 8, max_edges: int = 14) -> Graph:
    """Seeded random simple graph within the given size bounds.

    The edge count takes the max of two uniform draws to bias toward
    denser graphs, which exercise larger cut values.
    """
    rng = SplitMix64(seed)
    n = 2 + rng.randbelow(max_vertices - 1)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    cap = min(max_edges, len(pairs))
    k = max(rng.randbelow(cap + 1), rng.randbelow(cap + 1))
    idx = rng.sample_indices(len(pairs), k)
    return build_graph(n, [pairs[i] for i in idx])


def bottleneck_graph(seed: int) -> Graph:
    """Seeded random graph with a planted small separator.

    Vertices 0..k-1 (k = 1..3) join two random blocks of 5..8 vertices,
    each a complete graph less up to a sixth of its edges, and each of
    them joins 2 or 3 random vertices of each block. So kappa <= k, below
    the minimum degree as a rule, and the low ids make a joining vertex
    the first of minimum degree whenever one has it.
    """
    rng = SplitMix64(seed)
    k = 1 + rng.randbelow(3)
    edges: list[tuple[int, int]] = []
    blocks = []
    for _ in range(2):
        first = k + sum(len(b) for b in blocks)
        block = list(range(first, first + 5 + rng.randbelow(4)))
        pairs = list(combinations(block, 2))
        kept = len(pairs) - rng.randbelow(len(pairs) // 6 + 1)
        edges += [pairs[i] for i in rng.sample_indices(len(pairs), kept)]
        blocks.append(block)
    for c in range(k):
        for block in blocks:
            for i in rng.sample_indices(len(block), 2 + rng.randbelow(2)):
                edges.append((c, block[i]))
    return build_graph(k + sum(len(b) for b in blocks), edges)


def brute_force_min_cut(g: Graph, u: int, v: int, limit: int,
                        budget: int = 5_000_000) -> int:
    """Smallest k < limit such that deleting some k edges separates u and v.

    Independent oracle for the max-flow path counter: enumerates edge
    subsets exhaustively in size order and tests separation by plain DFS.
    Refuses (BudgetExceeded) when the number of subsets to visit would pass
    `budget`. Raises ValueError if no cut smaller than `limit` exists.
    """
    g._check_vertex(u)
    g._check_vertex(v)
    if u == v:
        raise ValueError("endpoints must be distinct")
    m = len(g.edges)
    total = sum(comb(m, k) for k in range(min(limit, m + 1)))
    if total > budget:
        raise BudgetExceeded(
            f"{total} edge subsets exceed the budget of {budget}")

    adj = [[] for _ in range(g.n_vertices)]
    for idx, (a, b) in enumerate(g.edges):
        adj[a].append((b, idx))
        adj[b].append((a, idx))

    removed = bytearray(m)

    def separated() -> bool:
        stack = [u]
        seen = bytearray(g.n_vertices)
        seen[u] = 1
        while stack:
            x = stack.pop()
            for y, idx in adj[x]:
                if not removed[idx] and not seen[y]:
                    if y == v:
                        return False
                    seen[y] = 1
                    stack.append(y)
        return True

    for k in range(min(limit, m + 1)):
        for subset in combinations(range(m), k):
            for idx in subset:
                removed[idx] = 1
            if separated():
                return k
            for idx in subset:
                removed[idx] = 0
    raise ValueError(f"no (u,v)-edge cut of size < {limit} exists")


def naive_vertex_connectivity(g: Graph) -> int:
    """Enumerate vertex subsets in size order until one disconnects g."""
    if largest_component_size(g) < g.n_vertices:
        return 0
    for k in range(g.n_vertices):
        for subset in combinations(range(g.n_vertices), k):
            dropped = set(subset)
            keep = [v for v in range(g.n_vertices) if v not in dropped]
            if len(keep) <= 1:
                return k
            relabel = {v: i for i, v in enumerate(keep)}
            sub = build_graph(
                len(keep),
                [(relabel[a], relabel[b]) for a, b in g.edges
                 if a in relabel and b in relabel])
            if largest_component_size(sub) < len(keep):
                return k
    return g.n_vertices - 1


def eh_vertex_connectivity(g: Graph) -> int:
    """kappa(G) by Esfahanian and Hakimi (1984): with v0 of minimum degree,
    the minimum of deg v0, of an uncapped flow from v0 to each
    non-neighbour and of one between each non-adjacent pair of v0's
    neighbours, each from zero flow in the split network. The reference
    for graph.vertex_connectivity's prefix fans."""
    n = g.n_vertices
    if n <= 1 or not is_connected(g):
        return 0
    if len(g.edges) == n * (n - 1) // 2:
        return n - 1
    net = split_network(g)
    v0 = min(range(n), key=g.degree)
    best = g.degree(v0)
    closed = set(g.neighbors(v0)) | {v0}
    for v in range(n):
        if v not in closed:
            best = min(best, net.max_flow(v0 + n, v))
    for x, y in combinations(g.neighbors(v0), 2):
        if not g.has_edge(x, y):
            best = min(best, net.max_flow(x + n, y))
    return best


def naive_is_smec(g: Graph) -> tuple[bool, tuple | None]:
    """Direct pair-by-pair SMEC check, independent of the Gusfield tree."""
    for u in range(g.n_vertices):
        for v in range(u + 1, g.n_vertices):
            required = min(g.degree(u), g.degree(v))
            if required == 0:
                continue
            if max_edge_disjoint_paths(g, u, v).value < required:
                return False, (u, v)
    return True, None


def gusfield_tree(engine) -> tuple[list[int], list[int]]:
    """Equivalent-flow tree of the engine's graph under its installed
    faults: (parent, weight) arrays, vertex 0 is the root.

    The minimum s-t edge cut equals the smallest weight on the s-t path
    of this tree, for every vertex pair (Gusfield 1990).
    """
    n = engine.n
    parent = [0] * n
    weight = [0] * n
    for i in range(1, n):
        t = parent[i]
        flow, side = engine.max_flow_with_side(i, t)
        weight[i] = flow
        for j in range(i + 1, n):
            if parent[j] == t and side[j]:
                parent[j] = i
    return parent, weight


def all_pairs_min_cut(engine) -> list[list[int]]:
    """Matrix of min cut values for all pairs, via the Gusfield tree."""
    n = engine.n
    parent, weight = gusfield_tree(engine)
    tree: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i in range(1, n):
        tree[i].append((parent[i], weight[i]))
        tree[parent[i]].append((i, weight[i]))
    rows = []
    for root in range(n):
        row = [0] * n
        seen = [False] * n
        seen[root] = True
        stack = [(root, float("inf"))]
        while stack:
            u, running = stack.pop()
            for v, w in tree[u]:
                if not seen[v]:
                    seen[v] = True
                    m = running if running < w else w
                    row[v] = m
                    stack.append((v, m))
        rows.append(row)
    return rows


def live_paths(engine, hub: int) -> list[list[tuple[int, ...]]]:
    """Per vertex u, the stored u->hub paths that avoid the engine's
    installed faults, by a scan of every stored path: the reference for
    the paths UnitFlowEngine.hub_starts finds through its edge index."""
    dead = {a for k in engine.fault for a in (2 * k, 2 * k + 1)}
    return [[p for p in paths if dead.isdisjoint(p)]
            for paths in engine.stored_paths(hub)]


def cut_disconnects(g: Graph, u: int, v: int, cut) -> bool:
    """True iff removing the cut edges separates u from v in g."""
    stripped = remove_edges(g, [tuple(e) for e in cut])
    comp = next(c for c in components(stripped) if u in c)
    return v not in comp


def bcdc_rule_agreement(pair: BCDCPair) -> bool:
    """True iff servers are adjacent in the logical graph exactly when they
    share a switch in the original graph."""
    n_switch = pair.n_switches
    original = pair.original
    logical = pair.logical.graph
    if logical.n_vertices != original.n_vertices - n_switch:
        return False
    servers_at_switch: list[list[int]] = [[] for _ in range(n_switch)]
    for v in range(n_switch, original.n_vertices):
        nbrs = original.neighbors(v)
        if len(nbrs) != 2 or any(w >= n_switch for w in nbrs):
            return False
        for w in nbrs:
            servers_at_switch[w].append(v - n_switch)
    shared = set()
    for group in servers_at_switch:
        for a in range(len(group)):
            for b in range(a + 1, len(group)):
                shared.add(canonical_edge(group[a], group[b]))
    return shared == set(logical.edges)
