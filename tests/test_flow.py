"""Differential tests for flow._augment, the one augmenting loop.

Each case runs the loop on a seeded network: an undirected random graph
in UnitFlowEngine's layout, with and without faults, from stored start
paths and under cutoffs, or a directed network of unit arcs (random arcs,
or the vertex split network of graph.split_network, between vertex pairs
and in fans from its source node, some warm-started). The value must
equal that of a one-sided BFS augmenting loop kept here as the reference,
and the returned side must equal the residual closure from s, computed
here from the loop's final capacities and by the reference. The final
capacities must equal those of a second reference, the same bidirectional
search order written over the forward arcs alone, so the loop takes the
same augmenting paths whichever arc view it scans. networkx, when
installed, checks the public methods that wrap the loop.
"""

from collections import Counter, deque

import pytest

from hlmenger.flow import DirectedFlow, UnitFlowEngine, _augment
from hlmenger.graph import split_network
from hlmenger.rng import SplitMix64

from util import random_graph

SEEDS = range(40)


def reference(adj, head, cap, s, t, cutoff, start):
    """The classical loop: each path from a BFS of the residual from s
    alone. Returns the flow and the marked s-side, None under cutoff."""
    for path in start:
        for a in path:
            cap[a] -= 1
            cap[a ^ 1] += 1
    flow = len(start)
    while cutoff is None or flow < cutoff:
        parent = [-1] * len(adj)
        parent[s] = -2
        queue = deque((s,))
        while queue and parent[t] == -1:
            u = queue.popleft()
            for a in adj[u]:
                if cap[a] and parent[head[a]] == -1:
                    parent[head[a]] = a
                    queue.append(head[a])
        if parent[t] == -1:
            return flow, [p != -1 for p in parent]
        v = t
        while v != s:
            a = parent[v]
            cap[a] -= 1
            cap[a ^ 1] += 1
            v = head[a ^ 1]
        flow += 1
    return flow, None


def expand(adj, head, cap, level, mine, other, backward):
    """One level of a search tree: scan each arc b out of the level, or
    its twin b ^ 1 into the level when `backward`, and mark far ends.
    Returns the next level and the first vertex both trees mark, or -1."""
    nxt = []
    for x in level:
        for b in adj[x]:
            a = b ^ 1 if backward else b
            v = head[b]
            if cap[a] and mine[v] == -1:
                mine[v] = a
                if other[v] != -1:
                    return nxt, v
                nxt.append(v)
    return nxt, -1


def bidirectional(adj, head, cap, s, t, cutoff, start):
    """The loop's search order written over adj and head alone: a level of
    the smaller frontier per step, forward on ties. Augments `cap` in
    place along the paths the loop must take; returns the flow."""
    for path in start:
        for a in path:
            cap[a] -= 1
            cap[a ^ 1] += 1
    flow = len(start)
    while cutoff is None or flow < cutoff:
        fwd = [-1] * len(adj)
        bwd = [-1] * len(adj)
        fwd[s] = bwd[t] = -2
        front, back, meet = [s], [t], -1
        while front and back and meet == -1:
            if len(front) <= len(back):
                front, meet = expand(adj, head, cap, front, fwd, bwd, False)
            else:
                back, meet = expand(adj, head, cap, back, bwd, fwd, True)
        if meet == -1:
            return flow
        v = meet
        while v != s:
            a = fwd[v]
            cap[a] -= 1
            cap[a ^ 1] += 1
            v = head[a ^ 1]
        v = meet
        while v != t:
            a = bwd[v]
            cap[a] -= 1
            cap[a ^ 1] += 1
            v = head[a]
        flow += 1
    return flow


def closure(adj, head, cap, s):
    """Vertices reachable from s over arcs with residual capacity."""
    seen = [False] * len(adj)
    seen[s] = True
    stack = [s]
    while stack:
        u = stack.pop()
        for a in adj[u]:
            if cap[a] and not seen[head[a]]:
                seen[head[a]] = True
                stack.append(head[a])
    return seen


def level_sizes(adj, head, cap, root, backward):
    """Sizes of the BFS levels from root over residual arcs; with
    `backward`, over arcs into the level (b ^ 1 for b in adj[x])."""
    seen = {root}
    level = [root]
    sizes = []
    while level:
        sizes.append(len(level))
        nxt = []
        for x in level:
            for b in adj[x]:
                if cap[b ^ 1 if backward else b] and head[b] not in seen:
                    seen.add(head[b])
                    nxt.append(head[b])
        level = nxt
    return sizes


def exit_kind(adj, head, cap, s, t):
    """Which frontier of the loop's last search ran dry, given the final
    residual. With no s-t path left the two searches never meet, so their
    frontiers are the BFS levels from s and into t; the loop expands the
    smaller one, the forward one on ties."""
    fwd = level_sizes(adj, head, cap, s, False)
    bwd = level_sizes(adj, head, cap, t, True)
    i = j = 0
    while i < len(fwd) and j < len(bwd):
        if fwd[i] <= bwd[j]:
            i += 1
        else:
            j += 1
    return "forward" if i == len(fwd) else "backward"


def check(net, cap, s, t, cutoff=None, start=()):
    """Run the loop on network `net`, which carries adj, radj, head and
    tail, and the references on its adj and head, on copies of `cap`;
    return the exit kind of the loop's last search, or None when the
    cutoff stopped it."""
    adj, head = net.adj, net.head
    ref_value, ref_side = reference(adj, head, cap[:], s, t, cutoff, start)
    final = cap[:]
    value, side = _augment(net, final, s, t, cutoff, start, [])
    assert value == ref_value, (s, t, cutoff)
    paths = cap[:]
    assert bidirectional(adj, head, paths, s, t, cutoff, start) == value
    assert final == paths, (s, t, cutoff)
    if cutoff is not None and value >= cutoff:
        assert side is ref_side is None
        return None
    assert side == closure(adj, head, final, s), (s, t)
    assert side == ref_side, (s, t)
    return exit_kind(adj, head, final, s, t)


def unit_engine(seed):
    """Engine on random graph `seed`; odd seeds fault a quarter of the
    edges. Returns the engine and its capacities with the faults zeroed."""
    g = random_graph(seed, max_vertices=12, max_edges=30)
    engine = UnitFlowEngine(g.n_vertices, g.edges)
    m = len(g.edges)
    if seed % 2:
        engine.set_fault_indices(SplitMix64(seed).sample_indices(m, m // 4))
    cap = [1] * (2 * m)
    for k in engine.fault:
        cap[2 * k] = cap[2 * k + 1] = 0
    return engine, cap


def unit_cases(seed):
    """Every ordered pair of the engine; flows into the first hub start
    from its stored paths that avoid the faults, and every third pair
    gets a cutoff."""
    engine, cap = unit_engine(seed)
    rng = SplitMix64(seed + 1000)
    hub = engine.hubs[0]
    starts = engine.hub_starts(hub)[1]
    for s in range(engine.n):
        for t in range(engine.n):
            if s == t:
                continue
            start = starts[s] if t == hub else ()
            cutoff = (len(start) + 1 + rng.randbelow(3)
                      if (s + t) % 3 == 0 else None)
            yield engine, cap, s, t, cutoff, start


def open_half_fan(g, seed):
    """split_network(g) with the source arcs open into a random half of
    the vertices, that half, and the index of vertex 0's source arc."""
    net = split_network(g)
    n = g.n_vertices
    first = len(net.head) - 2 * n
    opened = set(SplitMix64(seed).sample_indices(n, n // 2))
    for w in opened:
        net.set_open(first + 2 * w, True)
    return net, opened, first


def fan_start(net, n, first, opened, v):
    """The direct paths source -> w_in -> w_out -> v_in through the
    neighbours w of v whose source arcs are open."""
    return [(first + 2 * (x - n), 2 * (x - n), a) for a in net.radj[v]
            if n <= (x := net.tail[a]) < 2 * n and x - n in opened]


def split_cases(seed):
    """u_out -> v_in over every non-adjacent pair of random graph `seed`,
    then a fan into each other v_in from the source node, open into a
    random half of the vertices, warm-started on every other v."""
    g = random_graph(seed, max_vertices=10, max_edges=24)
    net, opened, first = open_half_fan(g, seed)
    n = g.n_vertices
    cap = net._template[:]
    for u in range(n):
        for v in range(n):
            if u != v and not g.has_edge(u, v):
                yield net, cap, u + n, v, None, ()
    for v in set(range(n)) - opened:
        start = fan_start(net, n, first, opened, v) if v % 2 else ()
        yield net, cap, 2 * n, v, None, start


def directed_network(seed):
    """Random directed network of unit arcs, no loops or parallel arcs."""
    rng = SplitMix64(seed)
    n = 3 + rng.randbelow(8)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = [pairs[i] for i in
            rng.sample_indices(len(pairs), rng.randbelow(len(pairs) // 2 + 1))]
    net = DirectedFlow(n)
    for u, v in arcs:
        net.add_arc(u, v)
    return net, arcs


def directed_cases(seed):
    net, _ = directed_network(seed)
    cap = [1, 0] * (len(net.head) // 2)
    n = len(net.adj)
    for s in range(n):
        for t in range(n):
            if s != t:
                yield net, cap, s, t


@pytest.mark.parametrize("seed", range(0, 40, 4))
def test_reverse_arcs_mirror_forward_arcs(seed):
    """tail[a] is head[a ^ 1], and radj[x] is exactly the arcs into x, the
    twins of adj[x] in adj order, in both network layouts."""
    nets = (unit_engine(seed)[0], directed_network(seed)[0],
            split_network(random_graph(seed, max_vertices=10, max_edges=24)))
    for net in nets:
        arcs = range(len(net.head))
        assert net.tail == [net.head[a ^ 1] for a in arcs]
        for x in range(len(net.adj)):
            assert all(net.tail[a] == x for a in net.adj[x])
            assert all(net.head[a] == x for a in net.radj[x])
            assert net.radj[x] == [a ^ 1 for a in net.adj[x]]
        assert sorted(a for into in net.radj for a in into) == list(arcs)


@pytest.mark.parametrize("seed", SEEDS)
def test_unit_engine_loop_matches_reference(seed):
    for engine, cap, s, t, cutoff, start in unit_cases(seed):
        check(engine, cap, s, t, cutoff, start)
        assert engine.max_flow(s, t, cutoff, start) == reference(
            engine.adj, engine.head, cap[:], s, t, cutoff, start)[0]


@pytest.mark.parametrize("seed", SEEDS)
def test_split_network_loop_matches_reference(seed):
    for net, cap, s, t, cutoff, start in split_cases(seed):
        check(net, cap, s, t, cutoff, start)


@pytest.mark.parametrize("seed", SEEDS)
def test_directed_loop_matches_reference(seed):
    for net, cap, s, t in directed_cases(seed):
        check(net, cap, s, t)
        assert net.max_flow(s, t) == reference(
            net.adj, net.head, cap[:], s, t, None, ())[0]


def test_both_exits_occur():
    """Among the cases, some last searches end with the forward frontier
    dry and some with the backward one dry (the loop then runs on over
    the forward side until it is closed), in both network layouts."""
    unit, directed = Counter(), Counter()
    for seed in SEEDS:
        for engine, cap, s, t, cutoff, start in unit_cases(seed):
            unit[check(engine, cap, s, t, cutoff, start)] += 1
        for net, cap, s, t, cutoff, start in split_cases(seed):
            directed[check(net, cap, s, t, cutoff, start)] += 1
        for net, cap, s, t in directed_cases(seed):
            directed[check(net, cap, s, t)] += 1
    for kinds in (unit, directed):
        assert kinds["forward"] > 0 and kinds["backward"] > 0, kinds
    assert unit[None] > 0


@pytest.mark.parametrize("seed", range(0, 40, 3))
def test_queries_restore_the_fault_mask(seed):
    """Queries augment on the engine's residual in place; after each one,
    warm-started, capped, min_cut, min_cuts or refused, the residual is
    exactly the fault mask again."""
    engine, mask = unit_engine(seed)
    engine.hub_starts(engine.hubs[0])      # stores paths under the faults
    assert engine._template == mask
    for engine, _, s, t, cutoff, start in unit_cases(seed):
        engine.max_flow(s, t, cutoff, start)
        assert engine._template == mask, (s, t, cutoff, start)
        if s < t:
            engine.min_cut(s, t)
            assert engine._template == mask, (s, t)
    for s in range(engine.n):
        engine.min_cuts(s, [t for t in range(engine.n) if t != s])
        assert engine._template == mask, s
        with pytest.raises(ValueError, match="source and sink"):
            engine.max_flow(s, s, 1)
        assert engine._template == mask, s


@pytest.mark.parametrize("seed", range(0, 40, 3))
def test_directed_queries_restore_the_template(seed):
    """DirectedFlow.max_flow augments on its template in place; after each
    query, uncapped, capped, warm-started or refused, the template is
    exactly as it was, with the closed source arcs still closed."""
    g = random_graph(seed, max_vertices=10, max_edges=24)
    net, opened, first = open_half_fan(g, seed)
    n = g.n_vertices
    template = net._template[:]
    assert [template[first + 2 * w] for w in range(n)] == \
        [int(w in opened) for w in range(n)]
    queries = [(u + n, v) for u in range(n) for v in range(n)
               if u != v and not g.has_edge(u, v)]
    queries += [(2 * n, v) for v in set(range(n)) - opened]
    for s, t in queries:
        start = fan_start(net, n, first, opened, t) if s == 2 * n else ()
        for cutoff, begin in ((None, ()), (1, ()), (None, start),
                              (len(start) + 1, start)):
            net.max_flow(s, t, cutoff, begin)
            assert net._template == template, (s, t, cutoff, begin)
        with pytest.raises(ValueError, match="source and sink"):
            net.max_flow(s, s, None, start)
        assert net._template == template, (s, start)


@pytest.mark.parametrize("seed", range(0, 40, 3))
def test_cut_matches_a_scan_of_every_edge(seed):
    """min_cut reads its cut from the smaller residual side; it must be
    the live edges across the side, in canonical order."""
    engine, _ = unit_engine(seed)
    dead = set(engine.fault)
    for s in range(engine.n):
        for t in range(s + 1, engine.n):
            value, side = engine.max_flow_with_side(s, t)
            scan = [(u, v) for k, (u, v) in enumerate(engine.edges)
                    if k not in dead and side[u] != side[v]]
            assert engine.min_cut(s, t) == (value, scan), (s, t)


def test_equal_endpoints_are_refused():
    engine, _ = unit_engine(0)
    net, _ = directed_network(0)
    for run in (lambda: engine.max_flow(1, 1), lambda: engine.min_cut(0, 0),
                lambda: net.max_flow(2, 2)):
        with pytest.raises(ValueError, match="source and sink"):
            run()


@pytest.mark.parametrize("seed", range(0, 40, 4))
def test_public_methods_match_networkx(seed):
    nx = pytest.importorskip("networkx")
    engine, _ = unit_engine(seed)
    dead = set(engine.fault)
    h = nx.Graph()
    h.add_nodes_from(range(engine.n))
    h.add_edges_from(e for k, e in enumerate(engine.edges) if k not in dead)
    for s in range(engine.n):
        for t in range(s + 1, engine.n):
            expected = nx.connectivity.local_edge_connectivity(h, s, t)
            value, cut = engine.min_cut(s, t)
            assert value == len(cut) == expected, (s, t)
            assert engine.max_flow(s, t) == expected
    net, arcs = directed_network(seed)
    d = nx.DiGraph()
    d.add_nodes_from(range(len(net.adj)))
    d.add_edges_from(arcs, capacity=1)
    for s in d:
        for t in d:
            if s != t:
                assert net.max_flow(s, t) == nx.maximum_flow_value(d, s, t)
