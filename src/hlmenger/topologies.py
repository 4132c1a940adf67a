"""Generators for n-dimensional hypercube-like networks.

A 1-dimensional network is K_2. For n >= 2, a network is two disjoint
(n-1)-dimensional networks joined by a perfect matching: vertex v of the
left half is wired to f(v) in the right half for a bijection f, and those
matching edges are the f-edges of the join.

Vertices carry bit-string labels a_n...a_1 with a_1 least significant, and
the vertex id is the integer value of its label, so the left half is ids
0..2^(n-1)-1 (leading bit 0) and the right half the rest.

The named families fix f by a bitwise rule at every join level:

* hypercube:  partner has the identical low bits.
* crossed:    consecutive bit pairs map through the pair-related relation
              {(00,00),(10,10),(01,11),(11,01)}; at even join dimension the
              top low bit is copied unchanged.
* mobius0:    identical low bits (coincides with the hypercube).
* mobius1:    all low bits complemented.
* ltq:        low bits copied except the top one, which is xored with the
              lowest bit; degenerate below dimension 3, where the identity
              is used (both bijections on two vertices give C_4 anyway).

Named families are built by the recursive join with the rule's bijection
at every level; the tests check the result against the edge set read
straight off the rules over {0,1}^n. Random networks draw an independent
Fisher-Yates bijection per join from sub-seeds derived with rng.mix_seed,
so one seed reproduces the whole tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .graph import Graph, build_graph, edge_connectivity, \
    largest_component_size, vertex_connectivity
from .report import VerificationReport
from .rng import PRNG_NAME, SplitMix64, mix_seed

Bijection = tuple[int, ...]

NAMED_FAMILIES = ("hypercube", "crossed", "mobius0", "mobius1", "ltq")

# pair-related relation on 2-bit values, high bit first: 00->00, 10->10,
# 01->11, 11->01
_PAIR_RELATED = (0, 3, 2, 1)

# largest line graph a request may build, in edges: L(HL_n) has
# n(n-1) 2^(n-1) of them, so n <= 13 passes and n >= 14 is refused
MAX_LINE_EDGES = 10 ** 6


@dataclass(frozen=True)
class Construction:
    """Top-level join record: the two halves and the bijection used."""

    left: "HLNetwork"
    right: "HLNetwork"
    bijection: Bijection


@dataclass(frozen=True)
class HLNetwork:
    """A hypercube-like network plus its recursive construction record."""

    graph: Graph
    dimension: int
    construction: Optional[Construction]
    f_edges: frozenset[tuple[int, int]]

    @property
    def half(self) -> int:
        return 1 << (self.dimension - 1)


def _partner_identity(suffix: int, level: int) -> int:
    return suffix


def _partner_complement(suffix: int, level: int) -> int:
    return suffix ^ ((1 << (level - 1)) - 1)


def _partner_crossed(suffix: int, level: int) -> int:
    out = 0
    for i in range(1, (level - 1) // 2 + 1):
        shift = 2 * i - 2
        out |= _PAIR_RELATED[(suffix >> shift) & 3] << shift
    if level % 2 == 0:
        out |= suffix & (1 << (level - 2))
    return out


def _partner_ltq(suffix: int, level: int) -> int:
    if level <= 2:
        return suffix
    if suffix & 1:
        return suffix ^ (1 << (level - 2))
    return suffix


_PARTNER_RULES: dict[str, Callable[[int, int], int]] = {
    "hypercube": _partner_identity,
    "crossed": _partner_crossed,
    "mobius0": _partner_identity,
    "mobius1": _partner_complement,
    "ltq": _partner_ltq,
}


def family_bijection(kind: str, level: int) -> Bijection:
    """The join bijection a named family uses at the given dimension."""
    rule = _PARTNER_RULES[kind]
    return tuple(rule(a, level) for a in range(1 << (level - 1)))


def _bit_labels(n: int) -> dict[int, str]:
    return {v: format(v, f"0{n}b") for v in range(1 << n)}


def _k2() -> HLNetwork:
    return HLNetwork(
        graph=build_graph(2, [(0, 1)], {0: "0", 1: "1"}),
        dimension=1,
        construction=None,
        f_edges=frozenset(),
    )


def hl_join(g1: HLNetwork, g2: HLNetwork, f: Bijection) -> HLNetwork:
    """Join two (n-1)-dimensional networks into an n-dimensional one.

    The right half's vertex ids are offset by 2^(n-1); the new matching
    edges are (v, offset + f[v]) for every left vertex v. Labels gain a
    leading 0 (left) or 1 (right).
    """
    if g1.dimension != g2.dimension:
        raise ValueError(
            f"dimension mismatch: {g1.dimension} vs {g2.dimension}")
    half = 1 << g1.dimension
    if len(f) != half or sorted(f) != list(range(half)):
        raise ValueError("bijection must be a permutation of the right half")
    n = g1.dimension + 1
    edges = list(g1.graph.edges)
    edges.extend((u + half, v + half) for u, v in g2.graph.edges)
    f_edges = frozenset((v, half + f[v]) for v in range(half))
    edges.extend(sorted(f_edges))
    labels = {v: "0" + g1.graph.labels[v] for v in range(half)}
    labels.update({v + half: "1" + g2.graph.labels[v] for v in range(half)})
    return HLNetwork(
        graph=build_graph(2 * half, edges, labels),
        dimension=n,
        construction=Construction(g1, g2, tuple(f)),
        f_edges=f_edges,
    )


def _gen_named_recursive(kind: str, n: int) -> HLNetwork:
    if n == 1:
        return _k2()
    half = _gen_named_recursive(kind, n - 1)
    return hl_join(half, half, family_bijection(kind, n))


def gen_family(kind: str, n: int) -> HLNetwork:
    """Generate a named family member of dimension n >= 1 by the recursive
    join, with the family's bijection at every level."""
    if kind not in NAMED_FAMILIES:
        raise ValueError(f"unknown family {kind!r}; expected one of {NAMED_FAMILIES}")
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return _gen_named_recursive(kind, n)


def gen_random_hl(n: int, seed: int) -> HLNetwork:
    """Random hypercube-like network, fully reproducible from the seed.

    Both halves are built recursively from independently derived sub-seeds
    (mix_seed tags 0 and 1) and joined with a uniformly random bijection
    drawn from tag 2.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if n == 1:
        return _k2()
    left = gen_random_hl(n - 1, mix_seed(seed, 0))
    right = gen_random_hl(n - 1, mix_seed(seed, 1))
    f = tuple(SplitMix64(mix_seed(seed, 2)).permutation(1 << (n - 1)))
    return hl_join(left, right, f)


def check_size(n: int) -> None:
    """Raise ValueError, before anything is allocated, when the line graph
    of an n-dimensional network would have more than MAX_LINE_EDGES edges.

    HL_n has 2^n vertices of degree n, so L(HL_n) has V = n 2^(n-1)
    vertices and E = n(n-1) 2^(n-1) edges, C(n, 2) at each vertex of
    HL_n. Dimensions below 1 are left to the generators' own checks.
    """
    if n < 1 or n <= 64 and n * (n - 1) << (n - 1) <= MAX_LINE_EDGES:
        return

    def count(k: int) -> str:  # k 2^(n-1), in digits while that is short
        return str(k << (n - 1)) if n <= 64 else f"{k}*2^{n - 1}"

    raise ValueError(
        f"dimension {n} is too large: L(HL_{n}) would have V = n*2^(n-1) = "
        f"{count(n)} vertices and E = n(n-1)*2^(n-1) = {count(n * (n - 1))} "
        f"edges, more than MAX_LINE_EDGES = {MAX_LINE_EDGES}")


def generate(kind: str, n: int, seed: Optional[int] = None) -> HLNetwork:
    """Dispatch helper: named family, or 'random' with a mandatory seed.
    Refuses a dimension whose line graph check_size rejects."""
    check_size(n)
    if kind == "random":
        if seed is None:
            raise ValueError("family 'random' requires a seed")
        return gen_random_hl(n, seed)
    return gen_family(kind, n)


def _off_coding(g: Graph, n: int) -> Optional[tuple[int, list[int]]]:
    """(v, sorted levels (v ^ w).bit_length() of v's neighbours w) for the
    first v without exactly one neighbour at each level 1..n, else None.

    None means that in every aligned block of 2^l ids the edges across
    the middle match its halves perfectly and no other edge leaves it, so
    by induction on l each block codes an HL_l. Takes O(n 2^n).
    """
    want = list(range(1, n + 1))
    for v in range(g.n_vertices):
        levels = sorted((v ^ w).bit_length() for w in g.neighbors(v))
        if levels != want:
            return v, levels
    return None


def _off_label(g: Graph, n: int) -> Optional[int]:
    """The first vertex whose label is not its id's n-bit string, else
    None; the graph must be labeled."""
    return next((v for v in range(g.n_vertices)
                 if g.labels[v] != format(v, f"0{n}b")), None)


def hl_from_graph(g: Graph) -> HLNetwork:
    """Reinterpret a bare graph as a hypercube-like network.

    Recovers the dimension from the vertex count and checks the coding at
    every bit level (_off_coding) and any labels against the ids' bit
    strings (_off_label); the f-edges are the edges crossing the half
    boundary. Used to verify edge-list files that were produced
    elsewhere; the construction record is unavailable and left empty.
    """
    n = (g.n_vertices - 1).bit_length()
    if g.n_vertices != 1 << n or n < 1:
        raise ValueError(
            f"{g.n_vertices} vertices is not a power of two >= 2")
    if len(g.edges) != n * (1 << (n - 1)):
        raise ValueError(
            f"expected {n * (1 << (n - 1))} edges for dimension {n}, "
            f"got {len(g.edges)}")
    off = _off_coding(g, n)
    if off is not None:
        raise ValueError(f"vertex {off[0]} has neighbours at bit levels "
                         f"{off[1]}, not one per level 1..{n}: not a perfect "
                         "matching at each level; not a hypercube-like coding")
    bad = _off_label(g, n) if g.labels else None
    if bad is not None:
        raise ValueError(f"vertex {bad} is labeled {g.labels[bad]!r}, not "
                         f"its {n}-bit id {format(bad, f'0{n}b')!r}")
    if n == 1:
        return _k2()
    half = 1 << (n - 1)
    cross = frozenset(e for e in g.edges if e[0] < half <= e[1])
    labels = g.labels or _bit_labels(n)
    graph = g if g.labels else build_graph(g.n_vertices, g.edges, labels)
    return HLNetwork(graph=graph, dimension=n, construction=None,
                     f_edges=cross)


def construction_record(h: HLNetwork) -> dict:
    """JSON-friendly nested record of the per-level bijections."""
    if h.construction is None:
        return {"dimension": 1}
    return {
        "dimension": h.dimension,
        "bijection": list(h.construction.bijection),
        "f_edges": [list(e) for e in sorted(h.f_edges)],
        "left": construction_record(h.construction.left),
        "right": construction_record(h.construction.right),
    }


def validate_hl(h: HLNetwork) -> VerificationReport:
    """Check every structural invariant of an HLNetwork.

    For n <= 6 this includes the exact connectivity equalities
    kappa = lambda = n. Failures become report entries, not exceptions.
    """
    n = h.dimension
    g = h.graph
    checks: list[tuple[str, bool, Optional[dict]]] = []

    def record(name: str, ok: bool, witness: Optional[dict] = None):
        checks.append((name, ok, witness if not ok else None))

    record("vertex_count", g.n_vertices == 1 << n,
           {"expected": 1 << n, "actual": g.n_vertices})
    record("edge_count", len(g.edges) == n * (1 << (n - 1)),
           {"expected": n * (1 << (n - 1)), "actual": len(g.edges)})
    bad_degree = next(
        (v for v in range(g.n_vertices) if g.degree(v) != n), None)
    record("n_regular", bad_degree is None,
           {"vertex": bad_degree,
            "degree": g.degree(bad_degree) if bad_degree is not None else None})

    labels_ok = bool(g.labels) and _off_label(g, n) is None
    record("labels_match_ids", labels_ok, {"labels": "id/label mismatch"})

    if n >= 2:
        half = h.half
        record("f_edge_count", len(h.f_edges) == half,
               {"expected": half, "actual": len(h.f_edges)})
        lefts = sorted(u for u, _ in h.f_edges)
        rights = [v for _, v in h.f_edges]
        matching = (lefts == list(range(half))
                    and len(set(rights)) == len(rights)
                    and all(v >= half for v in rights))
        record("f_edges_perfect_matching", matching, {"f_edges": sorted(h.f_edges)})
        in_graph = all(g.has_edge(u, v) for u, v in h.f_edges)
        record("f_edges_in_graph", in_graph, {})

    off = _off_coding(g, n)
    record("coding_at_every_bit_level", off is None,
           {"vertex": off[0], "levels": off[1]} if off else None)

    if n <= 6:
        lam = edge_connectivity(g)
        kap = vertex_connectivity(g)
        record("edge_connectivity", lam == n, {"expected": n, "actual": lam})
        record("vertex_connectivity", kap == n, {"expected": n, "actual": kap})
    else:
        record("connected", largest_component_size(g) == g.n_vertices, {})

    failures = [c for c in checks if not c[1]]
    first = failures[0] if failures else None
    return VerificationReport(
        check_name="validate-hl",
        target={"dimension": n, "n_vertices": g.n_vertices},
        mode="direct",
        parameters={"prng": PRNG_NAME},
        counts={"visited": len(checks), "skipped_conditional": 0,
                "failures": len(failures)},
        witness={"check": first[0], **(first[2] or {})} if first else None,
        details=[{"check": name, "passed": ok} for name, ok, _ in checks],
    )
