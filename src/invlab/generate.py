"""Structured and reduction-based instance generation.

Covers canonical tournaments, seeded random instances, the clique-to-digraph
and hypergraph-colouring-to-tournament constructions, and the special
hypergraphs feeding the latter.  Reduction vertices are laid out in
deterministic blocks and every reduction returns a name map for debugging.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional, Sequence

from .errors import CapacityError, InputError
from .graphs import (
    EXACT,
    InversionFamily,
    OrientedGraph,
    UndirectedGraph,
    invert,
    vertex_count,
)


def transitive_tournament(n: int) -> OrientedGraph:
    n = vertex_count(n, "n")
    out = tuple(((1 << n) - 1) >> (v + 1) << (v + 1) for v in range(n))
    return OrientedGraph(n, out)


def reversed_arc_tournament(n: int) -> OrientedGraph:
    """Transitive tournament with the single arc 0 -> n-1 reversed."""
    if n < 2:
        raise InputError("need n >= 2")
    T = transitive_tournament(n)
    return invert(T, {0, n - 1})


def directed_cycle(n: int) -> OrientedGraph:
    if n < 3:
        raise InputError("need n >= 3")
    return OrientedGraph.from_arcs(n, [(i, (i + 1) % n) for i in range(n)])


def diregular_tournament(k: int) -> OrientedGraph:
    """Rotational tournament on 2k+1 vertices: i beats i+1, ..., i+k (mod n)."""
    if k < 1:
        raise InputError("need k >= 1")
    n = vertex_count(2 * k + 1, "2k+1")
    arcs = [(i, (i + j) % n) for i in range(n) for j in range(1, k + 1)]
    return OrientedGraph.from_arcs(n, arcs)


def random_tournament(n: int, seed: int) -> OrientedGraph:
    n = vertex_count(n, "n")
    rng = random.Random(seed)
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return OrientedGraph.from_arcs(n, arcs)


def random_oriented_graph(n: int, density: float, seed: int) -> OrientedGraph:
    """Each unordered pair carries an arc with the given probability, with a
    uniformly random direction."""
    n = vertex_count(n, "n")
    if not 0.0 <= density <= 1.0:
        raise InputError("density must lie in [0, 1]")
    rng = random.Random(seed)
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return OrientedGraph.from_arcs(n, arcs)


class Generator(NamedTuple):
    """A graph builder, called with its fields as keywords: the required ones
    and the optional ones, whose defaults live here alone."""

    build: Callable[..., OrientedGraph]
    required: tuple[str, ...]
    defaults: dict[str, Any] = {}

    @property
    def fields(self) -> tuple[str, ...]:
        return (*self.required, *self.defaults)


# every seeded graph generator by its bench kind, which is also its
# `invlab generate` name
GENERATORS: dict[str, Generator] = {
    "tt": Generator(transitive_tournament, ("n",)),
    "tn": Generator(reversed_arc_tournament, ("n",)),
    "diregular": Generator(diregular_tournament, ("k",)),
    "random_tournament": Generator(random_tournament, ("n",), {"seed": 0}),
    "random_oriented": Generator(
        random_oriented_graph, ("n",), {"density": 0.5, "seed": 0}
    ),
}


def build_graph(kind: Any, fields: dict[str, Any]) -> OrientedGraph:
    """The graph GENERATORS[kind] builds from fields.  A field the kind does
    not take, a missing one, or a value that is not an integer (a number, for
    density) is bad input; a graph above MAX_VERTICES is refused before it
    is allocated."""
    if not isinstance(kind, str) or kind not in GENERATORS:
        raise InputError(f"unknown generator kind {kind!r}")
    generator = GENERATORS[kind]
    unknown = sorted(fields.keys() - set(generator.fields))
    if unknown:
        raise InputError(f"generator {kind!r} takes no field {unknown[0]!r}")
    missing = [name for name in generator.required if name not in fields]
    if missing:
        raise InputError(f"generator {kind!r} needs field {missing[0]!r}")
    for name, value in fields.items():
        if type(value) is not int and not (name == "density" and type(value) is float):
            raise InputError(f"generator {kind!r}: {name}={value!r} has the wrong type")
    return generator.build(**{**generator.defaults, **fields})


@dataclass(frozen=True)
class Hypergraph:
    """Vertex count plus a multiset of hyperedges."""

    n: int
    edges: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        for e in self.edges:
            if any(not (0 <= v < self.n) for v in e):
                raise InputError(f"hyperedge {sorted(e)} out of range for n={self.n}")

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)


@dataclass(frozen=True)
class SpecialReport:
    ok: bool
    violation: Optional[str] = None


def validate_special(H: Hypergraph, p: int) -> SpecialReport:
    """p-uniform, 3-regular, pairwise intersections <= 1, and every triangle of
    covered pairs lies inside one hyperedge."""
    for e in H.edges:
        if len(e) != p:
            return SpecialReport(False, f"S1: hyperedge {sorted(e)} has size {len(e)}")
    for v in range(H.n):
        d = H.degree(v)
        if d != 3:
            return SpecialReport(False, f"S2: vertex {v} has degree {d}")
    for e, f in itertools.combinations(H.edges, 2):
        if len(e & f) > 1:
            return SpecialReport(
                False, f"S3: |{sorted(e)} & {sorted(f)}| = {len(e & f)}"
            )
    covered: dict[int, set[int]] = {v: set() for v in range(H.n)}
    for e in H.edges:
        for a, b in itertools.combinations(sorted(e), 2):
            covered[a].add(b)
            covered[b].add(a)
    for a in range(H.n):
        for b in sorted(x for x in covered[a] if x > a):
            for c in sorted(x for x in covered[b] if x > b):
                if c not in covered[a]:
                    continue
                if not any({a, b, c} <= e for e in H.edges):
                    return SpecialReport(False, f"S4: triangle ({a},{b},{c}) uncovered")
    return SpecialReport(True)


def k33_hypergraph() -> Hypergraph:
    """K_{3,3} as a 2-uniform hypergraph on parts {0,1,2} and {3,4,5}."""
    edges = tuple(frozenset({i, j + 3}) for i in range(3) for j in range(3))
    return Hypergraph(6, edges)


# proper_3_edge_colouring refuses hypergraphs with more hyperedges
COLOURING_EDGE_LIMIT = 20


def proper_3_edge_colouring(H: Hypergraph) -> Optional[tuple[int, ...]]:
    """Backtracking 3-colouring of intersecting hyperedges; None if impossible."""
    m = len(H.edges)
    if m > COLOURING_EDGE_LIMIT:
        raise CapacityError(
            f"{m} hyperedges exceed colouring search limit {COLOURING_EDGE_LIMIT}"
        )
    conflict = [
        [j for j in range(m) if j != i and H.edges[i] & H.edges[j]] for i in range(m)
    ]
    colours = [0] * m

    def place(i: int) -> bool:
        if i == m:
            return True
        for c in (1, 2, 3):
            if all(colours[j] != c for j in conflict[i] if j < i):
                colours[i] = c
                if place(i + 1):
                    return True
        colours[i] = 0
        return False

    return tuple(colours) if place(0) else None


def colouring_is_proper(H: Hypergraph, colours: Sequence[int]) -> bool:
    if len(colours) != len(H.edges):
        return False
    for i, j in itertools.combinations(range(len(H.edges)), 2):
        if H.edges[i] & H.edges[j] and colours[i] == colours[j]:
            return False
    return True


@dataclass(frozen=True)
class MccInstance:
    """Undirected graph plus a partition of its vertices into colour classes."""

    graph: UndirectedGraph
    parts: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        flat = [v for part in self.parts for v in part]
        if sorted(flat) != list(range(self.graph.n)):
            raise InputError("parts must partition the vertices")
        if any(not part for part in self.parts):
            raise InputError("parts must be nonempty")


def mcc_has_multicoloured_clique(inst: MccInstance) -> bool:
    """Brute force over one representative per part; exponential in the number
    of parts, intended for desk-scale verification."""
    for choice in itertools.product(*inst.parts):
        if all(
            inst.graph.has_edge(a, b) for a, b in itertools.combinations(choice, 2)
        ):
            return True
    return False


@dataclass(frozen=True)
class MccReduction:
    graph: OrientedGraph
    p: int
    names: tuple[str, ...]


def mcc_reduction(inst: MccInstance) -> MccReduction:
    """Oriented graph with one even cycle per part plus a blocker vertex per
    missing cross edge; a single (=2k)-inversion decycles it iff the instance
    has a multicoloured clique.

    Parts of size one would force a two-cycle, so they are rejected.
    """
    k = len(inst.parts)
    qs = [len(part) for part in inst.parts]
    if any(q < 2 for q in qs):
        raise InputError("every part needs at least 2 vertices (q_i >= 2)")
    names: list[str] = []
    w_index: dict[tuple[int, int], int] = {}
    arcs: list[tuple[int, int]] = []
    for i, q in enumerate(qs):
        base = len(names)
        for j in range(q):
            w_index[(i, j)] = base + 2 * j
            names.append(f"w_{i + 1}^{j + 1}")
            names.append(f"x_{i + 1}^{j + 1}")
        cyc = []
        for j in range(q):
            cyc.extend([base + 2 * j, base + 2 * j + 1])
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            arcs.append((a, b))
    cross_gaps = []
    for i1, i2 in itertools.combinations(range(k), 2):
        for j1 in range(qs[i1]):
            for j2 in range(qs[i2]):
                a, b = inst.parts[i1][j1], inst.parts[i2][j2]
                if not inst.graph.has_edge(a, b):
                    cross_gaps.append((i1, j1, i2, j2))
    cross_gaps.sort()
    for i1, j1, i2, j2 in cross_gaps:
        zf = len(names)
        names.append(f"z_({i1 + 1},{j1 + 1})({i2 + 1},{j2 + 1})")
        w1, w2 = w_index[(i1, j1)], w_index[(i2, j2)]
        arcs.extend([(w1, zf), (zf, w2), (w1, w2)])
    D = OrientedGraph.from_arcs(len(names), sorted(set(arcs)))
    return MccReduction(D, 2 * k, tuple(names))


@dataclass(frozen=True)
class ShecReduction:
    tournament: OrientedGraph
    k: int
    names: tuple[str, ...]


def shec_reduction(H: Hypergraph, p: int) -> ShecReduction:
    """Tournament whose (=p)/(<=p) decycling number is |E(H)| iff the
    (p-1)-special hypergraph H is 3-edge-colourable.

    Layout: the n hypergraph vertices, then n blocker blocks of p*k+1 vertices,
    then the three colour vertices.
    """
    report = validate_special(H, p - 1)
    if not report.ok:
        raise InputError(f"hypergraph is not ({p - 1})-special: {report.violation}")
    n, k = H.n, len(H.edges)
    block = p * k + 1
    names = [f"v_{i + 1}" for i in range(n)]
    w_start = len(names)
    for i in range(n):
        names.extend(f"w_{i + 1}^{j + 1}" for j in range(block))
    z_start = len(names)
    names.extend(f"z_{j + 1}" for j in range(3))
    N = len(names)
    out = [0] * N

    def add(u: int, v: int) -> None:
        out[u] |= 1 << v

    covered = {
        frozenset(pair)
        for e in H.edges
        for pair in itertools.combinations(sorted(e), 2)
    }
    for i, j in itertools.combinations(range(n), 2):
        if frozenset({i, j}) in covered:
            add(j, i)
        else:
            add(i, j)
    for i in range(n):
        w0 = w_start + i * block
        for a, b in itertools.combinations(range(block), 2):
            add(w0 + a, w0 + b)
        for v in range(i):
            for w in range(block):
                add(v, w0 + w)
        for v in range(i, n):
            for w in range(block):
                add(w0 + w, v)
    for i1, i2 in itertools.combinations(range(n), 2):
        for a in range(block):
            for b in range(block):
                add(w_start + i1 * block + a, w_start + i2 * block + b)
    for j in range(3):
        for w in range(w_start, z_start):
            add(z_start + j, w)
    for v in range(n):
        for j in range(3):
            add(v, z_start + j)
    for a, b in itertools.combinations(range(3), 2):
        add(z_start + a, z_start + b)
    T = OrientedGraph(N, tuple(out))
    return ShecReduction(T, k, tuple(names))


def shec_colouring_family(
    reduction: ShecReduction, H: Hypergraph, colours: Sequence[int], p: int
) -> InversionFamily:
    """The k sets e ∪ {colour vertex of e} derived from a proper colouring."""
    if not colouring_is_proper(H, colours):
        raise InputError("colouring is not proper")
    z_start = reduction.tournament.n - 3
    sets = tuple(
        frozenset(e) | {z_start + colours[i] - 1} for i, e in enumerate(H.edges)
    )
    return InversionFamily(sets, p, EXACT)


@dataclass(frozen=True)
class LiftResult:
    hypergraph: Hypergraph
    names: tuple[str, ...]


def hypergraph_lift(H: Hypergraph) -> LiftResult:
    """Blow a q-special hypergraph up into a (q+1)-special one on
    (q+1)^2 * (n + m) vertices, preserving 3-edge-colourability.

    Vertices are laid out as the grid copies v_(i,j) followed by the per-edge
    grid vertices x^e_(i,j); hyperedges as all e_(i,j), then f_(e,i), then
    f'_(e,j).
    """
    if not H.edges:
        raise InputError("hypergraph must have at least one hyperedge")
    q = len(next(iter(H.edges)))
    report = validate_special(H, q)
    if not report.ok:
        raise InputError(f"input is not {q}-special: {report.violation}")
    p = q + 1
    n, m = H.n, len(H.edges)
    names: list[str] = []
    v_idx: dict[tuple[int, int, int], int] = {}
    for v in range(n):
        for i in range(p):
            for j in range(p):
                v_idx[(v, i, j)] = len(names)
                names.append(f"v{v + 1}_({i + 1},{j + 1})")
    x_idx: dict[tuple[int, int, int], int] = {}
    for e in range(m):
        for i in range(p):
            for j in range(p):
                x_idx[(e, i, j)] = len(names)
                names.append(f"x^e{e + 1}_({i + 1},{j + 1})")
    edges: list[frozenset[int]] = []
    for e, members in enumerate(H.edges):
        for i in range(p):
            for j in range(p):
                edges.append(
                    frozenset(v_idx[(v, i, j)] for v in members)
                    | {x_idx[(e, i, j)]}
                )
    for e in range(m):
        for i in range(p):
            edges.append(frozenset(x_idx[(e, i, j)] for j in range(p)))
    for e in range(m):
        for j in range(p):
            edges.append(frozenset(x_idx[(e, i, j)] for i in range(p)))
    lifted = Hypergraph(len(names), tuple(edges))
    return LiftResult(lifted, tuple(names))


def lift_colouring(H: Hypergraph, colours: Sequence[int]) -> tuple[int, ...]:
    """Transfer a proper colouring of H to its lift, in the lift's edge order:
    each grid copy keeps its source colour and the two x-row/x-column families
    take the remaining colours in increasing order."""
    if not colouring_is_proper(H, colours):
        raise InputError("colouring is not proper")
    q = len(next(iter(H.edges)))
    p = q + 1
    m = len(H.edges)
    grid: list[int] = []
    rows: list[int] = []
    cols: list[int] = []
    for e in range(m):
        grid.extend([colours[e]] * (p * p))
        alpha, beta = sorted({1, 2, 3} - {colours[e]})
        rows.extend([alpha] * p)
        cols.extend([beta] * p)
    return tuple(grid + rows + cols)
