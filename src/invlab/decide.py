"""Polynomial-time deciders for (=p)-invertibility and tournament equivalence.

The only exponential corner is order n = p + 1, which is handled by an
exhaustive push scan behind a capacity limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import CapacityError, InputError, UnsupportedRangeError
from .graphs import (
    ACYCLIC_CHUNK,
    OrientedGraph,
    UndirectedGraph,
    acyclic_columns,
    complement_of_underlying,
    complete_low_to_high,
    is_acyclic,
    is_tournament,
    out_even_count,
)
from .pairspace import encode_tournament, signatures_equal

# pushable_bruteforce refuses graphs with more vertices
PUSH_SCAN_LIMIT = 22


@dataclass(frozen=True)
class ParityBipartition:
    """Vertices split by out-degree parity: v1 even, v2 odd."""

    v1: tuple[int, ...]
    v2: tuple[int, ...]

    @classmethod
    def of(cls, D: OrientedGraph) -> "ParityBipartition":
        v1 = tuple(v for v in range(D.n) if D.out_degree(v) % 2 == 0)
        v2 = tuple(v for v in range(D.n) if D.out_degree(v) % 2 == 1)
        return cls(v1, v2)


@dataclass(frozen=True)
class ComponentBounds:
    """Feasible score range of one connected component: lower is 0/1 by parity,
    upper is |K| or |K|-1, and the two always share their parity."""

    component: tuple[int, ...]
    lower: int
    upper: int


def tournaments_equivalent(T1: OrientedGraph, T2: OrientedGraph, p: int) -> bool:
    """Whether some (=p)-family maps T1 onto T2 (same labelled vertex set)."""
    if T1.n != T2.n:
        raise InputError("tournaments must share a vertex set")
    if not is_tournament(T1) or not is_tournament(T2):
        raise InputError("both inputs must be tournaments")
    return signatures_equal(encode_tournament(T1), encode_tournament(T2), p, T1.n)


def tournament_invertible(T: OrientedGraph, p: int) -> bool:
    """A tournament is (=p)-invertible iff p is even or it has exactly
    ceil(n/2) out-even vertices."""
    if not is_tournament(T):
        raise InputError("input must be a tournament")
    if p < 2:
        raise InputError("p must be at least 2")
    if T.n < p + 2:
        raise UnsupportedRangeError(f"need n >= p + 2 (got n={T.n}, p={p})")
    if p % 2 == 0:
        return True
    return out_even_count(T) == (T.n + 1) // 2


def parity_match_count(G: OrientedGraph, v1: Sequence[int], v2: Sequence[int]) -> int:
    """Vertices of v1 with even out-degree plus vertices of v2 with odd out-degree."""
    s1, s2 = set(v1), set(v2)
    if s1 & s2 or len(s1) + len(s2) != G.n or s1 | s2 != set(range(G.n)):
        raise InputError("(v1, v2) must partition the vertices")
    score = 0
    for v in range(G.n):
        even = G.out_degree(v) % 2 == 0
        if (v in s1 and even) or (v in s2 and not even):
            score += 1
    return score


def component_bounds(G: UndirectedGraph, v1: Sequence[int]) -> list[ComponentBounds]:
    s1 = set(v1)
    out = []
    for comp in G.components():
        cset = set(comp)
        e = sum(1 for a, b in G.edges() if a in cset)
        base = (len(s1 & cset) + e) % 2
        upper = len(comp) if (len(s1 & cset) + e + len(comp)) % 2 == 0 else len(comp) - 1
        out.append(ComponentBounds(tuple(comp), base, upper))
    return out


def orientation_feasible(
    G: UndirectedGraph, v1: Sequence[int], v2: Sequence[int], s: int
) -> bool:
    """Whether G has an orientation whose parity-match score for (v1, v2) is s."""
    s1, s2 = set(v1), set(v2)
    if s1 & s2 or s1 | s2 != set(range(G.n)):
        raise InputError("(v1, v2) must partition the vertices")
    if s % 2 != (len(s1) + G.edge_count) % 2:
        return False
    bounds = component_bounds(G, v1)
    return sum(b.lower for b in bounds) <= s <= sum(b.upper for b in bounds)


def _bfs_path(G: UndirectedGraph, comp: Sequence[int], a: int, b: int) -> list[int]:
    prev = {a: a}
    frontier = [a]
    while frontier:
        nxt = []
        for u in frontier:
            for v in sorted(w for w in comp if G.has_edge(u, w)):
                if v not in prev:
                    prev[v] = u
                    nxt.append(v)
        frontier = nxt
    path = [b]
    while path[-1] != a:
        path.append(prev[path[-1]])
    path.reverse()
    return path


def construct_orientation(
    G: UndirectedGraph, v1: Sequence[int], v2: Sequence[int], s: int
) -> OrientedGraph:
    """An orientation of exactly E(G) attaining parity-match score s.

    Per component we fix a target subset X of the right size, orient low -> high,
    then repeatedly reverse a path between the two smallest vertices that are
    not yet good; each reversal fixes both endpoints and disturbs nobody else.
    """
    if not orientation_feasible(G, v1, v2, s):
        raise InputError(f"no orientation attains score {s}")
    s1 = set(v1)
    bounds = component_bounds(G, v1)
    deficit = s - sum(b.lower for b in bounds)
    targets = []
    for b in bounds:
        take = min(deficit, b.upper - b.lower)
        targets.append(b.lower + take)
        deficit -= take
    assert deficit == 0

    out = [0] * G.n
    for b, goal in zip(bounds, targets):
        comp = list(b.component)
        edges = [(u, v) for u, v in G.edges() if u in set(comp)]
        direction = {e: e for e in edges}  # oriented low -> high initially
        X = set(comp[:goal])

        def out_deg(v: int) -> int:
            return sum(1 for e in edges if direction[e][0] == v)

        def good(v: int) -> bool:
            even = out_deg(v) % 2 == 0
            want_even = (v in s1) == (v in X)
            return even == want_even

        while True:
            bad = [v for v in comp if not good(v)]
            if not bad:
                break
            assert len(bad) >= 2
            a, c = bad[0], bad[1]
            path = _bfs_path(G, comp, a, c)
            for u, v in zip(path, path[1:]):
                e = (min(u, v), max(u, v))
                x, y = direction[e]
                direction[e] = (y, x)
        for e in edges:
            x, y = direction[e]
            out[x] |= 1 << y
    oriented = OrientedGraph(G.n, tuple(out))
    assert parity_match_count(oriented, list(v1), list(v2)) == s
    return oriented


def pushable_bruteforce(D: OrientedGraph) -> Optional[frozenset[int]]:
    """First vertex set (by bitmask value, vertex 0 always excluded: X and its
    complement push identically) whose push makes D acyclic, else None.

    The 2^(n-1) push sets are tested in batches by acyclic_columns."""
    if D.n > PUSH_SCAN_LIMIT:
        raise CapacityError(f"push scan limited to {PUSH_SCAN_LIMIT} vertices (got {D.n})")
    if D.n == 0:
        return frozenset()
    n = D.n
    into = np.array(D.in_masks(), dtype=np.uint64)[:, None]
    nbrs = np.array(D.out, dtype=np.uint64)[:, None] | into
    shifts = np.arange(n, dtype=np.uint64)[:, None]
    one = np.uint64(1)
    total = 1 << (n - 1)
    for lo in range(0, total, ACYCLIC_CHUNK):
        # bit v + 1 of xm marks vertex v + 1 in X
        xm = np.arange(lo, min(lo + ACYCLIC_CHUNK, total), dtype=np.uint64) << one
        # row u: X if u is in X, else its complement (0 - 1 wraps to all ones)
        masks = (xm >> shifts) & one
        masks -= one
        masks ^= xm
        # arcs to u's own side keep their direction, crossing arcs reverse:
        # out-masks become (out & side) | (in & ~side) = in ^ (nbrs & side)
        masks &= nbrs
        masks ^= into
        hits = acyclic_columns(masks)
        if hits.any():
            m = lo + int(np.argmax(hits))
            return frozenset(v + 1 for v in range(n - 1) if m >> v & 1)
    return None


def oriented_graph_invertible(D: OrientedGraph, p: int) -> bool:
    """Decide (=p)-invertibility of any oriented graph.

    Dispatch: p >= n reduces to acyclicity, even p with n >= p + 2 is always
    invertible, odd p goes through the complement-orientation test, and the
    n = p + 1 slot falls back to the exhaustive push scan.
    """
    n = D.n
    if p <= 1 or p >= n:
        # size-<2 inversions reverse nothing; at p >= n only the full vertex
        # set is available, and reversing everything preserves cyclicity
        return is_acyclic(D)
    if n == p + 1:
        try:
            return pushable_bruteforce(D) is not None
        except CapacityError as exc:
            raise UnsupportedRangeError(
                f"order p + 1 = {n} is outside the polynomial cases and too "
                f"large for the exhaustive push scan ({exc})"
            ) from exc
    if p % 2 == 0:
        return True
    part = ParityBipartition.of(D)
    G = complement_of_underlying(D)
    return orientation_feasible(G, part.v1, part.v2, (n + 1) // 2)


def extend_to_invertible_tournament(
    D: OrientedGraph, p: int
) -> Optional[OrientedGraph]:
    """A (=p)-invertible tournament containing every arc of D, or None exactly
    when D is not (=p)-invertible."""
    n = D.n
    if n < p + 2:
        raise UnsupportedRangeError(f"need n >= p + 2 (got n={n}, p={p})")
    if p < 2:
        raise InputError("p must be at least 2")
    if p % 2 == 0:
        return complete_low_to_high(D)
    part = ParityBipartition.of(D)
    G = complement_of_underlying(D)
    s = (n + 1) // 2
    if not orientation_feasible(G, part.v1, part.v2, s):
        return None
    oriented = construct_orientation(G, part.v1, part.v2, s)
    out = tuple(D.out[v] | oriented.out[v] for v in range(n))
    T = OrientedGraph(n, out)
    assert is_tournament(T) and tournament_invertible(T, p)
    return T
