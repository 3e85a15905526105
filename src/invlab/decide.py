"""Polynomial-time deciders for (=p)-invertibility and tournament equivalence.

The only exponential corner is order n = p + 1, which is handled by an
exhaustive push scan behind a capacity limit.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .errors import CapacityError, InputError, UnsupportedRangeError
from .graphs import (
    ACYCLIC_CHUNK,
    OrientedGraph,
    UndirectedGraph,
    _bits,
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


def _even_mask(n: int, v1: Sequence[int], v2: Sequence[int]) -> int:
    """The bitmask of v1, after checking that (v1, v2) partitions range(n)."""
    s1, s2 = set(v1), set(v2)
    if s1 & s2 or s1 | s2 != set(range(n)):
        raise InputError("(v1, v2) must partition the vertices")
    return sum(1 << v for v in s1)


def _parity_classes(D: OrientedGraph) -> tuple[list[int], list[int]]:
    """D's vertices split by out-degree parity: even, then odd."""
    even = [v for v in range(D.n) if D.out_degree(v) % 2 == 0]
    return even, [v for v in range(D.n) if D.out_degree(v) % 2 == 1]


def parity_match_count(G: OrientedGraph, v1: Sequence[int], v2: Sequence[int]) -> int:
    """Vertices of v1 with even out-degree plus vertices of v2 with odd out-degree."""
    even = _even_mask(G.n, v1, v2)
    return sum(1 for v, m in enumerate(G.out) if m.bit_count() % 2 != even >> v & 1)


def _spanning_forest(
    G: UndirectedGraph, even: int
) -> tuple[list[int], list[tuple[list[int], int, int]]]:
    """A BFS spanning forest of G and the score range of each component.

    Returns the parent of every vertex (-1 at a root) and, per component in
    order of its smallest vertex, (order, lower, upper): order lists the
    component root first, every vertex after its parent.  The component's
    parity-match score takes every value of one parity from lower to upper.
    That parity is |even & K| + |E(K)| mod 2, since the out-degrees on K sum
    to |E(K)|, so lower is 0 or 1 and upper is |K| or |K| - 1.
    """
    parent = [-1] * G.n
    comps = []
    unseen = (1 << G.n) - 1
    while unseen:
        root = unseen & -unseen
        unseen ^= root
        order, mask = [root.bit_length() - 1], root
        for u in order:  # the loop also visits the vertices appended below
            fresh = G.adj[u] & unseen
            unseen ^= fresh
            mask |= fresh
            for v in _bits(fresh):
                parent[v] = u
                order.append(v)
        edges = sum(G.adj[v].bit_count() for v in order) // 2
        lower = ((even & mask).bit_count() + edges) % 2
        comps.append((order, lower, len(order) - (len(order) + lower) % 2))
    return parent, comps


def _attainable(s: int, comps: list[tuple[list[int], int, int]]) -> bool:
    """Whether the component scores of _spanning_forest can add up to s."""
    lower = sum(c[1] for c in comps)
    return (s - lower) % 2 == 0 and lower <= s <= sum(c[2] for c in comps)


def orientation_feasible(
    G: UndirectedGraph, v1: Sequence[int], v2: Sequence[int], s: int
) -> bool:
    """Whether G has an orientation whose parity-match score for (v1, v2) is s."""
    return _attainable(s, _spanning_forest(G, _even_mask(G.n, v1, v2))[1])


def construct_orientation(
    G: UndirectedGraph, v1: Sequence[int], v2: Sequence[int], s: int
) -> OrientedGraph:
    """An orientation of exactly E(G) attaining parity-match score s.

    Each component gets a score in its range, and the first that many
    vertices of its BFS order are to match.  Edges off the spanning forest
    run low -> high; then, children before parents, each tree edge is
    oriented so that the child gets the out-degree parity it needs.  Every
    root then has its parity too, as the component's out-degrees sum to its
    edge count.
    """
    even = _even_mask(G.n, v1, v2)
    parent, comps = _spanning_forest(G, even)
    if not _attainable(s, comps):
        raise InputError(f"no orientation attains score {s}")
    # every edge low -> high, then the tree edges taken out
    out = [m >> (u + 1) << (u + 1) for u, m in enumerate(G.adj)]
    for v, u in enumerate(parent):
        if u >= 0:
            out[min(u, v)] ^= 1 << max(u, v)
    spare = s - sum(c[1] for c in comps)
    for order, lower, upper in comps:
        take = min(spare, upper - lower)
        spare -= take
        # a vertex of v1 matches with even out-degree, one of v2 with odd
        odd = even ^ sum(1 << v for v in order[: lower + take])
        for v in reversed(order[1:]):
            if out[v].bit_count() % 2 != odd >> v & 1:
                out[v] |= 1 << parent[v]
            else:
                out[parent[v]] |= 1 << v
    oriented = OrientedGraph(G.n, tuple(out))
    assert parity_match_count(oriented, v1, v2) == s
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
    return orientation_feasible(
        complement_of_underlying(D), *_parity_classes(D), (n + 1) // 2
    )


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
    G = complement_of_underlying(D)
    v1, v2 = _parity_classes(D)
    s = (n + 1) // 2
    if not orientation_feasible(G, v1, v2, s):
        return None
    oriented = construct_orientation(G, v1, v2, s)
    out = tuple(D.out[v] | oriented.out[v] for v in range(n))
    T = OrientedGraph(n, out)
    assert is_tournament(T) and tournament_invertible(T, p)
    return T
