"""Exhaustive ground truth by BFS over the F2 arc-state space.

A state is an integer whose bit e says whether edge e of UG(D) is flipped
relative to D; edge order is the lexicographically sorted endpoint-pair list,
and state 0 is D itself.  Moves are the nonzero pair-indicator masks of the
candidate inversion sets restricted to those edges, deduplicated (distinct
sets inducing the same restriction collapse to one move).  Distances are
BFS-exact; unreachability is reported as None, never as a sentinel number.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import CapacityError, InputError
from .graphs import (
    AT_MOST,
    EXACT,
    OrientedGraph,
    invert,
    is_acyclic,
    is_tournament,
)
from .pairspace import encode_set

DEFAULT_CAP_BITS = 22
HARD_CAP_BITS = 26  # uint32 state arrays; the visited table alone is 2^m bytes
MOVE_ENUM_LIMIT = 2_000_000
_ORDERING_ENUM_LIMIT = 9


def default_cap_bits() -> int:
    env = os.environ.get("INVLAB_CAP_BITS")
    if not env:
        return DEFAULT_CAP_BITS
    try:
        return int(env)
    except ValueError:
        raise InputError(f"INVLAB_CAP_BITS={env!r} is not an integer") from None


def _check_state_bits(m: int, cap: int) -> None:
    if m > min(cap, HARD_CAP_BITS):
        raise CapacityError(
            f"{m} edge bits exceed the state cap "
            f"(cap {cap}, hard ceiling {HARD_CAP_BITS})"
        )


def _edge_list(D: OrientedGraph) -> tuple[tuple[int, int], ...]:
    return tuple(D.underlying_pairs())


def _restricted_moves(
    n: int,
    edges: tuple[tuple[int, int], ...],
    p: int,
    mode: str,
    enum_limit: int = MOVE_ENUM_LIMIT,
) -> tuple[int, ...]:
    """Deduplicated nonzero restrictions of all (=p)- or (<=p)-set indicators.

    Only vertices incident to an edge matter; a candidate set is enumerated by
    its trace on those, padded (virtually) by isolated vertices to reach the
    required cardinality.
    """
    if mode not in (EXACT, AT_MOST):
        raise InputError(f"unknown mode {mode!r}")
    active = sorted({v for e in edges for v in e})
    a, isolated = len(active), n - len(active)
    if mode == EXACT:
        sizes = range(max(0, p - isolated), min(p, a) + 1)
    else:
        sizes = range(0, min(p, a) + 1)
    total = sum(math.comb(a, s) for s in sizes)
    if total > enum_limit:
        raise CapacityError(f"{total} candidate sets exceed move limit {enum_limit}")
    edge_bit = {e: 1 << i for i, e in enumerate(edges)}
    moves = set()
    for s in sizes:
        for sub in itertools.combinations(active, s):
            chosen = set(sub)
            m = 0
            for e, bit in edge_bit.items():
                if e[0] in chosen and e[1] in chosen:
                    m |= bit
            if m:
                moves.add(m)
    return tuple(sorted(moves))


@dataclass(frozen=True)
class StateSpace:
    """Base graph plus its move set over 2^m arc states."""

    graph: OrientedGraph
    edges: tuple[tuple[int, int], ...]
    moves: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    def decode(self, state: int) -> OrientedGraph:
        out = [0] * self.graph.n
        for i, (u, v) in enumerate(self.edges):
            tail, head = (u, v) if self.graph.has_arc(u, v) else (v, u)
            if state >> i & 1:
                tail, head = head, tail
            out[tail] |= 1 << head
        return OrientedGraph(self.graph.n, tuple(out))

    def distances(self) -> np.ndarray:
        """BFS distance from state 0 to every state; -1 where unreachable."""
        dist = np.full(1 << self.m, -1, dtype=np.int32)
        moves = np.array(self.moves, dtype=np.uint32)
        dist[0] = 0
        frontier = np.array([0], dtype=np.uint32)
        d = 0
        while frontier.size and moves.size:
            nxt = np.unique((frontier[:, None] ^ moves[None, :]).ravel())
            nxt = nxt[dist[nxt] < 0]
            d += 1
            dist[nxt] = d
            frontier = nxt
        return dist


def state_space(
    D: OrientedGraph, p: int, mode: str = EXACT, cap_bits: Optional[int] = None
) -> StateSpace:
    cap = default_cap_bits() if cap_bits is None else cap_bits
    edges = _edge_list(D)
    _check_state_bits(len(edges), cap)
    return StateSpace(D, edges, _restricted_moves(D.n, edges, p, mode))


def _acyclic_state_set(space: StateSpace) -> Optional[frozenset[int]]:
    """All acyclic states, via enumeration of orderings of the edge-incident
    vertices; None when that enumeration would be too large."""
    edges = space.edges
    active = sorted({v for e in edges for v in e})
    if len(active) > _ORDERING_ENUM_LIMIT:
        return None
    states = set()
    for perm in itertools.permutations(active):
        pos = {v: i for i, v in enumerate(perm)}
        s = 0
        for i, (u, v) in enumerate(edges):
            if space.graph.has_arc(u, v) != (pos[u] < pos[v]):
                s |= 1 << i
        states.add(s)
    return frozenset(states)


def _bfs_until(
    space: StateSpace, start: int, is_target: Callable[[np.ndarray], np.ndarray]
) -> Optional[int]:
    """Layered BFS from start; distance to the first layer containing a target."""
    m = space.m
    moves = np.array(space.moves, dtype=np.uint32)
    visited = np.zeros(1 << m, dtype=bool)
    visited[start] = True
    frontier = np.array([start], dtype=np.uint32)
    d = 0
    while frontier.size:
        hits = is_target(frontier)
        if hits.any():
            return d
        if not moves.size:
            return None
        nxt = np.unique((frontier[:, None] ^ moves[None, :]).ravel())
        nxt = nxt[~visited[nxt]]
        visited[nxt] = True
        frontier = nxt
        d += 1
    return None


def exact_inv(
    D: OrientedGraph, p: int, mode: str = EXACT, cap_bits: Optional[int] = None
) -> Optional[int]:
    """Minimum number of (=p)- or (<=p)-inversions rendering D acyclic,
    or None when no sequence reaches an acyclic orientation."""
    space = state_space(D, p, mode, cap_bits)
    targets = _acyclic_state_set(space)
    if targets is not None:
        mask = np.zeros(1 << space.m, dtype=bool)
        mask[np.fromiter(targets, dtype=np.uint32, count=len(targets))] = True
        return _bfs_until(space, 0, lambda fr: mask[fr])

    def kahn_targets(frontier: np.ndarray) -> np.ndarray:
        return np.fromiter(
            (is_acyclic(space.decode(int(s))) for s in frontier),
            dtype=bool,
            count=frontier.size,
        )

    return _bfs_until(space, 0, kahn_targets)


def reachable(
    T1: OrientedGraph, T2: OrientedGraph, p: int, cap_bits: Optional[int] = None
) -> bool:
    """Whether some (=p)-family maps tournament T1 onto T2, by BFS."""
    if T1.n != T2.n:
        raise InputError("tournaments must share a vertex set")
    if not is_tournament(T1) or not is_tournament(T2):
        raise InputError("both inputs must be tournaments")
    space = state_space(T1, p, EXACT, cap_bits)
    # complete underlying graph: lexicographic edge order below mirrors arcs
    target = 0
    for i, (u, v) in enumerate(space.edges):
        if T1.has_arc(u, v) != T2.has_arc(u, v):
            target |= 1 << i
    return _bfs_until(space, 0, lambda fr: fr == np.uint32(target)) is not None


def orbit_labels(n: int, p: int, cap_bits: Optional[int] = None) -> np.ndarray:
    """Reachability-class label of every one of the 2^C(n,2) labelled
    tournaments, states laid out in the colexicographic pair order."""
    cap = default_cap_bits() if cap_bits is None else cap_bits
    m = n * (n - 1) // 2
    _check_state_bits(m, cap)
    moves_set = {encode_set(X, n).bits for X in itertools.combinations(range(n), p)}
    moves_set.discard(0)
    moves = np.array(sorted(moves_set), dtype=np.uint32)
    labels = np.full(1 << m, -1, dtype=np.int32)
    cls = 0
    remaining = 1 << m
    while remaining:
        start = int(np.argmax(labels < 0))
        labels[start] = cls
        remaining -= 1
        frontier = np.array([start], dtype=np.uint32)
        while frontier.size and moves.size:
            nxt = np.unique((frontier[:, None] ^ moves[None, :]).ravel())
            nxt = nxt[labels[nxt] < 0]
            labels[nxt] = cls
            remaining -= nxt.size
            frontier = nxt
        cls += 1
    return labels


def orbit_census(n: int, p: int, cap_bits: Optional[int] = None) -> list[int]:
    """Sizes of the reachability classes, largest first."""
    labels = orbit_labels(n, p, cap_bits)
    sizes = np.bincount(labels)
    return sorted((int(s) for s in sizes), reverse=True)


def _transitive_scan_factory(D: OrientedGraph):
    """O(|X|^2) membership test 'Inv(D, X) is transitive' for tournaments,
    tracked through an out-degree multiset."""
    n = D.n
    deg = D.out_degrees()
    count = [0] * n
    for d in deg:
        count[d] += 1
    dup = sum(c - 1 for c in count if c > 1)

    def qualifies(X: tuple[int, ...]) -> bool:
        nonlocal dup
        changes = []
        for v in X:
            wins = sum(1 for w in X if w != v and D.has_arc(v, w))
            new = deg[v] - wins + (len(X) - 1 - wins)
            changes.append((deg[v], new))
        ok_dup = dup
        for old, new in changes:
            if count[old] > 1:
                ok_dup -= 1
            count[old] -= 1
            if count[new] >= 1:
                ok_dup += 1
            count[new] += 1
        hit = ok_dup == 0
        for old, new in changes:  # undo
            count[new] -= 1
            count[old] += 1
        return hit

    return qualifies


def single_inversion_decycles(
    D: OrientedGraph, p: int, mode: str = AT_MOST, limit: int = MOVE_ENUM_LIMIT
) -> Optional[frozenset[int]]:
    """First vertex set (sizes ascending, lexicographic within a size) whose
    single inversion makes D acyclic, or None when no such set exists."""
    if mode not in (EXACT, AT_MOST):
        raise InputError(f"unknown mode {mode!r}")
    sizes = [p] if mode == EXACT else list(range(0, p + 1))
    sizes = [s for s in sizes if s <= D.n]
    total = sum(math.comb(D.n, s) for s in sizes)
    if total > limit:
        raise CapacityError(f"{total} candidate sets exceed scan limit {limit}")
    tournament_scan = is_tournament(D)
    qualifies = _transitive_scan_factory(D) if tournament_scan else None
    for s in sizes:
        for X in itertools.combinations(range(D.n), s):
            if tournament_scan:
                if qualifies(X):
                    return frozenset(X)
            elif is_acyclic(invert(D, X)):
                return frozenset(X)
    return None


__all__ = [
    "StateSpace",
    "default_cap_bits",
    "exact_inv",
    "orbit_census",
    "orbit_labels",
    "reachable",
    "single_inversion_decycles",
    "state_space",
]
