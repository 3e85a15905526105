"""Exhaustive ground truth by BFS over the F2 arc-state space.

A state is an integer whose bit e says whether edge e of UG(D) is flipped
relative to D; edge order is the lexicographically sorted endpoint-pair list,
and state 0 is D itself.  Moves are the nonzero pair-indicator masks of the
candidate inversion sets restricted to those edges, deduplicated (distinct
sets inducing the same restriction collapse to one move).  Distances are
BFS-exact; unreachability is reported as None, never as a sentinel number.
The reachable states are the F2 span of the moves, so reachability and the
class census are answered by Gaussian elimination; orbit_labels keeps a BFS
as the independent reference.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .errors import CapacityError, InputError
from .graphs import (
    ACYCLIC_CHUNK,
    AT_MOST,
    EXACT,
    OrientedGraph,
    acyclic_columns,
    invert,
    is_acyclic,
    is_tournament,
)
from .pairspace import _reduce, encode_set

DEFAULT_CAP_BITS = 22
HARD_CAP_BITS = 26  # uint32 state arrays; the visited table alone is 2^m bytes
MOVE_ENUM_LIMIT = 2_000_000


def default_cap_bits() -> int:
    env = os.environ.get("INVLAB_CAP_BITS")
    if not env:
        return DEFAULT_CAP_BITS
    try:
        return int(env)
    except ValueError:
        raise InputError(f"INVLAB_CAP_BITS={env!r} is not an integer") from None


def _check_state_bits(m: int, cap_bits: Optional[int]) -> None:
    cap = default_cap_bits() if cap_bits is None else cap_bits
    if m > min(cap, HARD_CAP_BITS):
        raise CapacityError(
            f"{m} edge bits exceed the state cap "
            f"(cap {cap}, hard ceiling {HARD_CAP_BITS})"
        )


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
    bit = [1 << i for i in range(a)]
    chosen = np.fromiter(
        (sum(sub) for s in sizes for sub in itertools.combinations(bit, s)),
        dtype=np.uint64,
        count=total,
    )
    row = {v: np.uint64(i) for i, v in enumerate(active)}
    moves = np.zeros(total, dtype=np.uint64)
    for i, (u, v) in enumerate(edges):
        inside = (chosen >> row[u]) & (chosen >> row[v]) & np.uint64(1)
        moves |= inside << np.uint64(i)
    moves = np.unique(moves)
    return tuple(moves[moves != 0].tolist())


@dataclass(frozen=True)
class StateSpace:
    """Base graph plus its move set over 2^m arc states."""

    graph: OrientedGraph
    edges: tuple[tuple[int, int], ...]
    moves: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.edges)


def state_space(
    D: OrientedGraph, p: int, mode: str = EXACT, cap_bits: Optional[int] = None
) -> StateSpace:
    edges = tuple(D.underlying_pairs())
    _check_state_bits(len(edges), cap_bits)
    return StateSpace(D, edges, _restricted_moves(D.n, edges, p, mode))


def _bfs_layers(
    moves: np.ndarray, start: int, seen: np.ndarray
) -> Iterator[np.ndarray]:
    """BFS layers from start over the uint32 move array, layer d holding the
    states at distance d; seen (a bool array over all states) marks every
    state yielded.  A layer is expanded only when the next one is requested."""
    seen[start] = True
    frontier = np.array([start], dtype=np.uint32)
    while frontier.size:
        yield frontier
        if not moves.size:
            return
        nxt = np.unique((frontier[:, None] ^ moves[None, :]).ravel())
        frontier = nxt[~seen[nxt]]
        seen[frontier] = True


def _bfs_until(
    space: StateSpace, start: int, is_target: Callable[[np.ndarray], np.ndarray]
) -> Optional[int]:
    """Layered BFS from start; distance to the first layer containing a target."""
    moves = np.array(space.moves, dtype=np.uint32)
    seen = np.zeros(1 << space.m, dtype=bool)
    for d, layer in enumerate(_bfs_layers(moves, start, seen)):
        if is_target(layer).any():
            return d
    return None


def _flip_masks(
    k: int, ends: list[tuple[int, int]], states: np.ndarray
) -> np.ndarray:
    """(k, len(states)) XOR masks on k out-masks: bit i of a state reverses
    the arc between rows ends[i] = (u, v), whichever way it points."""
    out = np.zeros((k, states.size), dtype=np.uint64)
    for i, (u, v) in enumerate(ends):
        flip = (states >> np.uint64(i)) & np.uint64(1)
        out[u] ^= flip << np.uint64(v)
        out[v] ^= flip << np.uint64(u)
    return out


def _acyclic_states(space: StateSpace) -> Callable[[np.ndarray], np.ndarray]:
    """Batch test 'state s decodes to an acyclic graph', for _bfs_until.

    Rows are the edge-incident vertices only; a state's out-masks are the
    base masks XORed with one precomputed table entry per byte of the state.
    """
    active = sorted({v for e in space.edges for v in e})
    row = {v: i for i, v in enumerate(active)}
    out = [0] * len(active)
    for u, v in space.graph.arcs():
        out[row[u]] |= 1 << row[v]
    base = np.array(out, dtype=np.uint64)[:, None]
    ends = [(row[u], row[v]) for u, v in space.edges]
    # byte j of a state applies the XOR masks tables[j][:, byte]
    tables = [
        _flip_masks(len(active), part, np.arange(1 << len(part), dtype=np.uint64))
        for part in (ends[lo : lo + 8] for lo in range(0, len(ends), 8))
    ]

    def acyclic(frontier: np.ndarray) -> np.ndarray:
        hits = []
        for lo in range(0, frontier.size, ACYCLIC_CHUNK):
            states = frontier[lo : lo + ACYCLIC_CHUNK]
            masks = np.repeat(base, states.size, axis=1)
            for j, table in enumerate(tables):
                masks ^= table[:, states >> 8 * j & 255]
            hits.append(acyclic_columns(masks))
        return np.concatenate(hits)

    return acyclic


def exact_inv(
    D: OrientedGraph, p: int, mode: str = EXACT, cap_bits: Optional[int] = None
) -> Optional[int]:
    """Minimum number of (=p)- or (<=p)-inversions rendering D acyclic,
    or None when no sequence reaches an acyclic orientation."""
    space = state_space(D, p, mode, cap_bits)
    return _bfs_until(space, 0, _acyclic_states(space))


def _span_basis(vectors: Iterable[int]) -> dict[int, tuple[int, int]]:
    """Echelon basis of the F2 span of the vectors, keyed by pivot position."""
    pivots: dict[int, tuple[int, int]] = {}
    for vec in vectors:
        vec, _, pos = _reduce(vec, 0, pivots)
        if vec:
            pivots[pos] = (vec, 0)
    return pivots


def reachable(
    T1: OrientedGraph, T2: OrientedGraph, p: int, cap_bits: Optional[int] = None
) -> bool:
    """Whether some (=p)-family maps tournament T1 onto T2.

    The states reachable from 0 are exactly the F2 span of the moves, so this
    tests membership of the target by Gaussian elimination: generic linear
    algebra over the enumerated moves, independent of the paper's parity
    signature."""
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
    return not _reduce(target, 0, _span_basis(space.moves))[0]


def orbit_labels(n: int, p: int, cap_bits: Optional[int] = None) -> np.ndarray:
    """Reachability-class label of every one of the 2^C(n,2) labelled
    tournaments, states laid out in the colexicographic pair order."""
    m = n * (n - 1) // 2
    _check_state_bits(m, cap_bits)
    moves_set = {encode_set(X, n).bits for X in itertools.combinations(range(n), p)}
    moves_set.discard(0)
    moves = np.array(sorted(moves_set), dtype=np.uint32)
    labels = np.full(1 << m, -1, dtype=np.int32)
    seen = np.zeros(1 << m, dtype=bool)
    cls = 0
    while not seen.all():
        for layer in _bfs_layers(moves, int(np.argmin(seen)), seen):
            labels[layer] = cls
        cls += 1
    return labels


def orbit_census(n: int, p: int, cap_bits: Optional[int] = None) -> list[int]:
    """Sizes of the reachability classes, largest first.

    The classes are the cosets of the span of the p-set indicators, so there
    are 2^(m-r) of them, each of size 2^r, where r is the rank of that span
    over F2.  This is generic linear algebra over the enumerated generators,
    not the paper's parity theorem; orbit_labels is the BFS reference."""
    m = n * (n - 1) // 2
    _check_state_bits(m, cap_bits)
    generators = (encode_set(X, n).bits for X in itertools.combinations(range(n), p))
    r = len(_span_basis(generators))
    return [1 << r] * (1 << (m - r))


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
