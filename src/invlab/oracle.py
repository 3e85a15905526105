"""Exhaustive ground truth by BFS over the F2 arc-state space.

A state is an integer whose bit e says whether edge e of UG(D) is flipped
relative to D; edge order is the lexicographically sorted endpoint-pair list,
and state 0 is D itself.  Moves are the nonzero pair-indicator masks of the
candidate inversion sets restricted to those edges, deduplicated (distinct
sets inducing the same restriction collapse to one move).  Distances are
BFS-exact; unreachability is reported as None, never as a sentinel number.
Between tournaments the reachable states are the F2 span of the p-set
indicators, so reachability and the class census are answered by pairspace's
Gaussian elimination over pairspace.p_sets, with no state table; orbit_labels
keeps a BFS as the independent reference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .errors import CapacityError, InputError
from .graphs import (
    ACYCLIC_CHUNK,
    ACYCLIC_MAX_VERTICES,
    AT_MOST,
    EXACT,
    OrientedGraph,
    _bits,
    acyclic_columns,
    is_tournament,
)
from .pairspace import _reduce, encode_tournament, p_sets, span_basis

DEFAULT_CAP_BITS = 22
HARD_CAP_BITS = 26  # uint32 state arrays; the visited table alone is 2^m bytes
MOVE_ENUM_LIMIT = 2_000_000


def _check_state_bits(m: int, cap_bits: Optional[int]) -> None:
    cap = DEFAULT_CAP_BITS if cap_bits is None else cap_bits
    if m > min(cap, HARD_CAP_BITS):
        raise CapacityError(
            f"{m} edge bits exceed the state cap "
            f"(cap {cap}, hard ceiling {HARD_CAP_BITS})"
        )


def _subset_masks(a: int, sizes: Iterable[int], what: str) -> Iterator[int]:
    """Every subset of range(a) whose size is in sizes, as int bitmasks drawn
    lazily: sizes in the given order, lexicographic within a size.  Refuses
    more than MOVE_ENUM_LIMIT subsets before yielding any."""
    sizes = [s for s in sizes if 0 <= s <= a]
    total = sum(math.comb(a, s) for s in sizes)
    if total > MOVE_ENUM_LIMIT:
        raise CapacityError(f"{total} candidate sets exceed {what} limit {MOVE_ENUM_LIMIT}")
    bit = [1 << i for i in range(a)]
    return (sum(sub) for s in sizes for sub in itertools.combinations(bit, s))


def _restricted_moves(
    n: int, edges: tuple[tuple[int, int], ...], p: int, mode: str
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
    chosen = np.fromiter(_subset_masks(a, sizes, "move"), dtype=np.uint64)
    row = {v: np.uint64(i) for i, v in enumerate(active)}
    moves = np.zeros(chosen.size, dtype=np.uint64)
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
    if p < 0:
        raise InputError(f"p must be nonnegative (got {p})")
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
        nxt = (frontier[:, None] ^ moves[None, :]).ravel()
        frontier = np.unique(nxt[~seen[nxt]])
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


def reachable(T1: OrientedGraph, T2: OrientedGraph, p: int) -> bool:
    """Whether some (=p)-family maps tournament T1 onto T2.

    The families reach exactly the F2 span of the p-set indicators, so this
    tests membership of enc(T1) ^ enc(T2) by Gaussian elimination: generic
    linear algebra over the enumerated generators, independent of the
    paper's parity signature and of the state cap (C(n, p) is capped by
    p_sets instead)."""
    if T1.n != T2.n:
        raise InputError("tournaments must share a vertex set")
    if not is_tournament(T1) or not is_tournament(T2):
        raise InputError("both inputs must be tournaments")
    target = encode_tournament(T1) ^ encode_tournament(T2)
    return not _reduce(target, 0, span_basis(p_sets(T1.n, p).values()))[0]


def _tournament_state_bits(n: int, p: int, cap_bits: Optional[int]) -> int:
    """C(n, 2), the state bits of the n-vertex tournaments, once n and p are
    checked to be nonnegative and the bits to fit the state cap."""
    if n < 0 or p < 0:
        raise InputError(f"n and p must be nonnegative (got n={n}, p={p})")
    m = n * (n - 1) // 2
    _check_state_bits(m, cap_bits)
    return m


def orbit_labels(n: int, p: int, cap_bits: Optional[int] = None) -> np.ndarray:
    """Reachability-class label of every one of the 2^C(n,2) labelled
    tournaments, states laid out in the colexicographic pair order."""
    m = _tournament_state_bits(n, p, cap_bits)
    moves_set = set(p_sets(n, p).values())
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


def orbit_census(n: int, p: int, cap_bits: Optional[int] = None) -> tuple[int, int]:
    """(classes, size): the number of reachability classes and their common
    size.

    The classes are the cosets of the span of the p-set indicators, so there
    are 2^(m-r) of them, each of size 2^r, where r is the rank of that span
    over F2.  This is generic linear algebra over the enumerated generators,
    not the paper's parity theorem; orbit_labels is the BFS reference.  The
    state cap still applies, since both numbers run up to 2^m."""
    m = _tournament_state_bits(n, p, cap_bits)
    r = len(span_basis(p_sets(n, p).values()))
    return 1 << (m - r), 1 << r


def single_inversion_decycles(
    D: OrientedGraph, p: int, mode: str = AT_MOST
) -> Optional[frozenset[int]]:
    """First vertex set (sizes ascending, lexicographic within a size) whose
    single inversion makes D acyclic, or None when no such set exists.

    The candidate sets are enumerated and tested one batch at a time by
    acyclic_columns, so an early hit ends the scan, and D may have at most
    ACYCLIC_MAX_VERTICES vertices."""
    if mode not in (EXACT, AT_MOST):
        raise InputError(f"unknown mode {mode!r}")
    if D.n > ACYCLIC_MAX_VERTICES:
        raise CapacityError(
            f"single-inversion scan limited to {ACYCLIC_MAX_VERTICES} vertices (got {D.n})"
        )
    sets = _subset_masks(D.n, [p] if mode == EXACT else range(p + 1), "scan")
    out = np.array(D.out, dtype=np.uint64)[:, None]
    und = np.array(D.underlying_masks(), dtype=np.uint64)[:, None]
    shifts = np.arange(D.n, dtype=np.uint64)[:, None]
    while True:
        X = np.fromiter(itertools.islice(sets, ACYCLIC_CHUNK), dtype=np.uint64)
        if not X.size:
            return None
        # a member u of X reverses its arcs to X: out[u] ^= X & und[u]
        hits = acyclic_columns(out ^ ((X >> shifts) & np.uint64(1)) * (X & und))
        if hits.any():
            return frozenset(_bits(int(X[np.argmax(hits)])))


__all__ = [
    "StateSpace",
    "exact_inv",
    "orbit_census",
    "orbit_labels",
    "reachable",
    "single_inversion_decycles",
    "state_space",
]
