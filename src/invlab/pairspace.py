"""F2 vector space over unordered vertex pairs, and the one GF(2)
elimination of the package.

A vector is a plain nonnegative int: pair {i, j} with i < j is bit
j*(j-1)//2 + i (colexicographic, so the order is (0,1), (0,2), (1,2), (0,3),
...), and an n-vertex vector has no bit at or above C(n,2).  Every routine in
this module is pure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from .errors import CapacityError, InputError, UnsupportedRangeError
from .graphs import EXACT, InversionFamily, OrientedGraph, is_tournament


def pair_index(i: int, j: int) -> int:
    if i == j:
        raise InputError("pair needs two distinct vertices")
    if i > j:
        i, j = j, i
    return j * (j - 1) // 2 + i


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


@lru_cache(maxsize=None)
def incident_masks(n: int) -> tuple[int, ...]:
    """incident_masks(n)[v] has a 1 at every pair coordinate containing v."""
    masks = [0] * n
    for j in range(n):
        for i in range(j):
            b = 1 << pair_index(i, j)
            masks[i] |= b
            masks[j] |= b
    return tuple(masks)


def _check_vector(u: int, n: int) -> None:
    if u < 0 or u >> pair_count(n):
        raise InputError(f"vector has bits outside the C({n},2) pair coordinates")


def encode_tournament(T: OrientedGraph) -> int:
    """Backward-arc indicator: bit {i,j} (i<j) is set iff the arc runs j -> i."""
    if not is_tournament(T):
        raise InputError("encode_tournament needs a tournament")
    bits = 0
    for u, v in T.arcs():
        if u > v:
            bits |= 1 << pair_index(v, u)
    return bits


def encode_set(X: Iterable[int], n: int) -> int:
    """Pair indicator of a vertex set: bit {i,j} set iff both ends lie in X."""
    xs = sorted(set(X))
    if xs and not (0 <= xs[0] and xs[-1] < n):
        raise InputError(f"set {xs} out of range for n={n}")
    bits = 0
    for a, b in itertools.combinations(xs, 2):
        bits |= 1 << pair_index(a, b)
    return bits


@dataclass(frozen=True)
class ParitySignature:
    """The invariant preserved by all (=p)-inversions, keyed by p mod 4.

    Payload layout: residue 2 -> empty; residue 0 -> one total-parity bit;
    residue 3 -> per-vertex incident parities for vertices 0..n-2; residue 1
    -> those n-1 bits followed by the total-parity bit.
    """

    residue: int
    bits: tuple[int, ...]

    def is_zero(self) -> bool:
        return not any(self.bits)


def _check_range(p: int, n: int) -> None:
    if p < 2:
        raise InputError("p must be at least 2")
    if n < p + 2:
        raise UnsupportedRangeError(f"need n >= p + 2 (got n={n}, p={p})")


def parity_signature(u: int, p: int, n: int) -> ParitySignature:
    _check_range(p, n)
    _check_vector(u, n)
    r = p % 4
    if r == 2:
        return ParitySignature(2, ())
    total = u.bit_count() & 1
    if r == 0:
        return ParitySignature(0, (total,))
    masks = incident_masks(n)
    per = tuple((u & masks[i]).bit_count() & 1 for i in range(n - 1))
    if r == 3:
        return ParitySignature(3, per)
    return ParitySignature(1, per + (total,))


def signatures_equal(u1: int, u2: int, p: int, n: int) -> bool:
    return parity_signature(u1, p, n) == parity_signature(u2, p, n)


def span_member(u: int, p: int, n: int) -> bool:
    """Whether u lies in the span of all (=p)-set indicators."""
    return parity_signature(u, p, n).is_zero()


def _reduce(vec: int, combo: int, pivots: dict[int, tuple[int, int]]) -> tuple[int, int]:
    """Cancel the highest set bit of vec against the pivot row keyed by its
    bit_length until no row matches; returns the remainder with combo XORed
    alongside.  A nonzero remainder is independent of the rows, and its own
    bit_length is a free key."""
    while vec:
        row = pivots.get(vec.bit_length())
        if row is None:
            break
        vec ^= row[0]
        combo ^= row[1]
    return vec, combo


def span_basis(vectors: Iterable[int]) -> dict[int, tuple[int, int]]:
    """Echelon basis of the F2 span of the vectors, so its length is the
    rank: rows keyed by their highest bit, each with the mask of the input
    indices XORed into it."""
    pivots: dict[int, tuple[int, int]] = {}
    for i, vec in enumerate(vectors):
        vec, combo = _reduce(vec, 1 << i, pivots)
        if vec:
            pivots[vec.bit_length()] = (vec, combo)
    return pivots


# span_witness_bruteforce refuses more generators than this
SPAN_WITNESS_LIMIT = 100_000


def span_witness_bruteforce(u: int, p: int, n: int) -> Optional[InversionFamily]:
    """A family of (=p)-sets whose indicators XOR to u, by Gaussian elimination
    over all C(n,p) generators, or None when u is outside their span."""
    if p < 0 or p > n:
        raise InputError("need 0 <= p <= n")
    _check_vector(u, n)
    if math.comb(n, p) > SPAN_WITNESS_LIMIT:
        raise CapacityError(f"C({n},{p}) generators exceed limit {SPAN_WITNESS_LIMIT}")
    generators = list(itertools.combinations(range(n), p))
    vec, combo = _reduce(u, 0, span_basis(encode_set(X, n) for X in generators))
    if vec:
        return None
    chosen = tuple(
        frozenset(generators[i]) for i in range(len(generators)) if combo >> i & 1
    )
    witness = InversionFamily(chosen, p, EXACT)
    check = 0
    for X in chosen:
        check ^= encode_set(X, n)
    assert check == u
    return witness


def minimize_family(D1: OrientedGraph, family: InversionFamily) -> InversionFamily:
    """Drop zero-effect subfamilies until the restrictions to E(UG(D1)) are
    linearly independent; the result is a subfamily with identical net effect
    and at most |E(UG(D1))| members.

    A set's restriction comes from a per-graph pair-bit table: the pairs j
    forms with lower vertices fill the bits from j(j-1)/2 on, so with
    ``low[j]`` the underlying neighbours of j below j, the restriction of X
    is the OR over j in X of ``mask(X) & low[j]`` shifted to that block.

    One pass: a restriction that depends on the kept members before it is
    dropped with its combo, unique because those members are independent,
    and the basis is downdated rather than rebuilt; so the output equals
    restarting the elimination after every dependency.  Pivot rows are keyed
    by their highest set bit: gadget sets share their low helper vertices
    and differ in their top pairs, so this takes far fewer reduction steps
    than lowest-bit pivots and keeps the combos sparse.
    """
    family.validate(D1.n)
    table = [
        (m & ((1 << j) - 1), j * (j - 1) // 2)
        for j, m in enumerate(D1.underlying_masks())
    ]
    sets = family.sets
    pivots: dict[int, tuple[int, int]] = {}
    dropped = 0
    for i, X in enumerate(sets):
        xm = 0
        for v in X:
            xm |= 1 << v
        vec = 0
        for v in X:
            low, shift = table[v]
            vec |= (xm & low) << shift
        vec, combo = _reduce(vec, 1 << i, pivots)
        if vec:
            pivots[vec.bit_length()] = (vec, combo)
            continue
        dropped |= combo
        combo ^= 1 << i
        while combo:
            k = combo & -combo
            combo ^= k
            # eliminate member k from the basis; XORing in the row with the
            # lowest pivot leaves every other row's highest bit in place
            rows = [q for q, (_, c) in pivots.items() if c & k]
            bottom = min(rows)
            bv, bc = pivots.pop(bottom)
            for q in rows:
                if q != bottom:
                    v, c = pivots[q]
                    pivots[q] = (v ^ bv, c ^ bc)
    kept = tuple(X for i, X in enumerate(sets) if not dropped >> i & 1)
    assert len(kept) <= D1.arc_count
    return InversionFamily(kept, family.p, family.mode)
