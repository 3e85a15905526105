"""F2 vector space over unordered vertex pairs.

Coordinates are fixed colexicographically: pair {i, j} with i < j sits at bit
index j*(j-1)//2 + i, so the order is (0,1), (0,2), (1,2), (0,3), ...  The
hex serialization writes the whole bit string as one little-endian integer in
this layout, zero-padded to ceil(C(n,2)/4) digits.  Every routine in this
module is pure.
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


@dataclass(frozen=True)
class PairVector:
    n: int
    bits: int = 0

    def __post_init__(self) -> None:
        if self.bits < 0 or self.bits >> pair_count(self.n):
            raise InputError("bits outside C(n,2) coordinates")

    def __xor__(self, other: "PairVector") -> "PairVector":
        if self.n != other.n:
            raise InputError("XOR of PairVectors with different n")
        return PairVector(self.n, self.bits ^ other.bits)

    def get(self, i: int, j: int) -> int:
        return self.bits >> pair_index(i, j) & 1

    def popcount(self) -> int:
        return self.bits.bit_count()

    def pairs(self) -> list[tuple[int, int]]:
        out = []
        for j in range(self.n):
            for i in range(j):
                if self.get(i, j):
                    out.append((i, j))
        return out

    def to_hex(self) -> str:
        width = max(1, (pair_count(self.n) + 3) // 4)
        return format(self.bits, f"0{width}x")

    @classmethod
    def from_hex(cls, n: int, text: str) -> "PairVector":
        return cls(n, int(text, 16))

    @classmethod
    def zero(cls, n: int) -> "PairVector":
        return cls(n, 0)

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "PairVector":
        bits = 0
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise InputError(f"pair ({i},{j}) out of range")
            bits |= 1 << pair_index(i, j)
        return cls(n, bits)


def encode_tournament(T: OrientedGraph) -> PairVector:
    """Backward-arc indicator: bit {i,j} (i<j) is set iff the arc runs j -> i."""
    if not is_tournament(T):
        raise InputError("encode_tournament needs a tournament")
    bits = 0
    for u, v in T.arcs():
        if u > v:
            bits |= 1 << pair_index(v, u)
    return PairVector(T.n, bits)


def encode_set(X: Iterable[int], n: int) -> PairVector:
    """Pair indicator of a vertex set: bit {i,j} set iff both ends lie in X."""
    xs = sorted(set(X))
    if xs and not (0 <= xs[0] and xs[-1] < n):
        raise InputError(f"set {xs} out of range for n={n}")
    bits = 0
    for a, b in itertools.combinations(xs, 2):
        bits |= 1 << pair_index(a, b)
    return PairVector(n, bits)


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


def parity_signature(u: PairVector, p: int, n: int) -> ParitySignature:
    _check_range(p, n)
    if u.n != n:
        raise InputError("vector length does not match n")
    r = p % 4
    if r == 2:
        return ParitySignature(2, ())
    total = u.bits.bit_count() & 1
    if r == 0:
        return ParitySignature(0, (total,))
    masks = incident_masks(n)
    per = tuple((u.bits & masks[i]).bit_count() & 1 for i in range(n - 1))
    if r == 3:
        return ParitySignature(3, per)
    return ParitySignature(1, per + (total,))


def signatures_equal(u1: PairVector, u2: PairVector, p: int, n: int) -> bool:
    return parity_signature(u1, p, n) == parity_signature(u2, p, n)


def span_member(u: PairVector, p: int, n: int) -> bool:
    """Whether u lies in the span of all (=p)-set indicators."""
    return parity_signature(u, p, n).is_zero()


def _reduce(vec: int, combo: int, pivots: dict[int, tuple[int, int]]):
    """Cancel lowest set bits against pivots; returns (vec, combo, open position)."""
    while vec:
        pos = (vec & -vec).bit_length() - 1
        if pos not in pivots:
            return vec, combo, pos
        pv, pc = pivots[pos]
        vec ^= pv
        combo ^= pc
    return 0, combo, None


def span_witness_bruteforce(
    u: PairVector, p: int, n: int, limit: int = 100_000
) -> Optional[InversionFamily]:
    """A family of (=p)-sets whose indicators XOR to u, by Gaussian elimination
    over all C(n,p) generators, or None when u is outside their span."""
    if p < 0 or p > n:
        raise InputError("need 0 <= p <= n")
    if math.comb(n, p) > limit:
        raise CapacityError(f"C({n},{p}) generators exceed limit {limit}")
    generators = list(itertools.combinations(range(n), p))
    pivots: dict[int, tuple[int, int]] = {}
    for gi, X in enumerate(generators):
        vec, combo, pos = _reduce(encode_set(X, n).bits, 1 << gi, pivots)
        if vec:
            pivots[pos] = (vec, combo)
    vec, combo, _ = _reduce(u.bits, 0, pivots)
    if vec:
        return None
    chosen = tuple(
        frozenset(generators[i]) for i in range(len(generators)) if combo >> i & 1
    )
    witness = InversionFamily(chosen, p, EXACT)
    check = 0
    for X in chosen:
        check ^= encode_set(X, n).bits
    assert check == u.bits
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
        combo = 1 << i
        while vec:
            top = vec.bit_length()
            row = pivots.get(top)
            if row is None:
                break
            vec ^= row[0]
            combo ^= row[1]
        if vec:
            pivots[top] = (vec, combo)
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
