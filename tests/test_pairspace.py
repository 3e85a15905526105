"""F2 pair-space: encodings, parity signatures, span membership, minimization."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oriented_graphs, tournaments
from invlab import pairspace as pairspace_mod
from invlab.decycle import decycle_via_fas
from invlab.errors import CapacityError, InputError, UnsupportedRangeError
from invlab.graphs import AT_MOST, EXACT, InversionFamily, apply_family, invert
from invlab.generate import random_oriented_graph, random_tournament, transitive_tournament
from invlab.pairspace import (
    encode_set,
    encode_tournament,
    incident_masks,
    minimize_family,
    pair_count,
    pair_index,
    p_sets,
    parity_signature,
    signatures_equal,
    span_member,
    span_witness_bruteforce,
)


def _from_pairs(pairs):
    bits = 0
    for i, j in pairs:
        bits |= 1 << pair_index(i, j)
    return bits


def _pairs(bits, n):
    return [(i, j) for j in range(n) for i in range(j) if bits >> pair_index(i, j) & 1]


class TestPairVector:
    """Pair vectors are plain ints in the colex layout."""

    def test_colex_order(self):
        assert [pair_index(i, j) for j in range(4) for i in range(j)] == list(range(6))
        assert pair_index(1, 0) == pair_index(0, 1) == 0

    def test_xor_and_popcount(self):
        a = _from_pairs([(0, 1), (2, 3)])
        b = _from_pairs([(2, 3), (1, 3)])
        assert _pairs(a ^ b, 4) == [(0, 1), (1, 3)]
        assert a.bit_count() == 2

    def test_hex_golden(self):
        # colex layout: {0,1} is bit 0, {1,2} is bit 2
        assert encode_set({0, 1}, 3) == 1 << 0
        assert encode_set({1, 2}, 3) == 1 << 2
        assert _from_pairs([(0, 1), (3, 4)]) == 0x201

    def test_length_validation(self):
        # a negative int, or one with a bit at C(n,2), is no n-vertex vector
        for u in (-1, 1 << pair_count(5)):
            with pytest.raises(InputError, match="pair coordinates"):
                parity_signature(u, 3, 5)
            with pytest.raises(InputError, match="pair coordinates"):
                signatures_equal(0, u, 3, 5)
            with pytest.raises(InputError, match="pair coordinates"):
                span_member(u, 3, 5)
            with pytest.raises(InputError, match="pair coordinates"):
                span_witness_bruteforce(u, 3, 5)
        top = (1 << pair_count(5)) - 1
        assert parity_signature(top, 3, 5).bits == (0, 0, 0, 0)
        assert span_witness_bruteforce(top, 3, 5) is not None


class TestEncodings:
    def test_transitive_encodes_to_zero(self):
        for n in range(1, 8):
            assert encode_tournament(transitive_tournament(n)) == 0

    def test_single_flipped_arc(self):
        T = invert(transitive_tournament(3), {0, 1})
        assert _pairs(encode_tournament(T), 3) == [(0, 1)]

    def test_encode_set_small(self):
        assert encode_set(set(), 5) == 0
        assert encode_set({2}, 5) == 0
        assert _pairs(encode_set({0, 1}, 3), 3) == [(0, 1)]
        assert encode_set({0, 2, 3, 4}, 6).bit_count() == 6

    def test_inversion_is_xor_exhaustive_small(self):
        # every labelled tournament and every vertex set, n <= 5
        for n in range(1, 6):
            m = pair_count(n)
            for code in range(1 << m):
                T = _tournament_from_bits(n, code)
                for xm in range(1 << n):
                    X = {v for v in range(n) if xm >> v & 1}
                    lhs = encode_tournament(invert(T, X))
                    assert lhs == code ^ encode_set(X, n)

    @given(tournaments(max_n=12), st.data())
    @settings(max_examples=50)
    def test_inversion_is_xor_random(self, T, data):
        X = frozenset(v for v in range(T.n) if data.draw(st.booleans()))
        lhs = encode_tournament(invert(T, X))
        assert lhs == encode_tournament(T) ^ encode_set(X, T.n)


def _tournament_from_bits(n, code):
    from invlab.graphs import OrientedGraph

    arcs = []
    for j in range(n):
        for i in range(j):
            arcs.append((j, i) if code >> pair_index(i, j) & 1 else (i, j))
    return OrientedGraph.from_arcs(n, arcs)


class TestParitySignature:
    def test_residue_2_is_empty(self):
        u = _from_pairs([(0, 1), (2, 5)])
        assert parity_signature(u, 6, 8).bits == ()

    def test_residue_0_total_parity(self):
        z = encode_tournament(transitive_tournament(8))
        assert parity_signature(z, 4, 8).bits == (0,)
        one = _from_pairs([(1, 2)])
        assert parity_signature(one, 4, 8).bits == (1,)

    def test_signature_vanishes_on_generators_all_residues(self):
        for p, n in [(2, 5), (3, 6), (4, 7), (5, 8), (6, 9), (7, 10)]:
            for X in itertools.combinations(range(n), p):
                sig = parity_signature(encode_set(X, n), p, n)
                assert sig.is_zero(), (p, n, X)

    def test_signature_vanishes_on_random_large_sets(self):
        import random

        rng = random.Random(7)
        for _ in range(50):
            X = rng.sample(range(9), 7)
            assert parity_signature(encode_set(X, 9), 7, 9).is_zero()

    def test_per_vertex_identity_on_tournaments(self):
        # payload bit i of a tournament encoding equals n + (i+1) + outdeg(i) mod 2
        for seed in range(10):
            T = random_tournament(9, seed)
            sig = parity_signature(encode_tournament(T), 3, 9)
            for i in range(8):
                assert sig.bits[i] == (9 + (i + 1) + T.out_degree(i)) % 2

    def test_range_errors(self):
        u = 0
        with pytest.raises(UnsupportedRangeError):
            parity_signature(u, 3, 4)
        with pytest.raises(InputError):
            parity_signature(u, 1, 4)

    def test_signatures_equal_reflexive_and_invariant(self):
        T = random_tournament(7, 3)
        a = encode_tournament(T)
        assert signatures_equal(a, a, 5, 7)
        T2 = invert(T, {0, 2, 4, 5, 6})
        assert signatures_equal(a, encode_tournament(T2), 5, 7)

    def test_out_parity_difference_detected_for_odd_p(self):
        T = transitive_tournament(7)
        T2 = invert(T, {0, 1})  # flips out-parities of 0 and 1
        assert not signatures_equal(
            encode_tournament(T), encode_tournament(T2), 3, 7
        )


def _span_dual_masks(n, p):
    """Parity-check masks of span{encode_set(X)} via Gaussian elimination,
    independent of the signature construction."""
    m = pair_count(n)
    rows = [encode_set(X, n) for X in itertools.combinations(range(n), p)]
    pivots = {}
    for r in rows:
        while r:
            pos = (r & -r).bit_length() - 1
            if pos in pivots:
                r ^= pivots[pos]
            else:
                pivots[pos] = r
                break
    pivot_cols = sorted(pivots)
    free_cols = [c for c in range(m) if c not in pivot_cols]
    # back-substitute to reduced form
    reduced = dict(pivots)
    for pos in sorted(pivots, reverse=True):
        for q in list(reduced):
            if q != pos and reduced[q] >> pos & 1:
                reduced[q] ^= reduced[pos]
    duals = []
    for f in free_cols:
        h = 1 << f
        for q in pivot_cols:
            if reduced[q] >> f & 1:
                h |= 1 << q
        duals.append(h)
    return duals


class TestSpanMembership:
    def test_zero_is_member(self):
        assert span_member(0, 4, 6)

    def test_small_examples(self):
        assert not span_member(_from_pairs([(0, 1)]), 3, 5)
        assert span_member(_from_pairs([(0, 1), (2, 3)]), 4, 6)

    @pytest.mark.parametrize("n,p", [(5, 3), (6, 4), (7, 3), (7, 5)])
    def test_matches_elimination_exhaustively(self, n, p):
        m = pair_count(n)
        duals = _span_dual_masks(n, p)
        states = np.arange(1 << m, dtype=np.uint32)
        in_span = np.ones(1 << m, dtype=bool)
        for h in duals:
            in_span &= (np.bitwise_count(states & np.uint32(h)) & 1) == 0
        masks = _signature_masks(n, p)
        sig_zero = np.ones(1 << m, dtype=bool)
        for h in masks:
            sig_zero &= (np.bitwise_count(states & np.uint32(h)) & 1) == 0
        assert np.array_equal(in_span, sig_zero)

    def test_witness_empty_for_zero(self):
        fam = span_witness_bruteforce(0, 4, 6)
        assert fam is not None and len(fam) == 0

    def test_witness_for_generator(self):
        u = encode_set({1, 2, 3, 4}, 7)
        fam = span_witness_bruteforce(u, 4, 7)
        acc = 0
        for X in fam.sets:
            acc ^= encode_set(X, 7)
        assert acc == u

    def test_witness_agrees_with_membership(self):
        import random

        rng = random.Random(0)
        for p, n in [(3, 6), (4, 6), (5, 7)]:
            for _ in range(25):
                u = rng.getrandbits(pair_count(n))
                fam = span_witness_bruteforce(u, p, n)
                assert (fam is not None) == span_member(u, p, n)
                if fam is not None:
                    acc = 0
                    for X in fam.sets:
                        acc ^= encode_set(X, n)
                    assert acc == u
                    assert all(len(X) == p for X in fam.sets)

    def test_p_sets_lexicographic_with_indicators(self):
        sets = p_sets(6, 3)
        assert list(sets) == list(itertools.combinations(range(6), 3))
        assert all(u == encode_set(X, 6) for X, u in sets.items())
        assert p_sets(4, 0) == {(): 0}
        assert p_sets(3, 5) == {}
        for n, p in [(-1, 2), (4, -1)]:
            with pytest.raises(InputError):
                p_sets(n, p)

    def test_p_sets_limit(self, monkeypatch):
        monkeypatch.setattr(pairspace_mod, "SPAN_WITNESS_LIMIT", 70)
        assert len(p_sets(8, 4)) == 70
        with pytest.raises(CapacityError, match="C\\(9,4\\)"):
            p_sets(9, 4)

    def test_witness_capacity(self, monkeypatch):
        monkeypatch.setattr(pairspace_mod, "SPAN_WITNESS_LIMIT", 1000)
        with pytest.raises(CapacityError, match="exceed limit 1000"):
            span_witness_bruteforce(0, 20, 40)


def _signature_masks(n, p):
    """Pair-coordinate masks whose joint parities form the signature."""
    r = p % 4
    if r == 2:
        return []
    if r == 0:
        return [(1 << pair_count(n)) - 1]
    masks = list(incident_masks(n)[: n - 1])
    if r == 1:
        masks.append((1 << pair_count(n)) - 1)
    return masks


class TestMinimizeFamily:
    def test_cancellation(self):
        D = random_tournament(6, 4)
        X, Y = frozenset({0, 1, 2}), frozenset({3, 4, 5})
        fam = InversionFamily((X, X, Y), 3, "eq")
        out = minimize_family(D, fam)
        assert out.sets == (Y,)

    def test_independent_family_unchanged(self):
        D = random_tournament(6, 5)
        fam = InversionFamily(
            (frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5})), 2, "eq"
        )
        assert minimize_family(D, fam).sets == fam.sets

    def test_random_inflated_families(self):
        import random

        rng = random.Random(11)
        for trial in range(30):
            D = random_oriented_graph(8, 0.6, trial)
            sets = tuple(
                frozenset(rng.sample(range(8), rng.randint(2, 4))) for _ in range(40)
            )
            fam = InversionFamily(sets, 4, AT_MOST)
            out = minimize_family(D, fam)
            assert len(out) <= len(D.underlying_pairs())
            assert apply_family(D, out) == apply_family(D, fam)
            remaining = list(out.sets)
            for X in remaining:  # multiset inclusion
                assert X in sets


def _reference_minimize(D1, family):
    """The restart-after-every-dependency elimination over edge indices that
    minimize_family must reproduce exactly."""
    edge_index = {e: i for i, e in enumerate(D1.underlying_pairs())}
    sets = list(family.sets)
    while True:
        pivots = {}
        dependent = None
        for i, X in enumerate(sets):
            vec = 0
            for (a, b), idx in edge_index.items():
                if a in X and b in X:
                    vec |= 1 << idx
            combo = 1 << i
            while vec:
                pos = (vec & -vec).bit_length() - 1
                if pos not in pivots:
                    break
                vec ^= pivots[pos][0]
                combo ^= pivots[pos][1]
            if vec == 0:
                dependent = combo
                break
            pivots[pos] = (vec, combo)
        if dependent is None:
            break
        sets = [X for i, X in enumerate(sets) if not dependent >> i & 1]
    return InversionFamily(tuple(sets), family.p, family.mode)


@st.composite
def graphs_with_families(draw):
    """Families with repeated sets and sets without an underlying edge."""
    D = draw(oriented_graphs(min_n=1, max_n=9))
    mode = draw(st.sampled_from([EXACT, AT_MOST]))
    p = draw(st.integers(min_value=0, max_value=min(D.n, 5)))
    size = st.just(p) if mode == EXACT else st.integers(min_value=0, max_value=p)
    subset = size.flatmap(
        lambda k: st.lists(
            st.integers(min_value=0, max_value=D.n - 1),
            min_size=k, max_size=k, unique=True,
        )
    ).map(frozenset)
    pool = draw(st.lists(subset, min_size=1, max_size=5))
    sets = draw(st.lists(st.one_of(st.sampled_from(pool), subset), max_size=40))
    return D, InversionFamily(tuple(sets), p, mode)


class TestMinimizeMatchesReference:
    @given(graphs_with_families())
    @settings(max_examples=300, deadline=None)
    def test_random_families(self, case):
        D, fam = case
        assert minimize_family(D, fam).sets == _reference_minimize(D, fam).sets

    def test_pipeline_family_before_minimization(self):
        # the gadget sets of a p=4 pipeline at n=30: hundreds of duplicate
        # pairs and some 8-member combos, each dependency forcing a downdate
        D = random_tournament(30, 4)
        plans = []
        decycle_via_fas(D, 4, trace=plans)
        fam = InversionFamily(tuple(X for plan in plans for X in plan.sets), 4, EXACT)
        out = minimize_family(D, fam)
        assert out.sets == _reference_minimize(D, fam).sets
        assert len(out) < len(fam) // 2
