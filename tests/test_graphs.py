"""Graph-core: inversion/push primitives, acyclicity, feedback arc sets."""

import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oriented_graphs, tournaments
from invlab.errors import CapacityError, InputError
from invlab.graphs import (
    AT_MOST,
    EXACT,
    FasResult,
    InversionFamily,
    OrientedGraph,
    apply_family,
    backward_arcs,
    complement_of_underlying,
    delete_vertex,
    fas_exact,
    fas_heuristic,
    find_cycle,
    induced_subgraph,
    invert,
    is_acyclic,
    is_tournament,
    out_even_count,
    push,
)
from invlab.generate import (
    directed_cycle,
    diregular_tournament,
    random_oriented_graph,
    random_tournament,
    transitive_tournament,
)


def brute_fas(D):
    """Minimum backward arcs over all orderings (independent oracle)."""
    return min(
        len(backward_arcs(D, perm)) for perm in itertools.permutations(range(D.n))
    )


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(InputError):
            OrientedGraph.from_arcs(3, [(1, 1)])

    def test_rejects_digon(self):
        with pytest.raises(InputError):
            OrientedGraph.from_arcs(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            OrientedGraph.from_arcs(2, [(0, 2)])

    def test_degenerate_orders_are_acyclic(self):
        assert is_acyclic(OrientedGraph.from_arcs(0, []))
        assert is_acyclic(OrientedGraph.from_arcs(1, []))


class TestInvert:
    def test_c3_single_arc_reversal(self):
        D = invert(directed_cycle(3), {0, 1})
        assert sorted(D.arcs()) == [(1, 0), (1, 2), (2, 0)]
        assert is_acyclic(D)

    def test_empty_set_is_identity(self):
        D = random_tournament(6, 0)
        assert invert(D, set()) == D

    @given(oriented_graphs(), st.data())
    def test_involution(self, D, data):
        X = frozenset(v for v in range(D.n) if data.draw(st.booleans()))
        assert invert(invert(D, X), X) == D

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            invert(directed_cycle(3), {0, 5})


class TestApplyFamily:
    def test_cancellation(self):
        D = random_tournament(5, 1)
        fam = InversionFamily((frozenset({0, 1, 2}), frozenset({0, 1, 2})), 3, EXACT)
        assert apply_family(D, fam) == D

    def test_c3_two_sets(self):
        fam = InversionFamily((frozenset({0, 1}), frozenset({1, 2})), 2, EXACT)
        got = apply_family(directed_cycle(3), fam)
        assert sorted(got.arcs()) == [(1, 0), (2, 0), (2, 1)]

    @given(oriented_graphs(max_n=6), st.data())
    @settings(max_examples=60)
    def test_order_independence(self, D, data):
        sets = [
            frozenset(v for v in range(D.n) if data.draw(st.booleans()))
            for _ in range(3)
        ]
        fam = InversionFamily(tuple(sets), D.n, AT_MOST)
        perm = data.draw(st.permutations(sets))
        fam2 = InversionFamily(tuple(perm), D.n, AT_MOST)
        assert apply_family(D, fam) == apply_family(D, fam2)

    @given(oriented_graphs(max_n=6), st.data())
    @settings(max_examples=60)
    def test_duplicate_pair_removal(self, D, data):
        X = frozenset(v for v in range(D.n) if data.draw(st.booleans()))
        Y = frozenset(v for v in range(D.n) if data.draw(st.booleans()))
        with_dup = InversionFamily((X, Y, X), D.n, AT_MOST)
        without = InversionFamily((Y,), D.n, AT_MOST)
        assert apply_family(D, with_dup) == apply_family(D, without)

    @given(oriented_graphs(max_n=6), st.data())
    @settings(max_examples=60)
    def test_underlying_graph_preserved(self, D, data):
        sets = [
            frozenset(v for v in range(D.n) if data.draw(st.booleans()))
            for _ in range(2)
        ]
        fam = InversionFamily(tuple(sets), D.n, AT_MOST)
        assert apply_family(D, fam).underlying_pairs() == D.underlying_pairs()

    def test_mode_violation(self):
        fam = InversionFamily((frozenset({0, 1}),), 3, EXACT)
        with pytest.raises(InputError):
            apply_family(directed_cycle(3), fam)


class TestAcyclicity:
    def test_transitive(self):
        assert is_acyclic(transitive_tournament(5))
        assert find_cycle(transitive_tournament(5)) is None

    def test_c3_witness(self):
        cyc = find_cycle(directed_cycle(3))
        assert cyc is not None and len(cyc) == 3
        D = directed_cycle(3)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            assert D.has_arc(a, b)

    def test_inverted_c3(self):
        assert is_acyclic(invert(directed_cycle(3), {0, 1}))


class TestFasExact:
    def test_transitive_zero(self):
        for n in range(1, 9):
            assert fas_exact(transitive_tournament(n)).size == 0

    def test_c3_matches_bruteforce(self):
        assert fas_exact(directed_cycle(3)).size == brute_fas(directed_cycle(3)) == 1

    def test_single_reversed_arc_tournament(self):
        T6 = invert(transitive_tournament(6), {0, 5})
        assert fas_exact(T6).size == 1

    @given(oriented_graphs(max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_matches_bruteforce(self, D):
        res = fas_exact(D)
        assert res.exact
        assert res.size == brute_fas(D)
        assert sorted(res.arcs) == sorted(backward_arcs(D, res.ordering))
        stripped = OrientedGraph.from_arcs(
            D.n, [a for a in D.arcs() if a not in set(res.arcs)]
        )
        assert is_acyclic(stripped)

    def test_zero_iff_acyclic(self):
        for seed in range(20):
            D = random_tournament(6, seed)
            assert (fas_exact(D).size == 0) == is_acyclic(D)

    def test_capacity(self):
        with pytest.raises(CapacityError, match="fas_heuristic"):
            fas_exact(transitive_tournament(25))


def _reference_fas_exact(D):
    """The forward bytearray subset DP that fas_exact must reproduce
    exactly: ties go to the largest v, the first candidate of a subset t
    reached from the smallest t - v under the strict `<`."""
    n = D.n
    if n == 0:
        return FasResult(0, (), (), True)
    full = (1 << n) - 1
    size = 1 << n
    in_masks = D.in_masks()
    INF = 255
    dp = bytearray([INF]) * size
    choice = bytearray(size)
    dp[0] = 0
    for S in range(size):
        base = dp[S]
        if base == INF:
            continue
        rest = full ^ S
        free = rest
        while free:
            b = free & -free
            v = b.bit_length() - 1
            free ^= b
            cost = base + (in_masks[v] & rest).bit_count()
            t = S | b
            if cost < dp[t]:
                dp[t] = cost
                choice[t] = v
    order_rev = []
    S = full
    while S:
        v = choice[S]
        order_rev.append(v)
        S ^= 1 << v
    ordering = tuple(reversed(order_rev))
    arcs = tuple(backward_arcs(D, ordering))
    assert len(arcs) == dp[full]
    return FasResult(dp[full], arcs, ordering, True)


class TestFasExactMatchesReference:
    @given(oriented_graphs(min_n=0, max_n=12))
    @settings(max_examples=150, deadline=None)
    def test_random_graphs(self, D):
        assert fas_exact(D) == _reference_fas_exact(D)

    def test_pipeline_scale(self):
        for n in range(14, 19):
            for seed in range(2):
                for D in (
                    random_tournament(n, seed),
                    random_oriented_graph(n, 0.8, seed),
                ):
                    assert fas_exact(D) == _reference_fas_exact(D)

    def test_limit_size(self):
        D = random_oriented_graph(20, 0.8, 7)
        assert fas_exact(D) == _reference_fas_exact(D)

    def test_ties(self):
        # every ordering (or every rotation) is optimal, so only the tie rule
        # fixes the result
        for n in range(0, 16):
            for D in (
                OrientedGraph.from_arcs(n, []),
                transitive_tournament(n),
                invert(transitive_tournament(n), range(n)),
            ):
                assert fas_exact(D) == _reference_fas_exact(D)
        for n in range(3, 16):
            D = directed_cycle(n)
            assert fas_exact(D) == _reference_fas_exact(D)

    def test_memory_peak(self):
        D = random_tournament(20, 3)
        fas_exact(random_tournament(4, 0))  # numpy's lazy set-up is not the DP's
        tracemalloc.start()
        try:
            fas_exact(D)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestFasHeuristic:
    def test_acyclic_zero(self):
        assert fas_heuristic(transitive_tournament(12)).size == 0

    def test_c3(self):
        assert fas_heuristic(directed_cycle(3)).size == 1

    def test_never_below_exact(self):
        for seed in range(15):
            D = random_tournament(10, seed)
            heur = fas_heuristic(D)
            assert not heur.exact
            assert heur.size >= fas_exact(D).size
            stripped = OrientedGraph.from_arcs(
                D.n, [a for a in D.arcs() if a not in set(heur.arcs)]
            )
            assert is_acyclic(stripped)


def _reference_fas_heuristic(D):
    """The has_arc insertion-pass local search that fas_heuristic must
    reproduce exactly: same start order, move order and strict-improvement
    rule."""
    order = sorted(range(D.n), key=lambda v: (-D.out_degree(v), v))
    improved = True
    while improved:
        improved = False
        for v in range(D.n):
            i = order.index(v)
            others = order[:i] + order[i + 1:]
            b = sum(1 for w in others if D.has_arc(w, v))
            best_j, best_b, cur = 0, b, None
            for j in range(len(others) + 1):
                if j == i:
                    cur = b
                if b < best_b:
                    best_b, best_j = b, j
                if j < len(others):
                    w = others[j]
                    b += (1 if D.has_arc(v, w) else 0) - (1 if D.has_arc(w, v) else 0)
            if best_b < cur:
                others.insert(best_j, v)
                order = others
                improved = True
    return tuple(order)


class TestFasHeuristicMatchesReference:
    @given(oriented_graphs(min_n=0, max_n=30))
    @settings(max_examples=200, deadline=None)
    def test_random_graphs(self, D):
        heur = fas_heuristic(D)
        assert heur.ordering == _reference_fas_heuristic(D)
        assert heur.arcs == tuple(backward_arcs(D, heur.ordering))

    def test_pipeline_scale(self):
        for n in range(24, 41):
            for seed in range(6):
                for D in (
                    random_oriented_graph(n, 0.4 + 0.1 * seed, seed),
                    random_tournament(n, seed),
                ):
                    assert fas_heuristic(D).ordering == _reference_fas_heuristic(D)


class TestDegrees:
    def test_out_even_transitive(self):
        assert out_even_count(transitive_tournament(7)) == 4

    def test_out_even_diregular(self):
        assert out_even_count(diregular_tournament(3)) == 0

    def test_single_vertex(self):
        assert out_even_count(OrientedGraph.from_arcs(1, [])) == 1

    @given(oriented_graphs())
    def test_degree_sum_is_arc_count(self, D):
        assert sum(D.out_degrees()) == D.arc_count

    @given(oriented_graphs())
    def test_parity_profile_complements_even_count(self, D):
        assert sum(m.bit_count() & 1 for m in D.out) + out_even_count(D) == D.n


class TestPush:
    def test_identity_cases(self):
        D = random_tournament(6, 2)
        assert push(D, set()) == D
        assert push(D, set(range(6))) == D

    @given(oriented_graphs(min_n=1), st.data())
    def test_singleton_push_is_reversed_co_inversion(self, D, data):
        x = data.draw(st.integers(min_value=0, max_value=D.n - 1))
        co = invert(D, set(range(D.n)) - {x})
        expect = OrientedGraph.from_arcs(D.n, [(v, u) for u, v in co.arcs()])
        assert push(D, {x}) == expect


class TestHelpers:
    def test_delete_vertex(self):
        D = directed_cycle(4)
        got = delete_vertex(D, 2)
        assert got.n == 3 and sorted(got.arcs()) == [(0, 1), (2, 0)]

    def test_induced(self):
        T = transitive_tournament(5)
        sub = induced_subgraph(T, [4, 2, 0])
        assert sorted(sub.arcs()) == [(1, 0), (2, 0), (2, 1)]

    def test_is_tournament(self):
        assert is_tournament(random_tournament(5, 3))
        assert not is_tournament(directed_cycle(4))

    def test_complement(self):
        G = complement_of_underlying(directed_cycle(4))
        assert sorted(G.edges()) == [(0, 2), (1, 3)]

    @given(tournaments())
    def test_tournament_strategy_is_tournament(self, T):
        assert is_tournament(T)
