"""Decycler gadgets and pipelines: exact net flips and theorem bounds."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invlab.decycle import (
    CYCLE_FIRST,
    STRATEGIES,
    _greedy_even_cycles,
    _helper_set,
    NARROW,
    PAIRWISE,
    WIDE,
    biclique_peel,
    decycle_dense,
    decycle_opt_dense,
    decycle_via_fas,
    gadget_adjacent_pair,
    gadget_cycle4,
    gadget_even_cycle,
    gadget_nonadjacent_pair,
    greedy_reduce,
    reverse_arc_set,
    verify_family,
)
from invlab.errors import InputError, ModeError, UnsupportedRangeError
from invlab.graphs import (
    AT_MOST,
    EXACT,
    InversionFamily,
    OrientedGraph,
    apply_family,
    backward_arcs,
    fas_exact,
    fas_heuristic,
    feedback_arc_set,
    invert,
    is_acyclic,
)
from invlab.generate import (
    directed_cycle,
    random_oriented_graph,
    random_tournament,
    reversed_arc_tournament,
    transitive_tournament,
)
from invlab.oracle import exact_inv


def flipped_arcs(D, sets, p):
    fam = InversionFamily(tuple(sets), max(p, D.n), AT_MOST)
    R = apply_family(D, fam)
    return sorted((u, v) for u, v in D.arcs() if R.has_arc(v, u))


def expect_pattern(D, pairs):
    want = []
    for a, b in pairs:
        if D.has_arc(a, b):
            want.append((a, b))
        elif D.has_arc(b, a):
            want.append((b, a))
    return sorted(want)


class TestGadgetCycle4:
    def test_exact_flip_and_count(self):
        T = random_tournament(8, 1)
        plan = gadget_cycle4(T, 0, 1, 2, 3, 4)
        assert len(plan.sets) == 4
        assert all(len(s) == 4 for s in plan.sets)
        want = expect_pattern(T, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert flipped_arcs(T, plan.sets, 4) == want

    def test_sparse_pattern_leaves_graph_unchanged(self):
        D = OrientedGraph.from_arcs(7, [(4, 5)])
        plan = gadget_cycle4(D, 0, 1, 2, 3, 3 + 2)
        assert flipped_arcs(D, plan.sets, 5) == []

    def test_sets_contain_only_anchor_pairs_and_helper(self):
        T = random_tournament(9, 2)
        plan = gadget_cycle4(T, 5, 6, 7, 8, 5)
        helper = set(plan.helper)
        assert helper.isdisjoint(plan.anchors)
        for s in plan.sets:
            anchors_in = s - helper
            assert len(anchors_in) == 2 and anchors_in <= set(plan.anchors)

    def test_randomized_draws(self):
        rng = random.Random(0)
        for _ in range(100):
            n = rng.randint(6, 12)
            p = rng.randint(2, n - 2)
            D = random_oriented_graph(n, 0.6, rng.randrange(10**6))
            anchors = rng.sample(range(n), 4)
            plan = gadget_cycle4(D, *anchors, p)
            cyc = [(anchors[i], anchors[(i + 1) % 4]) for i in range(4)]
            assert flipped_arcs(D, plan.sets, p) == expect_pattern(D, cyc)


class TestGadgetAdjacentPair:
    def test_count_and_flip(self):
        T = random_tournament(8, 3)
        plan = gadget_adjacent_pair(T, 0, 1, 2, 4)
        assert len(plan.sets) == 6
        assert flipped_arcs(T, plan.sets, 4) == expect_pattern(T, [(0, 1), (0, 2)])

    def test_p2_degenerates_to_two_pairs(self):
        T = random_tournament(5, 4)
        plan = gadget_adjacent_pair(T, 0, 1, 2, 2)
        assert plan.sets == (frozenset({0, 1}), frozenset({0, 2}))

    def test_odd_p_rejected(self):
        with pytest.raises(ModeError):
            gadget_adjacent_pair(random_tournament(8, 0), 0, 1, 2, 3)

    def test_randomized_draws(self):
        rng = random.Random(1)
        for _ in range(100):
            n = rng.randint(6, 12)
            p = rng.choice([q for q in range(2, n - 1, 2)])
            D = random_oriented_graph(n, 0.5, rng.randrange(10**6))
            u, v1, v2 = rng.sample(range(n), 3)
            plan = gadget_adjacent_pair(D, u, v1, v2, p)
            assert len(plan.sets) == 2 * p - 2
            assert flipped_arcs(D, plan.sets, p) == expect_pattern(
                D, [(u, v1), (u, v2)]
            )


class TestGadgetNonadjacentPair:
    def test_count_and_flip(self):
        T = random_tournament(8, 5)
        plan = gadget_nonadjacent_pair(T, 0, 1, 2, 3, 4)
        assert len(plan.sets) == 12
        assert flipped_arcs(T, plan.sets, 4) == expect_pattern(T, [(0, 1), (2, 3)])

    def test_p2_middle_edge_cancels(self):
        T = random_tournament(6, 6)
        plan = gadget_nonadjacent_pair(T, 0, 1, 2, 3, 2)
        assert len(plan.sets) == 4
        assert flipped_arcs(T, plan.sets, 2) == expect_pattern(T, [(0, 1), (2, 3)])

    def test_randomized_draws(self):
        rng = random.Random(2)
        for _ in range(100):
            n = rng.randint(6, 12)
            p = rng.choice([q for q in range(2, n - 1, 2)])
            D = random_oriented_graph(n, 0.5, rng.randrange(10**6))
            u1, v1, u2, v2 = rng.sample(range(n), 4)
            plan = gadget_nonadjacent_pair(D, u1, v1, u2, v2, p)
            assert len(plan.sets) == 4 * p - 4
            assert flipped_arcs(D, plan.sets, p) == expect_pattern(
                D, [(u1, v1), (u2, v2)]
            )


class TestGadgetEvenCycle:
    def test_narrow_four_cycle_matches_cycle4_count(self):
        T = random_tournament(8, 7)
        plan = gadget_even_cycle(T, [0, 1, 2, 3], 4, NARROW)
        assert len(plan.sets) == 4

    def test_narrow_six_cycle(self):
        T = random_tournament(10, 8)
        plan = gadget_even_cycle(T, [0, 1, 2, 3, 4, 5], 4, NARROW)
        assert len(plan.sets) == 6
        cyc = [(i, (i + 1) % 6) for i in range(6)]
        assert flipped_arcs(T, plan.sets, 4) == expect_pattern(T, cyc)

    def test_wide_six_cycle_in_tight_order(self):
        T = random_tournament(6, 9)
        with pytest.raises(ModeError):
            gadget_even_cycle(T, [0, 1, 2, 3, 4, 5], 4, NARROW)
        plan = gadget_even_cycle(T, [0, 1, 2, 3, 4, 5], 4, WIDE)
        assert len(plan.sets) == 12
        cyc = [(i, (i + 1) % 6) for i in range(6)]
        assert flipped_arcs(T, plan.sets, 4) == expect_pattern(T, cyc)

    @pytest.mark.parametrize("p", [1, 0, -1])
    def test_narrow_refuses_p_below_2(self, p):
        # p - 2 helper vertices would be a negative count
        with pytest.raises(InputError, match="p must be at least 2"):
            gadget_even_cycle(random_tournament(10, 1), [0, 1, 2, 3], p, NARROW)

    def test_helper_set_refuses_a_negative_size(self):
        with pytest.raises(InputError):
            _helper_set(10, -1, [0, 1])

    def test_randomized_draws_both_variants(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(8, 13)
            ell = rng.choice([2, 3])
            p = rng.choice([q for q in range(3, n - 2 * ell + 3)])
            D = random_oriented_graph(n, 0.5, rng.randrange(10**6))
            cyc = rng.sample(range(n), 2 * ell)
            pattern = [
                (cyc[i], cyc[(i + 1) % (2 * ell)]) for i in range(2 * ell)
            ]
            narrow = gadget_even_cycle(D, cyc, p, NARROW)
            assert len(narrow.sets) == 2 * ell
            assert flipped_arcs(D, narrow.sets, p) == expect_pattern(D, pattern)
            wide = gadget_even_cycle(D, cyc, p, WIDE)
            assert len(wide.sets) == 4 * ell
            assert flipped_arcs(D, wide.sets, p) == expect_pattern(D, pattern)


class TestReverseArcSet:
    def test_empty(self):
        assert len(reverse_arc_set(random_tournament(8, 0), [], 4)) == 0

    def test_four_cycle_narrow_vs_wide_counts(self):
        # n = 8 admits the narrow gadget for a 4-cycle
        T = random_tournament(8, 11)
        arcs = expect_pattern(T, [(0, 1), (1, 2), (2, 3), (3, 0)])
        fam = reverse_arc_set(T, arcs, 4, CYCLE_FIRST)
        assert len(fam) == 4
        # at n = 6 a 6-cycle forces the wide fallback: 4l = 12 sets
        T6 = random_tournament(6, 12)
        arcs6 = expect_pattern(T6, [(i, (i + 1) % 6) for i in range(6)])
        fam6 = reverse_arc_set(T6, arcs6, 4, CYCLE_FIRST)
        assert len(fam6) == 12
        assert flipped_arcs(T6, fam6.sets, 4) == arcs6

    def test_two_adjacent_arcs_cost(self):
        T = random_tournament(8, 13)
        arcs = expect_pattern(T, [(0, 1), (0, 2)])
        fam = reverse_arc_set(T, arcs, 4, PAIRWISE)
        assert len(fam) == 2 * 4 - 2
        assert flipped_arcs(T, fam.sets, 4) == arcs

    def test_odd_size_rejected(self):
        T = random_tournament(8, 14)
        arcs = expect_pattern(T, [(0, 1)])
        with pytest.raises(InputError):
            reverse_arc_set(T, arcs, 4)

    def test_odd_p_rejected(self):
        with pytest.raises(ModeError):
            reverse_arc_set(random_tournament(8, 0), [], 3)

    def test_non_arcs_rejected(self):
        D = OrientedGraph.from_arcs(8, [(0, 1)])
        with pytest.raises(InputError):
            reverse_arc_set(D, [(1, 0), (0, 2)], 4)

    def test_random_flip_sets_both_strategies(self):
        rng = random.Random(4)
        for _ in range(40):
            n = rng.randint(7, 11)
            D = random_oriented_graph(n, 0.7, rng.randrange(10**6))
            arcs = D.arcs()
            if len(arcs) < 2:
                continue
            take = rng.sample(arcs, 2 * rng.randint(1, min(4, len(arcs) // 2)))
            for strategy in (PAIRWISE, CYCLE_FIRST):
                fam = reverse_arc_set(D, take, 4, strategy)
                assert flipped_arcs(D, fam.sets, 4) == sorted(take)


def _reference_greedy_even_cycles(pairs):
    """The peeler that re-runs a BFS from every remaining edge in every
    round; _greedy_even_cycles must reproduce it exactly."""
    cycles = []
    remaining = set(pairs)
    while True:
        best = None
        adj = {}
        for a, b in remaining:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        for a, b in sorted(remaining):
            prev = {a: a}
            frontier = [a]
            while frontier and b not in prev:
                nxt = []
                for x in frontier:
                    for y in sorted(adj.get(x, ())):
                        if (min(x, y), max(x, y)) == (a, b):
                            continue
                        if y not in prev:
                            prev[y] = x
                            nxt.append(y)
                frontier = nxt
            if b not in prev:
                continue
            path = [b]
            while path[-1] != a:
                path.append(prev[path[-1]])
            if len(path) % 2 == 0 and (best is None or len(path) < len(best)):
                best = path
        if best is None:
            return cycles, remaining
        cycles.append(best)
        for x, y in zip(best, best[1:] + best[:1]):
            remaining.discard((min(x, y), max(x, y)))


@st.composite
def edge_sets(draw):
    """Undirected edge sets on 4-14 vertices, from sparse to complete."""
    n = draw(st.integers(min_value=4, max_value=14))
    density = draw(st.integers(min_value=1, max_value=4))
    return {
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if draw(st.integers(min_value=0, max_value=3)) < density
    }


class TestGreedyEvenCyclesMatchesReference:
    @given(edge_sets())
    @settings(max_examples=200, deadline=None)
    def test_random_edge_sets(self, pairs):
        assert _greedy_even_cycles(pairs) == _reference_greedy_even_cycles(pairs)

    def test_pipeline_fas_pair_sets(self):
        # the pair sets cycle-first peels in decycle_via_fas at n > 20
        for n in range(24, 41, 4):
            for seed in range(3):
                for D in (
                    random_oriented_graph(n, 0.4 + 0.2 * seed, seed),
                    random_tournament(n, seed),
                ):
                    pairs = {(min(a), max(a)) for a in fas_heuristic(D).arcs}
                    got = _greedy_even_cycles(pairs)
                    assert got == _reference_greedy_even_cycles(pairs)


class TestDecycleViaFas:
    def test_acyclic_short_circuit(self):
        assert len(decycle_via_fas(transitive_tournament(8), 4).family) == 0

    def test_reversed_arc_tournament(self):
        T8 = reversed_arc_tournament(8)
        fas = fas_exact(T8)
        assert fas.size == 1
        fam = decycle_via_fas(T8, 4).family
        assert len(fam) <= 12
        assert is_acyclic(apply_family(T8, fam))
        assert all(len(X) == 4 for X in fam.sets)

    def test_bound_random_tournaments(self):
        for seed in range(15):
            D = random_tournament(10, 20 + seed)
            fas = fas_exact(D)
            for strategy in (PAIRWISE, CYCLE_FIRST):
                fam = decycle_via_fas(D, 4, strategy, fas=fas).family
                assert is_acyclic(apply_family(D, fam))
                assert len(fam) <= (2 * 4 - 2) * (fas.size + 1)
                assert all(len(X) == 4 for X in fam.sets)

    def test_cycle_first_additional_bound(self):
        for seed in range(10):
            D = random_tournament(9, 50 + seed)
            fas = fas_exact(D)
            fam = decycle_via_fas(D, 4, CYCLE_FIRST, fas=fas).family
            assert len(fam) <= 2 * fas.size + 2 * 4 * D.n

    def test_odd_p_rejected(self):
        with pytest.raises(ModeError):
            decycle_via_fas(random_tournament(9, 0), 3)

    def test_small_order_rejected(self):
        with pytest.raises(UnsupportedRangeError):
            decycle_via_fas(random_tournament(5, 0), 4)


class TestGreedyReduce:
    def test_acyclic_with_topological_ordering(self):
        T = transitive_tournament(9)
        red = greedy_reduce(T, 4, ordering=range(9))
        assert len(red.family) == 0
        assert red.reduced == T

    def test_concentrated_backward_arcs(self):
        # all backward arcs point at vertex 0; t = 3(p-1) gives exactly 3 sets
        p = 4
        t = 3 * (p - 1)
        n = t + p
        base = transitive_tournament(n)
        fam = InversionFamily(
            tuple(frozenset({0, u}) for u in range(1, t + 1)), 2, EXACT
        )
        D = apply_family(base, fam)
        red = greedy_reduce(D, p)
        assert len(red.family) == 3
        assert all(0 in X for X in red.family.sets)

    def test_bounds_random_tournament(self):
        for seed in range(10):
            D = random_tournament(12, 70 + seed)
            red = greedy_reduce(D, 4)
            assert len(red.family) <= D.arc_count // 3
            assert apply_family(D, red.family) == red.reduced
            cert_backward = len(backward_arcs(red.reduced, red.ordering))
            bound = (4 - 2) * 12 - 3 * 16 // 4 + 7 * 4 // 4
            assert cert_backward <= bound
            assert fas_exact(red.reduced).size <= cert_backward


class TestDecycleDense:
    def test_acyclic(self):
        assert len(decycle_dense(transitive_tournament(8), 4).family) == 0

    def test_random_composite_bound(self):
        for seed in range(8):
            D = random_tournament(12, 90 + seed)
            fam = decycle_dense(D, 4).family
            assert is_acyclic(apply_family(D, fam))
            red = greedy_reduce(D, 4)
            inner_fas = fas_exact(red.reduced)
            bound = D.arc_count // 3 + (2 * 4 - 2) * (inner_fas.size + 1)
            assert len(fam) <= bound
            assert len(fam) <= D.arc_count  # count never exceeds the arc bound
            assert all(len(X) == 4 for X in fam.sets)


class TestBicliquePeel:
    def test_empty(self):
        fam, residual = biclique_peel(8, [], 4)
        assert len(fam) == 0 and residual == set()

    def test_single_k44(self):
        edges = [(i, 4 + j) for i in range(4) for j in range(4)]
        fam, residual = biclique_peel(10, edges, 4)
        assert len(fam) == 4 and residual == set()
        acc = set()
        from invlab.pairspace import encode_set

        bits = 0
        for X in fam.sets:
            bits ^= encode_set(X, 10)
        assert bits == encode_set(set(), 10) ^ _edge_bits(edges, 10)

    def test_no_biclique(self):
        edges = [(0, 1), (2, 3), (4, 5)]
        fam, residual = biclique_peel(8, edges, 4)
        assert len(fam) == 0
        assert residual == set(edges)


def _edge_bits(edges, n):
    from invlab.pairspace import pair_index

    bits = 0
    for i, j in edges:
        assert 0 <= i < n and 0 <= j < n
        bits |= 1 << pair_index(i, j)
    return bits


class TestDecycleOptDense:
    def test_acyclic(self):
        assert len(decycle_opt_dense(transitive_tournament(8), 4).family) == 0

    def test_planted_biclique_fas_beats_plain_pipeline(self):
        parts = [list(range(4 * i, 4 * i + 4)) for i in range(4)]
        arcs = [
            (u, v)
            for i in range(4)
            for u in parts[i]
            for v in parts[(i + 1) % 4]
        ]
        D = OrientedGraph.from_arcs(16, arcs)
        fas = fas_exact(D)
        assert fas.size == 16
        plain = decycle_via_fas(D, 4, fas=fas).family
        opt = decycle_opt_dense(D, 4).family
        assert is_acyclic(apply_family(D, opt))
        assert len(opt) < len(plain)
        assert len(opt) == 4

    def test_generic_random(self):
        for seed in range(6):
            D = random_tournament(10, 110 + seed)
            fam = decycle_opt_dense(D, 4).family
            assert is_acyclic(apply_family(D, fam))
            assert all(len(X) == 4 for X in fam.sets)


def _readme_bound(strategy, D, p):
    """The README table's bound for a strategy, from a minimum feedback arc
    set of the graph its fas stage decycles (0 when that graph is acyclic),
    or None when only a heuristic one is known."""
    if strategy == "opt-dense":
        return D.arc_count
    stage = greedy_reduce(D, p).reduced if strategy == "dense" else D
    if is_acyclic(stage):
        fas = 0
    else:
        result = feedback_arc_set(stage)
        if not result.exact:
            return None
        fas = result.size
    if strategy == "2fas":
        return 2 * fas + 2 * p * D.n
    bound = (2 * p - 2) * (fas + 1)
    return D.arc_count // (p - 1) + bound if strategy == "dense" else bound


@pytest.mark.parametrize("strategy", list(STRATEGIES))
@pytest.mark.parametrize(
    "D, heuristic",
    [
        (random_tournament(10, 7), False),
        (random_tournament(16, 7), False),
        (random_tournament(24, 7), True),
        (transitive_tournament(24), False),  # acyclic: the formula at fas = 0
    ],
    ids=["rt10", "rt16", "rt24", "tt24"],
)
def test_pipeline_bound_is_the_readme_formula(strategy, D, heuristic):
    run = STRATEGIES[strategy](D, 4)
    bound = _readme_bound(strategy, D, 4)
    assert run.bound == bound
    # a bound on a heuristic feedback arc set is unknown, except |A(D)|
    assert (bound is None) == (heuristic and strategy != "opt-dense")
    if bound is not None:
        assert len(run.family) <= bound


class TestSandwich:
    def test_even_bound_small_corpus(self):
        # inv<=p <= inv=p <= (4p-4) C(p,2) inv<=p on cyclic graphs, p = 4,
        # and every pipeline count dominates the exact optimum
        checked = 0
        seed = 0
        while checked < 12:
            seed += 1
            D = random_oriented_graph(6, 0.7, seed)
            if is_acyclic(D):
                continue
            le = exact_inv(D, 4, AT_MOST)
            eq = exact_inv(D, 4, EXACT)
            assert le is not None and eq is not None
            assert le <= eq <= (4 * 4 - 4) * 6 * le
            for strategy in (PAIRWISE, CYCLE_FIRST):
                fam = decycle_via_fas(D, 4, strategy).family
                assert len(fam) >= eq
            checked += 1


class TestVerifyFamily:
    def test_empty_family_on_acyclic(self):
        rep = verify_family(transitive_tournament(6), InversionFamily((), 4, EXACT), 4)
        assert rep.sizes_ok and rep.acyclic and rep.count == 0 and rep.net_flip == ()

    def test_pipeline_output_verifies(self):
        D = random_tournament(9, 33)
        fam = decycle_via_fas(D, 4).family
        rep = verify_family(D, fam, 4, EXACT)
        assert rep.sizes_ok and rep.acyclic

    def test_corrupted_family_flagged(self):
        D = random_tournament(9, 34)
        fam = decycle_via_fas(D, 4).family
        assert len(fam) > 0
        broken = InversionFamily(fam.sets[1:], 4, EXACT)
        rep = verify_family(D, broken, 4, EXACT)
        assert not rep.acyclic

    def test_size_mismatch_reported(self):
        D = random_tournament(8, 35)
        fam = InversionFamily((frozenset({0, 1}),), 2, EXACT)
        rep = verify_family(D, fam, 4, EXACT)
        assert not rep.sizes_ok
