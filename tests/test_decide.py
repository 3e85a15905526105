"""Invertibility deciders against brute-force oracles."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oriented_graphs
from invlab import decide as decide_mod
from invlab.decide import (
    _parity_classes,
    _spanning_forest,
    construct_orientation,
    extend_to_invertible_tournament,
    orientation_feasible,
    oriented_graph_invertible,
    parity_match_count,
    pushable_bruteforce,
    tournament_invertible,
    tournaments_equivalent,
)
from invlab.errors import CapacityError, InputError, UnsupportedRangeError
from invlab.graphs import (
    EXACT,
    OrientedGraph,
    UndirectedGraph,
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
from invlab.oracle import exact_inv


class TestTournamentsEquivalent:
    def test_reflexive(self):
        T = random_tournament(7, 0)
        assert tournaments_equivalent(T, T, 3)

    def test_p_2_mod_4_everything_equivalent(self):
        for seed in range(5):
            T1, T2 = random_tournament(5, seed), random_tournament(5, seed + 50)
            assert tournaments_equivalent(T1, T2, 2)

    def test_flipped_arc_detected_for_odd_p(self):
        T1 = transitive_tournament(5)
        T2 = invert(T1, {0, 1})
        assert not tournaments_equivalent(T1, T2, 3)

    def test_rejects_mismatched_inputs(self):
        with pytest.raises(InputError):
            tournaments_equivalent(
                transitive_tournament(5), transitive_tournament(6), 3
            )
        with pytest.raises(InputError):
            tournaments_equivalent(directed_cycle(5), transitive_tournament(5), 3)

    def test_range_error(self):
        with pytest.raises(UnsupportedRangeError):
            tournaments_equivalent(
                transitive_tournament(4), transitive_tournament(4), 3
            )


class TestTournamentInvertible:
    def test_even_p_always(self):
        for seed in range(5):
            assert tournament_invertible(random_tournament(8, seed), 4)

    def test_transitive_odd_p(self):
        assert tournament_invertible(transitive_tournament(9), 3)

    def test_diregular_not_invertible(self):
        QR7 = diregular_tournament(3)
        assert out_even_count(QR7) == 0
        assert not tournament_invertible(QR7, 3)

    def test_matches_equivalence_to_transitive(self):
        # invertible iff reachable from some acyclic tournament
        p, n = 3, 5
        for code in range(0, 1 << 10, 7):
            T = _tournament_from_bits(n, code)
            expect = any(
                tournaments_equivalent(T, _transitive_under(perm), p)
                for perm in itertools.permutations(range(n))
            )
            assert tournament_invertible(T, p) == expect


def _tournament_from_bits(n, code):
    from invlab.pairspace import pair_index

    arcs = []
    for j in range(n):
        for i in range(j):
            arcs.append((j, i) if code >> pair_index(i, j) & 1 else (i, j))
    return OrientedGraph.from_arcs(n, arcs)


def _transitive_under(perm):
    n = len(perm)
    arcs = [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)]
    return OrientedGraph.from_arcs(n, arcs)


class TestParityMatchCount:
    def test_edgeless_all_even(self):
        D = OrientedGraph.from_arcs(4, [])
        assert parity_match_count(D, [0, 1, 2, 3], []) == 4

    def test_oriented_path(self):
        D = OrientedGraph.from_arcs(3, [(1, 0), (1, 2)])
        assert parity_match_count(D, [0, 1, 2], []) == 3

    def test_parity_identity_random(self):
        for seed in range(200):
            D = random_oriented_graph(7, 0.5, seed)
            import random

            rng = random.Random(seed)
            v1 = [v for v in range(7) if rng.random() < 0.5]
            v2 = [v for v in range(7) if v not in v1]
            score = parity_match_count(D, v1, v2)
            assert score % 2 == (len(v1) + D.arc_count) % 2

    def test_partition_validated(self):
        D = OrientedGraph.from_arcs(3, [])
        with pytest.raises(InputError):
            parity_match_count(D, [0, 1], [1, 2])


def _brute_orientation_scores(G, v1, v2):
    edges = G.edges()
    scores = set()
    for bits in range(1 << len(edges)):
        arcs = [
            (u, v) if not bits >> i & 1 else (v, u)
            for i, (u, v) in enumerate(edges)
        ]
        D = OrientedGraph.from_arcs(G.n, arcs)
        scores.add(parity_match_count(D, v1, v2))
    return scores


class TestOrientationFeasible:
    def test_path_cases(self):
        G = UndirectedGraph.from_edges(3, [(0, 1), (1, 2)])
        v1, v2 = [0, 1, 2], []
        assert orientation_feasible(G, v1, v2, 1)
        assert not orientation_feasible(G, v1, v2, 2)
        assert orientation_feasible(G, v1, v2, 3)

    def test_edgeless(self):
        G = UndirectedGraph.from_edges(4, [])
        assert orientation_feasible(G, [0, 1, 2, 3], [], 4)
        for s in range(4):
            assert not orientation_feasible(G, [0, 1, 2, 3], [], s)

    def test_matches_bruteforce_random(self):
        import random

        for seed in range(120):
            rng = random.Random(seed)
            n = rng.randint(1, 6)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ]
            if len(edges) > 10:
                continue
            G = UndirectedGraph.from_edges(n, edges)
            v1 = [v for v in range(n) if rng.random() < 0.5]
            v2 = [v for v in range(n) if v not in v1]
            brute = _brute_orientation_scores(G, v1, v2)
            for s in range(0, n + 2):
                assert orientation_feasible(G, v1, v2, s) == (s in brute), (
                    seed,
                    s,
                    edges,
                )

    def test_k4_all_partitions_match_bruteforce(self):
        edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        G = UndirectedGraph.from_edges(4, edges)
        for mask in range(1 << 4):
            v1 = [v for v in range(4) if mask >> v & 1]
            v2 = [v for v in range(4) if not mask >> v & 1]
            brute = _brute_orientation_scores(G, v1, v2)
            for s in range(0, 5):
                assert orientation_feasible(G, v1, v2, s) == (s in brute)

    def test_component_bounds_invariants(self):
        G = UndirectedGraph.from_edges(7, [(0, 1), (1, 2), (3, 4), (5, 6)])
        parent, comps = _spanning_forest(G, 0b101001)  # v1 = {0, 3, 5}
        assert [sorted(order) for order, _, _ in comps] == [[0, 1, 2], [3, 4], [5, 6]]
        for order, lower, upper in comps:
            assert lower in (0, 1)
            assert upper in (len(order) - 1, len(order))
            assert lower % 2 == upper % 2
            # a tree: the root has no parent, every other vertex follows its own
            assert parent[order[0]] == -1
            for i, v in enumerate(order[1:], 1):
                assert parent[v] in order[:i] and G.has_edge(v, parent[v])


class TestConstructOrientation:
    def test_path_score_one(self):
        G = UndirectedGraph.from_edges(3, [(0, 1), (1, 2)])
        D = construct_orientation(G, [0, 1, 2], [], 1)
        assert sorted(D.underlying_pairs()) == [(0, 1), (1, 2)]
        assert parity_match_count(D, [0, 1, 2], []) == 1

    def test_edgeless(self):
        G = UndirectedGraph.from_edges(4, [])
        D = construct_orientation(G, [0, 1], [2, 3], 2)
        assert D.arc_count == 0 and parity_match_count(D, [0, 1], [2, 3]) == 2

    def test_random_feasible_triples(self):
        import random

        built = 0
        for seed in range(400):
            rng = random.Random(1000 + seed)
            n = rng.randint(1, 7)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.4
            ]
            G = UndirectedGraph.from_edges(n, edges)
            v1 = [v for v in range(n) if rng.random() < 0.5]
            v2 = [v for v in range(n) if v not in v1]
            s = rng.randint(0, n)
            if not orientation_feasible(G, v1, v2, s):
                continue
            D = construct_orientation(G, v1, v2, s)
            assert parity_match_count(D, v1, v2) == s
            assert sorted(D.underlying_pairs()) == sorted(G.edges())
            built += 1
        assert built >= 100

    def test_infeasible_rejected(self):
        G = UndirectedGraph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(InputError):
            construct_orientation(G, [0, 1, 2], [], 2)


class TestPushableBruteforce:
    def test_acyclic_is_empty_set(self):
        assert pushable_bruteforce(transitive_tournament(5)) == frozenset()

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_directed_cycles_match_exhaustive_scan(self, n):
        D = directed_cycle(n)
        got = pushable_bruteforce(D)
        brute = [
            {v for v in range(n) if m >> v & 1}
            for m in range(1 << n)
            if is_acyclic(push(D, {v for v in range(n) if m >> v & 1}))
        ]
        assert (got is not None) == bool(brute)
        if got is not None:
            assert is_acyclic(push(D, got))

    def test_matches_n_minus_1_inversion_oracle(self):
        for seed in range(25):
            D = random_oriented_graph(5, 0.6, seed)
            pushed = pushable_bruteforce(D)
            oracle = exact_inv(D, 4, EXACT)
            assert (pushed is not None) == (oracle is not None), seed

    def test_capacity(self):
        with pytest.raises(CapacityError):
            pushable_bruteforce(transitive_tournament(25))


def _reference_pushable_bruteforce(D):
    """The push scan before batching: one push and one Kahn test per set."""
    if D.n == 0:
        return frozenset()
    for m in range(1 << max(D.n - 1, 0)):
        X = frozenset(v + 1 for v in range(D.n - 1) if m >> v & 1)
        if is_acyclic(push(D, X)):
            return X
    return None


@st.composite
def pushed_transitive_tournaments(draw):
    """A transitive tournament on 1-11 vertices, pushed at a random set: push-
    equivalent to an acyclic graph, so the scan always finds a set."""
    n = draw(st.integers(min_value=1, max_value=11))
    order = draw(st.permutations(range(n)))
    X = draw(st.sets(st.integers(0, n - 1)))
    T = OrientedGraph.from_arcs(
        n, [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    )
    return push(T, X)


class TestPushableMatchesReference:
    @given(oriented_graphs(max_n=11))
    @settings(max_examples=80, deadline=None)
    def test_random_graphs(self, D):
        assert pushable_bruteforce(D) == _reference_pushable_bruteforce(D)

    @given(pushed_transitive_tournaments())
    @settings(max_examples=80, deadline=None)
    def test_pushed_transitive_tournaments(self, D):
        got = pushable_bruteforce(D)
        assert got is not None and got == _reference_pushable_bruteforce(D)

    @given(pushed_transitive_tournaments(), st.sampled_from([1, 3, 16]))
    @settings(max_examples=60, deadline=None)
    def test_small_batches(self, D, chunk):
        # batches far below the default size put the first hit past batch one
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(decide_mod, "ACYCLIC_CHUNK", chunk)
            got = pushable_bruteforce(D)
        assert got == _reference_pushable_bruteforce(D)


class TestOrientedGraphInvertible:
    def test_acyclic_any_p(self):
        D = transitive_tournament(6)
        for p in range(2, 9):
            assert oriented_graph_invertible(D, p)

    def test_c3_p3(self):
        assert not oriented_graph_invertible(directed_cycle(3), 3)

    def test_c5_p3_matches_oracle(self):
        D = directed_cycle(5)
        assert oriented_graph_invertible(D, 3) == (exact_inv(D, 3, EXACT) is not None)

    def test_random_corpus_matches_oracle(self):
        for seed in range(60):
            D = random_oriented_graph(5, 0.5, 300 + seed)
            for p in range(2, 6):
                got = oriented_graph_invertible(D, p)
                expect = exact_inv(D, p, EXACT) is not None
                assert got == expect, (seed, p)

    def test_hard_slot_over_push_cap_is_unsupported(self, monkeypatch):
        monkeypatch.setattr(decide_mod, "PUSH_SCAN_LIMIT", 8)
        D = random_tournament(12, 0)
        with pytest.raises(UnsupportedRangeError):
            oriented_graph_invertible(D, 11)


class TestExtendToInvertibleTournament:
    def test_already_invertible_tournament_unchanged(self):
        T = transitive_tournament(7)
        assert extend_to_invertible_tournament(T, 3) == T

    def test_even_p_any_completion(self):
        D = directed_cycle(4)
        D = OrientedGraph.from_arcs(8, D.arcs())
        T = extend_to_invertible_tournament(D, 4)
        assert is_tournament(T)
        assert all(T.has_arc(u, v) for u, v in D.arcs())

    def test_c5_p3(self):
        D = directed_cycle(5)
        T = extend_to_invertible_tournament(D, 3)
        assert T is not None
        assert is_tournament(T)
        assert all(T.has_arc(u, v) for u, v in D.arcs())
        assert out_even_count(T) == 3

    def test_none_iff_not_invertible(self):
        for seed in range(40):
            D = random_oriented_graph(6, 0.4, 900 + seed)
            for p in (3, 4):
                T = extend_to_invertible_tournament(D, p)
                assert (T is None) == (not oriented_graph_invertible(D, p))
                if T is not None:
                    assert all(T.has_arc(u, v) for u, v in D.arcs())
                    assert tournament_invertible(T, p)

    @given(oriented_graphs(min_n=5, max_n=7))
    @settings(max_examples=40, deadline=None)
    def test_parity_bipartition_partitions(self, D):
        v1, v2 = _parity_classes(D)
        assert sorted(v1 + v2) == list(range(D.n))
        assert all(D.out_degree(v) % 2 == 0 for v in v1)

    def test_dense_200_vertices(self):
        # the constructive branch at a size where the decision is the point
        D = random_oriented_graph(200, 0.5, 7)
        T = extend_to_invertible_tournament(D, 3)
        assert T is not None and is_tournament(T)
        assert all(T.has_arc(u, v) for u, v in D.arcs())
        assert tournament_invertible(T, 3)
