"""Exact-oracle BFS: distances, reachability classes, single-inversion scans."""

import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import oriented_graphs, tournaments
from invlab.decide import oriented_graph_invertible
from invlab.errors import CapacityError
from invlab.graphs import (
    ACYCLIC_CHUNK,
    AT_MOST,
    EXACT,
    OrientedGraph,
    acyclic_columns,
    fas_exact,
    invert,
    is_acyclic,
    is_tournament,
)
from invlab import oracle as oracle_mod
from invlab.generate import (
    directed_cycle,
    diregular_tournament,
    random_oriented_graph,
    random_tournament,
    transitive_tournament,
)
from invlab.oracle import (
    _acyclic_states,
    _bfs_layers,
    _bfs_until,
    exact_inv,
    orbit_census,
    orbit_labels,
    reachable,
    single_inversion_decycles,
    state_space,
)
from test_kernel import _one_set_plant


def _decode(space, state):
    """The graph at a state: bit i of ``state`` reverses edge i of the base."""
    out = [0] * space.graph.n
    for i, (u, v) in enumerate(space.edges):
        tail, head = (u, v) if space.graph.has_arc(u, v) else (v, u)
        if state >> i & 1:
            tail, head = head, tail
        out[tail] |= 1 << head
    return OrientedGraph(space.graph.n, tuple(out))
from invlab.pairspace import encode_tournament, incident_masks, pair_count


class TestExactInv:
    def test_transitive_is_zero(self):
        for p in (2, 3, 4, 9):
            assert exact_inv(transitive_tournament(5), p, EXACT) == 0

    def test_c3_one_arc_flip(self):
        assert exact_inv(directed_cycle(3), 2, EXACT) == 1

    def test_diregular_unreachable_for_p3(self):
        assert exact_inv(diregular_tournament(3), 3, EXACT) is None

    def test_at_most_2_equals_fas(self):
        for seed in range(30):
            D = random_oriented_graph(6, 0.6, seed)
            assert exact_inv(D, 2, AT_MOST) == fas_exact(D).size, seed

    def test_monotonicity(self):
        for seed in range(20):
            D = random_oriented_graph(6, 0.5, 100 + seed)
            for p in (2, 3, 4):
                le, eq = exact_inv(D, p, AT_MOST), exact_inv(D, p, EXACT)
                assert le is not None
                if eq is not None:
                    assert le <= eq
            values = [exact_inv(D, p, AT_MOST) for p in (2, 3, 4, 5)]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_matches_decider(self):
        for seed in range(40):
            D = random_oriented_graph(6, 0.5, 200 + seed)
            for p in (2, 3, 4, 6):
                assert (exact_inv(D, p, EXACT) is not None) == oriented_graph_invertible(
                    D, p
                ), (seed, p)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            exact_inv(random_tournament(8, 0), 4, EXACT, cap_bits=20)

    def test_distance_cross_check_bruteforce(self):
        # BFS distance equals brute-force shortest family for a tiny instance
        D = directed_cycle(4)
        for p, mode in [(2, EXACT), (3, EXACT), (3, AT_MOST)]:
            got = exact_inv(D, p, mode)
            sizes = [p] if mode == EXACT else range(p + 1)
            sets = [
                X
                for s in sizes
                for X in itertools.combinations(range(4), s)
            ]
            best = None
            for count in range(0, 4):
                for combo in itertools.product(sets, repeat=count):
                    G = D
                    for X in combo:
                        G = invert(G, X)
                    if is_acyclic(G):
                        best = count
                        break
                if best is not None:
                    break
            assert got == best, (p, mode)


class TestStateSpace:
    def test_state_zero_is_base(self):
        D = random_oriented_graph(6, 0.5, 7)
        space = state_space(D, 3, EXACT)
        assert _decode(space, 0) == D

    def test_moves_deduplicated_and_nonzero(self):
        D = OrientedGraph.from_arcs(6, [(0, 1), (2, 3)])
        space = state_space(D, 2, EXACT)
        # only two distinct nonzero restrictions exist
        assert sorted(space.moves) == [1, 2]

    def test_full_distances(self):
        D = directed_cycle(3)
        space = state_space(D, 2, EXACT)
        seen = np.zeros(1 << space.m, dtype=bool)
        moves = np.array(space.moves, dtype=np.uint32)
        layers = list(_bfs_layers(moves, 0, seen))
        assert layers[0].tolist() == [0]
        assert seen.all()  # single arc flips reach everything
        # each state is reached exactly once, in the layer of its arc count
        states = np.concatenate(layers)
        assert sorted(states.tolist()) == list(range(1 << space.m))
        for d, layer in enumerate(layers):
            assert all(int(s).bit_count() == d for s in layer)

    def test_layers_expanded_lazily(self):
        # after the first hit exact_inv asks for no further layer
        space = state_space(directed_cycle(3), 2, EXACT)
        moves = np.array(space.moves, dtype=np.uint32)
        seen = np.zeros(1 << space.m, dtype=bool)
        layers = _bfs_layers(moves, 0, seen)
        next(layers)
        assert seen.sum() == 1
        next(layers)
        assert seen.sum() == 1 + space.m


class TestReachable:
    def test_self(self):
        T = random_tournament(5, 9)
        assert reachable(T, T, 3)

    def test_p2_connects_everything_at_n5(self):
        assert orbit_census(5, 2) == [1 << 10]

    def test_classes_match_signature_partition_5_3(self):
        labels = orbit_labels(5, 3)
        sigs = _signature_ids(5, 3)
        assert _partitions_equal(labels, sigs)
        assert len(np.unique(labels)) == 16

    def test_reachable_agrees_with_labels(self):
        labels = orbit_labels(5, 3)
        import random

        rng = random.Random(3)
        for _ in range(25):
            a, b = rng.randrange(1 << 10), rng.randrange(1 << 10)
            T1, T2 = _tournament_from_bits(5, a), _tournament_from_bits(5, b)
            assert reachable(T1, T2, 3) == (labels[a] == labels[b])


def _tournament_from_bits(n, code):
    from invlab.pairspace import pair_index

    arcs = []
    for j in range(n):
        for i in range(j):
            arcs.append((j, i) if code >> pair_index(i, j) & 1 else (i, j))
    return OrientedGraph.from_arcs(n, arcs)


def _signature_ids(n, p):
    r = p % 4
    masks = []
    if r == 0:
        masks = [(1 << pair_count(n)) - 1]
    elif r == 3:
        masks = list(incident_masks(n)[: n - 1])
    elif r == 1:
        masks = list(incident_masks(n)[: n - 1]) + [(1 << pair_count(n)) - 1]
    states = np.arange(1 << pair_count(n), dtype=np.uint32)
    ids = np.zeros(states.size, dtype=np.uint32)
    for i, h in enumerate(masks):
        ids |= ((np.bitwise_count(states & np.uint32(h)) & 1).astype(np.uint32)) << i
    return ids


def _partitions_equal(a, b):
    combined = a.astype(np.int64) << 32 | b.astype(np.int64)
    return (
        len(np.unique(combined)) == len(np.unique(a)) == len(np.unique(b))
    )


class TestOrbitCensus:
    def test_6_4_two_classes(self):
        sizes = orbit_census(6, 4)
        assert sizes == [1 << 14, 1 << 14]

    def test_6_3_thirty_two_classes(self):
        sizes = orbit_census(6, 3)
        assert len(sizes) == 32
        assert all(s == 1 << 10 for s in sizes)


class TestSingleInversionDecycles:
    def test_acyclic_gives_empty_in_at_most_mode(self):
        assert single_inversion_decycles(transitive_tournament(5), 3, AT_MOST) == frozenset()

    def test_c3(self):
        assert single_inversion_decycles(directed_cycle(3), 2, AT_MOST) == frozenset({0, 1})

    def test_exact_mode_respects_size(self):
        got = single_inversion_decycles(directed_cycle(3), 3, EXACT)
        assert got is None  # reversing the whole triangle keeps it cyclic

    def test_tournament_fast_path_matches_generic(self):
        for seed in range(20):
            T = random_tournament(7, 40 + seed)
            fast = single_inversion_decycles(T, 3, AT_MOST)
            slow = _reference_scan(T, 3)
            assert fast == slow, seed

    @given(
        st.one_of(oriented_graphs(max_n=9), tournaments(max_n=9)),
        st.integers(0, 4),
        st.sampled_from([EXACT, AT_MOST]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_two_path_scan(self, D, p, mode):
        assert single_inversion_decycles(D, p, mode) == _two_path_scan(D, p, mode)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_two_path_scan_on_kernel_plants(self, seed):
        T, _ = _one_set_plant(seed)  # n 51-60, one 3-set decycles it
        got = single_inversion_decycles(T, 3, AT_MOST)
        assert got is not None and got == _two_path_scan(T, 3, AT_MOST)

    def test_more_than_64_vertices_refused(self):
        with pytest.raises(CapacityError, match="64 vertices"):
            single_inversion_decycles(transitive_tournament(65), 2, AT_MOST)

    def test_capacity(self, monkeypatch):
        monkeypatch.setattr(oracle_mod, "MOVE_ENUM_LIMIT", 100)
        with pytest.raises(CapacityError, match="exceed scan limit 100"):
            single_inversion_decycles(random_tournament(40, 0), 10, AT_MOST)

    def test_early_hit_stops_enumeration(self, monkeypatch):
        # C(64, <=4) = 679,121 candidates; the empty set in the first batch
        # decycles the acyclic input, so no later batch is built
        drawn = []
        real = oracle_mod._subset_masks

        def counted(*args):
            for mask in real(*args):
                drawn.append(mask)
                yield mask

        monkeypatch.setattr(oracle_mod, "_subset_masks", counted)
        assert single_inversion_decycles(transitive_tournament(64), 4, AT_MOST) == frozenset()
        assert len(drawn) == ACYCLIC_CHUNK


def _transitive_scan_factory(D):
    """O(|X|^2) membership test 'Inv(D, X) is transitive' for tournaments,
    tracked through an out-degree multiset."""
    n = D.n
    deg = D.out_degrees()
    count = [0] * n
    for d in deg:
        count[d] += 1
    dup = sum(c - 1 for c in count if c > 1)

    def qualifies(X):
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


def _two_path_scan(D, p, mode):
    """The per-set scan single_inversion_decycles replaced: an out-degree
    multiset test on tournaments, an inversion and a cycle search otherwise."""
    sizes = [p] if mode == EXACT else list(range(0, p + 1))
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


def _reference_scan(D, p):
    for s in range(p + 1):
        for X in itertools.combinations(range(D.n), s):
            if is_acyclic(invert(D, X)):
                return frozenset(X)
    return None


# The target search before batched acyclicity tests: every ordering of the
# edge-incident vertices gives the acyclic states when there are at most nine
# of them; above that, each frontier state is decoded and Kahn-tested.
_REFERENCE_ORDERING_LIMIT = 9


def _reference_exact_inv(D, p, mode):
    space = state_space(D, p, mode)
    active = sorted({v for e in space.edges for v in e})
    if len(active) <= _REFERENCE_ORDERING_LIMIT:
        mask = np.zeros(1 << space.m, dtype=bool)
        for perm in itertools.permutations(active):
            pos = {v: i for i, v in enumerate(perm)}
            s = 0
            for i, (u, v) in enumerate(space.edges):
                if D.has_arc(u, v) != (pos[u] < pos[v]):
                    s |= 1 << i
            mask[s] = True
        return _bfs_until(space, 0, lambda fr: mask[fr])

    def kahn_targets(frontier):
        return np.array([is_acyclic(_decode(space, int(s))) for s in frontier], dtype=bool)

    return _bfs_until(space, 0, kahn_targets)


@st.composite
def covering_graphs(draw, min_active, max_active, max_edges):
    """Cyclic oriented graphs whose edges touch exactly n of the vertices: a
    directed cycle, a matching over the rest (plus one edge for an odd
    remainder) and random extra edges, relabelled onto up to two more
    isolated vertices."""
    n = draw(st.integers(min_value=min_active, max_value=max_active))
    c = draw(st.integers(min_value=3, max_value=min(n, 6)))
    arcs = {(v, (v + 1) % c) for v in range(c)}
    arcs |= {(v, v + 1) for v in range(c, n - 1, 2)}
    if (n - c) % 2:
        arcs.add((n - 1, 0))
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=max_edges - len(arcs),
        )
    )
    for u, v in extra:
        if u != v and (u, v) not in arcs and (v, u) not in arcs:
            arcs.add((u, v))
    # the cycle keeps its direction; every other arc may be reversed
    flips = draw(st.lists(st.booleans(), min_size=len(arcs), max_size=len(arcs)))
    isolated = draw(st.integers(min_value=0, max_value=2))
    label = draw(st.permutations(range(n + isolated)))
    oriented = [
        (v, u) if flip and max(u, v) >= c else (u, v)
        for (u, v), flip in zip(sorted(arcs), flips)
    ]
    return OrientedGraph.from_arcs(n + isolated, [(label[u], label[v]) for u, v in oriented])


class TestExactInvMatchesReference:
    @given(
        covering_graphs(4, 8, 16),
        st.integers(min_value=2, max_value=5),
        st.sampled_from([EXACT, AT_MOST]),
    )
    @settings(max_examples=60, deadline=None)
    def test_ordering_path(self, D, p, mode):
        assert exact_inv(D, p, mode) == _reference_exact_inv(D, p, mode)

    @given(
        covering_graphs(10, 14, 13),
        st.integers(min_value=2, max_value=5),
        st.sampled_from([EXACT, AT_MOST]),
    )
    @settings(max_examples=40, deadline=None)
    def test_kahn_path(self, D, p, mode):
        assert exact_inv(D, p, mode) == _reference_exact_inv(D, p, mode)

    def test_seeded_graphs(self):
        for seed in range(12):
            D = random_oriented_graph(6 + seed % 2, 0.6, 500 + seed)
            for p in (2, 3, 4, 5):
                for mode in (EXACT, AT_MOST):
                    got = exact_inv(D, p, mode)
                    assert got == _reference_exact_inv(D, p, mode), (seed, p, mode)


class TestAcyclicKernel:
    def test_every_state_of_small_spaces(self):
        cases = [
            (directed_cycle(5), 3),
            (random_oriented_graph(7, 0.5, 11), 4),
            (random_oriented_graph(8, 0.5, 12), 3),  # more than one chunk
        ]
        for D, p in cases:
            space = state_space(D, p, EXACT)
            states = np.arange(1 << space.m, dtype=np.uint32)
            want = [is_acyclic(_decode(space, int(s))) for s in states]
            assert _acyclic_states(space)(states).tolist() == want, (D, p)
        assert max(state_space(D, p, EXACT).m for D, p in cases) > ACYCLIC_CHUNK.bit_length() - 1

    def test_small_batches(self):
        D = random_oriented_graph(6, 0.6, 13)
        space = state_space(D, 3, AT_MOST)
        states = np.arange(1 << space.m, dtype=np.uint32)
        want = [is_acyclic(_decode(space, int(s))) for s in states]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle_mod, "ACYCLIC_CHUNK", 7)
            assert _acyclic_states(space)(states).tolist() == want

    @given(st.integers(1, 64), st.integers(0, 3), st.integers(0, 1 << 20))
    @example(64, 1, 0)
    @settings(max_examples=40, deadline=None)
    def test_columns_match_kahn(self, k, flips, seed):
        # transitive tournaments on up to 64 vertices with a few arcs reversed
        import random

        rng = random.Random(seed)
        graphs = []
        for _ in range(5):
            out = [((1 << k) - 1) & ~((1 << (v + 1)) - 1) for v in range(k)]
            for _ in range(flips if k > 1 else 0):
                u, v = sorted(rng.sample(range(k), 2))
                if out[u] >> v & 1:
                    out[u] ^= 1 << v
                    out[v] |= 1 << u
            graphs.append(OrientedGraph(k, tuple(out)))
        masks = np.array([G.out for G in graphs], dtype=np.uint64).T
        assert acyclic_columns(masks).tolist() == [is_acyclic(G) for G in graphs]

    def test_empty_inputs(self):
        assert acyclic_columns(np.zeros((0, 3), dtype=np.uint64)).tolist() == [True] * 3
        assert acyclic_columns(np.zeros((4, 0), dtype=np.uint64)).tolist() == []


class TestCensusBySpanRank:
    @pytest.mark.parametrize("n, p", [(5, 3), (6, 3), (6, 4), (7, 5)])
    def test_matches_bfs_labels_on_c1_grids(self, n, p):
        sizes = np.bincount(orbit_labels(n, p))
        assert orbit_census(n, p) == sorted(sizes.tolist(), reverse=True)

    @pytest.mark.parametrize("n, p", [(0, 2), (1, 2), (4, 0), (4, 1), (4, 4), (4, 6), (5, 2)])
    def test_degenerate_sizes(self, n, p):
        sizes = np.bincount(orbit_labels(n, p))
        assert orbit_census(n, p) == sorted(sizes.tolist(), reverse=True)

    def test_over_cap_refused(self):
        with pytest.raises(CapacityError):
            orbit_census(8, 3, cap_bits=20)

    def test_census_demo_checks_predictions(self, monkeypatch, capsys):
        path = Path(__file__).resolve().parents[1] / "scripts" / "census_demo.py"
        spec = importlib.util.spec_from_file_location("census_demo", path)
        demo = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(demo)
        assert demo.main() == 0
        # one class too many on a single grid fails the script
        monkeypatch.setattr(
            demo, "orbit_census", lambda n, p: orbit_census(n, p) + ([1] if p == 4 else [])
        )
        assert demo.main() == 1
        assert "n=6 p=4: census differs" in capsys.readouterr().err

    def test_reachable_agrees_with_labels_6_4(self):
        import random

        labels = orbit_labels(6, 4)
        rng = random.Random(64)
        pairs = [(rng.randrange(1 << 15), rng.randrange(1 << 15)) for _ in range(30)]
        pairs += [(a, a ^ 1) for a, _ in pairs[:5]]  # one arc apart: never reachable
        for a, b in pairs:
            T1, T2 = _tournament_from_bits(6, a), _tournament_from_bits(6, b)
            assert reachable(T1, T2, 4) == (labels[a] == labels[b]), (a, b)
