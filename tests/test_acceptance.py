"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every expected value is either computed here by an independent brute-force
oracle or asserted at the tolerance stated in the criterion.
"""

import itertools
import random
import time
from contextlib import contextmanager

import numpy as np

from invlab.decide import (
    construct_orientation,
    orientation_feasible,
    oriented_graph_invertible,
    parity_match_count,
    pushable_bruteforce,
    tournament_invertible,
)
from invlab.decycle import (
    CYCLE_FIRST,
    NARROW,
    PAIRWISE,
    WIDE,
    decycle_dense,
    decycle_opt_dense,
    decycle_via_fas,
    gadget_adjacent_pair,
    gadget_cycle4,
    gadget_even_cycle,
    gadget_nonadjacent_pair,
    greedy_reduce,
)
from invlab.graphs import (
    AT_MOST,
    EXACT,
    InversionFamily,
    OrientedGraph,
    UndirectedGraph,
    apply_family,
    backward_arcs,
    fas_exact,
    invert,
    is_acyclic,
    out_even_count,
)
from invlab.generate import (
    MccInstance,
    diregular_tournament,
    k33_hypergraph,
    hypergraph_lift,
    lift_colouring,
    colouring_is_proper,
    mcc_has_multicoloured_clique,
    mcc_reduction,
    proper_3_edge_colouring,
    random_oriented_graph,
    random_tournament,
    shec_colouring_family,
    shec_reduction,
    transitive_tournament,
    validate_special,
)
from invlab.kernel import KernelConfig, kernelize
from invlab.oracle import exact_inv, orbit_labels, single_inversion_decycles
from invlab.pairspace import (
    incident_masks,
    minimize_family,
    pair_count,
    pair_index,
)
from fractions import Fraction


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE C{num}: FAIL - {text}")
        raise
    print(f"ACCEPTANCE C{num}: PASS - {text}")


def _tournament_from_bits(n, code):
    arcs = []
    for j in range(n):
        for i in range(j):
            arcs.append((j, i) if code >> pair_index(i, j) & 1 else (i, j))
    return OrientedGraph.from_arcs(n, arcs)


def _signature_ids(n, p):
    r = p % 4
    if r == 2:
        masks = []
    elif r == 0:
        masks = [(1 << pair_count(n)) - 1]
    elif r == 3:
        masks = list(incident_masks(n)[: n - 1])
    else:
        masks = list(incident_masks(n)[: n - 1]) + [(1 << pair_count(n)) - 1]
    states = np.arange(1 << pair_count(n), dtype=np.uint32)
    ids = np.zeros(states.size, dtype=np.uint32)
    for i, h in enumerate(masks):
        ids |= ((np.bitwise_count(states & np.uint32(h)) & 1).astype(np.uint32)) << i
    return ids


def test_c1_characterization_vs_orbit_oracle():
    grids = {(5, 3): 2**4, (6, 3): 2**5, (6, 4): 2, (7, 5): 2**7}
    t0 = time.time()
    with criterion(1, "BFS orbit partition equals signature partition on all four grids"):
        for (n, p), expected_classes in grids.items():
            labels = orbit_labels(n, p)
            sigs = _signature_ids(n, p)
            n_classes = len(np.unique(labels))
            assert n_classes == expected_classes, (n, p, n_classes)
            combined = labels.astype(np.int64) << 32 | sigs.astype(np.int64)
            assert len(np.unique(combined)) == n_classes
            assert len(np.unique(sigs)) == n_classes
        assert time.time() - t0 <= 600


def test_c2_invertibility_deciders_vs_oracle():
    with criterion(2, "deciders agree with the exhaustive oracle, zero disagreements"):
        for code in range(1 << 10):
            T = _tournament_from_bits(5, code)
            for p in (2, 3):
                want = exact_inv(T, p, EXACT) is not None
                assert tournament_invertible(T, p) == want, (code, p)
                assert oriented_graph_invertible(T, p) == want, (code, p)
        count = 0
        seed = 0
        while count < 300:
            seed += 1
            n = 4 + seed % 3
            D = random_oriented_graph(n, 0.55, 10_000 + seed)
            for p in range(2, n + 1):
                want = exact_inv(D, p, EXACT) is not None
                if p == n - 1:
                    assert (pushable_bruteforce(D) is not None) == want, (seed, p)
                assert oriented_graph_invertible(D, p) == want, (seed, p)
            count += 1


def test_c3_out_even_census():
    with criterion(3, "out-even counts for transitive and diregular tournaments"):
        for n in range(1, 17):
            assert out_even_count(transitive_tournament(n)) == (n + 1) // 2
        for k in (1, 3, 5):
            T = diregular_tournament(k)
            assert out_even_count(T) == 0
            assert not oriented_graph_invertible(T, 3)


def test_c4_gamma_parity_and_feasibility():
    with criterion(4, "parity identity, feasibility vs brute force, construction hits s"):
        rng = random.Random(42)
        for trial in range(1000):
            D = random_oriented_graph(rng.randint(1, 8), rng.random(), 20_000 + trial)
            v1 = [v for v in range(D.n) if rng.random() < 0.5]
            v2 = [v for v in range(D.n) if v not in v1]
            assert parity_match_count(D, v1, v2) % 2 == (len(v1) + D.arc_count) % 2
        checked = 0
        seed = 0
        while checked < 500:
            seed += 1
            rng = random.Random(30_000 + seed)
            n = rng.randint(1, 7)
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
            brute = set()
            for bits in range(1 << len(edges)):
                arcs = [
                    (u, v) if not bits >> i & 1 else (v, u)
                    for i, (u, v) in enumerate(edges)
                ]
                brute.add(parity_match_count(OrientedGraph.from_arcs(n, arcs), v1, v2))
            for s in range(n + 2):
                feasible = orientation_feasible(G, v1, v2, s)
                assert feasible == (s in brute), (seed, s)
                if feasible:
                    got = construct_orientation(G, v1, v2, s)
                    assert parity_match_count(got, v1, v2) == s
                    assert sorted(got.underlying_pairs()) == sorted(G.edges())
            checked += 1


def _flip_set(D, sets):
    fam = InversionFamily(tuple(sets), D.n, AT_MOST)
    R = apply_family(D, fam)
    return sorted((u, v) for u, v in D.arcs() if R.has_arc(v, u))


def _present(D, pattern):
    out = []
    for a, b in pattern:
        if D.has_arc(a, b):
            out.append((a, b))
        elif D.has_arc(b, a):
            out.append((b, a))
    return sorted(out)


def test_c5_gadget_exactness():
    with criterion(5, "five gadget kinds flip exactly their targets, 500 draws each"):
        rng = random.Random(5)
        for _ in range(500):
            n = rng.randint(6, 12)
            D = random_oriented_graph(n, 0.6, rng.randrange(10**9))
            p = rng.randint(2, n - 2)
            anchors = rng.sample(range(n), 4)
            plan = gadget_cycle4(D, *anchors, p)
            assert len(plan.sets) == 4
            pattern = [(anchors[i], anchors[(i + 1) % 4]) for i in range(4)]
            assert _flip_set(D, plan.sets) == _present(D, pattern)
        for _ in range(500):
            n = rng.randint(6, 12)
            D = random_oriented_graph(n, 0.6, rng.randrange(10**9))
            p = rng.choice(range(2, n - 1, 2))
            u, v1, v2 = rng.sample(range(n), 3)
            plan = gadget_adjacent_pair(D, u, v1, v2, p)
            assert len(plan.sets) == 2 * p - 2
            assert _flip_set(D, plan.sets) == _present(D, [(u, v1), (u, v2)])
        for _ in range(500):
            n = rng.randint(6, 12)
            D = random_oriented_graph(n, 0.6, rng.randrange(10**9))
            p = rng.choice(range(2, n - 1, 2))
            u1, v1, u2, v2 = rng.sample(range(n), 4)
            plan = gadget_nonadjacent_pair(D, u1, v1, u2, v2, p)
            assert len(plan.sets) == 4 * p - 4
            assert _flip_set(D, plan.sets) == _present(D, [(u1, v1), (u2, v2)])
        for variant in (NARROW, WIDE):
            for _ in range(500):
                n = rng.randint(8, 13)
                ell = rng.choice([2, 3])
                D = random_oriented_graph(n, 0.6, rng.randrange(10**9))
                if variant is NARROW:
                    p = rng.randint(2, n - 2 * ell + 2)
                else:
                    p = rng.randint(3, n - 2)
                cyc = rng.sample(range(n), 2 * ell)
                plan = gadget_even_cycle(D, cyc, p, variant)
                assert len(plan.sets) == (2 * ell if variant is NARROW else 4 * ell)
                pattern = [
                    (cyc[i], cyc[(i + 1) % (2 * ell)]) for i in range(2 * ell)
                ]
                assert _flip_set(D, plan.sets) == _present(D, pattern)


def test_c6_bound_realization():
    t0 = time.time()
    with criterion(6, "pipeline counts within their stated bounds on 100 tournaments"):
        rng = random.Random(6)
        for trial in range(100):
            p = rng.choice([4, 6])
            n = rng.randint(p + 2, 12)
            D = random_tournament(n, 40_000 + trial)
            fas = fas_exact(D)
            fam = decycle_via_fas(D, p, PAIRWISE, fas=fas).family
            assert is_acyclic(apply_family(D, fam))
            assert all(len(X) == p for X in fam.sets)
            assert len(fam) <= (2 * p - 2) * (fas.size + 1)
            red = greedy_reduce(D, p)
            assert len(red.family) <= D.arc_count // (p - 1)
            cert = len(backward_arcs(red.reduced, red.ordering))
            assert 4 * cert <= 4 * ((p - 2) * n) - 3 * p * p + 7 * p
            cyc = decycle_via_fas(D, p, CYCLE_FIRST, fas=fas).family
            assert is_acyclic(apply_family(D, cyc))
            assert len(cyc) <= (2 * p - 2) * (fas.size + 1)
            assert len(cyc) <= 2 * fas.size + 2 * p * n
        assert time.time() - t0 <= 300


def test_c7_sandwich_bounds():
    with criterion(7, "inv<=4 <= inv=4 <= 144 * inv<=4 on 100 cyclic instances"):
        done = 0
        seed = 0
        while done < 100:
            seed += 1
            n = 6 + seed % 2
            D = random_oriented_graph(n, 0.55, 50_000 + seed)
            if is_acyclic(D) or len(D.underlying_pairs()) > 18:
                continue
            le = exact_inv(D, 4, AT_MOST)
            eq = exact_inv(D, 4, EXACT)
            assert le is not None and eq is not None and le >= 1
            assert le <= eq <= 144 * le, (seed, le, eq)
            done += 1


def test_c8_arc_count_bound():
    with criterion(8, "counts and finite exact values never exceed |A(D)|"):
        rng = random.Random(8)
        for trial in range(30):
            p = rng.choice([4, 6])
            n = rng.randint(p + 2, 12)
            D = random_tournament(n, 60_000 + trial)
            for fam in (
                decycle_via_fas(D, p).family,
                decycle_via_fas(D, p, CYCLE_FIRST).family,
                decycle_dense(D, p).family,
                decycle_opt_dense(D, p).family,
            ):
                assert len(fam) <= D.arc_count, trial
        for trial in range(30):
            D = random_oriented_graph(6, 0.6, 61_000 + trial)
            for p in (2, 3, 4):
                value = exact_inv(D, p, EXACT)
                if value is not None:
                    assert value <= D.arc_count, (trial, p)


def test_c9_kernel():
    t0 = time.time()
    with criterion(9, "kernels stay under 54 vertices and preserve the answer, 50 instances"):
        cfg = KernelConfig(p=3, k=1, eps=Fraction(1))
        rng = random.Random(9)
        for trial in range(50):
            n = rng.randint(51, 60)
            if trial % 2 == 0:
                u = rng.randrange(n - 2)
                v = rng.randrange(u + 2, n)  # skip order-adjacent pairs: plant a cycle
                T = invert(transitive_tournament(n), {u, v})
            else:
                T = random_tournament(n, 70_000 + trial)
            res = kernelize(T, cfg)
            assert res.tournament.n <= 54
            before = single_inversion_decycles(T, 3, AT_MOST) is not None
            after = single_inversion_decycles(res.tournament, 3, AT_MOST) is not None
            assert before == after, trial
        assert time.time() - t0 <= 120


def test_c10_reductions():
    with criterion(10, "clique and colouring reductions verified at desk scale"):
        cross = [(0, 2), (0, 3), (1, 2), (1, 3)]
        for pattern in range(1 << 4):
            edges = [e for i, e in enumerate(cross) if pattern >> i & 1]
            inst = MccInstance(
                UndirectedGraph.from_edges(4, edges), ((0, 1), (2, 3))
            )
            red = mcc_reduction(inst)
            yes = mcc_has_multicoloured_clique(inst)
            found = single_inversion_decycles(red.graph, red.p, AT_MOST)
            assert (found is not None) == yes, pattern
        H = k33_hypergraph()
        phi = proper_3_edge_colouring(H)
        red = shec_reduction(H, 3)
        assert red.tournament.n == 177
        fam = shec_colouring_family(red, H, phi, 3)
        assert len(fam) == 9 and all(len(X) == 3 for X in fam.sets)
        assert is_acyclic(apply_family(red.tournament, fam))
        lift = hypergraph_lift(H)
        assert validate_special(lift.hypergraph, 3).ok
        assert colouring_is_proper(lift.hypergraph, lift_colouring(H, phi))


def test_c11_family_minimization():
    with criterion(11, "minimized families stay under |E| with identical effect, 200 pairs"):
        rng = random.Random(11)
        for trial in range(200):
            n = rng.randint(4, 9)
            D = random_oriented_graph(n, 0.6, 80_000 + trial)
            sets = tuple(
                frozenset(rng.sample(range(n), rng.randint(2, min(4, n))))
                for _ in range(rng.randint(10, 40))
            )
            fam = InversionFamily(sets, n, AT_MOST)
            out = minimize_family(D, fam)
            assert len(out) <= len(D.underlying_pairs())
            assert len(out) <= len(fam)
            assert apply_family(D, out) == apply_family(D, fam)
            for X in out.sets:
                assert X in sets
