"""Generators: canonical tournaments, reductions, special hypergraphs."""

import itertools
from dataclasses import dataclass
from typing import Optional

import pytest

from invlab.errors import InputError
from invlab.graphs import (
    AT_MOST,
    InversionFamily,
    OrientedGraph,
    UndirectedGraph,
    apply_family,
    induced_subgraph,
    is_acyclic,
    is_tournament,
    out_even_count,
)
from invlab.generate import (
    Hypergraph,
    MccInstance,
    build_graph,
    colouring_is_proper,
    directed_cycle,
    diregular_tournament,
    hypergraph_lift,
    k33_hypergraph,
    lift_colouring,
    mcc_has_multicoloured_clique,
    mcc_reduction,
    proper_3_edge_colouring,
    random_oriented_graph,
    random_tournament,
    reversed_arc_tournament,
    shec_colouring_family,
    shec_reduction,
    transitive_tournament,
    validate_special,
)
from invlab.oracle import single_inversion_decycles


class TestCanonicalTournaments:
    def test_tt3(self):
        assert sorted(transitive_tournament(3).arcs()) == [(0, 1), (0, 2), (1, 2)]

    def test_tn_single_backward_arc(self):
        T4 = reversed_arc_tournament(4)
        backward = [(u, v) for u, v in T4.arcs() if u > v]
        assert backward == [(3, 0)]

    def test_tn_out_even_count_even_orders(self):
        for n in range(4, 13, 2):
            assert out_even_count(reversed_arc_tournament(n)) == n // 2

    def test_diregular_k1_is_triangle(self):
        assert diregular_tournament(1) == directed_cycle(3)

    def test_diregular_degrees(self):
        T = diregular_tournament(3)
        assert T.n == 7 and all(d == 3 for d in T.out_degrees())
        assert out_even_count(T) == 0

    def test_random_reproducible(self):
        assert random_tournament(8, 5) == random_tournament(8, 5)
        assert random_oriented_graph(8, 0.3, 5) == random_oriented_graph(8, 0.3, 5)

    def test_density_extremes(self):
        assert is_tournament(random_oriented_graph(7, 1.0, 0))
        assert random_oriented_graph(7, 0.0, 0).arc_count == 0

    def test_table_defaults(self):
        assert build_graph("random_tournament", {"n": 8}) == random_tournament(8, 0)
        assert build_graph("random_oriented", {"n": 8}) == random_oriented_graph(8, 0.5, 0)
        assert build_graph("diregular", {"k": 3}) == diregular_tournament(3)


class TestValidateSpecial:
    def test_k33_is_2_special(self):
        assert validate_special(k33_hypergraph(), 2).ok

    def test_k4_fails_triangle_closure(self):
        edges = tuple(
            frozenset(e) for e in itertools.combinations(range(4), 2)
        )
        report = validate_special(Hypergraph(4, edges), 2)
        assert not report.ok and report.violation.startswith("S4")

    def test_uniformity_violation(self):
        H = Hypergraph(5, (frozenset({0, 1, 2, 3}),))
        report = validate_special(H, 3)
        assert not report.ok and report.violation.startswith("S1")

    def test_regularity_violation(self):
        H = Hypergraph(3, (frozenset({0, 1}), frozenset({1, 2})))
        report = validate_special(H, 2)
        assert not report.ok and report.violation.startswith("S2")


class TestColouring:
    def test_k33_colourable(self):
        H = k33_hypergraph()
        phi = proper_3_edge_colouring(H)
        assert phi is not None and colouring_is_proper(H, phi)

    def test_uncolourable_detected(self):
        # four pairwise-intersecting edges need four colours
        H = Hypergraph(4, tuple(frozenset(e) for e in [(0, 1), (0, 2), (0, 3)]))
        phi = proper_3_edge_colouring(H)
        assert phi is not None  # star with three edges is fine
        H2 = Hypergraph(
            5,
            tuple(frozenset(e) for e in [(0, 1), (0, 2), (0, 3), (0, 4)]),
        )
        assert proper_3_edge_colouring(H2) is None


class TestHypergraphLift:
    def test_k33_lift(self):
        lift = hypergraph_lift(k33_hypergraph())
        assert lift.hypergraph.n == 9 * (6 + 9) == 135
        assert validate_special(lift.hypergraph, 3).ok

    def test_colouring_transfer(self):
        H = k33_hypergraph()
        phi = proper_3_edge_colouring(H)
        transferred = lift_colouring(H, phi)
        lift = hypergraph_lift(H)
        assert colouring_is_proper(lift.hypergraph, transferred)

    def test_rejects_non_special(self):
        edges = tuple(frozenset(e) for e in itertools.combinations(range(4), 2))
        with pytest.raises(InputError):
            hypergraph_lift(Hypergraph(4, edges))


class TestMccReduction:
    def _instance(self, missing=()):
        # parts {0,1} and {2,3}; full cross edges minus `missing`
        edges = [
            (a, b)
            for a in (0, 1)
            for b in (2, 3)
            if (a, b) not in missing
        ]
        G = UndirectedGraph.from_edges(4, edges)
        return MccInstance(G, ((0, 1), (2, 3)))

    def test_structure(self):
        red = mcc_reduction(self._instance())
        assert red.p == 4
        assert red.graph.n == 8  # no missing edges, so no blocker vertices
        for i in range(2):
            block = list(range(4 * i, 4 * i + 4))
            cyc = induced_subgraph(red.graph, block)
            assert cyc.arc_count == 4 and not is_acyclic(cyc)

    def test_blocker_count_matches_missing_edges(self):
        red = mcc_reduction(self._instance(missing=((0, 2), (1, 3))))
        assert red.graph.n == 8 + 2
        assert len(red.names) == red.graph.n

    def test_part_of_size_one_rejected(self):
        G = UndirectedGraph.from_edges(3, [(0, 1), (0, 2)])
        with pytest.raises(InputError):
            mcc_reduction(MccInstance(G, ((0,), (1, 2))))

    def test_equivalence_exhaustive_2x2(self):
        cross = [(0, 2), (0, 3), (1, 2), (1, 3)]
        for pattern in range(1 << 4):
            missing = tuple(e for i, e in enumerate(cross) if not pattern >> i & 1)
            inst = self._instance(missing=missing)
            red = mcc_reduction(inst)
            yes = mcc_has_multicoloured_clique(inst)
            found = single_inversion_decycles(red.graph, red.p, AT_MOST)
            assert (found is not None) == yes, pattern
            if found is not None:
                assert is_acyclic(apply_family(
                    red.graph, InversionFamily((found,), red.p, AT_MOST)
                ))


class TestShecReduction:
    def test_k33_size_and_shape(self):
        H = k33_hypergraph()
        red = shec_reduction(H, 3)
        assert red.k == 9
        assert red.tournament.n == 6 + 6 * (3 * 9 + 1) + 3 == 177
        assert is_tournament(red.tournament)

    def test_blocks_transitive(self):
        H = k33_hypergraph()
        red = shec_reduction(H, 3)
        T = red.tournament
        z = induced_subgraph(T, [174, 175, 176])
        assert is_acyclic(z)
        w1 = induced_subgraph(T, list(range(6, 6 + 28)))
        assert is_acyclic(w1)

    def test_colouring_family_decycles(self):
        H = k33_hypergraph()
        phi = proper_3_edge_colouring(H)
        red = shec_reduction(H, 3)
        fam = shec_colouring_family(red, H, phi, 3)
        assert len(fam) == 9
        assert all(len(X) == 3 for X in fam.sets)
        assert is_acyclic(apply_family(red.tournament, fam))

    def test_rejects_non_special(self):
        edges = tuple(frozenset(e) for e in itertools.combinations(range(4), 2))
        with pytest.raises(InputError):
            shec_reduction(Hypergraph(4, edges), 3)


@dataclass(frozen=True)
class WitnessCheck:
    contains_pair: bool
    residual_cycle: Optional[tuple[int, ...]]


def triangle_cycle_witness_check(D, u, v, family, p):
    """On instances where the arc uv sits on p*|family|+1 triangles meeting
    pairwise in exactly {u,v}, a decycling family must contain {u,v} in some
    member; reports a surviving triangle otherwise."""
    if not D.has_arc(u, v):
        raise InputError(f"({u},{v}) is not an arc")
    if any(len(X) > p for X in family.sets):
        raise InputError("family members must have size at most p")
    k = len(family.sets)
    need = p * k + 1
    thirds = [
        w
        for w in range(D.n)
        if w not in (u, v) and D.has_arc(v, w) and D.has_arc(w, u)
    ]
    if len(thirds) < need:
        raise InputError(
            f"only {len(thirds)} triangles through ({u},{v}); need {need}"
        )
    contains = any({u, v} <= X for X in family.sets)
    if contains:
        return WitnessCheck(True, None)
    touched = set().union(*family.sets) if family.sets else set()
    survivor = next(w for w in thirds if w not in touched)
    return WitnessCheck(False, (u, v, survivor))


class TestTriangleCycleWitness:
    def _bundle(self, extra=5):
        # arc (0,1) on `extra` triangles (0,1,w) sharing only {0,1}
        n = 2 + extra
        arcs = [(0, 1)]
        for w in range(2, n):
            arcs += [(1, w), (w, 0)]
        return OrientedGraph.from_arcs(n, arcs)

    def test_family_with_pair_passes(self):
        D = self._bundle(extra=4)
        fam = InversionFamily((frozenset({0, 1, 2}),), 3, AT_MOST)
        check = triangle_cycle_witness_check(D, 0, 1, fam, 3)
        assert check.contains_pair and check.residual_cycle is None

    def test_violating_family_reports_residual(self):
        D = self._bundle(extra=4)
        fam = InversionFamily((frozenset({1, 2, 3}),), 3, AT_MOST)
        check = triangle_cycle_witness_check(D, 0, 1, fam, 3)
        assert not check.contains_pair
        u, v, w = check.residual_cycle
        assert D.has_arc(u, v) and D.has_arc(v, w) and D.has_arc(w, u)
        result = apply_family(D, fam)
        assert result.has_arc(u, v) and result.has_arc(v, w) and result.has_arc(w, u)

    def test_insufficient_bundle_rejected(self):
        D = self._bundle(extra=2)
        fam = InversionFamily((frozenset({0, 2, 3}),), 3, AT_MOST)
        with pytest.raises(InputError):
            triangle_cycle_witness_check(D, 0, 1, fam, 3)
