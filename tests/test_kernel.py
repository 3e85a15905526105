"""Kernelization: step semantics, thresholds, answer preservation."""

import itertools
import random
from fractions import Fraction

import pytest

from invlab.errors import InputError
from invlab.graphs import (
    AT_MOST,
    OrientedGraph,
    invert,
    is_acyclic,
    is_tournament,
)
from invlab.generate import random_tournament, transitive_tournament
from invlab.kernel import (
    KernelConfig,
    StepOutcome,
    canonical_no_instance,
    delvertex_step,
    kernelize,
)
from invlab.oracle import single_inversion_decycles


def planted(n, u=0, v=1, seed=None):
    return invert(transitive_tournament(n), {u, v})


class TestConfig:
    def test_threshold_examples(self):
        # the loop runs at eps/2, matching these values
        assert KernelConfig(p=3, k=1, eps=Fraction(1, 2)).threshold() == 50
        assert KernelConfig(p=2, k=2, eps=Fraction(1, 2)).threshold() == 42

    def test_validation(self):
        with pytest.raises(InputError):
            KernelConfig(p=3, k=1, eps=Fraction(0))
        with pytest.raises(InputError):
            KernelConfig(p=-1, k=1)


class TestCanonicalNoInstance:
    def test_is_tournament(self):
        T = canonical_no_instance(3, 1)
        assert is_tournament(T) and T.n == 12

    def test_single_inversion_cannot_decycle(self):
        assert single_inversion_decycles(canonical_no_instance(3, 1), 3, AT_MOST) is None

    def test_two_inversions_cannot_decycle(self):
        # p = 2, k = 2: exhaustive over all pairs of (<=2)-sets
        T = canonical_no_instance(2, 2)
        assert T.n == 15
        sets = [()] + [
            X for s in (1, 2) for X in itertools.combinations(range(T.n), s)
        ]
        for X1 in sets:
            G1 = invert(T, X1)
            for X2 in sets:
                assert not is_acyclic(invert(G1, X2)), (X1, X2)


class TestDelvertexStep:
    def test_noop_below_threshold(self):
        cfg = KernelConfig(p=3, k=1, eps=Fraction(1, 2))
        out = delvertex_step(planted(40), cfg)
        assert out.kind == "noop"

    def test_planted_deletes_from_feedback_free_interval(self):
        cfg = KernelConfig(p=3, k=1, eps=Fraction(1, 2))
        T = planted(55, 0, 54)
        out = delvertex_step(T, cfg)
        assert out.kind == "deleted"
        assert out.fas_size == 1
        assert out.deleted_vertex not in (0, 54)
        assert out.tournament.n == 54

    def test_adjacent_reversal_is_acyclic_plant(self):
        # reversing an order-adjacent arc keeps the tournament acyclic
        cfg = KernelConfig(p=3, k=1, eps=Fraction(1, 2))
        out = delvertex_step(planted(55, 0, 1), cfg)
        assert out.kind == "deleted" and out.fas_size == 0

    def test_no_instance_branch_on_random(self):
        cfg = KernelConfig(p=3, k=1, eps=Fraction(1, 2))
        T = random_tournament(60, 123)
        out = delvertex_step(T, cfg)
        assert out.kind == "no-instance"
        assert out.fas_size > cfg.fas_bound()
        assert out.tournament.n == 12

    def test_arc_minimal_feedback_arcs_are_backward(self):
        # after minimization every kept arc runs right-to-left in the order
        from invlab.kernel import _arc_minimal
        from invlab.graphs import fas_heuristic

        T = planted(30)
        fas = fas_heuristic(T)
        minimal = _arc_minimal(T, fas.arcs)
        stripped = T
        for u, v in minimal:
            stripped = invert(stripped, {u, v})
        # an acyclic tournament is ordered by descending out-degree
        assert is_acyclic(stripped)
        sigma = sorted(range(stripped.n), key=lambda v: -stripped.out_degree(v))
        pos = {v: i for i, v in enumerate(sigma)}
        assert all(pos[b] < pos[a] for a, b in minimal)


class TestKernelize:
    def test_small_input_unchanged(self):
        cfg = KernelConfig(p=3, k=1, eps=Fraction(1))
        T = planted(45)
        res = kernelize(T, cfg)
        assert res.tournament == T and not res.solved

    def test_planted_shrinks_and_preserves_answer(self):
        cfg = KernelConfig(p=3, k=1, eps=Fraction(1))
        T = planted(55, 0, 54)
        res = kernelize(T, cfg)
        assert res.tournament.n <= 50 <= 54
        assert 50 <= (1 + 1) * 1 * 27
        before = single_inversion_decycles(T, 3, AT_MOST) is not None
        after = single_inversion_decycles(res.tournament, 3, AT_MOST) is not None
        assert before and after

    def test_random_no_instances_preserved(self):
        cfg = KernelConfig(p=3, k=1, eps=Fraction(1))
        for seed in range(5):
            T = random_tournament(58, 500 + seed)
            res = kernelize(T, cfg)
            assert res.tournament.n <= 54
            before = single_inversion_decycles(T, 3, AT_MOST) is not None
            after = single_inversion_decycles(res.tournament, 3, AT_MOST) is not None
            assert before == after

    def test_trivial_dispatch(self):
        cfg = KernelConfig(p=1, k=3)
        res = kernelize(transitive_tournament(10), cfg)
        assert res.solved and res.answer is True
        assert is_acyclic(res.tournament)
        cyc = invert(transitive_tournament(10), {0, 9})
        res2 = kernelize(cyc, KernelConfig(p=3, k=0))
        assert res2.solved and res2.answer is False
        assert single_inversion_decycles(res2.tournament, 3, AT_MOST) is None

    def test_provenance_log(self):
        cfg = KernelConfig(p=3, k=1, eps=Fraction(1))
        res = kernelize(planted(53, 0, 52), cfg)
        assert all(isinstance(s, StepOutcome) for s in res.steps)
        assert all(s.kind == "deleted" for s in res.steps)
        assert len(res.steps) == 3

    def test_non_tournament_rejected(self):
        with pytest.raises(InputError):
            kernelize(OrientedGraph.from_arcs(3, [(0, 1)]), KernelConfig(p=3, k=1))


def _one_set_plant(seed):
    """A shuffled transitive tournament with one 3-set X inverted inside a
    window of w consecutive vertices; inverting X again makes it acyclic."""
    rng = random.Random(seed)
    n = rng.randint(51, 60)
    w = rng.choice([4, 6, 8, 12])
    perm = list(range(n))
    rng.shuffle(perm)
    T = OrientedGraph.from_arcs(
        n, [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)]
    )
    s = rng.randrange(n - w)
    X = [perm[s + i] for i in rng.sample(range(w), 3)]
    return invert(T, X), X


# Known defect: delvertex_step declares a no-instance when the heuristic FAS
# exceeds (1 + eps) k C(p, 2), but the heuristic can overshoot the minimum.
# On these plants it finds 4 arcs against a step bound of 3.75, although one
# 3-set decycles them.  Drop the marker once no-instances are certified.
@pytest.mark.parametrize("seed", [489, 546, 1192, 1310])
@pytest.mark.xfail(strict=True, reason="heuristic FAS overshoot yields a false no-instance")
def test_one_set_plants_are_no_false_no_instances(seed):
    T, X = _one_set_plant(seed)
    assert is_acyclic(invert(T, X))
    res = kernelize(T, KernelConfig(3, 1, Fraction(1, 2)))
    assert all(s.kind != "no-instance" for s in res.steps)
