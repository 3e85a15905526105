"""The graph primitives and the kernel step against their per-bit loop forms.

Each ``_reference_*`` below is the straightforward loop that the library's
bit-matrix, bit-surgery and out-degree versions replaced, kept verbatim
apart from calling the other references.  The library must return equal
values: the same FasResult, graph, StepOutcome and KernelResult.
"""

import heapq
import random
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oriented_graphs, tournaments
from invlab.errors import InputError
from invlab.graphs import (
    FAS_EXACT_LIMIT,
    FasResult,
    OrientedGraph,
    backward_arcs,
    delete_vertex,
    fas_exact,
    fas_heuristic,
    invert,
    topological_order,
)
from invlab.kernel import (
    KernelConfig,
    KernelResult,
    StepOutcome,
    _arc_minimal,
    canonical_no_instance,
    delvertex_step,
    kernelize,
)


def _bits(mask):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def _reference_in_masks(D):
    ins = [0] * D.n
    for u in range(D.n):
        for v in _bits(D.out[u]):
            ins[v] |= 1 << u
    return ins


def _reference_underlying_masks(D):
    und = list(D.out)
    for u in range(D.n):
        for v in _bits(D.out[u]):
            und[v] |= 1 << u
    return und


def _reference_is_tournament(D):
    und = _reference_underlying_masks(D)
    full = (1 << D.n) - 1
    return all(und[v] == full & ~(1 << v) for v in range(D.n))


def _reference_topological_order(D):
    indeg = [0] * D.n
    for u in range(D.n):
        for v in _bits(D.out[u]):
            indeg[v] += 1
    heap = [v for v in range(D.n) if indeg[v] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        u = heapq.heappop(heap)
        order.append(u)
        for v in _bits(D.out[u]):
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(heap, v)
    return order if len(order) == D.n else None


def _reference_is_acyclic(D):
    return _reference_topological_order(D) is not None


def _reference_backward_arcs(D, ordering):
    pos = {v: i for i, v in enumerate(ordering)}
    return [(u, v) for u, v in D.arcs() if pos[u] > pos[v]]


def _reference_fas_heuristic(D):
    n = D.n
    ins = _reference_in_masks(D)
    indeg = [m.bit_count() for m in ins]
    # sign[v][w]: +1 for v->w, -1 for w->v, 0 for a non-edge
    sign = [
        [(D.out[v] >> w & 1) - (ins[v] >> w & 1) for w in range(n)] for v in range(n)
    ]
    order = sorted(range(n), key=lambda v: (-D.out_degree(v), v))
    improved = True
    while improved:
        improved = False
        for v in range(n):
            i = order.index(v)
            others = order[:i] + order[i + 1:]
            # b[j] = backward arcs at v when v occupies slot j among the others
            b = list(accumulate(map(sign[v].__getitem__, others), initial=indeg[v]))
            best = min(b)
            if best < b[i]:
                others.insert(b.index(best), v)
                order = others
                improved = True
    arcs = tuple(_reference_backward_arcs(D, order))
    return FasResult(len(arcs), arcs, tuple(order), False)


def _reference_delete_vertex(D, z):
    if not 0 <= z < D.n:
        raise InputError(f"vertex {z} out of range")
    relabel = lambda v: v - (v > z)
    arcs = [(relabel(u), relabel(v)) for u, v in D.arcs() if u != z and v != z]
    return OrientedGraph.from_arcs(D.n - 1, arcs)


def _reference_arc_minimal(T, arcs):
    current = list(arcs)
    changed = True
    while changed:
        changed = False
        for a in list(current):
            rest = [x for x in current if x != a]
            flipped = T
            for u, v in rest:
                flipped = invert(flipped, {u, v})
            if _reference_is_acyclic(flipped):
                current = rest
                changed = True
                break
    return current


def _reference_delvertex_step(T, cfg):
    if not _reference_is_tournament(T):
        raise InputError("kernelization needs a tournament")
    if T.n < cfg.threshold():
        return StepOutcome("noop", T)
    fas = fas_exact(T) if T.n <= FAS_EXACT_LIMIT else _reference_fas_heuristic(T)
    if fas.size > cfg.fas_bound():
        return StepOutcome(
            "no-instance",
            canonical_no_instance(cfg.p, cfg.k),
            fas_size=fas.size,
            fas_exact=fas.exact,
        )
    minimal = _reference_arc_minimal(T, fas.arcs)
    stripped = T
    for u, v in minimal:
        stripped = invert(stripped, {u, v})
    sigma = _reference_topological_order(stripped)
    assert sigma is not None
    pos = {v: i for i, v in enumerate(sigma)}
    assert all(pos[b] < pos[a] for a, b in minimal)
    endpoints = {v for arc in minimal for v in arc}
    span = cfg.p * cfg.k + 2
    start = None
    run = 0
    for i, v in enumerate(sigma):
        if v in endpoints:
            run = 0
            continue
        run += 1
        if run >= span:
            start = i - run + 1
            break
    if start is None:
        raise InputError("no feedback-free interval of the required length")
    z = sigma[start]
    return StepOutcome(
        "deleted",
        _reference_delete_vertex(T, z),
        fas_size=len(minimal),
        fas_exact=fas.exact,
        interval=(start, start + span),
        deleted_vertex=z,
    )


def _reference_kernelize(T, cfg):
    if not _reference_is_tournament(T):
        raise InputError("kernelization needs a tournament")
    if cfg.p <= 1 or cfg.k == 0:
        answer = _reference_is_acyclic(T)
        marker = (
            OrientedGraph.from_arcs(1, [])
            if answer
            else canonical_no_instance(max(cfg.p, 1), max(cfg.k, 1))
        )
        return KernelResult(marker, True, answer, ())
    step_cfg = replace(cfg, eps=cfg.eps / 2)
    loop_threshold = step_cfg.threshold()
    steps = []
    current = T
    while current.n > loop_threshold:
        outcome = _reference_delvertex_step(current, step_cfg)
        steps.append(outcome)
        if outcome.kind == "noop":
            break
        current = outcome.tournament
        if outcome.kind == "no-instance":
            break
    return KernelResult(current, False, None, tuple(steps))


class TestGraphPrimitives:
    @given(oriented_graphs(min_n=0, max_n=30))
    @settings(deadline=None)
    def test_masks_fas_and_order(self, D):
        assert D.in_masks() == _reference_in_masks(D)
        assert D.underlying_masks() == _reference_underlying_masks(D)
        assert fas_heuristic(D) == _reference_fas_heuristic(D)
        # None on every cyclic graph, the same Kahn order on the rest
        assert topological_order(D) == _reference_topological_order(D)

    @given(oriented_graphs(min_n=0, max_n=30), st.randoms(use_true_random=False))
    @settings(deadline=None)
    def test_backward_arcs(self, D, rng):
        ordering = list(range(D.n))
        rng.shuffle(ordering)
        assert backward_arcs(D, ordering) == _reference_backward_arcs(D, ordering)

    @given(oriented_graphs(min_n=1, max_n=30))
    @settings(deadline=None)
    def test_delete_every_vertex(self, D):
        for z in range(D.n):
            assert delete_vertex(D, z) == _reference_delete_vertex(D, z)

    @given(oriented_graphs(min_n=0, max_n=30), st.randoms(use_true_random=False))
    @settings(deadline=None)
    def test_acyclic_order(self, D, rng):
        # random oriented graphs are mostly cyclic; orient D along a random
        # ranking to compare the orders themselves
        rank = list(range(D.n))
        rng.shuffle(rank)
        dag = OrientedGraph.from_arcs(
            D.n, [(u, v) if rank[u] < rank[v] else (v, u) for u, v in D.arcs()]
        )
        assert topological_order(dag) == _reference_topological_order(dag)


class TestKernelStep:
    CONFIGS = [
        KernelConfig(3, 1, Fraction(1)),
        KernelConfig(3, 1, Fraction(1, 2)),
        KernelConfig(4, 1, Fraction(1)),
        KernelConfig(3, 2, Fraction(1, 2)),
    ]

    @given(tournaments(min_n=1, max_n=14), st.randoms(use_true_random=False))
    @settings(deadline=None)
    def test_arc_minimal(self, T, rng):
        # any arcs of T, in any order: the scan drops the same ones
        arcs = T.arcs()
        rng.shuffle(arcs)
        arcs = tuple(arcs[: rng.randint(0, len(arcs))])
        assert _arc_minimal(T, arcs) == _reference_arc_minimal(T, arcs)

    @staticmethod
    def _instances():
        """Plants (0-4 reversed arcs of a shuffled transitive tournament)
        and random tournaments, at n 51-80."""
        rng = random.Random(2024)
        for r in range(5):
            for _ in range(2):
                n = rng.randint(51, 80)
                perm = list(range(n))
                rng.shuffle(perm)
                arcs = {(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)}
                for u, v in rng.sample(sorted(arcs), r):
                    arcs.remove((u, v))
                    arcs.add((v, u))
                yield OrientedGraph.from_arcs(n, arcs)
        for _ in range(2):
            n = rng.randint(51, 80)
            yield OrientedGraph.from_arcs(
                n,
                [
                    (u, v) if rng.random() < 0.5 else (v, u)
                    for u in range(n)
                    for v in range(u + 1, n)
                ],
            )

    def test_step_and_kernelize(self):
        kinds = set()
        for T in self._instances():
            for cfg in self.CONFIGS:
                step = delvertex_step(T, cfg)
                assert step == _reference_delvertex_step(T, cfg)
                res = kernelize(T, cfg)
                assert res == _reference_kernelize(T, cfg)
                kinds.add(step.kind)
                kinds.update(s.kind for s in res.steps)
        # the instances reach every branch of the step
        assert kinds == {"noop", "no-instance", "deleted"}
