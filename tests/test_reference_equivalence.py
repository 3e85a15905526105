"""The graph primitives, the graph reader, the kernel step, family
minimization and the greedy sweep against their earlier forms.

Each ``_reference_*`` below is the straightforward loop that the library's
bit-matrix, bit-surgery, arc-count, one-pass, out-degree, pair-bit-table and
highest-bit-pivot versions replaced, kept verbatim apart from calling the
other references and taking pair vectors as plain ints.  The library must
return equal values: the same FasResult, graph, StepOutcome, KernelResult,
minimized family, span witness and GreedyReduction, and the same errors.
"""

import heapq
import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import json_values, oriented_graphs, tournaments
from invlab.decycle import (
    CYCLE_FIRST,
    PAIRWISE,
    GreedyReduction,
    greedy_reduce,
    reverse_arc_set,
)
from invlab.errors import CapacityError, InputError, ModeError, UnsupportedRangeError
from invlab.graphs import (
    AT_MOST,
    EXACT,
    FAS_EXACT_LIMIT,
    FasResult,
    InversionFamily,
    OrientedGraph,
    apply_family,
    backward_arcs,
    delete_vertex,
    fas_exact,
    fas_heuristic,
    feedback_arc_set,
    find_cycle,
    induced_subgraph,
    invert,
    is_acyclic,
    is_tournament,
    vertex_count,
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
from invlab.pairspace import (
    SPAN_WITNESS_LIMIT,
    encode_set,
    minimize_family,
    pair_count,
    pair_index,
    span_witness_bruteforce,
)
from invlab.serialize import graph_from_dict, graph_to_dict


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


def _reference_graph_from_dict(data):
    if not isinstance(data, dict) or "n" not in data or "arcs" not in data:
        raise InputError("graph JSON needs keys 'n' and 'arcs'")
    n = vertex_count(data["n"], "graph JSON 'n'")
    arcs = data["arcs"]
    if not isinstance(arcs, list):
        raise InputError("graph JSON types: n int, arcs list")
    pairs = []
    for item in arcs:
        if not (isinstance(item, (list, tuple)) and len(item) == 2):
            raise InputError(f"bad arc entry {item!r}")
        u, v = item
        if type(u) is not int or type(v) is not int:
            raise InputError(f"bad arc entry {item!r}")
        pairs.append((u, v))
    return OrientedGraph.from_arcs(n, pairs)


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


def _reference_validate(family, n):
    if family.mode not in (EXACT, AT_MOST):
        raise InputError(f"unknown family mode {family.mode!r}")
    if family.p < 0:
        raise InputError("p must be nonnegative")
    for X in family.sets:
        if any(not (0 <= v < n) for v in X):
            raise InputError(f"set {sorted(X)} out of range for n={n}")
        if family.mode == EXACT and len(X) != family.p:
            raise ModeError(f"set of size {len(X)} in (={family.p})-family")
        if family.mode == AT_MOST and len(X) > family.p:
            raise ModeError(f"set of size {len(X)} in (<={family.p})-family")


def _reference_reduce(vec, combo, pivots):
    """Cancel lowest set bits against pivots; returns (vec, combo, open position)."""
    while vec:
        pos = (vec & -vec).bit_length() - 1
        if pos not in pivots:
            return vec, combo, pos
        pv, pc = pivots[pos]
        vec ^= pv
        combo ^= pc
    return 0, combo, None


def _reference_minimize_family(D1, family):
    _reference_validate(family, D1.n)
    edges = D1.underlying_pairs()
    edge_mask = 0
    for a, b in edges:
        edge_mask |= 1 << pair_index(a, b)
    sets = family.sets
    pivots = {}
    dropped = 0
    for i, X in enumerate(sets):
        restricted = encode_set(X, D1.n) & edge_mask
        vec, combo, pos = _reference_reduce(restricted, 1 << i, pivots)
        if vec:
            pivots[pos] = (vec, combo)
            continue
        dropped |= combo
        combo ^= 1 << i
        while combo:
            k = combo & -combo
            combo ^= k
            # eliminate member k from the basis; XORing in the row with the
            # highest pivot leaves every other row's lowest bit in place
            rows = [q for q, (_, c) in pivots.items() if c & k]
            top = max(rows)
            tv, tc = pivots.pop(top)
            for q in rows:
                if q != top:
                    v, c = pivots[q]
                    pivots[q] = (v ^ tv, c ^ tc)
    kept = tuple(X for i, X in enumerate(sets) if not dropped >> i & 1)
    assert len(kept) <= len(edges)
    return InversionFamily(kept, family.p, family.mode)


def _reference_span_witness(u, p, n):
    if p < 0 or p > n:
        raise InputError("need 0 <= p <= n")
    if math.comb(n, p) > SPAN_WITNESS_LIMIT:
        raise CapacityError(f"C({n},{p}) generators exceed limit {SPAN_WITNESS_LIMIT}")
    generators = list(itertools.combinations(range(n), p))
    pivots = {}
    for gi, X in enumerate(generators):
        vec, combo, pos = _reference_reduce(encode_set(X, n), 1 << gi, pivots)
        if vec:
            pivots[pos] = (vec, combo)
    vec, combo, _ = _reference_reduce(u, 0, pivots)
    if vec:
        return None
    chosen = tuple(
        frozenset(generators[i]) for i in range(len(generators)) if combo >> i & 1
    )
    witness = InversionFamily(chosen, p, EXACT)
    check = 0
    for X in chosen:
        check ^= encode_set(X, n)
    assert check == u
    return witness


def _reference_greedy_reduce(D, p, ordering=None):
    if p < 2:
        raise InputError("p must be at least 2")
    n = D.n
    if n < p:
        raise UnsupportedRangeError(f"need n >= p (got n={n}, p={p})")
    order = list(ordering) if ordering is not None else list(range(n))
    if sorted(order) != list(range(n)):
        raise InputError("ordering must be a permutation of the vertices")
    current = D
    sets = []
    pos = {v: i for i, v in enumerate(order)}
    for k in range(n - p):
        vk = order[k]
        tails = sorted(
            (u for u, v in current.arcs() if v == vk and pos[u] > k),
            key=lambda u: pos[u],
        )
        batches = len(tails) // (p - 1)
        for i in range(batches):
            X = frozenset([vk] + tails[i * (p - 1):(i + 1) * (p - 1)])
            sets.append(X)
            current = invert(current, X)
    tail_vertices = order[n - p:]
    tail_fas = feedback_arc_set(induced_subgraph(current, tail_vertices))
    tail_order = [tail_vertices[i] for i in tail_fas.ordering]
    cert = tuple(order[: n - p] + tail_order)
    family = InversionFamily(tuple(sets), p, EXACT)
    assert len(family) <= D.arc_count // (p - 1)
    return GreedyReduction(family, current, cert)


@st.composite
def dense_graphs(draw, min_n=6, max_n=30):
    """Oriented graphs whose pairs are edges with probability 0.3-1."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    density = draw(st.one_of(st.just(1.0), st.floats(min_value=0.3, max_value=1.0)))
    rng = draw(st.randoms(use_true_random=False))
    arcs = [
        (u, v) if rng.random() < 0.5 else (v, u)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < density
    ]
    return OrientedGraph.from_arcs(n, arcs)


def _edgeless_set(D, size, rng):
    """Up to ``size`` pairwise non-adjacent vertices of D, in a random greedy order."""
    und = D.underlying_masks()
    order = list(range(D.n))
    rng.shuffle(order)
    chosen, blocked = [], 0
    for v in order:
        if len(chosen) < size and not blocked >> v & 1:
            chosen.append(v)
            blocked |= und[v] | 1 << v
    return frozenset(chosen)


@st.composite
def graphs_with_families(draw):
    """Families with repeated sets and sets that span no edge of D."""
    D = draw(dense_graphs())
    mode = draw(st.sampled_from([EXACT, AT_MOST]))
    p = draw(st.integers(min_value=2, max_value=6))
    rng = draw(st.randoms(use_true_random=False))

    def fresh():
        k = p if mode == EXACT else rng.randint(0, p)
        return frozenset(rng.sample(range(D.n), k))

    pool = [fresh() for _ in range(rng.randint(1, 6))]
    edgeless = _edgeless_set(D, p if mode == EXACT else rng.randint(1, p), rng)
    if len(edgeless) == p or mode == AT_MOST:
        pool.append(edgeless)
    sets = [
        rng.choice(pool) if rng.random() < 0.5 else fresh()
        for _ in range(rng.randint(0, 120))
    ]
    return D, InversionFamily(tuple(sets), p, mode)


@st.composite
def span_targets(draw):
    """(u, p, n) with n <= 8: u the XOR of a few p-sets, so inside the span,
    or arbitrary pair bits, often outside it."""
    n = draw(st.integers(min_value=0, max_value=8))
    p = draw(st.integers(min_value=0, max_value=n))
    if draw(st.booleans()):
        u = 0
        for perm in draw(st.lists(st.permutations(range(n)), max_size=6)):
            u ^= encode_set(perm[:p], n)
    else:
        u = draw(st.integers(min_value=0, max_value=(1 << pair_count(n)) - 1))
    return u, p, n


class TestGraphPrimitives:
    @given(oriented_graphs(min_n=0, max_n=30))
    @settings(deadline=None)
    def test_masks_fas_and_order(self, D):
        assert D.in_masks() == _reference_in_masks(D)
        assert D.underlying_masks() == _reference_underlying_masks(D)
        assert fas_heuristic(D) == _reference_fas_heuristic(D)
        assert is_acyclic(D) == _reference_is_acyclic(D)
        cycle = find_cycle(D)
        if cycle is not None:
            assert len(set(cycle)) == len(cycle)
            assert all(D.has_arc(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1]))

    @given(st.one_of(oriented_graphs(min_n=0, max_n=12), tournaments(min_n=0, max_n=12)))
    def test_is_tournament(self, D):
        assert is_tournament(D) == _reference_is_tournament(D)

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
        # ranking to test acyclic ones too
        rank = list(range(D.n))
        rng.shuffle(rank)
        dag = OrientedGraph.from_arcs(
            D.n, [(u, v) if rank[u] < rank[v] else (v, u) for u, v in D.arcs()]
        )
        assert is_acyclic(dag) and _reference_is_acyclic(dag)
        assert find_cycle(dag) is None


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


class TestMinimizeAndSweep:
    @given(graphs_with_families())
    @settings(deadline=None)
    def test_minimize_random_families(self, case):
        D, fam = case
        assert minimize_family(D, fam) == _reference_minimize_family(D, fam)

    @given(dense_graphs(), st.sampled_from([2, 4, 6]), st.randoms(use_true_random=False))
    @settings(deadline=None)
    def test_minimize_gadget_families(self, D, p, rng):
        # the families the pipelines minimize: gadgets reversing an even arc
        # set, by both strategies
        if D.n < p + 2:
            return
        arcs = D.arcs()
        arcs = rng.sample(arcs, len(arcs) - len(arcs) % 2)[: 2 * rng.randint(0, 20)]
        for strategy in (PAIRWISE, CYCLE_FIRST):
            fam = reverse_arc_set(D, arcs, p, strategy)
            assert minimize_family(D, fam) == _reference_minimize_family(D, fam)

    @given(dense_graphs(), st.integers(min_value=2, max_value=6), st.randoms(use_true_random=False))
    @settings(deadline=None)
    def test_greedy_reduce(self, D, p, rng):
        assert greedy_reduce(D, p) == _reference_greedy_reduce(D, p)
        ordering = list(range(D.n))
        rng.shuffle(ordering)
        assert greedy_reduce(D, p, ordering) == _reference_greedy_reduce(D, p, ordering)


class TestSpanWitness:
    @given(span_targets())
    @settings(max_examples=300, deadline=None)
    def test_same_family(self, case):
        u, p, n = case
        assert span_witness_bruteforce(u, p, n) == _reference_span_witness(u, p, n)


@st.composite
def _graph_json_values(draw):
    """Graph JSON values: well-formed ones, ones with one entry spliced into
    the arc list (an arc out of range, a loop, a digon or a malformed
    entry), ones with arbitrary fields, and arbitrary values."""
    kind = draw(st.integers(min_value=0, max_value=3))
    if kind == 3:
        return draw(json_values())
    if kind == 2:
        return {"n": draw(json_values()), "arcs": draw(json_values())}
    data = graph_to_dict(draw(oriented_graphs(min_n=0, max_n=8)))
    if kind == 1:
        endpoint = st.integers(min_value=-1, max_value=8)
        entry = draw(st.lists(endpoint, min_size=2, max_size=2) | json_values())
        arcs = data["arcs"]
        arcs.insert(draw(st.integers(min_value=0, max_value=len(arcs))), entry)
    return data


class TestGraphReader:
    """The one-pass graph_from_dict against the shape pre-pass it replaced:
    the same graph, or an error of the same class from both."""

    @given(_graph_json_values())
    def test_same_graph_or_error(self, data):
        def outcome(read):
            try:
                return read(data)
            except (InputError, CapacityError) as exc:
                return type(exc)

        assert outcome(graph_from_dict) == outcome(_reference_graph_from_dict)


class TestValidateErrors:
    """Malformed families raise the old validate's exception class and message
    through every caller, before any vertex is used as a shift count."""

    D = OrientedGraph.from_arcs(6, [(0, 1), (1, 2), (2, 0), (3, 4)])
    GOOD = frozenset({0, 1, 2, 3})
    CASES = [
        InversionFamily((GOOD, frozenset({-1, 0, 1, 2})), 4, EXACT),
        InversionFamily((GOOD, frozenset({-3})), 4, AT_MOST),
        InversionFamily((GOOD, frozenset({0, 1, 2, 6})), 4, EXACT),
        InversionFamily((GOOD, frozenset({6})), 4, AT_MOST),
        InversionFamily((GOOD, frozenset({0, 1, 2})), 4, EXACT),
        InversionFamily((GOOD, frozenset({0, 1, 2, 3, 4})), 4, AT_MOST),
        InversionFamily((GOOD,), 4, "lt"),
        InversionFamily((GOOD,), -1, EXACT),
    ]

    @staticmethod
    def _error(call):
        try:
            call()
        except Exception as exc:
            return type(exc), str(exc)
        return None

    def test_same_errors(self):
        for fam in self.CASES:
            want = self._error(lambda: _reference_validate(fam, self.D.n))
            assert want is not None and want[0] in (InputError, ModeError)
            assert self._error(lambda: fam.validate(self.D.n)) == want
            assert self._error(lambda: apply_family(self.D, fam)) == want
            assert self._error(lambda: minimize_family(self.D, fam)) == want
            assert self._error(lambda: _reference_minimize_family(self.D, fam)) == want
