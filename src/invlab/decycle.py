"""Constructive synthesis of decycling (=p)-families.

Four primitive gadgets reverse a prescribed edge pattern and nothing else;
the pipelines compose them against a feedback arc set.  Each pipeline
returns a Decycling: its family and the stated bound on the family's size,
computed next to the construction it bounds.  Helper vertices are always the
lowest-index vertices outside the forbidden set, so every output is
deterministic.  All pipelines require even p; no bounded construction can
exist for odd p.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .errors import CapacityError, InputError, ModeError, UnsupportedRangeError
from .graphs import (
    AT_MOST,
    EXACT,
    FasResult,
    InversionFamily,
    OrientedGraph,
    apply_family,
    feedback_arc_set,
    find_cycle,
    induced_subgraph,
    invert,
    is_acyclic,
)
from .pairspace import minimize_family

PAIRWISE = "pairwise"
CYCLE_FIRST = "cycle-first"


@dataclass(frozen=True)
class GadgetPlan:
    kind: str
    anchors: tuple[int, ...]
    helper: tuple[int, ...]
    sets: tuple[frozenset[int], ...]


# collects the gadget plans of a pipeline run, in order, when given
Trace = Optional[list[GadgetPlan]]


def _helper_set(n: int, size: int, forbidden: Iterable[int]) -> tuple[int, ...]:
    if size < 0:
        raise InputError(f"helper set size must be nonnegative (got {size})")
    bad = set(forbidden)
    helper = [v for v in range(n) if v not in bad][:size]
    if len(helper) < size:
        raise CapacityError(
            f"need {size} helper vertices outside {sorted(bad)} but only "
            f"{len(helper)} exist (n={n})"
        )
    return tuple(helper)


def _check_anchors(n: int, anchors: Sequence[int]) -> None:
    if len(set(anchors)) != len(anchors):
        raise InputError(f"anchors {anchors} must be distinct")
    if any(not (0 <= v < n) for v in anchors):
        raise InputError(f"anchors {anchors} out of range for n={n}")


def gadget_cycle4(
    D: OrientedGraph, x0: int, x1: int, x2: int, x3: int, p: int
) -> GadgetPlan:
    """Four (=p)-inversions reversing exactly the pattern x0x1, x1x2, x2x3, x3x0.

    One shared helper set of p-2 outside vertices rides along in all four
    inversions, so every other pair is flipped an even number of times.
    """
    anchors = (x0, x1, x2, x3)
    _check_anchors(D.n, anchors)
    if p < 2:
        raise InputError("p must be at least 2")
    helper = _helper_set(D.n, p - 2, anchors)
    sets = tuple(
        frozenset(helper) | {anchors[i], anchors[(i + 1) % 4]} for i in range(4)
    )
    return GadgetPlan("cycle4", anchors, helper, sets)


def gadget_adjacent_pair(
    D: OrientedGraph, u: int, v1: int, v2: int, p: int
) -> GadgetPlan:
    """2p-2 (=p)-inversions reversing exactly the adjacent pair uv1, uv2 (p even).

    Two direct inversions flip the targets and the helper biclique
    K_{ {v1,v2}, X }; consecutive helper pairs (x_2i, x_2i+1) then form
    4-cycles v1, x_2i, v2, x_2i+1 that cancel the biclique again.
    """
    anchors = (u, v1, v2)
    _check_anchors(D.n, anchors)
    if p < 2 or p % 2 == 1:
        raise ModeError(f"adjacent-pair gadget needs even p >= 2 (got {p})")
    helper = _helper_set(D.n, p - 2, anchors)
    sets = [frozenset(helper) | {u, v1}, frozenset(helper) | {u, v2}]
    for i in range(0, p - 2, 2):
        a, b = helper[i], helper[i + 1]
        sets.extend(gadget_cycle4(D, v1, a, v2, b, p).sets)
    assert len(sets) == 2 * p - 2
    return GadgetPlan("adjacent-pair", anchors, helper, tuple(sets))


def gadget_nonadjacent_pair(
    D: OrientedGraph, u1: int, v1: int, u2: int, v2: int, p: int
) -> GadgetPlan:
    """4p-4 (=p)-inversions reversing exactly the disjoint pair u1v1, u2v2
    (p even): u1v1 with the bridge u1u2, then the bridge with u2v2."""
    anchors = (u1, v1, u2, v2)
    _check_anchors(D.n, anchors)
    if p < 2 or p % 2 == 1:
        raise ModeError(f"nonadjacent-pair gadget needs even p >= 2 (got {p})")
    first = gadget_adjacent_pair(D, u1, v1, u2, p)
    second = gadget_adjacent_pair(D, u2, u1, v2, p)
    sets = first.sets + second.sets
    assert len(sets) == 4 * p - 4
    return GadgetPlan("nonadjacent-pair", anchors, first.helper, sets)


NARROW = "narrow"
WIDE = "wide"


def gadget_even_cycle(
    D: OrientedGraph, cycle: Sequence[int], p: int, variant: str = NARROW
) -> GadgetPlan:
    """Reverse exactly the edge pattern of an even cycle c0..c_{2l-1}.

    Narrow walks the cycle with one shared helper set (2l inversions, needs
    n >= p + 2l - 2); Wide covers it by l chorded 4-cycles (4l inversions,
    needs only n >= p + 2 but p >= 3).
    """
    cyc = tuple(cycle)
    _check_anchors(D.n, cyc)
    if len(cyc) % 2 or len(cyc) < 4:
        raise InputError(f"even cycle needs 2l >= 4 vertices (got {len(cyc)})")
    two_l = len(cyc)
    if variant == NARROW:
        if p < 2:
            raise InputError("p must be at least 2")
        if D.n < p + two_l - 2:
            raise ModeError(
                f"narrow even-cycle gadget needs n >= p + 2l - 2 "
                f"(n={D.n}, p={p}, 2l={two_l}); fall back to the wide variant"
            )
        helper = _helper_set(D.n, p - 2, cyc)
        sets = tuple(
            frozenset(helper) | {cyc[i], cyc[(i + 1) % two_l]} for i in range(two_l)
        )
        return GadgetPlan("even-cycle-narrow", cyc, helper, sets)
    if variant != WIDE:
        raise InputError(f"unknown even-cycle variant {variant!r}")
    if p < 3:
        raise ModeError(f"wide even-cycle gadget needs p >= 3 (got {p})")
    half = two_l // 2
    sets = []
    for i in range(half):
        quad = (cyc[i], cyc[(i + 1) % two_l], cyc[(i + half + 1) % two_l], cyc[(i + half) % two_l])
        sets.extend(gadget_cycle4(D, *quad, p).sets)
    assert len(sets) == 2 * two_l
    return GadgetPlan("even-cycle-wide", cyc, (), tuple(sets))


def _pair_of(arc: tuple[int, int]) -> tuple[int, int]:
    return (min(arc), max(arc))


def _shortest_path(
    adj: dict[int, list[int]], a: int, b: int
) -> Optional[list[int]]:
    """BFS path b, ..., a from a to b that avoids the edge ab itself, scanning
    neighbours in ascending order; None when a and b are disconnected."""
    prev = {a: a}
    frontier = [a]
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y in prev or (x == a and y == b):
                    continue
                prev[y] = x
                if y == b:
                    path = [b]
                    while path[-1] != a:
                        path.append(prev[path[-1]])
                    return path
                nxt.append(y)
        frontier = nxt
    return None


def _greedy_even_cycles(
    pairs: set[tuple[int, int]]
) -> tuple[list[list[int]], set[tuple[int, int]]]:
    """Peel shortest even cycles out of an undirected edge set, greedily.

    Each round takes the edge ab whose shortest a-b path (avoiding ab) has an
    odd number of edges, so that it closes the shortest even cycle; ties go to
    the smallest edge.  Removing edges never shortens a path, so a heap of
    (lower bound, edge) needs to recompute only the popped edge.  An edge
    whose path is odd is parked until an accepted cycle cuts that path: while
    the path is intact its length, and so its parity, cannot change.
    """
    remaining = set(pairs)
    adj: dict[int, list[int]] = {}
    for a, b in sorted(remaining):
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    for nbrs in adj.values():
        nbrs.sort()
    heap = [(0, e) for e in sorted(remaining)]  # a sorted list is a heap
    parked: dict[tuple[int, int], tuple[int, set[tuple[int, int]]]] = {}
    watchers: dict[tuple[int, int], list[tuple[int, int]]] = {}
    cycles = []
    while heap:
        bound, e = heapq.heappop(heap)
        if e not in remaining:
            continue
        path = _shortest_path(adj, *e)
        if path is None:
            continue
        if len(path) % 2:
            edges = {_pair_of(f) for f in zip(path, path[1:])}
            parked[e] = (len(path) + 1, edges)
            for f in edges:
                watchers.setdefault(f, []).append(e)
        elif len(path) > bound:
            heapq.heappush(heap, (len(path), e))
        else:
            cycles.append(path)
            for x, y in zip(path, path[1:] + path[:1]):
                f = _pair_of((x, y))
                remaining.discard(f)
                adj[x].remove(y)
                adj[y].remove(x)
                for g in watchers.pop(f, ()):
                    if g in parked and f in parked[g][1]:
                        heapq.heappush(heap, (parked.pop(g)[0], g))
    return cycles, remaining


def reverse_arc_set(
    D: OrientedGraph,
    arcs: Iterable[tuple[int, int]],
    p: int,
    strategy: str = PAIRWISE,
    trace: Trace = None,
) -> InversionFamily:
    """A (=p)-family whose application flips exactly the given arcs of D.

    Pairwise sweeps the arcs two at a time; cycle-first peels even cycles out
    of their underlying edge set before pairing what is left.
    """
    if p % 2 == 1:
        raise ModeError(f"reverse_arc_set needs even p (got {p})")
    if D.n < p + 2:
        raise UnsupportedRangeError(f"need n >= p + 2 (got n={D.n}, p={p})")
    arc_list = sorted(set(arcs))
    if len(arc_list) % 2 == 1:
        raise InputError(f"arc set size {len(arc_list)} must be even")
    for u, v in arc_list:
        if not D.has_arc(u, v):
            raise InputError(f"({u},{v}) is not an arc of the graph")
    plans: list[GadgetPlan] = []
    pairs = {_pair_of(a) for a in arc_list}

    if strategy == CYCLE_FIRST:
        cycles, leftover = _greedy_even_cycles(pairs)
        for cyc in cycles:
            try:
                plans.append(gadget_even_cycle(D, cyc, p, NARROW))
            except ModeError:
                plans.append(gadget_even_cycle(D, cyc, p, WIDE))
        pairs = leftover
        # disjoint adjacent pairs at shared endpoints, then a leftover matching
        by_vertex: dict[int, list[tuple[int, int]]] = {}
        for e in sorted(pairs):
            by_vertex.setdefault(e[0], []).append(e)
            by_vertex.setdefault(e[1], []).append(e)
        used: set[tuple[int, int]] = set()
        for v in sorted(by_vertex):
            incident = [e for e in by_vertex[v] if e not in used]
            while len(incident) >= 2:
                e1, e2 = incident[0], incident[1]
                incident = incident[2:]
                used.update((e1, e2))
                w1 = e1[0] if e1[1] == v else e1[1]
                w2 = e2[0] if e2[1] == v else e2[1]
                plans.append(gadget_adjacent_pair(D, v, w1, w2, p))
        pairs -= used
    elif strategy != PAIRWISE:
        raise InputError(f"unknown strategy {strategy!r}")

    rest = sorted(pairs)
    assert len(rest) % 2 == 0
    for e1, e2 in zip(rest[::2], rest[1::2]):
        shared = set(e1) & set(e2)
        if shared:
            v = shared.pop()
            w1 = e1[0] if e1[1] == v else e1[1]
            w2 = e2[0] if e2[1] == v else e2[1]
            plans.append(gadget_adjacent_pair(D, v, w1, w2, p))
        else:
            plans.append(gadget_nonadjacent_pair(D, e1[0], e1[1], e2[0], e2[1], p))

    if trace is not None:
        trace.extend(plans)
    sets = tuple(s for plan in plans for s in plan.sets)
    family = InversionFamily(sets, p, EXACT)
    return family


def _safe_extra_arc(
    D1: OrientedGraph, prefer_not: set[tuple[int, int]]
) -> tuple[int, int]:
    """Lexicographically smallest arc of the acyclic D1 whose reversal keeps it
    acyclic, preferring arcs outside `prefer_not`."""
    candidates = sorted(D1.arcs(), key=lambda a: (a in prefer_not, a))
    for u, v in candidates:
        if is_acyclic(invert(D1, {u, v})):
            return (u, v)
    raise InputError("acyclic graph with no safely reversible arc")


def _check_pipeline_args(D: OrientedGraph, p: int) -> None:
    if p % 2 == 1 or p < 4:
        raise ModeError(f"decycling pipelines need even p >= 4 (got {p})")
    if D.n < p + 2:
        raise UnsupportedRangeError(f"need n >= p + 2 (got n={D.n}, p={p})")


@dataclass(frozen=True)
class Decycling:
    """A pipeline's family and the stated bound on its size, None when that
    bound rests on a feedback arc set that is only heuristic."""

    family: InversionFamily
    bound: Optional[int]

    # a run reads as its family where one is serialized (family_to_json)
    sets = property(lambda self: self.family.sets)
    p = property(lambda self: self.family.p)
    mode = property(lambda self: self.family.mode)


def decycle_via_fas(
    D: OrientedGraph,
    p: int,
    strategy: str = PAIRWISE,
    fas: Optional[FasResult] = None,
    trace: Trace = None,
) -> Decycling:
    """Decycle D with at most (2p-2)(|F|+1) (=p)-inversions by reversing a
    feedback arc set F (feedback_arc_set(D) unless given).

    The stated bound is (2p-2)(fas+1) for pairwise and 2fas + 2pn for
    cycle-first, where fas is the minimum feedback arc set of D (0 when D is
    acyclic); it is None when F is only heuristic."""
    _check_pipeline_args(D, p)
    if is_acyclic(D):
        # an acyclic graph's minimum feedback arc set is empty
        family, fas_size = InversionFamily((), p, EXACT), 0
    else:
        chosen = fas if fas is not None else feedback_arc_set(D)
        diff = set(chosen.arcs)
        if len(diff) % 2 == 1:
            D1 = apply_family(
                D, InversionFamily(tuple(frozenset(a) for a in diff), 2, AT_MOST)
            )
            extra = _safe_extra_arc(D1, prefer_not={(v, u) for u, v in diff})
            if extra in {(v, u) for u, v in diff}:
                diff.discard((extra[1], extra[0]))
            else:
                diff.add(extra)
        family = reverse_arc_set(D, diff, p, strategy, trace)
        assert len(family) <= (2 * p - 2) * (chosen.size + 1)
        # an equivalent subfamily of at most |A(D)| members; this is what keeps
        # every emitted count under the arc bound
        family = minimize_family(D, family)
        assert is_acyclic(apply_family(D, family))
        fas_size = chosen.size if chosen.exact else None
    if fas_size is None:
        return Decycling(family, None)
    if strategy == CYCLE_FIRST:
        return Decycling(family, 2 * fas_size + 2 * p * D.n)
    return Decycling(family, (2 * p - 2) * (fas_size + 1))


class GreedyReduction(NamedTuple):
    family: InversionFamily
    reduced: OrientedGraph
    ordering: tuple[int, ...]


def greedy_reduce(
    D: OrientedGraph,
    p: int,
    ordering: Optional[Sequence[int]] = None,
) -> GreedyReduction:
    """Sweep the ordering, absorbing batches of p-1 backward arcs per inversion.

    Uses at most |A|/(p-1) inversions and leaves a graph whose returned
    ordering certifies fas <= (p-2)n - 3p^2/4 + 7p/4: each swept vertex keeps
    at most p-2 backward in-arcs and the final p-vertex block is reordered
    optimally.
    """
    if p < 2:
        raise InputError("p must be at least 2")
    n = D.n
    if n < p:
        raise UnsupportedRangeError(f"need n >= p (got n={n}, p={p})")
    order = list(ordering) if ordering is not None else list(range(n))
    if sorted(order) != list(range(n)):
        raise InputError("ordering must be a permutation of the vertices")
    current = D
    sets: list[frozenset[int]] = []
    for k in range(n - p):
        vk = order[k]
        tails = [u for u in order[k + 1:] if current.out[u] >> vk & 1]
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


def decycle_dense(D: OrientedGraph, p: int, trace: Trace = None) -> Decycling:
    """Greedy arc-absorption sweep followed by the fas pipeline on what is left.

    The bound is floor(|A(D)|/(p-1)) plus the fas pipeline's, None with it."""
    _check_pipeline_args(D, p)
    reduction = greedy_reduce(D, p)
    rest = decycle_via_fas(reduction.reduced, p, PAIRWISE, trace=trace)
    family = minimize_family(
        D, InversionFamily(reduction.family.sets + rest.family.sets, p, EXACT)
    )
    assert is_acyclic(apply_family(D, family))
    if rest.bound is None:
        return Decycling(family, None)
    return Decycling(family, D.arc_count // (p - 1) + rest.bound)


# biclique_peel refuses larger graphs, and _find_biclique gives up after
# extending this many partial sides
PEEL_MAX_VERTICES = 64
PEEL_MAX_CANDIDATES = 200_000


def _find_biclique(
    adj: dict[int, set[int]], s: int, t: int
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """First K_{s,t} (lexicographic side-B enumeration with pruning) within
    PEEL_MAX_CANDIDATES extensions."""
    budget = PEEL_MAX_CANDIDATES
    verts = sorted(v for v, nb in adj.items() if len(nb) >= t)

    def extend(chosen: list[int], common: set[int], start: int) -> Optional[tuple]:
        nonlocal budget
        if budget <= 0:
            return None
        budget -= 1
        if len(chosen) == s:
            rest = sorted(common - set(chosen))
            if len(rest) >= t:
                return tuple(chosen), tuple(rest[:t])
            return None
        for i in range(start, len(verts)):
            v = verts[i]
            new_common = common & adj[v] if chosen else set(adj[v])
            if len(new_common - set(chosen) - {v}) < t:
                continue
            found = extend(chosen + [v], new_common, i + 1)
            if found:
                return found
            if budget <= 0:
                return None
        return None

    return extend([], set(), 0)


def biclique_peel(
    n: int, edges: Iterable[tuple[int, int]], p: int
) -> tuple[InversionFamily, set[tuple[int, int]]]:
    """Peel complete bipartite K_{s,t} blocks (s = 2*floor(p/2), t = 2*ceil(p/2))
    out of an edge set, four (=p)-inversions per block; returns the family and
    the residual edges once no further block is found within the caps."""
    if p < 2:
        raise InputError("p must be at least 2")
    if n > PEEL_MAX_VERTICES:
        raise CapacityError(f"{n} vertices exceed peel cap {PEEL_MAX_VERTICES}")
    current = {_pair_of(e) for e in edges}
    for a, b in current:
        if not (0 <= a < n and 0 <= b < n):
            raise InputError(f"edge ({a},{b}) out of range for n={n}")
    s, t = 2 * (p // 2), 2 * ((p + 1) // 2)
    half_b, half_c = p // 2, (p + 1) // 2
    sets: list[frozenset[int]] = []
    while True:
        adj: dict[int, set[int]] = {}
        for a, b in current:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        found = _find_biclique(adj, s, t)
        if found is None:
            return InversionFamily(tuple(sets), p, EXACT), current
        B, C = found
        b1, b2 = B[:half_b], B[half_b:]
        c1, c2 = C[:half_c], C[half_c:]
        for side_b, side_c in ((b1, c1), (b1, c2), (b2, c1), (b2, c2)):
            sets.append(frozenset(side_b) | frozenset(side_c))
        for x in B:
            for y in C:
                current.discard(_pair_of((x, y)))


def decycle_opt_dense(D: OrientedGraph, p: int, trace: Trace = None) -> Decycling:
    """Peel biclique blocks out of a minimum feedback arc set, then finish with
    the fas pipeline on the perturbed graph.  The bound is |A(D)|."""
    _check_pipeline_args(D, p)
    if is_acyclic(D):
        return Decycling(InversionFamily((), p, EXACT), D.arc_count)
    fas = feedback_arc_set(D)
    peel, _residual = biclique_peel(D.n, fas.arcs, p)
    D1 = apply_family(D, peel)
    # an empty peel leaves D itself, whose feedback arc set is already known
    rest = decycle_via_fas(D1, p, PAIRWISE, None if peel.sets else fas, trace)
    family = minimize_family(D, InversionFamily(peel.sets + rest.family.sets, p, EXACT))
    assert is_acyclic(apply_family(D, family))
    return Decycling(family, D.arc_count)


# every decycling pipeline by its CLI name, called as pipeline(D, p, trace=...);
# the bench adds the greedy sweep, which does not decycle.  Each entry looks
# its pipeline up by module name when called, so a wrapper installed on
# invlab.decycle sees every call.
STRATEGIES: dict[str, Callable[..., Decycling]] = {
    "fas": lambda D, p, trace=None: decycle_via_fas(D, p, PAIRWISE, trace=trace),
    "2fas": lambda D, p, trace=None: decycle_via_fas(D, p, CYCLE_FIRST, trace=trace),
    "dense": lambda D, p, trace=None: decycle_dense(D, p, trace),
    "opt-dense": lambda D, p, trace=None: decycle_opt_dense(D, p, trace),
}


@dataclass(frozen=True)
class FamilyReport:
    sizes_ok: bool
    acyclic: bool
    net_flip: tuple[tuple[int, int], ...]
    count: int
    # a directed cycle of the result, None when it is acyclic
    cycle: Optional[tuple[int, ...]]


def verify_family(
    D: OrientedGraph, family: InversionFamily, p: int, mode: str = EXACT
) -> FamilyReport:
    """Check a family against a graph without mutating either."""
    if mode == EXACT:
        sizes_ok = all(len(X) == p for X in family.sets)
    elif mode == AT_MOST:
        sizes_ok = all(len(X) <= p for X in family.sets)
    else:
        raise InputError(f"unknown mode {mode!r}")
    result = apply_family(D, InversionFamily(family.sets, max(p, D.n), AT_MOST))
    flipped = tuple((u, v) for u, v in D.arcs() if result.has_arc(v, u))
    cycle = find_cycle(result)
    return FamilyReport(
        sizes_ok=sizes_ok,
        acyclic=cycle is None,
        net_flip=flipped,
        count=len(family.sets),
        cycle=None if cycle is None else tuple(cycle),
    )
