"""Tournament kernelization for bounded/prescribed-size inversion questions.

One reduction step either recognises a no-instance through a feedback-arc-set
threshold or deletes a vertex from a long interval untouched by the feedback
arcs; the kernel loop repeats the step until the tournament is small.  Both
questions ("k sets of size exactly p" and "of size at most p") are preserved
by every step, so no mode parameter is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb
from typing import Iterable, Optional

from .errors import InputError
from .graphs import (
    OrientedGraph,
    delete_vertex,
    feedback_arc_set,
    is_acyclic,
    is_tournament,
)


@dataclass(frozen=True)
class KernelConfig:
    p: int
    k: int
    eps: Fraction = Fraction(1, 2)

    def __post_init__(self) -> None:
        if self.p < 0 or self.k < 0:
            raise InputError("p and k must be nonnegative")
        if self.eps <= 0:
            raise InputError("eps must be positive")

    def threshold(self) -> Fraction:
        """Minimum order at which one reduction step applies."""
        return (2 * (1 + self.eps) * self.k * comb(self.p, 2) + 1) * (
            self.p * self.k + 2
        )

    def fas_bound(self) -> Fraction:
        """Feedback-arc-set size above which the instance is a no-instance."""
        return (1 + self.eps) * self.k * comb(self.p, 2)


@dataclass(frozen=True)
class StepOutcome:
    kind: str  # "noop" | "no-instance" | "deleted"
    tournament: OrientedGraph
    fas_size: Optional[int] = None
    fas_exact: Optional[bool] = None
    interval: Optional[tuple[int, int]] = None
    deleted_vertex: Optional[int] = None


@dataclass(frozen=True)
class KernelResult:
    tournament: OrientedGraph
    solved: bool
    answer: Optional[bool]
    steps: tuple[StepOutcome, ...]


def canonical_no_instance(p: int, k: int) -> OrientedGraph:
    """p*k+1 vertex-disjoint directed triangles, remaining pairs low -> high.

    Any family of at most k sets of size at most p misses a triangle entirely,
    so the tournament cannot be decycled within the budget.
    """
    rounds = p * k + 1
    n = 3 * rounds
    arcs = []
    for t in range(rounds):
        a, b, c = 3 * t, 3 * t + 1, 3 * t + 2
        arcs += [(a, b), (b, c), (c, a)]
    present = {frozenset(a) for a in arcs}
    for u in range(n):
        for v in range(u + 1, n):
            if frozenset({u, v}) not in present:
                arcs.append((u, v))
    return OrientedGraph.from_arcs(n, arcs)


def _flipped_degrees(T: OrientedGraph, arcs: Iterable[tuple[int, int]]) -> list[int]:
    """Out-degrees of T with every arc in ``arcs`` reversed."""
    deg = T.out_degrees()
    for u, v in arcs:
        deg[u] -= 1
        deg[v] += 1
    return deg


def _arc_minimal(T: OrientedGraph, arcs: tuple[tuple[int, int], ...]) -> list[tuple[int, int]]:
    """Drop arcs whose removal from the feedback set keeps it feasible.

    Arcs are tried in order; after each drop the scan restarts from the
    first remaining arc, until a full scan drops nothing.  T must be a
    tournament: reversing arcs keeps it one, and a tournament is acyclic iff
    its out-degrees are pairwise distinct, so each trial un-reverses one arc
    in an out-degree list and counts the distinct degrees.
    """
    n = T.n
    deg = _flipped_degrees(T, arcs)
    current = list(arcs)
    i = 0
    while i < len(current):
        u, v = current[i]
        deg[u] += 1
        deg[v] -= 1
        if len(set(deg)) == n:
            del current[i]
            i = 0
        else:
            deg[u] -= 1
            deg[v] += 1
            i += 1
    return current


def delvertex_step(T: OrientedGraph, cfg: KernelConfig) -> StepOutcome:
    """One kernelization step; a no-op when T is below the applicability bound."""
    if not is_tournament(T):
        raise InputError("kernelization needs a tournament")
    if T.n < cfg.threshold():
        return StepOutcome("noop", T)
    fas = feedback_arc_set(T)
    if fas.size > cfg.fas_bound():
        return StepOutcome(
            "no-instance",
            canonical_no_instance(cfg.p, cfg.k),
            fas_size=fas.size,
            fas_exact=fas.exact,
        )
    minimal = _arc_minimal(T, fas.arcs)
    # reversing the minimal set leaves a transitive tournament, whose only
    # topological order is by out-degree, highest first
    deg = _flipped_degrees(T, minimal)
    assert len(set(deg)) == T.n
    sigma = sorted(range(T.n), key=deg.__getitem__, reverse=True)
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
        delete_vertex(T, z),
        fas_size=len(minimal),
        fas_exact=fas.exact,
        interval=(start, start + span),
        deleted_vertex=z,
    )


def kernelize(T: OrientedGraph, cfg: KernelConfig) -> KernelResult:
    """Shrink T below the step threshold while preserving both inversion
    questions at (p, k); degenerate parameters are answered outright and
    reported through an equivalent marker instance."""
    if not is_tournament(T):
        raise InputError("kernelization needs a tournament")
    if cfg.p <= 1 or cfg.k == 0:
        # k = 0 leaves no moves and p <= 1 only no-op inversions, so the
        # answer is plain acyclicity
        answer = is_acyclic(T)
        marker = (
            OrientedGraph.from_arcs(1, [])
            if answer
            else canonical_no_instance(max(cfg.p, 1), max(cfg.k, 1))
        )
        return KernelResult(marker, True, answer, ())
    step_cfg = replace(cfg, eps=cfg.eps / 2)
    loop_threshold = step_cfg.threshold()
    steps: list[StepOutcome] = []
    current = T
    while current.n > loop_threshold:
        outcome = delvertex_step(current, step_cfg)
        steps.append(outcome)
        current = outcome.tournament
        if outcome.kind == "no-instance":
            break
    return KernelResult(current, False, None, tuple(steps))
