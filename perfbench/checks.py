"""Output checks that hold for any seed.

None of these functions calls invlab: families are re-applied, acyclicity is
tested and decider verdicts are predicted by this file's own code, from the
paper's characterisations.  Each check returns None when the output is
right, else a one-line reason.
"""

from __future__ import annotations

import json
from math import comb
from typing import Optional

import numpy as np


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def out_masks(n: int, arcs) -> list[int]:
    out = [0] * n
    for u, v in arcs:
        out[u] |= 1 << v
    return out


def in_masks(n: int, out: list[int]) -> list[int]:
    ins = [0] * n
    for u in range(n):
        for v in _bits(out[u]):
            ins[v] |= 1 << u
    return ins


def is_acyclic(n: int, out: list[int]) -> bool:
    """Strip sinks until none is left (acyclic) or none can be found."""
    alive = (1 << n) - 1
    while alive:
        sinks = 0
        for v in _bits(alive):
            if not out[v] & alive:
                sinks |= 1 << v
        if not sinks:
            return False
        alive &= ~sinks
    return True


def check_decycle(graph: dict, p: int, stdout: str) -> Optional[str]:
    """Every set has size p, applying the family leaves the graph acyclic,
    and the family has at most |A(D)| sets."""
    n, arcs = graph["n"], graph["arcs"]
    family = json.loads(stdout)
    if family.get("mode") != "eq" or family.get("p") != p:
        return f"family header {family.get('mode')!r}/{family.get('p')!r}, want eq/{p}"
    sets = family["sets"]
    if len(sets) > len(arcs):
        return f"{len(sets)} sets exceed |A(D)| = {len(arcs)}"
    flips: set[tuple[int, int]] = set()
    for X in sets:
        if len(set(X)) != p or len(X) != p or any(not 0 <= v < n for v in X):
            return f"set {X} is not a {p}-subset of the {n} vertices"
        for i, a in enumerate(X):
            for b in X[i + 1:]:
                flips ^= {(min(a, b), max(a, b))}
    result = [(v, u) if (min(u, v), max(u, v)) in flips else (u, v) for u, v in arcs]
    if not is_acyclic(n, out_masks(n, result)):
        return "family does not decycle the graph"
    return None


def census_classes(n: int, p: int) -> int:
    """The paper's class count 2^width: the parity signature has no bit for
    p = 2 mod 4, one for 0 mod 4, n-1 for 3 mod 4 and n for 1 mod 4."""
    width = {2: 0, 0: 1, 3: n - 1, 1: n}[p % 4]
    return 2 ** width


def check_census(n: int, p: int, stdout: str) -> Optional[str]:
    data = json.loads(stdout)
    want = census_classes(n, p)
    if data["classes"] != want:
        return f"{data['classes']} classes, predicted {want}"
    histogram = data["size_histogram"]
    if sum(histogram.values()) != want:
        return "histogram counts do not add up to the class count"
    total = sum(int(size) * count for size, count in histogram.items())
    if total != 2 ** comb(n, 2):
        return f"class sizes sum to {total}, not 2^C({n},2)"
    return None


KERNEL_MAX_VERTICES = 54  # C9 at (p, k, eps) = (3, 1, 1)


def check_kernel(stdout: str) -> Optional[str]:
    kernel = json.loads(stdout)["kernel"]
    n, arcs = kernel["n"], kernel["arcs"]
    if n > KERNEL_MAX_VERTICES:
        return f"kernel has {n} > {KERNEL_MAX_VERTICES} vertices"
    pairs = {(min(u, v), max(u, v)) for u, v in arcs if u != v and 0 <= u < n and 0 <= v < n}
    if len(arcs) != comb(n, 2) or len(pairs) != comb(n, 2):
        return "kernel is not a tournament"
    return None


def pushable(n: int, out: list[int]) -> bool:
    """Whether some push (reverse the arcs leaving a set X) makes the graph
    acyclic: every X without vertex 0 at once, as numpy bitmask columns."""
    ins = in_masks(n, out)
    full = (1 << n) - 1
    X = np.arange(1 << (n - 1), dtype=np.int64) << 1
    notX = full & ~X
    pushed = []
    for v in range(n):
        inside = (X >> v) & 1 == 1
        pushed.append(
            np.where(inside, (out[v] & X) | (ins[v] & notX), (out[v] & notX) | (ins[v] & X))
        )
    alive = np.full(X.shape, full, dtype=np.int64)
    for _ in range(n):
        for v in range(n):
            sink = ((alive >> v) & 1 == 1) & ((pushed[v] & alive) == 0)
            alive[sink] &= ~(1 << v)
    return bool((alive == 0).any())


def parity_completion(n: int, out: list[int]) -> bool:
    """Whether the non-adjacent pairs can be oriented so that exactly
    ceil(n/2) vertices end with even out-degree.

    On a connected component K of the complement with e edges, orientations
    reach every out-degree parity vector whose sum has the parity of e, so
    K can end with any number of even vertices of parity |K| - c in
    [0, |K| - c], where c = (out-degrees in K + e) mod 2.
    """
    ins = in_masks(n, out)
    full = (1 << n) - 1
    co = [full & ~(out[v] | ins[v] | 1 << v) for v in range(n)]
    seen = lo = hi = 0
    for s in range(n):
        if seen >> s & 1:
            continue
        seen |= 1 << s
        comp, stack = [], [s]
        while stack:
            v = stack.pop()
            comp.append(v)
            fresh = co[v] & ~seen
            seen |= fresh
            stack.extend(_bits(fresh))
        edges = sum(co[v].bit_count() for v in comp) // 2
        c = (sum(out[v].bit_count() for v in comp) + edges) % 2
        lo += (len(comp) - c) % 2
        hi += len(comp) - c
    target = (n + 1) // 2
    return lo <= target <= hi and (target - lo) % 2 == 0


def expected_invertible(graph: dict, p: int) -> bool:
    """The paper's (=p)-invertibility verdict: p >= n or p <= 1 leaves only
    moves that keep cycles, n = p + 1 is pushability, even p at n >= p + 2
    always succeeds, odd p asks for an invertible tournament completion."""
    n = graph["n"]
    out = out_masks(n, graph["arcs"])
    if p <= 1 or p >= n:
        return is_acyclic(n, out)
    if n == p + 1:
        return pushable(n, out)
    if p % 2 == 0:
        return True
    return parity_completion(n, out)


def check_verdict(graph: dict, p: int, rc: int, stdout: str) -> Optional[str]:
    want = expected_invertible(graph, p)
    if stdout != ("true\n" if want else "false\n") or rc != (0 if want else 1):
        return f"decide-invertible gave {stdout.strip()!r} (exit {rc}), expected {want}"
    return None


def check_exact_pair(graph: dict, eq: str, leq: str, invertible: bool) -> Optional[str]:
    """eq is non-null exactly when the graph is (=p)-invertible (C2); leq is
    never null and never above eq; either is 0 exactly on acyclic graphs."""
    inv_eq, inv_leq = json.loads(eq)["inv"], json.loads(leq)["inv"]
    if (inv_eq is not None) != invertible:
        return f"exact eq = {inv_eq} but decide-invertible says {invertible}"
    if inv_leq is None or (inv_eq is not None and inv_leq > inv_eq):
        return f"exact leq = {inv_leq} against eq = {inv_eq}"
    acyclic = is_acyclic(graph["n"], out_masks(graph["n"], graph["arcs"]))
    if (inv_leq == 0) != acyclic or (inv_eq == 0) != acyclic:
        return f"exact values {inv_eq}/{inv_leq} on a graph with acyclic={acyclic}"
    return None
