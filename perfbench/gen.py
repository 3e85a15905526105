"""Seeded instance generator and op schedules for the benchmark workloads.

Instances come from ``random.Random`` alone, never from ``invlab.generate``,
so a change to the program's own generators cannot change a workload.  Each
schedule is a fixed list of op shapes (verb, size, density, p, strategy):
only the arcs depend on the seed, so every seed runs the same mix.  A
schedule holds 200 to 400 distinct instances, one pass taking 14 to 18 s on
a 2-core AMD EPYC VM: per-instance costs vary with the arcs, and only a sum
over many instances keeps one seed's totals and tail close to another's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

STRATEGIES = ("fas", "2fas", "dense", "opt-dense")

Graph = dict  # {"n": int, "arcs": [[u, v], ...]}, the CLI's graph JSON


@dataclass(frozen=True)
class Op:
    """One CLI call; the graph, if any, is written to a file whose path is
    appended to ``argv``."""

    id: str
    argv: tuple[str, ...]
    graph: Optional[Graph]
    size: int  # vertex count, used to pick cheap warm-up ops

    @property
    def verb(self) -> str:
        return self.argv[0]

    def flag(self, name: str) -> str:
        return self.argv[self.argv.index(name) + 1]


def _graph(n: int, arcs) -> Graph:
    return {"n": n, "arcs": [[u, v] for u, v in arcs]}


def tournament(n: int, rng: random.Random) -> Graph:
    return _graph(
        n,
        ((u, v) if rng.random() < 0.5 else (v, u) for u in range(n) for v in range(u + 1, n)),
    )


def oriented(n: int, density: float, rng: random.Random) -> Graph:
    """Each pair is an arc with probability ``density``, oriented by a coin."""
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return _graph(n, arcs)


def covering_oriented(n: int, m: int, rng: random.Random) -> Graph:
    """Exactly m edges touching all n vertices, so the oracle sees exactly n
    active vertices and m state bits: a directed triangle, a matching over
    the other vertices, then random edges, all but the triangle oriented by
    a coin.  The triangle keeps the answer above 0."""
    order = list(range(n))
    rng.shuffle(order)
    arcs = {(order[0], order[1]), (order[1], order[2]), (order[2], order[0])}
    cover = [tuple(order[i:i + 2]) for i in range(3, n - 1, 2)]
    if (n - 3) % 2:
        cover.append((order[-1], order[0]))
    taken = {frozenset(a) for a in arcs}
    free = [(u, v) for u in range(n) for v in range(u + 1, n) if frozenset((u, v)) not in taken]
    cover += rng.sample([e for e in free if e not in cover and e[::-1] not in cover], m - 3 - len(cover))
    arcs.update((u, v) if rng.random() < 0.5 else (v, u) for u, v in cover)
    return _graph(n, sorted(arcs))


def planted_tournament(n: int, flips: int, rng: random.Random) -> Graph:
    """A transitive tournament on a random vertex order with ``flips`` arcs
    reversed: its feedback arc set has at most ``flips`` arcs."""
    order = list(range(n))
    rng.shuffle(order)
    arcs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    for k in rng.sample(range(len(arcs)), flips):
        arcs[k] = arcs[k][::-1]
    return _graph(n, arcs)


def _decycle_ops(prefix: str, shapes, rng: random.Random) -> Iterator[Op]:
    for i, (n, density) in enumerate(shapes):
        p = 4 if i % 2 == 0 else 6
        strategy = STRATEGIES[i % len(STRATEGIES)]
        graph = tournament(n, rng) if density >= 1.0 else oriented(n, density, rng)
        argv = ("decycle", "--p", str(p), "--strategy", strategy)
        yield Op(f"{prefix}-{i:03d}", argv, graph, n)


def decycle_small(rng: random.Random) -> Iterator[Op]:
    """Exact-FAS sizes, mostly 14-18; n = 20 makes the DP table outgrow L2."""
    counts = {14: 92, 15: 52, 16: 28, 17: 16, 18: 8, 20: 4}
    sizes = [n for n, count in counts.items() for _ in range(count)]
    shapes = [(n, 1.0 if i % 4 < 2 else 0.8) for i, n in enumerate(sizes)]
    return _decycle_ops("ds", shapes, rng)


# (n, density) cells of decycle-large.  Dense cells stop at n = 32 and the
# n = 36..40 cells stay sparse, which keeps every op under about 0.3 s.
LARGE_CELLS = (
    (24, 0.4), (24, 0.6), (24, 0.8), (24, 1.0),
    (28, 0.4), (28, 0.6), (28, 0.8), (28, 1.0),
    (32, 0.4), (32, 0.6), (32, 0.8),
    (36, 0.4), (36, 0.6),
    (40, 0.4), (40, 0.6),
)


def decycle_large(rng: random.Random) -> Iterator[Op]:
    """Heuristic-FAS sizes: minimize_family dominates, the FAS DP is idle."""
    shapes = [LARGE_CELLS[i % len(LARGE_CELLS)] for i in range(300)]
    return _decycle_ops("dl", shapes, rng)


CENSUS_CASES = ((6, 3), (6, 4), (7, 3), (7, 5))

# (active vertices, edge bits) of the exact-oracle graphs.  Up to nine active
# vertices take the ordering-enumeration target path, above nine the Kahn
# fallback.  The mix puts the median op among the seven-vertex graphs and the
# tail among the nine-vertex ones at p = 5, whose costs depend little on the
# arcs, above the Kahn-path ops whose cost depends on the answer.
_EXACT_GRAPHS = (
    [(6, m) for m in (12, 13, 14, 15)]
    + [(n, m) for n in (10, 11, 12, 13, 14) for m in (12, 20)]
    + [(7, 12 + k % 9) for k in range(14)]
    + [(8, 12 + 2 * (k % 5)) for k in range(10)]
    + [(9, 18)]
)
# (active vertices, edge bits, p): p cycles through 3, 4, 5
EXACT_SHAPES = tuple(
    (n, m, 3 + k % 3) for k, (n, m) in enumerate(_EXACT_GRAPHS)
) + ((9, 18, 5),)


def oracle(rng: random.Random) -> Iterator[Op]:
    """Exact inversion numbers (each graph in eq and leq mode at the same p)
    plus four reachability censuses."""
    for n, p in CENSUS_CASES:
        yield Op(f"or-census-{n}-{p}", ("census", "--n", str(n), "--p", str(p)), None, n)
    for i, (n, m, p) in enumerate(EXACT_SHAPES * 3):
        graph = covering_oriented(n, m, rng)
        for mode in ("eq", "leq"):
            yield Op(f"or-{i:03d}-{mode}", ("exact", "--p", str(p), "--mode", mode), graph, n)


def kernel_decide(rng: random.Random) -> Iterator[Op]:
    """Kernel steps on planted tournaments, the n = p + 1 push scan, and the
    polynomial deciders on large graphs."""
    kernel_cfg = ("kernelize", "--p", "3", "--k", "1", "--eps", "1")
    for i in range(256):
        n = 51 + (29 * i) // 255
        if i % 8 == 7:
            graph = tournament(n, rng)  # fas far above the bound: one no-instance step
        else:
            graph = planted_tournament(n, i % 5, rng)
        yield Op(f"kd-kernel-{i:03d}", kernel_cfg, graph, n)
    # dense graphs at n = p + 1 are almost never pushable to acyclic, so each
    # scan runs over all 2^(n-1) sets and costs the same on every seed
    for i in range(48):
        n = 12 + i % 4
        density = (0.7, 0.85, 1.0)[i // 4 % 3]
        graph = tournament(n, rng) if density >= 1.0 else oriented(n, density, rng)
        yield Op(f"kd-push-{i:03d}", ("decide-invertible", "--p", str(n - 1)), graph, n)
    for i in range(96):
        n = 60 + (140 * i) // 95
        p = (3, 4, 5, 3)[i % 4]
        density = (1.0, 0.9, 0.5, 0.97)[(i // 4) % 4]
        graph = tournament(n, rng) if density >= 1.0 else oriented(n, density, rng)
        yield Op(f"kd-poly-{i:03d}", ("decide-invertible", "--p", str(p)), graph, n)


WORKLOADS = {
    "decycle-small": decycle_small,
    "decycle-large": decycle_large,
    "oracle": oracle,
    "kernel-decide": kernel_decide,
}


def generate(workload: str, seed: int) -> Iterator[Op]:
    """The workload's ops for ``seed`` in generation order, one at a time."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))


def interleave(workload: str, ops: Iterable[Op]) -> list[Op]:
    """A seed-independent shuffle, so that any stretch of a pass sees the
    whole mix."""
    ops = list(ops)
    random.Random(f"{workload}/order").shuffle(ops)
    return ops


def schedule(workload: str, seed: int) -> list[Op]:
    return interleave(workload, generate(workload, seed))
