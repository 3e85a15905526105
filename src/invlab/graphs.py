"""Oriented graphs on vertices 0..n-1 with inversion and push primitives.

Arcs are stored as per-vertex out-neighbour bitmasks; Python integers double
as unbounded bitsets, so the same representation gives O(1) arc flips at
every order.  Graph values are immutable and all operations are pure: they
return new graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import CapacityError, InputError, ModeError

EXACT = "eq"
AT_MOST = "leq"

# largest vertex count fas_exact accepts; feedback_arc_set switches to the
# heuristic above it.  Its DP values fit uint8: a candidate is at most
# C(20,2) + 19 = 209 < 255.
FAS_EXACT_LIMIT = 20
# subsets per vectorized fas_exact step; bounds the DP's temporaries
_FAS_CHUNK = 1 << 15
# candidate columns per acyclic_columns call; bounds the batch arrays' memory
ACYCLIC_CHUNK = 1 << 12
# largest vertex count acyclic_columns accepts: a column is one uint64 mask
ACYCLIC_MAX_VERTICES = 64
# largest vertex count any reader or generator accepts; far above every
# exhaustive cap, and refused before any per-vertex structure is allocated
MAX_VERTICES = 10_000


def vertex_count(n: object, what: str) -> int:
    """n, checked to be a vertex count no larger than MAX_VERTICES."""
    # `type(x) is int` also rejects bool, an int subclass: true is not a count
    if type(n) is not int or n < 0:
        raise InputError(f"{what} must be a nonnegative integer")
    if n > MAX_VERTICES:
        raise CapacityError(f"{n} vertices exceed the limit of {MAX_VERTICES}")
    return n


def _mask(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _bits(mask: int) -> Iterator[int]:
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def _pack_rows(bits: np.ndarray) -> list[int]:
    """Row masks of a 0/1 matrix: bit v of row u is entry [u, v]."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    rows, width = packed.shape
    raw = packed.tobytes()
    return [
        int.from_bytes(raw[i * width:(i + 1) * width], "little") for i in range(rows)
    ]


@dataclass(frozen=True)
class OrientedGraph:
    """Digon-free digraph; ``out[v]`` is the bitmask of heads of arcs leaving v."""

    n: int
    out: tuple[int, ...]

    @classmethod
    def from_arcs(cls, n: int, arcs: Iterable[tuple[int, int]]) -> "OrientedGraph":
        """Each arc must be a pair (list or tuple) of Python ints in range."""
        if n < 0:
            raise InputError("vertex count must be nonnegative")
        out = [0] * n
        for item in arcs:
            # `type(x) is int` also rejects bool and numpy integers
            if not (
                isinstance(item, (list, tuple))
                and len(item) == 2
                and type(item[0]) is int
                and type(item[1]) is int
            ):
                raise InputError(f"bad arc entry {item!r}")
            u, v = item
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"arc ({u},{v}) out of range for n={n}")
            if u == v:
                raise InputError(f"self-loop at {u}")
            if out[v] >> u & 1:
                raise InputError(f"digon between {u} and {v}")
            out[u] |= 1 << v
        return cls(n, tuple(out))

    def arcs(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in _bits(self.out[u])]

    @property
    def arc_count(self) -> int:
        return sum(m.bit_count() for m in self.out)

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self.out[u] >> v & 1)

    def out_degree(self, v: int) -> int:
        return self.out[v].bit_count()

    def out_degrees(self) -> list[int]:
        return [m.bit_count() for m in self.out]

    def bit_matrix(self) -> np.ndarray:
        """The (n, n) uint8 adjacency matrix: entry [u, v] is 1 iff u -> v."""
        n = self.n
        width = (n + 7) // 8
        raw = b"".join(m.to_bytes(width, "little") for m in self.out)
        rows = np.frombuffer(raw, dtype=np.uint8).reshape(n, width)
        return np.unpackbits(rows, axis=1, count=n, bitorder="little")

    def in_masks(self) -> list[int]:
        return _pack_rows(self.bit_matrix().T)

    def underlying_masks(self) -> list[int]:
        A = self.bit_matrix()
        return _pack_rows(A | A.T)

    def underlying_pairs(self) -> list[tuple[int, int]]:
        """Edges of the underlying undirected graph, lexicographically sorted."""
        return sorted((min(u, v), max(u, v)) for u, v in self.arcs())


@dataclass(frozen=True)
class InversionFamily:
    """Ordered list of vertex subsets together with its size mode.

    ``mode`` is "eq" (every set has size exactly p) or "leq" (size at most p).
    Sets may repeat; application order never matters.
    """

    sets: tuple[frozenset[int], ...]
    p: int
    mode: str = EXACT

    def validate(self, n: int) -> None:
        if self.mode not in (EXACT, AT_MOST):
            raise InputError(f"unknown family mode {self.mode!r}")
        if self.p < 0:
            raise InputError("p must be nonnegative")
        p, exact = self.p, self.mode == EXACT
        for X in self.sets:
            if X and (min(X) < 0 or max(X) >= n):
                raise InputError(f"set {sorted(X)} out of range for n={n}")
            if exact:
                if len(X) != p:
                    raise ModeError(f"set of size {len(X)} in (={p})-family")
            elif len(X) > p:
                raise ModeError(f"set of size {len(X)} in (<={p})-family")

    def __len__(self) -> int:
        return len(self.sets)


@dataclass(frozen=True)
class FasResult:
    size: int
    arcs: tuple[tuple[int, int], ...]
    ordering: tuple[int, ...]
    exact: bool


def invert(D: OrientedGraph, X: Iterable[int]) -> OrientedGraph:
    """Reverse every arc with both endpoints in X."""
    xs = set(X)
    if any(not (0 <= v < D.n) for v in xs):
        raise InputError(f"inversion set {sorted(xs)} out of range for n={D.n}")
    xm = _mask(xs)
    out = list(D.out)
    for u in xs:
        hit = D.out[u] & xm
        out[u] ^= hit
        for w in _bits(hit):
            out[w] |= 1 << u
    return OrientedGraph(D.n, tuple(out))


def apply_family(D: OrientedGraph, family: InversionFamily) -> OrientedGraph:
    """Invert all member sets; an arc flips iff an odd number of sets contain both ends."""
    family.validate(D.n)
    flip = [0] * D.n
    for X in family.sets:
        xm = _mask(X)
        for u in X:
            flip[u] ^= xm & ~(1 << u)
    out = [0] * D.n
    for u in range(D.n):
        keep = D.out[u] & ~flip[u]
        out[u] |= keep
        for v in _bits(D.out[u] & flip[u]):
            out[v] |= 1 << u
    return OrientedGraph(D.n, tuple(out))


def push(D: OrientedGraph, X: Iterable[int]) -> OrientedGraph:
    """Reverse every arc with exactly one endpoint in X."""
    xs = set(X)
    if any(not (0 <= v < D.n) for v in xs):
        raise InputError(f"push set {sorted(xs)} out of range for n={D.n}")
    xm = _mask(xs)
    res = [0] * D.n
    flipped = []
    for u in range(D.n):
        boundary = D.out[u] & (~xm if u in xs else xm)
        res[u] |= D.out[u] ^ boundary
        flipped.append(boundary)
    for u in range(D.n):
        for v in _bits(flipped[u]):
            res[v] |= 1 << u
    return OrientedGraph(D.n, tuple(res))


def find_cycle(D: OrientedGraph) -> Optional[list[int]]:
    """A directed cycle as a vertex list, or None when D is acyclic.

    Depth-first search over bitmasks: D has a cycle iff some vertex, when it
    finishes, still has an arc to a vertex w on the stack; the stack from w
    up to that vertex is then the cycle.
    """
    out = D.out
    unseen = (1 << D.n) - 1
    while unseen:
        b = unseen & -unseen
        unseen ^= b
        on_stack = b
        stack = [b.bit_length() - 1]
        while stack:
            u = stack[-1]
            nxt = out[u] & unseen
            if nxt:
                b = nxt & -nxt
                unseen ^= b
                on_stack |= b
                stack.append(b.bit_length() - 1)
                continue
            back = out[u] & on_stack
            if back:
                return stack[stack.index((back & -back).bit_length() - 1):]
            on_stack ^= 1 << u
            stack.pop()
    return None


def is_acyclic(D: OrientedGraph) -> bool:
    return find_cycle(D) is None


def acyclic_columns(out: np.ndarray) -> np.ndarray:
    """Acyclicity of a batch of oriented graphs on the same k vertices.

    ``out`` is a (k, c) uint64 array: column j holds the out-masks of
    candidate j, one row per vertex.  Every round removes all current sinks
    (vertices with no arc to a remaining vertex); a candidate is acyclic iff
    no vertex is left when a round removes nothing.  Callers pass at most
    ACYCLIC_CHUNK columns at a time, and k <= ACYCLIC_MAX_VERTICES rows.
    """
    k, c = out.shape
    assert k <= ACYCLIC_MAX_VERTICES
    bits = np.left_shift(np.uint64(1), np.arange(k, dtype=np.uint64))
    alive = np.full(c, bits.sum(dtype=np.uint64), dtype=np.uint64)
    pending = np.arange(c)  # columns still losing vertices
    live = alive
    while pending.size:
        # bits are distinct powers of two, so the product ORs them
        nxt = live & (bits @ ((out & live) != 0).astype(np.uint64))
        going = (nxt != live) & (nxt != 0)
        alive[pending] = nxt
        if not going.all():
            pending, out, nxt = pending[going], out[:, going], nxt[going]
        live = nxt
    return alive == 0


def is_tournament(D: OrientedGraph) -> bool:
    # an OrientedGraph has no loops or digons, so C(n, 2) arcs join every pair
    return D.arc_count == math.comb(D.n, 2)


def backward_arcs(D: OrientedGraph, ordering: Sequence[int]) -> list[tuple[int, int]]:
    """Arcs (u, v) with u after v in ``ordering`` (a permutation of D's
    vertices), in ``D.arcs()`` order."""
    return _backward_arcs(D.bit_matrix(), ordering)


def _backward_arcs(A: np.ndarray, ordering: Sequence[int]) -> list[tuple[int, int]]:
    n = A.shape[0]
    pos = np.empty(n, dtype=np.intp)
    pos[list(ordering)] = np.arange(n)
    # nonzero walks row-major: by tail, then head, the order of D.arcs()
    tails, heads = np.nonzero(A & (pos[:, None] > pos[None, :]))
    return list(zip(tails.tolist(), heads.tolist()))


def out_even_count(D: OrientedGraph) -> int:
    """Number of vertices with even out-degree."""
    return sum(1 for m in D.out if m.bit_count() % 2 == 0)


def fas_exact(D: OrientedGraph) -> FasResult:
    """Minimum feedback arc set by dynamic programming over vertex subsets.

    dp[t] is the fewest backward arcs with head in t over orderings that
    start with t: the minimum over v in t of dp[t - v] + |in(v) - t|.  It
    is computed with numpy one popcount layer at a time, in chunks of
    _FAS_CHUNK subsets.  dp (uint8, 2^n bytes: 1 MiB at n = 20) is the only
    full-size array; the two live layers are uint32 and at most 0.75 MiB
    each.  No choice table is kept: the walk back from the full set
    recomputes the last vertex of each prefix, taking the largest
    minimizing v.

    Exponential in n; refuses above FAS_EXACT_LIMIT vertices (use
    fas_heuristic there instead).  The returned arcs are the backward arcs of
    the returned ordering.
    """
    n = D.n
    if n > FAS_EXACT_LIMIT:
        raise CapacityError(
            f"fas_exact limited to {FAS_EXACT_LIMIT} vertices (got {n}); "
            "use fas_heuristic"
        )
    if n == 0:
        return FasResult(0, (), (), True)
    full = (1 << n) - 1
    ins = D.in_masks()
    in_arr = np.array(ins, dtype=np.uint32)
    dp = np.empty(1 << n, dtype=np.uint8)
    dp[0] = 0
    layer = np.zeros(1, dtype=np.uint32)
    for j in range(1, n + 1):
        layer = _next_subset_layer(layer, n, j)
        for lo in range(0, layer.size, _FAS_CHUNK):
            t = layer[lo:lo + _FAS_CHUNK]
            outside = ~t & full
            rest = t
            best = np.full(t.size, 255, dtype=np.uint8)
            for _ in range(j):  # each member v of t in turn, as rest's lowest bit
                higher = rest & (rest - 1)
                low = rest ^ higher  # 1 << v
                rest = higher
                v = np.bitwise_count(low - 1)
                cost = dp[t ^ low] + np.bitwise_count(in_arr[v] & outside)
                np.minimum(best, cost, out=best)
            dp[t] = best
    # walk back from the full set: the last vertex of each prefix is the
    # largest v attaining its minimum, the tie rule of the forward DP
    order_rev = []
    S = full
    while S:
        outside = full ^ S
        v = max(
            v for v in _bits(S)
            if int(dp[S ^ 1 << v]) + (ins[v] & outside).bit_count() == dp[S]
        )
        order_rev.append(v)
        S ^= 1 << v
    ordering = tuple(reversed(order_rev))
    arcs = tuple(backward_arcs(D, ordering))
    size = int(dp[full])
    assert len(arcs) == size
    return FasResult(size, arcs, ordering, True)


def _next_subset_layer(prev: np.ndarray, n: int, j: int) -> np.ndarray:
    """All j-subsets of range(n) as ascending uint32 masks, from the ascending
    (j-1)-subsets ``prev``: each gets one vertex above its top bit, so every
    j-subset is made once, grouped by ascending top bit."""
    layer = np.empty(math.comb(n, j), dtype=np.uint32)
    pos = 0
    for v in range(j - 1, n):
        # members of prev below 2^v; a uint32 key keeps prev from being
        # copied to int64
        k = int(np.searchsorted(prev, np.uint32(1 << v)))
        np.bitwise_or(prev[:k], 1 << v, out=layer[pos:pos + k])
        pos += k
    return layer


def fas_heuristic(D: OrientedGraph) -> FasResult:
    """Feedback arc set from ordering local search (single-vertex moves, which
    subsume adjacent swaps, iterated to a fixpoint).  No optimality claim.

    Each sweep moves every vertex v in turn to the first slot that minimises
    its backward arcs, when that is strictly fewer than where it stands.
    The in-degrees, the arc signs and the returned backward arcs (in
    ``D.arcs()`` order) come from ``D.bit_matrix()``.
    """
    n = D.n
    A = D.bit_matrix()
    indeg = A.sum(axis=0).tolist()
    # sign[v][w]: +1 for v->w, -1 for w->v, 0 for a non-edge
    S = A.view(np.int8)
    sign = (S - S.T).tolist()
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
    arcs = tuple(_backward_arcs(A, order))
    return FasResult(len(arcs), arcs, tuple(order), False)


def feedback_arc_set(D: OrientedGraph) -> FasResult:
    """The feedback arc set every pipeline uses: minimum (fas_exact) up to
    FAS_EXACT_LIMIT vertices, fas_heuristic above."""
    return fas_exact(D) if D.n <= FAS_EXACT_LIMIT else fas_heuristic(D)


def delete_vertex(D: OrientedGraph, z: int) -> OrientedGraph:
    """Remove vertex z; vertices above z shift down by one."""
    if not 0 <= z < D.n:
        raise InputError(f"vertex {z} out of range")
    # bits below z stay, bits above shift down one; bit z falls into low
    # and is masked off
    low = (1 << z) - 1
    out = tuple((m & low) | (m >> 1 & ~low) for v, m in enumerate(D.out) if v != z)
    return OrientedGraph(D.n - 1, out)


def induced_subgraph(D: OrientedGraph, vertices: Sequence[int]) -> OrientedGraph:
    pos = {v: i for i, v in enumerate(vertices)}
    arcs = [(pos[u], pos[v]) for u, v in D.arcs() if u in pos and v in pos]
    return OrientedGraph.from_arcs(len(vertices), arcs)


def complete_low_to_high(D: OrientedGraph) -> OrientedGraph:
    """Extend to a tournament by orienting every missing pair low -> high."""
    und = D.underlying_masks()
    out = list(D.out)
    for u in range(D.n):
        for v in range(u + 1, D.n):
            if not (und[u] >> v & 1):
                out[u] |= 1 << v
    return OrientedGraph(D.n, tuple(out))


@dataclass(frozen=True)
class UndirectedGraph:
    """Simple undirected graph as symmetric adjacency bitmasks."""

    n: int
    adj: tuple[int, ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "UndirectedGraph":
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise InputError(f"bad edge ({u},{v}) for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in _bits(self.adj[u]) if u < v]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)


def complement_of_underlying(D: OrientedGraph) -> UndirectedGraph:
    und = D.underlying_masks()
    full = (1 << D.n) - 1
    adj = tuple(full & ~(und[v] | 1 << v) for v in range(D.n))
    return UndirectedGraph(D.n, adj)
