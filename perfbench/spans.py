"""Spans around calls into invlab's layers, recorded from outside the program.

Each traced function is wrapped at every name a caller can look it up by:
every ``invlab`` module attribute bound to the original function object is
replaced, so ``invlab.decycle.fas_exact`` and ``invlab.kernel.fas_heuristic``
are covered as well as ``invlab.graphs.fas_exact``.  Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import importlib
import sys
import time

# span name -> the functions it covers, as (module, attribute)
LAYERS = {
    "cli": [("invlab.cli", "cli_dispatch")],
    "serialize.graph_from_json": [("invlab.serialize", "graph_from_json")],
    "serialize.family_to_json": [("invlab.serialize", "family_to_json")],
    "graphs.fas_exact": [("invlab.graphs", "fas_exact")],
    "graphs.fas_heuristic": [("invlab.graphs", "fas_heuristic")],
    "pairspace.minimize_family": [("invlab.pairspace", "minimize_family")],
    "decycle.pipeline": [
        ("invlab.decycle", "decycle_via_fas"),
        ("invlab.decycle", "decycle_dense"),
        ("invlab.decycle", "decycle_opt_dense"),
    ],
    "decycle.reverse_arc_set": [("invlab.decycle", "reverse_arc_set")],
    "decycle.greedy_reduce": [("invlab.decycle", "greedy_reduce")],
    "decycle.biclique_peel": [("invlab.decycle", "biclique_peel")],
    "oracle.exact_inv": [("invlab.oracle", "exact_inv")],
    "oracle.state_space": [("invlab.oracle", "state_space")],
    "oracle.orbit_census": [("invlab.oracle", "orbit_census")],
    "kernel.kernelize": [("invlab.kernel", "kernelize")],
    "kernel.delvertex_step": [("invlab.kernel", "delvertex_step")],
    "decide.oriented_graph_invertible": [("invlab.decide", "oriented_graph_invertible")],
    "decide.pushable_bruteforce": [("invlab.decide", "pushable_bruteforce")],
}


# work counts recorded at the layer boundaries, next to the spans
COUNTS = (
    "graphs.fas_exact.subsets",
    "graphs.fas_heuristic.arcs",
    "pairspace.minimize_family.sets_in",
    "pairspace.minimize_family.sets_out",
    "decycle.reverse_arc_set.sets",
    "oracle.state_space.moves",
    "oracle.state_space.state_bits",
    "kernel.steps_deleted",
)


def _count(counts, name, args, result) -> None:
    if name == "graphs.fas_exact":
        counts["graphs.fas_exact.subsets"] += 1 << args[0].n
    elif name == "graphs.fas_heuristic":
        counts["graphs.fas_heuristic.arcs"] += result.size
    elif name == "pairspace.minimize_family":
        counts["pairspace.minimize_family.sets_in"] += len(args[1])
        counts["pairspace.minimize_family.sets_out"] += len(result)
    elif name == "decycle.reverse_arc_set":
        counts["decycle.reverse_arc_set.sets"] += len(result)
    elif name == "oracle.state_space":
        counts["oracle.state_space.moves"] += len(result.moves)
        counts["oracle.state_space.state_bits"] += result.m
    elif name == "kernel.delvertex_step":
        counts["kernel.steps_deleted"] += result.kind == "deleted"


class Tracer:
    """Records [name, start, end, parent index, op id] for every wrapped call."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts = dict.fromkeys([f"{name}.calls" for name in LAYERS] + list(COUNTS), 0)
        self.op = None  # id of the op in flight; spans of one op share it
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None, self.op])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1], spans[idx][2] = start, end
            counts[name + ".calls"] += 1
            _count(counts, name, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "invlab"]
        for name, targets in LAYERS.items():
            for module, attr in targets:
                original = getattr(importlib.import_module(module), attr)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, key, value))
                            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, value in reversed(self._patched):
            setattr(mod, key, value)
        self._patched.clear()

    def self_ms(self) -> dict[str, float]:
        """Per span name: total duration minus the time covered by child spans."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = dict.fromkeys(LAYERS, 0.0)
        for (name, start, end, _parent, _op), inner in zip(self.spans, child):
            totals[name] += (end - start - inner) * 1000
        return totals
