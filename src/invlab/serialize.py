"""JSON serialization and DOT export.

Graph format: {"n": int, "arcs": [[u, v], ...]}, digon-freeness validated on
load.  Family format: {"mode": "eq"|"leq", "p": int, "sets": [[...], ...]}.
Dumps are canonical (sorted arcs/keys, compact separators), so round-trips
are byte-exact.
"""

from __future__ import annotations

import json
from typing import Any, Optional, Sequence

from .errors import InputError
from .generate import Hypergraph, MccInstance
from .graphs import (
    AT_MOST,
    EXACT,
    InversionFamily,
    OrientedGraph,
    UndirectedGraph,
    vertex_count,
)


def _int_lists(items: Any, what: str, size: Optional[int] = None) -> list[list[int]]:
    """items, checked to be a list of integer lists (each of length size,
    when given)."""
    if not isinstance(items, list):
        raise InputError(f"{what} must be a list of integer lists")
    for item in items:
        if not (
            isinstance(item, list)
            and all(type(v) is int for v in item)
            and (size is None or len(item) == size)
        ):
            raise InputError(f"bad entry {item!r} in {what}")
    return items


def loads(text: str) -> Any:
    """The JSON value of text; the one decoder for every outside input."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError("invalid JSON: nested too deeply") from exc


def _dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def graph_to_dict(D: OrientedGraph) -> dict:
    return {"n": D.n, "arcs": [[u, v] for u, v in sorted(D.arcs())]}


def graph_from_dict(data: Any) -> OrientedGraph:
    if not isinstance(data, dict) or "n" not in data or "arcs" not in data:
        raise InputError("graph JSON needs keys 'n' and 'arcs'")
    n = vertex_count(data["n"], "graph JSON 'n'")
    if not isinstance(data["arcs"], list):
        raise InputError("graph JSON types: n int, arcs list")
    return OrientedGraph.from_arcs(n, data["arcs"])


def graph_to_json(D: OrientedGraph) -> str:
    return _dumps(graph_to_dict(D))


def graph_from_json(text: str) -> OrientedGraph:
    return graph_from_dict(loads(text))


def family_to_dict(family: InversionFamily) -> dict:
    return {
        "mode": family.mode,
        "p": family.p,
        "sets": [sorted(X) for X in family.sets],
    }


def family_from_dict(data: Any) -> InversionFamily:
    if not isinstance(data, dict) or not {"mode", "p", "sets"} <= set(data):
        raise InputError("family JSON needs keys 'mode', 'p' and 'sets'")
    sets = _int_lists(data["sets"], "family sets")
    if type(data["p"]) is not int:
        raise InputError(f"family p {data['p']!r} must be an integer")
    fam = InversionFamily(tuple(frozenset(X) for X in sets), data["p"], data["mode"])
    if fam.mode not in (EXACT, AT_MOST):
        raise InputError(f"unknown family mode {fam.mode!r}")
    return fam


def family_to_json(family: InversionFamily) -> str:
    return _dumps(family_to_dict(family))


def family_from_json(text: str) -> InversionFamily:
    return family_from_dict(loads(text))


def graph_to_dot(D: OrientedGraph, names: Optional[Sequence[str]] = None) -> str:
    def label(v: int) -> str:
        return json.dumps(names[v]) if names else str(v)

    lines = ["digraph {"]
    for v in range(D.n):
        lines.append(f"  {v} [label={label(v)}];")
    for u, v in sorted(D.arcs()):
        lines.append(f"  {u} -> {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def hypergraph_to_dict(H: Hypergraph) -> dict:
    return {"n": H.n, "edges": [sorted(e) for e in H.edges]}


def hypergraph_from_dict(data: Any) -> Hypergraph:
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise InputError("hypergraph JSON needs keys 'n' and 'edges'")
    n = vertex_count(data["n"], "hypergraph JSON 'n'")
    edges = _int_lists(data["edges"], "hypergraph edges")
    return Hypergraph(n, tuple(frozenset(e) for e in edges))


def mcc_instance_from_dict(data: Any) -> MccInstance:
    for key in ("n", "edges", "parts"):
        if not isinstance(data, dict) or key not in data:
            raise InputError("MCC JSON needs keys 'n', 'edges' and 'parts'")
    n = vertex_count(data["n"], "MCC JSON 'n'")
    edges = _int_lists(data["edges"], "MCC edges", size=2)
    parts = _int_lists(data["parts"], "MCC parts")
    G = UndirectedGraph.from_edges(n, [tuple(e) for e in edges])
    return MccInstance(G, tuple(tuple(part) for part in parts))
