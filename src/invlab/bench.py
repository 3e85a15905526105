"""Reproducible benchmark rows: pipeline counts against their bounds.

A bench spec is a JSON list of rows, each naming a generator, a p, and a
strategy.  Rows are fully seeded; with deterministic=True the runtime column
is left blank so two runs produce byte-identical tables.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Optional

from .decycle import (
    CYCLE_FIRST,
    PAIRWISE,
    decycle_dense,
    decycle_opt_dense,
    decycle_via_fas,
    greedy_reduce,
)
from .errors import CapacityError, InputError
from .generate import (
    diregular_tournament,
    random_oriented_graph,
    random_tournament,
    reversed_arc_tournament,
    transitive_tournament,
)
from .graphs import EXACT, OrientedGraph, apply_family, fas_exact, is_acyclic
from .oracle import exact_inv

CSV_COLUMNS = [
    "instance",
    "n",
    "p",
    "mode",
    "strategy",
    "count",
    "bound",
    "bound-ok",
    "acyclic-ok",
    "oracle",
    "runtime-ms",
]


@dataclass(frozen=True)
class RunManifest:
    command: str
    seed: Optional[int]
    config: dict
    input_digest: str
    output_digest: str
    wall_time_ms: float


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def make_manifest(
    command: str,
    seed: Optional[int],
    config: dict,
    input_text: str,
    output_text: str,
    wall_time_ms: float,
) -> RunManifest:
    return RunManifest(
        command, seed, config, digest(input_text), digest(output_text), wall_time_ms
    )


def manifest_to_json(manifest: RunManifest) -> str:
    return json.dumps(asdict(manifest), sort_keys=True) + "\n"


_GENERATORS: dict[str, Callable[..., OrientedGraph]] = {
    "tt": lambda n, **kw: transitive_tournament(n),
    "tn": lambda n, **kw: reversed_arc_tournament(n),
    "diregular": lambda k, **kw: diregular_tournament(k),
    "random_tournament": lambda n, seed=0, **kw: random_tournament(n, seed),
    "random_oriented": lambda n, density=0.5, seed=0, **kw: random_oriented_graph(
        n, density, seed
    ),
}


def _build_instance(spec: dict) -> OrientedGraph:
    kind = spec.get("kind")
    if kind not in _GENERATORS:
        raise InputError(f"unknown generator kind {kind!r}")
    kwargs = {k: v for k, v in spec.items() if k != "kind"}
    return _GENERATORS[kind](**kwargs)


def run_row(row: dict, deterministic: bool = False) -> dict:
    """Evaluate one bench row: run the strategy, check its stated bound."""
    name = row.get("name", "row")
    D = _build_instance(row["generator"])
    p = row["p"]
    strategy = row["strategy"]
    out: dict[str, Any] = {
        "instance": name,
        "n": D.n,
        "p": p,
        "mode": EXACT,
        "strategy": strategy,
    }
    t0 = time.perf_counter()
    try:
        # only the fas-based rows state their bound in terms of fas(D)
        fas = fas_exact(D) if strategy in ("fas", "2fas") and D.n <= 20 else None
        if strategy == "fas":
            family = decycle_via_fas(D, p, PAIRWISE, fas=fas)
            bound = (2 * p - 2) * (fas.size + 1) if fas else None
        elif strategy == "2fas":
            family = decycle_via_fas(D, p, CYCLE_FIRST, fas=fas)
            bound = 2 * fas.size + 2 * p * D.n if fas else None
            if fas:
                out["proof_bound"] = 2 * fas.size + (2 * p - 5) * D.n - 1.5 * p + 6.5
        elif strategy == "dense":
            family = decycle_dense(D, p)
            reduction = greedy_reduce(D, p)
            bound = (
                D.arc_count // (p - 1) + (2 * p - 2) * (fas_exact(reduction.reduced).size + 1)
                if reduction.reduced.n <= 20
                else None
            )
        elif strategy == "opt-dense":
            family = decycle_opt_dense(D, p)
            bound = D.arc_count
        elif strategy == "greedy":
            reduction = greedy_reduce(D, p)
            family = reduction.family
            bound = D.arc_count // (p - 1)
        else:
            raise InputError(f"unknown strategy {strategy!r}")
        out["count"] = len(family)
        out["bound"] = bound
        out["bound-ok"] = (bound is None) or len(family) <= bound
        if strategy == "greedy":
            out["acyclic-ok"] = True
        else:
            out["acyclic-ok"] = is_acyclic(apply_family(D, family))
        if row.get("oracle"):
            try:
                exact = exact_inv(D, p, EXACT)
                out["oracle"] = "unreachable" if exact is None else exact
            except CapacityError:
                out["oracle"] = "capacity"
        else:
            out["oracle"] = ""
    except CapacityError as exc:
        out.update(
            {"count": "", "bound": "", "bound-ok": "", "acyclic-ok": "",
             "oracle": f"capacity: {exc}"}
        )
    out["runtime-ms"] = "" if deterministic else round(
        (time.perf_counter() - t0) * 1000, 3
    )
    return out


def bench_suite(rows: list[dict], deterministic: bool = False) -> list[dict]:
    return [run_row(row, deterministic) for row in rows]


def rows_to_csv(rows: list[dict]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(str(row.get(col, "")) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"
