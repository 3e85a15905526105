"""Reproducible benchmark rows: pipeline counts against their bounds.

A bench spec is a JSON list of rows, each naming a generator, a p, and a
strategy.  Rows are fully seeded; with deterministic=True the runtime column
is left blank so two runs produce byte-identical tables.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from dataclasses import asdict, dataclass
from typing import Any, Optional

from .decycle import STRATEGIES, greedy_reduce
from .errors import CapacityError, InputError
from .generate import build_graph
from .graphs import (
    EXACT,
    InversionFamily,
    OrientedGraph,
    apply_family,
    backward_arcs,
    is_acyclic,
)
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


def _build_instance(spec: dict) -> OrientedGraph:
    fields = {k: v for k, v in spec.items() if k != "kind"}
    return build_graph(spec.get("kind"), fields)


def _check_row(row: Any) -> None:
    """Refuse a row that is not an object with an int p, a str strategy and
    a generator object, before anything runs."""
    if not isinstance(row, dict):
        raise InputError(f"bench row {row!r} must be an object")
    name = row.get("name", "row")
    if type(row.get("p")) is not int:
        raise InputError(f"bench row {name!r}: p must be an integer")
    if not isinstance(row.get("strategy"), str):
        raise InputError(f"bench row {name!r}: strategy must be a string")
    if not isinstance(row.get("generator"), dict):
        raise InputError(f"bench row {name!r}: generator must be an object")


# what a strategy contributes to its row: family, bound and acyclic-ok
_Row = tuple[InversionFamily, Optional[int], bool]


def _decycling_row(D: OrientedGraph, p: int, strategy: str) -> _Row:
    if strategy not in STRATEGIES:
        raise InputError(f"unknown strategy {strategy!r}")
    run = STRATEGIES[strategy](D, p)
    return run.family, run.bound, is_acyclic(apply_family(D, run.family))


def _greedy_row(D: OrientedGraph, p: int, strategy: str) -> _Row:
    """The greedy sweep does not decycle: its acyclic-ok column checks the
    certified residual instead, 4|backward arcs| <= 4(p-2)n - 3p^2 + 7p."""
    reduction = greedy_reduce(D, p)
    residual = len(backward_arcs(reduction.reduced, reduction.ordering))
    ok = 4 * residual <= 4 * (p - 2) * D.n - 3 * p * p + 7 * p
    return reduction.family, D.arc_count // (p - 1), ok


# strategies the bench runs besides the decycling pipelines of STRATEGIES
_BENCH_ONLY = {"greedy": _greedy_row}


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
        evaluate = _BENCH_ONLY.get(strategy, _decycling_row)
        family, bound, out["acyclic-ok"] = evaluate(D, p, strategy)
        out["count"] = len(family)
        out["bound"] = bound
        out["bound-ok"] = (bound is None) or len(family) <= bound
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
    if not isinstance(rows, list):
        raise InputError("a bench spec must be a JSON list of rows")
    for row in rows:
        _check_row(row)
    return [run_row(row, deterministic) for row in rows]


def rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([str(row.get(col, "")) for col in CSV_COLUMNS])
    return buf.getvalue()
