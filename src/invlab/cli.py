"""Command-line surface.

Exit codes: 0 success or "true", 1 "false", 2 unsupported parameter range,
3 capacity exceeded, 4 bad input, 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction
from typing import Any, Optional

from . import bench as bench_mod
from .decycle import STRATEGIES, GadgetPlan, verify_family
from .decide import oriented_graph_invertible, tournaments_equivalent
from .errors import CapacityError, InputError, UnsupportedRangeError
from .generate import (
    diregular_tournament,
    hypergraph_lift,
    k33_hypergraph,
    mcc_reduction,
    random_oriented_graph,
    random_tournament,
    reversed_arc_tournament,
    shec_reduction,
    transitive_tournament,
)
from .graphs import AT_MOST, EXACT, OrientedGraph, apply_family
from .kernel import KernelConfig, kernelize
from .oracle import exact_inv, orbit_census
from .serialize import (
    family_from_json,
    family_to_json,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    hypergraph_from_dict,
    hypergraph_to_dict,
    mcc_instance_from_dict,
)

USAGE_EXIT = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_json(path: str) -> Any:
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc


def _read_graph(path: str) -> OrientedGraph:
    return graph_from_json(_read_text(path))


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="invlab", description="sized-inversion laboratory")
    sub = parser.add_subparsers(dest="verb")

    d = sub.add_parser("decide-invertible", help="is the graph (=p)-invertible?")
    d.add_argument("--p", type=int, required=True)
    d.add_argument("input", nargs="?", default="-")

    e = sub.add_parser("decide-equivalent", help="(=p)-equivalence of two tournaments")
    e.add_argument("--p", type=int, required=True)
    e.add_argument("first")
    e.add_argument("second")

    c = sub.add_parser("decycle", help="construct a decycling (=p)-family")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--strategy", choices=list(STRATEGIES), default="fas")
    c.add_argument("--emit", choices=["json", "dot-trace"], default="json")
    c.add_argument("input", nargs="?", default="-")

    x = sub.add_parser("exact", help="exact inversion number by state-space BFS")
    x.add_argument("--p", type=int, required=True)
    x.add_argument("--mode", choices=[EXACT, AT_MOST], default=EXACT)
    x.add_argument("--cap", type=int, default=None, help="state cap in bits")
    x.add_argument("input", nargs="?", default="-")

    k = sub.add_parser("kernelize", help="kernelize a tournament instance")
    k.add_argument("--p", type=int, required=True)
    k.add_argument("--k", type=int, required=True)
    k.add_argument("--eps", type=str, default="1/2", help="rational, e.g. 1/2")
    k.add_argument("input", nargs="?", default="-")

    g = sub.add_parser("generate", help="emit a structured instance")
    g.add_argument(
        "family",
        choices=["tt", "tn", "diregular", "random", "mcc", "shec", "lift"],
    )
    g.add_argument("--n", type=int)
    g.add_argument("--k", type=int)
    g.add_argument("--density", type=float, default=0.5)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--p", type=int)
    g.add_argument("--input", default=None, help="instance JSON for mcc/shec/lift")
    g.add_argument("--k33", action="store_true", help="use the builtin K_{3,3}")
    g.add_argument("--names", default=None, help="write the name map here")
    g.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")

    v = sub.add_parser("verify", help="check a family against a graph")
    v.add_argument("--p", type=int, required=True)
    v.add_argument("--mode", choices=[EXACT, AT_MOST], default=EXACT)
    v.add_argument("--graph", required=True)
    v.add_argument("--family", required=True)

    b = sub.add_parser("bench", help="run a bench spec")
    b.add_argument("--spec", required=True)
    b.add_argument("--deterministic", action="store_true")
    b.add_argument("--manifest", default=None)

    s = sub.add_parser("census", help="reachability-class census over tournaments")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--cap", type=int, default=None)

    return parser


def _trace_text(plans: list[GadgetPlan], D: OrientedGraph) -> str:
    lines = []
    for i, plan in enumerate(plans):
        lines.append(
            f"// gadget {i}: {plan.kind} anchors={list(plan.anchors)} "
            f"helper={list(plan.helper)} sets={[sorted(s) for s in plan.sets]}"
        )
    return "\n".join(lines) + ("\n" if lines else "") + graph_to_dot(D)


def _run(args: argparse.Namespace) -> int:
    if args.verb == "decide-invertible":
        D = _read_graph(args.input)
        verdict = oriented_graph_invertible(D, args.p)
        print("true" if verdict else "false")
        return 0 if verdict else 1

    if args.verb == "decide-equivalent":
        T1 = _read_graph(args.first)
        T2 = _read_graph(args.second)
        verdict = tournaments_equivalent(T1, T2, args.p)
        print("true" if verdict else "false")
        return 0 if verdict else 1

    if args.verb == "decycle":
        D = _read_graph(args.input)
        trace: list[GadgetPlan] = []
        family = STRATEGIES[args.strategy].pipeline(D, args.p, trace=trace).family
        if args.emit == "json":
            sys.stdout.write(family_to_json(family))
        else:
            sys.stdout.write(_trace_text(trace, apply_family(D, family)))
        return 0

    if args.verb == "exact":
        D = _read_graph(args.input)
        value = exact_inv(D, args.p, args.mode, cap_bits=args.cap)
        print(json.dumps({"inv": value}))
        return 0

    if args.verb == "kernelize":
        T = _read_graph(args.input)
        try:
            eps = Fraction(args.eps)
        except (ValueError, ZeroDivisionError) as exc:
            raise _UsageError(f"--eps {args.eps!r} is not a rational: {exc}") from exc
        cfg = KernelConfig(p=args.p, k=args.k, eps=eps)
        result = kernelize(T, cfg)
        log = [
            {
                "kind": s.kind,
                "n_after": s.tournament.n,
                "fas_size": s.fas_size,
                "fas_exact": s.fas_exact,
                "interval": list(s.interval) if s.interval else None,
                "deleted_vertex": s.deleted_vertex,
            }
            for s in result.steps
        ]
        print(
            json.dumps(
                {
                    "kernel": json.loads(graph_to_json(result.tournament)),
                    "solved": result.solved,
                    "answer": result.answer,
                    "log": log,
                },
                sort_keys=True,
            )
        )
        return 0

    if args.verb == "generate":
        return _run_generate(args)

    if args.verb == "verify":
        D = _read_graph(args.graph)
        family = family_from_json(_read_text(args.family))
        report = verify_family(D, family, args.p, args.mode)
        print(
            json.dumps(
                {
                    "sizes_ok": report.sizes_ok,
                    "acyclic": report.acyclic,
                    "cycle": None if report.cycle is None else list(report.cycle),
                    "net_flip": [list(a) for a in report.net_flip],
                    "count": report.count,
                },
                sort_keys=True,
            )
        )
        return 0 if (report.sizes_ok and report.acyclic) else 1

    if args.verb == "bench":
        spec = _read_json(args.spec)
        t0 = time.perf_counter()
        rows = bench_mod.bench_suite(spec, deterministic=args.deterministic)
        output = bench_mod.rows_to_csv(rows)
        sys.stdout.write(output)
        if args.manifest:
            manifest = bench_mod.make_manifest(
                "bench",
                None,
                {"deterministic": args.deterministic},
                json.dumps(spec, sort_keys=True),
                output,
                (time.perf_counter() - t0) * 1000,
            )
            with open(args.manifest, "w", encoding="utf-8") as fh:
                fh.write(bench_mod.manifest_to_json(manifest))
        return 0

    if args.verb == "census":
        sizes = orbit_census(args.n, args.p, cap_bits=args.cap)
        histogram: dict[str, int] = {}
        for s in sizes:
            histogram[str(s)] = histogram.get(str(s), 0) + 1
        print(
            json.dumps(
                {"classes": len(sizes), "size_histogram": histogram}, sort_keys=True
            )
        )
        return 0

    raise _UsageError(f"unknown verb {args.verb!r}")


def _run_generate(args: argparse.Namespace) -> int:
    names: Optional[tuple[str, ...]] = None
    payload: Optional[str] = None
    if args.family == "tt":
        D = transitive_tournament(_require(args.n, "--n"))
    elif args.family == "tn":
        D = reversed_arc_tournament(_require(args.n, "--n"))
    elif args.family == "diregular":
        D = diregular_tournament(_require(args.k, "--k"))
    elif args.family == "random":
        n = _require(args.n, "--n")
        if args.density >= 1.0:
            D = random_tournament(n, args.seed)
        else:
            D = random_oriented_graph(n, args.density, args.seed)
    elif args.family == "mcc":
        inst = mcc_instance_from_dict(_read_json(_require(args.input, "--input")))
        red = mcc_reduction(inst)
        D, names = red.graph, red.names
        payload = graph_to_json(D)
    elif args.family == "shec":
        H = (
            k33_hypergraph()
            if args.k33
            else hypergraph_from_dict(_read_json(_require(args.input, "--input")))
        )
        p = _require(args.p, "--p")
        red = shec_reduction(H, p)
        D, names = red.tournament, red.names
        payload = graph_to_json(D)
    elif args.family == "lift":
        H = (
            k33_hypergraph()
            if args.k33
            else hypergraph_from_dict(_read_json(_require(args.input, "--input")))
        )
        lift = hypergraph_lift(H)
        names = lift.names
        payload = json.dumps(hypergraph_to_dict(lift.hypergraph), sort_keys=True) + "\n"
        D = None
    else:
        raise _UsageError(f"unknown generator {args.family!r}")
    if payload is None:
        payload = graph_to_json(D)
    if args.dot and D is not None:
        payload = graph_to_dot(D, names)
    sys.stdout.write(payload)
    if args.names and names is not None:
        with open(args.names, "w", encoding="utf-8") as fh:
            json.dump({str(i): name for i, name in enumerate(names)}, fh, sort_keys=True)
            fh.write("\n")
    return 0


def _require(value, flag: str):
    if value is None:
        raise _UsageError(f"{flag} is required here")
    return value


def cli_dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.verb is None:
            parser.print_usage(sys.stderr)
            return USAGE_EXIT
        return _run(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return USAGE_EXIT
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 4
    except UnsupportedRangeError as exc:
        print(f"unsupported range: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity exceeded: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
