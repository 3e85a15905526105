"""Command-line surface.

Exit codes: 0 success or "true", 1 "false", 2 unsupported parameter range,
3 capacity exceeded, 4 bad input, 64 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
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
    GENERATORS,
    Hypergraph,
    build_graph,
    hypergraph_lift,
    k33_hypergraph,
    mcc_reduction,
    shec_reduction,
)
from .graphs import AT_MOST, EXACT, OrientedGraph, apply_family
from .kernel import KernelConfig, kernelize
from .oracle import exact_inv, orbit_census
from .serialize import (
    family_from_json,
    family_to_json,
    graph_from_json,
    graph_to_dict,
    graph_to_dot,
    graph_to_json,
    hypergraph_from_dict,
    hypergraph_to_dict,
    loads,
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
    return loads(_read_text(path))


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
    g.add_argument("family", choices=[*GENERATORS, "mcc", "shec", "lift"])
    g.add_argument("--n", type=int)
    g.add_argument("--k", type=int)
    g.add_argument("--density", type=float)
    g.add_argument("--seed", type=int)
    g.add_argument("--p", type=int)
    g.add_argument("--input", default=None, help="instance JSON for mcc/shec/lift")
    # None when absent, like every generate flag, so a kind can refuse it
    g.add_argument(
        "--k33", action="store_true", default=None, help="use the builtin K_{3,3}"
    )
    g.add_argument("--names", default=None, help="write the name map here")
    g.add_argument(
        "--dot", action="store_true", default=None, help="emit DOT instead of JSON"
    )

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
        family = STRATEGIES[args.strategy](D, args.p, trace=trace).family
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
                    "kernel": graph_to_dict(result.tournament),
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
        print(json.dumps(dataclasses.asdict(report), sort_keys=True))
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


# the flags of the generate kinds outside the GENERATORS table, which take
# their table fields (checked by build_graph) and --dot
_KIND_FLAGS = {
    "mcc": ("input", "names", "dot"),
    "shec": ("input", "k33", "p", "names", "dot"),
    "lift": ("input", "k33", "names"),
}


def _run_generate(args: argparse.Namespace) -> int:
    table_fields = {name for gen in GENERATORS.values() for name in gen.fields}
    takes = _KIND_FLAGS.get(args.family, (*table_fields, "dot"))
    for flag in sorted(table_fields.union(*_KIND_FLAGS.values()) - set(takes)):
        if getattr(args, flag) is not None:
            raise InputError(f"generate {args.family} takes no --{flag}")
    names: Optional[tuple[str, ...]] = None
    payload: Optional[str] = None
    if args.family in GENERATORS:
        for name in GENERATORS[args.family].required:
            _require(getattr(args, name), f"--{name}")
        # every table field that was given, so the table can refuse one this
        # kind does not take
        fields = {
            name: getattr(args, name)
            for name in sorted(table_fields)
            if getattr(args, name) is not None
        }
        D = build_graph(args.family, fields)
    elif args.family == "mcc":
        inst = mcc_instance_from_dict(_read_json(_require(args.input, "--input")))
        red = mcc_reduction(inst)
        D, names = red.graph, red.names
    elif args.family == "shec":
        H = _read_hypergraph(args)
        red = shec_reduction(H, _require(args.p, "--p"))
        D, names = red.tournament, red.names
    else:
        lift = hypergraph_lift(_read_hypergraph(args))
        names = lift.names
        payload = json.dumps(hypergraph_to_dict(lift.hypergraph), sort_keys=True) + "\n"
    if payload is None:
        payload = graph_to_dot(D, names) if args.dot else graph_to_json(D)
    sys.stdout.write(payload)
    if args.names:
        with open(args.names, "w", encoding="utf-8") as fh:
            json.dump({str(i): name for i, name in enumerate(names)}, fh, sort_keys=True)
            fh.write("\n")
    return 0


def _read_hypergraph(args: argparse.Namespace) -> Hypergraph:
    if args.k33:
        if args.input is not None:
            raise InputError("--k33 and --input exclude each other")
        return k33_hypergraph()
    return hypergraph_from_dict(_read_json(_require(args.input, "--input")))


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
    except (OSError, UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
