"""CLI surface, serialization round-trips, bench harness."""

import contextlib
import csv
import io
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import json_values

from invlab import bench as bench_mod
from invlab.cli import cli_dispatch
from invlab import decycle as decycle_mod
from invlab.decycle import (
    CYCLE_FIRST,
    PAIRWISE,
    STRATEGIES,
    Decycling,
    decycle_dense,
    decycle_opt_dense,
    decycle_via_fas,
)
from invlab.errors import CapacityError, InputError
from invlab.graphs import EXACT, MAX_VERTICES, InversionFamily, OrientedGraph, apply_family
from invlab.pairspace import minimize_family
from invlab.generate import (
    GENERATORS,
    random_oriented_graph,
    random_tournament,
    transitive_tournament,
)
from invlab.serialize import (
    family_from_json,
    family_to_json,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
)

BENCH_SPEC = Path(__file__).resolve().parents[1] / "scripts" / "bench_spec.json"


class TestSerialization:
    def test_graph_round_trip_corpus(self):
        import random

        rng = random.Random(0)
        for trial in range(1000):
            n = rng.randint(0, 9)
            D = random_oriented_graph(n, rng.random(), trial)
            assert graph_from_json(graph_to_json(D)) == D

    def test_canonical_dump_is_stable(self):
        D = random_tournament(6, 1)
        assert graph_to_json(D) == graph_to_json(graph_from_json(graph_to_json(D)))

    def test_family_round_trip(self):
        fam = InversionFamily(
            (frozenset({0, 1, 2}), frozenset({1, 4, 5})), 3, EXACT
        )
        again = family_from_json(family_to_json(fam))
        assert again.p == 3 and again.mode == EXACT and set(again.sets) == set(fam.sets)

    def test_digon_rejected_on_load(self):
        with pytest.raises(InputError):
            graph_from_json('{"n": 2, "arcs": [[0, 1], [1, 0]]}')

    def test_malformed_rejected(self):
        with pytest.raises(InputError):
            graph_from_json("{not json")
        with pytest.raises(InputError):
            graph_from_json('{"n": 3}')

    def test_dot_export(self):
        dot = graph_to_dot(OrientedGraph.from_arcs(2, [(0, 1)]))
        assert "digraph" in dot and "0 -> 1;" in dot


def run_cli(capsys, *argv):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCliVerbs:
    def test_decide_invertible_true_false(self, tmp_path, capsys):
        tt = tmp_path / "tt.json"
        tt.write_text(graph_to_json(transitive_tournament(9)))
        code, out, _ = run_cli(capsys, "decide-invertible", "--p", "3", str(tt))
        assert code == 0 and out.strip() == "true"
        qr = tmp_path / "qr.json"
        from invlab.generate import diregular_tournament

        qr.write_text(graph_to_json(diregular_tournament(3)))
        code, out, _ = run_cli(capsys, "decide-invertible", "--p", "3", str(qr))
        assert code == 1 and out.strip() == "false"

    def test_decide_equivalent(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(graph_to_json(random_tournament(6, 1)))
        b.write_text(graph_to_json(random_tournament(6, 2)))
        code, out, _ = run_cli(capsys, "decide-equivalent", "--p", "2", str(a), str(b))
        assert code == 0 and out.strip() == "true"

    def test_unsupported_range_exit(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text(graph_to_json(random_tournament(4, 1)))
        code, _, err = run_cli(capsys, "decide-equivalent", "--p", "3", str(a), str(a))
        assert code == 2 and "unsupported" in err

    def test_capacity_exit(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        g.write_text(graph_to_json(random_tournament(8, 3)))
        code, _, err = run_cli(
            capsys, "exact", "--p", "3", "--cap", "10", str(g)
        )
        assert code == 3 and "capacity" in err

    def test_input_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, err = run_cli(capsys, "decide-invertible", "--p", "3", str(bad))
        assert code == 4

    def test_unknown_verb_exit(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 64

    def test_decycle_verify_pipeline(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        g.write_text(graph_to_json(random_tournament(10, 5)))
        code, out, _ = run_cli(capsys, "decycle", "--p", "4", "--strategy", "2fas", str(g))
        assert code == 0
        fam = tmp_path / "fam.json"
        fam.write_text(out)
        code, out, _ = run_cli(
            capsys, "verify", "--p", "4", "--graph", str(g), "--family", str(fam)
        )
        assert code == 0
        report = json.loads(out)
        assert report["acyclic"] and report["sizes_ok"]
        assert report["cycle"] is None

    def test_verify_reports_cycle(self, tmp_path, capsys):
        # one 4-set does not decycle this tournament
        D = random_tournament(9, 3)
        g = tmp_path / "g.json"
        g.write_text(graph_to_json(D))
        fam = tmp_path / "fam.json"
        fam.write_text(family_to_json(InversionFamily((frozenset({0, 1, 2, 3}),), 4, EXACT)))
        code, out, _ = run_cli(
            capsys, "verify", "--p", "4", "--graph", str(g), "--family", str(fam)
        )
        assert code == 1
        report = json.loads(out)
        assert report["sizes_ok"] and not report["acyclic"]
        cycle = report["cycle"]
        result = apply_family(D, InversionFamily((frozenset({0, 1, 2, 3}),), 4, EXACT))
        assert len(set(cycle)) == len(cycle) >= 3
        assert all(result.has_arc(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1]))

    @pytest.mark.parametrize("strategy", list(STRATEGIES))
    def test_decycle_strategy_matches_public_pipeline(self, strategy, tmp_path, capsys):
        public = {
            "fas": lambda D, p: decycle_via_fas(D, p, PAIRWISE),
            "2fas": lambda D, p: decycle_via_fas(D, p, CYCLE_FIRST),
            "dense": decycle_dense,
            "opt-dense": decycle_opt_dense,
        }
        assert set(public) == set(STRATEGIES)
        D = random_tournament(11, 3)
        g = tmp_path / "g.json"
        g.write_text(graph_to_json(D))
        code, out, _ = run_cli(capsys, "decycle", "--p", "4", "--strategy", strategy, str(g))
        assert code == 0
        assert out == family_to_json(public[strategy](D, 4).family)

    @pytest.mark.parametrize(
        "strategy, expected",
        [
            ("fas", {"decycle_via_fas": 1}),
            ("2fas", {"decycle_via_fas": 1}),
            ("dense", {"decycle_dense": 1, "decycle_via_fas": 1}),
            ("opt-dense", {"decycle_opt_dense": 1, "decycle_via_fas": 1}),
        ],
    )
    def test_decycle_calls_pipelines_by_module_attribute(
        self, strategy, expected, tmp_path, capsys, monkeypatch
    ):
        # a wrapper installed on an invlab.decycle pipeline attribute, as a
        # tracer installs one, sees every pipeline call a CLI op makes
        calls = {}

        def counting(name, real):
            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return real(*args, **kwargs)

            return counted

        for name in ("decycle_via_fas", "decycle_dense", "decycle_opt_dense"):
            monkeypatch.setattr(decycle_mod, name, counting(name, getattr(decycle_mod, name)))
        g = tmp_path / "g.json"
        g.write_text(graph_to_json(random_tournament(14, 5)))
        code, _, _ = run_cli(capsys, "decycle", "--p", "4", "--strategy", strategy, str(g))
        assert code == 0
        assert calls == expected

    def test_decycle_dot_trace(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        g.write_text(graph_to_json(random_tournament(8, 6)))
        code, out, _ = run_cli(
            capsys, "decycle", "--p", "4", "--emit", "dot-trace", str(g)
        )
        assert code == 0 and "digraph" in out

    @pytest.mark.parametrize("strategy", ["fas", "2fas"])
    def test_dot_trace_shows_the_plans_and_the_result(self, strategy, tmp_path, capsys):
        D = random_tournament(10, 6)
        g = tmp_path / "g.json"
        g.write_text(graph_to_json(D))
        decycle = ("decycle", "--p", "4", "--strategy", strategy)
        code, printed, _ = run_cli(capsys, *decycle, str(g))
        assert code == 0
        family = family_from_json(printed)
        code, out, _ = run_cli(capsys, *decycle, "--emit", "dot-trace", str(g))
        assert code == 0
        lines = out.splitlines()
        gadgets = [line for line in lines if line.startswith("// gadget ")]
        assert [line.split(":")[0] for line in gadgets] == [
            f"// gadget {i}" for i in range(len(gadgets))
        ]
        sets = tuple(
            frozenset(X) for line in gadgets for X in json.loads(line.split("sets=")[1])
        )
        # the pipeline minimizes the concatenated gadget sets
        assert minimize_family(D, InversionFamily(sets, 4, EXACT)) == family
        arcs = {
            tuple(map(int, line.strip(" ;").split(" -> "))) for line in lines if "->" in line
        }
        assert arcs == set(apply_family(D, family).arcs())

    def test_exact_verb(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        from invlab.generate import directed_cycle

        g.write_text(graph_to_json(directed_cycle(3)))
        code, out, _ = run_cli(capsys, "exact", "--p", "2", "--mode", "leq", str(g))
        assert code == 0 and json.loads(out) == {"inv": 1}

    def test_kernelize_verb(self, tmp_path, capsys):
        from invlab.graphs import invert

        g = tmp_path / "g.json"
        g.write_text(graph_to_json(invert(transitive_tournament(55), {0, 54})))
        code, out, _ = run_cli(
            capsys, "kernelize", "--p", "3", "--k", "1", "--eps", "1", str(g)
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kernel"]["n"] <= 50
        assert len(payload["log"]) == 5
        assert all(step["fas_size"] == 1 for step in payload["log"])

    def test_generate_variants(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "generate", "tt", "--n", "5")
        assert code == 0 and graph_from_json(out).n == 5
        code, out, _ = run_cli(capsys, "generate", "diregular", "--k", "2")
        assert code == 0 and graph_from_json(out).n == 5
        names = tmp_path / "names.json"
        code, out, _ = run_cli(
            capsys, "generate", "shec", "--k33", "--p", "3", "--names", str(names)
        )
        assert code == 0 and graph_from_json(out).n == 177
        assert len(json.loads(names.read_text())) == 177
        code, out, _ = run_cli(capsys, "generate", "lift", "--k33")
        assert code == 0 and json.loads(out)["n"] == 135

    def test_generate_mcc(self, tmp_path, capsys):
        inst = tmp_path / "mcc.json"
        inst.write_text(
            json.dumps(
                {"n": 4, "edges": [[0, 2], [0, 3], [1, 2]], "parts": [[0, 1], [2, 3]]}
            )
        )
        code, out, _ = run_cli(capsys, "generate", "mcc", "--input", str(inst))
        assert code == 0
        D = graph_from_json(out)
        assert D.n == 8 + 1  # one missing cross edge -> one blocker vertex

    def test_census_verb(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--n", "5", "--p", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["classes"] == 16

    @pytest.mark.parametrize(
        "argv",
        [
            ("census", "--n", "5", "--p", "-1"),
            ("census", "--n", "-1", "--p", "3"),
            ("exact", "--p", "-1"),
        ],
    )
    def test_negative_n_or_p_is_input_error(self, tmp_path, capsys, argv):
        g = tmp_path / "g.json"
        g.write_text(graph_to_json(random_tournament(4, 1)))
        args = (*argv, str(g)) if argv[0] == "exact" else argv
        code, out, err = run_cli(capsys, *args)
        assert code == 4 and out == ""
        assert "input error" in err and "Traceback" not in err

    def test_determinism_byte_identical(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        g.write_text(graph_to_json(random_tournament(9, 8)))
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(
                capsys, "decycle", "--p", "4", "--strategy", "dense", str(g)
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        runs = []
        for _ in range(2):
            code, out, _ = run_cli(
                capsys, "generate", "random_oriented", "--n", "8", "--seed", "3"
            )
            runs.append(out)
        assert runs[0] == runs[1]


class TestCliMalformedInput:
    @pytest.mark.parametrize("eps", ["1/0", "abc", "1/2/3"])
    def test_bad_eps_is_usage_error(self, tmp_path, capsys, eps):
        g = tmp_path / "g.json"
        g.write_text(graph_to_json(transitive_tournament(6)))
        code, _, err = run_cli(
            capsys, "kernelize", "--p", "3", "--k", "1", "--eps", eps, str(g)
        )
        assert code == 64 and "--eps" in err and "Traceback" not in err

    def test_non_utf8_input_is_named(self, tmp_path, capsys, monkeypatch):
        g = tmp_path / "g.json"
        g.write_text(graph_to_json(random_tournament(5, 1)))
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe[]")
        code, out, err = run_cli(
            capsys, "verify", "--p", "4", "--graph", str(g), "--family", str(bad)
        )
        assert code == 4 and out == "" and "bad.json" in err
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff")))
        code, out, err = run_cli(capsys, "decide-invertible", "--p", "3", "-")
        assert code == 4 and out == "" and "<stdin>" in err

    @pytest.mark.parametrize(
        "graph",
        [
            {"n": True, "arcs": []},
            {"n": 3, "arcs": [[True, 2]]},
            {"n": 3, "arcs": [[0, True]]},
        ],
    )
    def test_bool_graph_fields_rejected(self, tmp_path, capsys, graph):
        g = tmp_path / "g.json"
        g.write_text(json.dumps(graph))
        code, _, err = run_cli(capsys, "decide-invertible", "--p", "3", str(g))
        assert code == 4 and "input error" in err

    @pytest.mark.parametrize(
        "sets",
        [
            [["a", 1, 2, 3]],
            [[True, 1, 2, 3]],
            [[0.5, 1, 2, 3]],
            [[0, 1, 2, 3], 7],
            [{"0": 1}],
            "0123",
            {"0": [0, 1, 2, 3]},
        ],
    )
    def test_malformed_family_sets_rejected(self, tmp_path, capsys, sets):
        g = tmp_path / "g.json"
        g.write_text(graph_to_json(random_tournament(6, 1)))
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({"mode": "eq", "p": 4, "sets": sets}))
        code, _, err = run_cli(
            capsys, "verify", "--p", "4", "--graph", str(g), "--family", str(fam)
        )
        assert code == 4 and "input error" in err

    def test_bool_family_p_rejected(self):
        with pytest.raises(InputError):
            family_from_json('{"mode": "eq", "p": true, "sets": []}')

    @pytest.mark.parametrize(
        "family, instance",
        [
            ("lift", {"n": 3, "edges": [["a", 1]]}),
            ("lift", {"n": 3, "edges": [[0, True]]}),
            ("lift", {"n": 3, "edges": "01"}),
            ("lift", {"n": "3", "edges": [[0, 1]]}),
            ("mcc", {"n": 3, "edges": [[0]], "parts": [[0], [1], [2]]}),
            ("mcc", {"n": 3, "edges": [[0, 1, 2]], "parts": [[0], [1], [2]]}),
            ("mcc", {"n": 3, "edges": [], "parts": [0, 1, 2]}),
            ("mcc", {"n": -1, "edges": [], "parts": []}),
        ],
    )
    def test_malformed_instances_rejected(self, tmp_path, capsys, family, instance):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(instance))
        code, _, err = run_cli(capsys, "generate", family, "--input", str(path))
        assert code == 4 and "input error" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "verb, payload",
        [
            (("decide-invertible", "--p", "3"), {"n": 100_000_000, "arcs": []}),
            (("generate", "lift", "--input"), {"n": 100_000_000, "edges": [[0, 1]]}),
            (("generate", "mcc", "--input"), {"n": 100_000_000, "edges": [], "parts": []}),
        ],
    )
    def test_vertex_cap(self, tmp_path, capsys, verb, payload):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(payload))
        code, _, err = run_cli(capsys, *verb, str(path))
        assert code == 3 and "10000" in err

    def test_vertex_cap_boundary(self):
        n = MAX_VERTICES
        assert graph_from_json(json.dumps({"n": n, "arcs": [[0, n - 1]]})).n == n
        with pytest.raises(CapacityError):
            graph_from_json(json.dumps({"n": n + 1, "arcs": []}))

    @pytest.mark.parametrize(
        "spec",
        [
            [{"generator": {"kind": "tt", "n": 6}, "p": 4}],
            [{"generator": {"kind": "random_tournament"}, "p": 4, "strategy": "fas"}],
            {"rows": [{"generator": {"kind": "tt", "n": 6}, "p": 4, "strategy": "fas"}]},
            [{"generator": {"kind": "tt", "n": 6}, "p": "4", "strategy": "fas"}],
            [{"generator": {"kind": "tt", "n": 6}, "p": True, "strategy": "fas"}],
            [{"generator": "tt", "p": 4, "strategy": "fas"}],
            [7],
            "[{",
            # generator fields the kind does not take, or of the wrong type
            [{"generator": {"kind": "random_tournament", "n": 6, "sed": 1}, "p": 4,
              "strategy": "fas"}],
            [{"generator": {"kind": "tt", "n": 6, "seed": 1}, "p": 4, "strategy": "fas"}],
            [{"generator": {"kind": "tt", "n": 6, "density": 0.5}, "p": 4,
              "strategy": "fas"}],
            [{"generator": {"kind": "tt", "n": True}, "p": 4, "strategy": "fas"}],
            [{"generator": {"kind": "random_oriented", "n": 6, "density": "0.5"},
              "p": 4, "strategy": "fas"}],
            [{"generator": {"kind": ["tt"], "n": 6}, "p": 4, "strategy": "fas"}],
        ],
    )
    def test_malformed_bench_spec(self, tmp_path, capsys, spec):
        path = tmp_path / "spec.json"
        path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
        code, out, err = run_cli(capsys, "bench", "--spec", str(path))
        assert code == 4 and out == ""
        assert "input error" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("random_oriented", "--n", "6", "--density", "7"),
            ("tt", "--n", "6", "--seed", "1"),
            ("random_tournament", "--n", "6", "--density", "0.5"),
            ("tt", "--n", "3", "--p", "9", "--input", "nothere.json"),
            ("lift", "--k33", "--n", "5", "--seed", "3"),
            ("lift", "--k33", "--dot"),
            ("tt", "--n", "3", "--names", "x.json"),
            ("shec", "--k33", "--p", "3", "--input", "nothere.json"),
        ],
    )
    def test_malformed_generator_flags(self, capsys, argv):
        code, out, err = run_cli(capsys, "generate", *argv)
        assert code == 4 and out == ""
        assert "input error" in err and "Traceback" not in err

    def test_unwritable_output_paths(self, tmp_path, capsys):
        # the side file is written first, so exit 4 means nothing was printed
        code, out, err = run_cli(
            capsys, "generate", "shec", "--k33", "--p", "3", "--names", str(tmp_path)
        )
        assert code == 4 and out == ""
        assert "input error" in err and "Traceback" not in err
        spec = tmp_path / "spec.json"
        spec.write_text("[]")
        code, out, err = run_cli(
            capsys, "bench", "--spec", str(spec), "--manifest", str(tmp_path)
        )
        assert code == 4 and out == ""
        assert "input error" in err and "Traceback" not in err

    @pytest.mark.parametrize("kind", list(GENERATORS))
    def test_generator_vertex_cap(self, tmp_path, capsys, kind):
        # one vertex past the cap (2k+1 = MAX_VERTICES + 1 for diregular),
        # refused before anything is allocated
        field, value = ("n", MAX_VERTICES + 1)
        if kind == "diregular":
            field, value = "k", MAX_VERTICES // 2
        code, out, err = run_cli(capsys, "generate", kind, f"--{field}", str(value))
        assert code == 3 and out == "" and "10001 vertices" in err
        spec = tmp_path / "spec.json"
        row = {"generator": {"kind": kind, field: value}, "p": 4, "strategy": "fas"}
        spec.write_text(json.dumps([row]))
        code, out, err = run_cli(capsys, "bench", "--spec", str(spec))
        assert code == 3 and out == "" and "10001 vertices" in err


# every verb that reads an outside file, with {} where the fuzzed path goes
READERS = {
    "decide-invertible": ("decide-invertible", "--p", "3", "{}"),
    "decide-equivalent": ("decide-equivalent", "--p", "2", "{}", "{}"),
    "decycle": ("decycle", "--p", "4", "{}"),
    "exact": ("exact", "--p", "3", "{}"),
    "kernelize": ("kernelize", "--p", "3", "--k", "1", "{}"),
    "verify-graph": ("verify", "--p", "4", "--graph", "{}", "--family", "{family}"),
    "verify-family": ("verify", "--p", "4", "--graph", "{graph}", "--family", "{}"),
    "generate-mcc": ("generate", "mcc", "--input", "{}"),
    "generate-shec": ("generate", "shec", "--p", "3", "--input", "{}"),
    "generate-lift": ("generate", "lift", "--input", "{}"),
    "bench": ("bench", "--spec", "{}"),
}


def _nested(depth):
    return st.sampled_from(["[", '{"n":']).map(
        lambda opener: (opener * depth + "0" + ("]" if opener == "[" else "}") * depth)
    )


def _non_utf8():
    # 0xff never occurs in UTF-8
    return st.tuples(st.binary(max_size=20), st.binary(max_size=20)).map(
        lambda halves: halves[0] + b"\xff" + halves[1]
    )


# (kind, file bytes); a None payload passes a directory as the path
FUZZ_CASES = st.one_of(
    st.tuples(st.just("bytes"), st.binary(max_size=40)),
    st.tuples(st.just("json"), json_values().map(lambda v: json.dumps(v).encode())),
    st.tuples(st.just("deep"), st.sampled_from([2_000, 100_000]).flatmap(_nested)
              .map(str.encode)),
    st.tuples(st.just("directory"), st.none()),
    st.tuples(st.just("non-utf-8"), _non_utf8()),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "graph.json").write_text(graph_to_json(random_tournament(6, 1)))
    (root / "family.json").write_text(
        family_to_json(InversionFamily((frozenset({0, 1, 2, 3}),), 4, EXACT))
    )
    (root / "directory").mkdir()
    return root


def _decodes(payload):
    try:
        json.loads(payload.decode("utf-8"))
    except (ValueError, RecursionError):
        return False
    return True


class TestReaderFuzz:
    """Every reader under outside bytes: anything that is not a JSON text
    exits in {2, 3, 4, 64} with a message; a JSON value may also be accepted
    (exit 0 or 1, stderr empty); no exception escapes cli_dispatch."""

    @pytest.mark.parametrize("argv", READERS.values(), ids=READERS.keys())
    @given(case=FUZZ_CASES)
    @settings(max_examples=60, deadline=None)
    def test_exit_contract(self, fuzz_dir, argv, case):
        kind, payload = case
        path = fuzz_dir / "directory"
        if payload is not None:
            path = fuzz_dir / "input.json"
            path.write_bytes(payload)
        args = [
            a.format(path, graph=fuzz_dir / "graph.json", family=fuzz_dir / "family.json")
            for a in argv
        ]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_dispatch(args)
        assert "Traceback" not in err.getvalue()
        if payload is None or not _decodes(payload):
            assert code in (2, 3, 4, 64), (kind, code)
            assert err.getvalue()
        else:
            assert code in (0, 1, 2, 3, 4, 64), (kind, code)
            assert (code >= 2) == bool(err.getvalue())


class TestBench:
    def test_comma_in_name_is_quoted(self):
        rows = bench_mod.bench_suite(
            [{"name": "a,b", "generator": {"kind": "tt", "n": 6}, "p": 4,
              "strategy": "fas"}],
            deterministic=True,
        )
        table = list(csv.reader(io.StringIO(bench_mod.rows_to_csv(rows))))
        assert [len(cells) for cells in table] == [len(bench_mod.CSV_COLUMNS)] * 2
        assert table[1][0] == "a,b"
        assert table[1][1:] == ["6", "4", "eq", "fas", "0", "6", "True", "True", "", ""]

    def test_empty_spec(self):
        assert bench_mod.bench_suite([]) == []
        assert bench_mod.rows_to_csv([]).startswith("instance,")

    def test_small_grid_rows_pass(self):
        rows = bench_mod.bench_suite(
            [
                {
                    "name": "t7-fas",
                    "generator": {"kind": "random_tournament", "n": 7, "seed": 1},
                    "p": 4,
                    "strategy": "fas",
                    "oracle": True,
                },
                {
                    "name": "t10-2fas",
                    "generator": {"kind": "random_tournament", "n": 10, "seed": 1},
                    "p": 4,
                    "strategy": "2fas",
                },
                {
                    "name": "t12-dense",
                    "generator": {"kind": "random_tournament", "n": 12, "seed": 2},
                    "p": 4,
                    "strategy": "dense",
                },
            ],
            deterministic=True,
        )
        for row in rows:
            assert row["bound-ok"] and row["acyclic-ok"], row
        assert isinstance(rows[0]["oracle"], int)
        csv = bench_mod.rows_to_csv(rows)
        assert csv.count("\n") == 4

    def test_fault_injection_flags_row(self, monkeypatch):
        real = STRATEGIES["fas"]

        def corrupted(D, p, trace=None):
            run = real(D, p, trace=trace)
            fam = run.family
            return Decycling(InversionFamily(fam.sets[1:], fam.p, fam.mode), run.bound)

        monkeypatch.setitem(STRATEGIES, "fas", corrupted)
        rows = bench_mod.bench_suite(
            [
                {
                    "name": "bad",
                    "generator": {"kind": "random_tournament", "n": 10, "seed": 1},
                    "p": 4,
                    "strategy": "fas",
                }
            ],
            deterministic=True,
        )
        assert rows[0]["acyclic-ok"] is False

    def test_greedy_row_checks_residual(self, monkeypatch):
        row = {
            "name": "ro-12-greedy",
            "generator": {"kind": "random_oriented", "n": 12, "density": 0.8, "seed": 4},
            "p": 4,
            "strategy": "greedy",
        }
        assert bench_mod.run_row(row, deterministic=True)["acyclic-ok"] is True
        real = bench_mod.greedy_reduce

        def corrupted(D, p):
            # a certificate ordering turned around has far too many backward arcs
            reduction = real(D, p)
            return reduction._replace(ordering=reduction.ordering[::-1])

        monkeypatch.setattr(bench_mod, "greedy_reduce", corrupted)
        assert bench_mod.run_row(row, deterministic=True)["acyclic-ok"] is False

    def test_bench_spec_golden(self):
        rows = bench_mod.bench_suite(json.loads(BENCH_SPEC.read_text()), deterministic=True)
        assert bench_mod.rows_to_csv(rows) == (
            "instance,n,p,mode,strategy,count,bound,bound-ok,acyclic-ok,oracle,runtime-ms\n"
            "tn-12-fas,12,4,eq,fas,6,12,True,True,,\n"
            "rt-10-fas,10,4,eq,fas,16,42,True,True,,\n"
            "rt-10-2fas,10,4,eq,2fas,16,92,True,True,,\n"
            "rt-12-dense,12,4,eq,dense,31,70,True,True,,\n"
            "rt-12-opt-dense,12,4,eq,opt-dense,22,66,True,True,,\n"
            "rt-7-fas-oracle,7,4,eq,fas,12,36,True,True,3,\n"
            "ro-12-greedy,12,4,eq,greedy,4,16,True,True,,\n"
        )

    def test_bench_rows_reproducible_with_generate(self, capsys):
        for row in json.loads(BENCH_SPEC.read_text()):
            fields = dict(row["generator"])
            argv = ["generate", fields.pop("kind")]
            for name, value in fields.items():
                argv += [f"--{name}", str(value)]
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            assert out == graph_to_json(bench_mod._build_instance(row["generator"]))

    def test_acyclic_fas_stage_bound_above_exact_limit(self):
        # the fas stage of a transitive tournament finds it acyclic, whose
        # minimum feedback arc set is empty at any n
        row = {"name": "tt-24", "generator": {"kind": "tt", "n": 24}, "p": 4, "strategy": "fas"}
        out = bench_mod.run_row(row, deterministic=True)
        assert out["count"] == 0 and out["bound"] == 6 and out["bound-ok"] is True

    def test_capacity_marked_not_fatal(self):
        rows = bench_mod.bench_suite(
            [
                {
                    "name": "huge",
                    "generator": {"kind": "random_tournament", "n": 30, "seed": 1},
                    "p": 4,
                    "strategy": "fas",
                    "oracle": True,
                },
                {
                    "name": "ok",
                    "generator": {"kind": "tt", "n": 8},
                    "p": 4,
                    "strategy": "fas",
                },
            ],
            deterministic=True,
        )
        assert rows[1]["bound-ok"]

    def test_manifest_digests_stable(self):
        rows = bench_mod.bench_suite([], deterministic=True)
        csv = bench_mod.rows_to_csv(rows)
        m1 = bench_mod.make_manifest("bench", None, {}, "[]", csv, 1.0)
        m2 = bench_mod.make_manifest("bench", None, {}, "[]", csv, 2.0)
        assert m1.output_digest == m2.output_digest
        assert m1.input_digest == m2.input_digest
