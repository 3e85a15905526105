"""Tests of the benchmark itself:  python3 -m pytest perfbench"""

import json
import random

import pytest

import checks
import gen
import run

run.import_program()

from invlab.decide import oriented_graph_invertible  # noqa: E402
from invlab.decycle import decycle_via_fas  # noqa: E402
from invlab.graphs import OrientedGraph  # noqa: E402
from invlab.serialize import family_to_json  # noqa: E402

CYCLIC = gen.tournament(9, random.Random(7))


def _family(sets, p=4):
    return json.dumps({"mode": "eq", "p": p, "sets": sets})


@pytest.fixture(scope="module")
def good_family():
    D = OrientedGraph.from_arcs(CYCLIC["n"], CYCLIC["arcs"])
    return json.loads(family_to_json(decycle_via_fas(D, 4)))


def test_decycle_check_accepts_a_program_family(good_family):
    assert good_family["sets"]
    assert checks.check_decycle(CYCLIC, 4, json.dumps(good_family)) is None


def test_decycle_check_rejects_a_wrong_size_set(good_family):
    sets = [list(X) for X in good_family["sets"]]
    sets[0] = sets[0][:-1]
    assert "not a 4-subset" in checks.check_decycle(CYCLIC, 4, _family(sets))


def test_decycle_check_rejects_a_non_decycling_family(good_family):
    assert "does not decycle" in checks.check_decycle(CYCLIC, 4, _family([]))
    sets = good_family["sets"][1:]
    assert checks.check_decycle(CYCLIC, 4, _family(sets)) is not None


def test_decycle_check_rejects_more_sets_than_arcs():
    sets = [[0, 1, 2, 3]] * (len(CYCLIC["arcs"]) + 2)
    assert "exceed" in checks.check_decycle(CYCLIC, 4, _family(sets))


def test_census_check_accepts_the_prediction_and_rejects_a_wrong_count():
    right = {"classes": 2, "size_histogram": {"16384": 2}}
    assert checks.check_census(6, 4, json.dumps(right)) is None
    wrong = {"classes": 4, "size_histogram": {"8192": 4}}
    assert "predicted 2" in checks.check_census(6, 4, json.dumps(wrong))
    short = {"classes": 2, "size_histogram": {"16384": 1, "100": 1}}
    assert "2^C(6,2)" in checks.check_census(6, 4, json.dumps(short))


@pytest.mark.parametrize("n,p,classes", [(5, 3, 16), (6, 3, 32), (6, 4, 2), (7, 5, 128), (7, 3, 64)])
def test_census_prediction_matches_the_documented_counts(n, p, classes):
    assert checks.census_classes(n, p) == classes


def test_kernel_check_rejects_large_or_non_tournament_kernels():
    small = gen.tournament(12, random.Random(1))
    assert checks.check_kernel(json.dumps({"kernel": small})) is None
    big = gen.tournament(55, random.Random(1))
    assert "55 > 54" in checks.check_kernel(json.dumps({"kernel": big}))
    gappy = {"n": small["n"], "arcs": small["arcs"][1:]}
    assert "not a tournament" in checks.check_kernel(json.dumps({"kernel": gappy}))


def test_independent_verdicts_match_the_program():
    rng = random.Random(3)
    for trial in range(120):
        n = rng.randint(4, 11)
        density = rng.choice([0.3, 0.7, 1.0])
        graph = gen.tournament(n, rng) if density == 1.0 else gen.oriented(n, density, rng)
        p = rng.choice([n - 1, 2, 3, 4, 5])
        D = OrientedGraph.from_arcs(n, graph["arcs"])
        assert checks.expected_invertible(graph, p) == oriented_graph_invertible(D, p), (graph, p)


def test_exact_pair_check_enforces_c2():
    assert checks.check_exact_pair(CYCLIC, '{"inv": 2}', '{"inv": 1}', True) is None
    assert "decide-invertible" in checks.check_exact_pair(CYCLIC, '{"inv": null}', '{"inv": 1}', True)
    assert "leq" in checks.check_exact_pair(CYCLIC, '{"inv": 1}', '{"inv": 2}', True)
    assert checks.check_exact_pair(CYCLIC, '{"inv": 0}', '{"inv": 0}', True) is not None


def _dump(ops):
    return json.dumps([(op.id, op.argv, op.graph) for op in ops])


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generator_is_byte_identical_per_seed_and_differs_across_seeds(workload):
    assert _dump(gen.schedule(workload, 5)) == _dump(gen.schedule(workload, 5))
    assert _dump(gen.schedule(workload, 5)) != _dump(gen.schedule(workload, 6))


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(gen.WORKLOADS)
    from spans import COUNTS, LAYERS

    layer_names = {f"{n}.calls" for n in LAYERS} | {f"{n}.self_ms" for n in LAYERS} | set(COUNTS)
    layer_names |= {"pairspace.minimize_family.kept_ratio", "trace.overhead_frac", "trace.pass_ms"}
    assert {m["name"] for m in spec["per_layer"]} <= layer_names


class _FailingCli:
    """Stands in for ``invlab.cli``: every call exits 3 with empty stdout,
    except ``exact --mode leq``, which raises."""

    @staticmethod
    def cli_dispatch(argv):
        if argv[0] == "exact" and "leq" in argv:
            raise AssertionError("broken")
        return 3


def test_an_op_that_fails_with_empty_stdout_is_counted_not_raised(tmp_path):
    ops, paths = [], {}
    for op in gen.schedule("oracle", 5)[:12]:
        if op.graph is not None:
            paths[op.id] = str(tmp_path / f"{op.id}.json")
            (tmp_path / f"{op.id}.json").write_text(json.dumps(op.graph))
        ops.append(op)
    client = run.Client(_FailingCli, ops, paths)
    _, done = client.run_pass(float("inf"), count=2 * len(ops))
    client.check_pairs()
    assert done == 2 * len(ops)
    assert sorted(client.bad) == list(range(len(ops)))
    assert set(client.bad.values()) == {"exit code 3", f"exit code {run.CRASH_EXIT}"}
    assert client.failed() == 2 * len(ops)
    assert client.output_size == 0
