"""scripts/check_digest.py: the CI gate on seed-0 benchmark digests."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("check_digest", ROOT / "scripts" / "check_digest.py")
check_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_digest)

DIGEST = "ab" * 32
RECORD = {"seed0_digests": {"oracle": {"parent": "cd" * 32, "change": DIGEST}}}


def _output(digest=DIGEST, correct=True):
    return "\n".join(
        [
            '# env {"nproc": 2}',
            f"# digest sha256:{digest} over 244 op outputs",
            "# latency_p50_ms = 0.8 ms",
            json.dumps({"correct": correct, "attempted": 244, "failed": 0}),
        ]
    )


def test_matching_digest_passes():
    assert check_digest.problem("oracle", _output(), RECORD) is None


def test_other_digest_fails():
    assert "differs" in check_digest.problem("oracle", _output("ef" * 32), RECORD)


def test_incorrect_pass_fails():
    assert "correct" in check_digest.problem("oracle", _output(correct=False), RECORD)


def test_missing_workload_or_line_fails():
    assert "no seed-0 digest" in check_digest.problem("decycle-large", _output(), RECORD)
    no_digest = "\n".join(line for line in _output().splitlines() if "digest" not in line)
    assert "one '# digest' line" in check_digest.problem("oracle", no_digest, RECORD)
    assert check_digest.problem("oracle", "", RECORD) == "empty benchmark output"


def test_latest_record_is_numeric(tmp_path):
    for name in ("BENCH_9.json", "BENCH_21.json", "BENCH_3.json", "BENCH_x.json"):
        (tmp_path / name).write_text("{}")
    assert check_digest.latest_record(tmp_path).name == "BENCH_21.json"


def test_committed_record_has_every_workload():
    record = json.loads(check_digest.latest_record(ROOT).read_text())
    workloads = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    assert set(record["seed0_digests"]) >= workloads
