"""invlab benchmark: real CLI verbs, one client in a closed loop.

    python3 perfbench/run.py --workload decycle-small --seed 0 --seconds 27 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  Every op is a ``cli_dispatch`` call made in process with
stdout captured (a subprocess per op would add the import time to every op).
Ops cycle through the workload's seeded schedule of a few hundred distinct
instances until at least ``--seconds`` of op time and one full pass over the
schedule are done.  Each output is checked when its op returns, outside the
timed region.  The last stdout line is one JSON result; the lines before it
record the environment, the output digest and every metric.

With ``--trace 1`` the run makes one untraced pass over the whole schedule,
then repeats it with spans around every layer, and reports per-layer self
times and counts plus the tracing overhead.  Both passes are a fixed op
count, so the layer figures measure the program's cost, not ``--seconds``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

SETUP_REPEATS = 3
DEADLINE_S = 150.0  # a pass ends here even mid-cycle, to exit within 180 s
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it
DEFAULT_SEED = 0
CRASH_EXIT = -1
EXPECTED_FILE = HERE / "expected_seed0.json"
# units of what a run prints beyond the metrics BENCHMARK.json lists
INFO_UNITS = {
    "tail_percentile": "%",
    "instances": "count",
    "samples": "count",
}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    if not (SRC / "invlab" / "__init__.py").is_file():
        _fail(f"no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import invlab.cli

    if Path(invlab.cli.__file__).resolve().parent != (SRC / "invlab").resolve():
        _fail(f"imported invlab from {invlab.cli.__file__}, not from {SRC}")
    return invlab.cli


sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import gen  # noqa: E402
from spans import Tracer  # noqa: E402


def setup(workload: str, seed: int, run_dir: Path):
    """One set-up: a fresh interpreter importing the program, then instance
    generation and input-file writes.  Returns (seconds, ops, input paths).

    Ops are generated one at a time and kept without their graphs, so the
    workload's peak memory is the program's, not the generator's.
    ``run_dir`` must not exist yet: rewriting existing files can stall on
    ext4's flush-on-truncate."""
    start = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import invlab.cli"], env=env, check=True, timeout=60)
    run_dir.mkdir(parents=True)
    paths = {}

    def written(op):
        if op.graph is None:
            return op
        path = run_dir / f"{op.id}.json"
        path.write_text(json.dumps(op.graph, separators=(",", ":")) + "\n")
        paths[op.id] = str(path)
        return dataclasses.replace(op, graph=None)

    ops = gen.interleave(workload, map(written, gen.generate(workload, seed)))
    return time.perf_counter() - start, ops, paths


class Client:
    """Issues ops through ``cli_dispatch`` and checks each instance's first
    output as soon as its op returns, outside the timed region.  Only small
    results are kept: the exit code and sha256 of every output, the reasons
    for failed instances, the output size, a running digest, and the short
    ``exact`` outputs that are checked in eq/leq pairs at the end."""

    def __init__(self, cli, ops, paths, expected=None) -> None:
        self.cli, self.ops, self.paths = cli, ops, paths
        self.expected = expected or {}
        self.first: dict[int, tuple[int, str]] = {}  # op index -> (exit code, sha256)
        self.later: list[tuple[int, int, str]] = []  # (op index, exit code, sha256)
        self.bad: dict[int, str] = {}
        self.exact_out: dict[int, str] = {}
        self.output_size = 0
        # first outputs arrive in op order, so this is the digest of their concatenation
        self.digest = hashlib.sha256()

    def call(self, argv: list[str]) -> tuple[int, str, float]:
        """One CLI call; an exception escaping the CLI counts as exit code
        CRASH_EXIT, so it fails that op instead of ending the run."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = self.cli.cli_dispatch(argv)
            except Exception:
                traceback.print_exc()
                rc = CRASH_EXIT
            elapsed = time.perf_counter() - start
        return rc, out.getvalue(), elapsed

    def argv(self, op) -> list[str]:
        return list(op.argv) + ([self.paths[op.id]] if op.id in self.paths else [])

    def graph(self, op) -> dict:
        return json.loads(Path(self.paths[op.id]).read_text())

    def input_digest(self, op) -> str:
        return hashlib.sha256(Path(self.paths[op.id]).read_bytes()).hexdigest()[:16]

    def record(self, i: int, rc: int, stdout: str) -> None:
        sha = hashlib.sha256(stdout.encode()).hexdigest()
        if i in self.first:
            self.later.append((i, rc, sha))
            return
        self.first[i] = (rc, sha)
        self.digest.update(stdout.encode())
        op = self.ops[i]
        try:
            reason = check_op(self, op, rc, stdout)
            want = self.expected.get(op.id)
            if reason is None and want is not None:
                if want["input"] != self.input_digest(op):
                    reason = "input differs from the one the expected table was made from"
                elif want["stdout"] != stdout:
                    reason = f"stdout {stdout.strip()!r}, expected {want['stdout'].strip()!r}"
            items = 0 if reason else output_items(op.verb, stdout)
        except Exception as exc:  # a malformed output fails its op, not the run
            reason, items = f"unreadable output: {exc!r}", 0
        if reason:
            self.bad[i] = reason
            return
        self.output_size += items
        if op.verb == "exact":
            self.exact_out[i] = stdout

    def run_pass(self, deadline: float, seconds: float = 0.0, count=None, tracer=None):
        """Closed loop over the schedule.  Stops after ``count`` ops if given,
        else once ``seconds`` of op time and one full cycle are done.
        Returns the per-op-index latency samples and the op count."""
        samples: dict[int, list[float]] = {}
        busy, done = 0.0, 0
        while True:
            i = done % len(self.ops)
            op = self.ops[i]
            if tracer is not None:
                tracer.op = f"{op.id}#{done}"
            rc, stdout, elapsed = self.call(self.argv(op))
            samples.setdefault(i, []).append(elapsed)
            self.record(i, rc, stdout)
            busy += elapsed
            done += 1
            if count is not None:
                if done >= count:
                    break
            elif busy >= seconds and done >= len(self.ops):
                break
            if time.perf_counter() > deadline:
                break
        return samples, done

    def check_pairs(self) -> None:
        """Check each graph's ``exact`` eq/leq outputs together against
        ``decide-invertible`` (C2); call it with no tracer installed."""
        exact = {self.ops[i].id: i for i in self.first if self.ops[i].verb == "exact"}
        for op_id, i in exact.items():
            j = exact.get(op_id[:-2] + "leq") if op_id.endswith("-eq") else None
            if j is None:
                continue
            if i in self.bad or j in self.bad:
                continue
            op = self.ops[i]
            rc, verdict, _ = self.call(["decide-invertible", "--p", op.flag("--p"), self.paths[op.id]])
            invertible = rc == 0 and verdict == "true\n"
            try:
                reason = checks.check_exact_pair(
                    self.graph(op), self.exact_out[i], self.exact_out[j], invertible
                )
            except Exception as exc:
                reason = f"unreadable output: {exc!r}"
            if reason:
                self.bad[i] = self.bad[j] = reason

    def failed(self) -> int:
        """Failed instances, plus later ops of a failed instance or whose
        output differs from that instance's first."""
        return len(self.bad) + sum(
            1 for i, rc, sha in self.later if i in self.bad or (rc, sha) != self.first[i]
        )


def check_op(client: Client, op, rc: int, stdout: str):
    """The seed-independent check for one op's first output."""
    if op.verb == "decide-invertible":
        return checks.check_verdict(client.graph(op), int(op.flag("--p")), rc, stdout)
    if rc != 0:
        return f"exit code {rc}"
    if op.verb == "decycle":
        return checks.check_decycle(client.graph(op), int(op.flag("--p")), stdout)
    if op.verb == "census":
        return checks.check_census(int(op.flag("--n")), int(op.flag("--p")), stdout)
    if op.verb == "kernelize":
        return checks.check_kernel(stdout)
    return None  # exact: checked in eq/leq pairs


def output_items(verb: str, stdout: str) -> int:
    """The items one correct output adds to ``output_size``: decycling sets,
    kernel vertices, census classes or a non-null inversion number."""
    if verb == "decycle":
        return len(json.loads(stdout)["sets"])
    if verb == "exact":
        return json.loads(stdout)["inv"] is not None
    if verb == "census":
        return json.loads(stdout)["classes"]
    if verb == "kernelize":
        return json.loads(stdout)["kernel"]["n"]
    return 0


def environment() -> dict:
    import numpy

    cpu = platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
    }


def latency_metrics(samples: dict[int, list[float]]) -> dict:
    """Per-instance median latencies; throughput is one pass over them."""
    medians = sorted(statistics.median(v) for v in samples.values())
    tail_index = max(len(medians) - TAIL_BEYOND - 1, 0)
    return {
        "throughput_ops_s": len(medians) / sum(medians),
        "latency_p50_ms": statistics.median(medians) * 1000,
        "latency_tail_ms": medians[tail_index] * 1000,
        "tail_percentile": 100 * (tail_index + 1) / len(medians),
        "instances": len(medians),
        "samples": sum(len(v) for v in samples.values()),
    }


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float) -> dict:
    counts = tracer.counts
    metrics = dict(counts)
    for name, ms in tracer.self_ms().items():
        metrics[f"{name}.self_ms"] = ms
    sets_in = counts["pairspace.minimize_family.sets_in"]
    metrics["pairspace.minimize_family.kept_ratio"] = (
        counts["pairspace.minimize_family.sets_out"] / sets_in if sets_in else 0.0
    )
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1
    metrics["trace.pass_ms"] = traced_s * 1000
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    started = time.perf_counter()
    cli = import_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run_dir = WORK / f"{workload}-s{seed}-{os.getpid()}"
    tag = f"{workload}-s{seed}-trace{int(trace)}"
    try:
        setups = [setup(workload, seed, run_dir / str(k)) for k in range(SETUP_REPEATS)]
        _, ops, paths = setups[-1]
        expected = json.loads(EXPECTED_FILE.read_text()) if seed == DEFAULT_SEED else {}
        client = Client(cli, ops, paths, expected)
        for verb in sorted({op.verb for op in ops}):  # warm-up, untimed
            smallest = min((op for op in ops if op.verb == verb), key=lambda op: op.size)
            client.call(client.argv(smallest))
        deadline = started + DEADLINE_S
        tracer = None
        if trace:
            samples, done = client.run_pass(deadline, count=len(ops))
            untraced_s = sum(sum(v) for v in samples.values())
            tracer = Tracer()
            tracer.install()
            try:
                traced, _ = client.run_pass(deadline, count=done, tracer=tracer)
            finally:
                tracer.uninstall()
            attempted = 2 * done
            metrics = layer_metrics(tracer, sum(sum(v) for v in traced.values()), untraced_s)
            wanted = spec["per_layer"]
        else:
            samples, attempted = client.run_pass(deadline, seconds=seconds)
            metrics = latency_metrics(samples)
            metrics["setup_s"] = statistics.median(s[0] for s in setups)
            metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics["output_size"] = client.output_size
            wanted = spec["end_to_end"]
        client.check_pairs()
        bad, failed = client.bad, client.failed()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    digest = client.digest.hexdigest()
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "env": environment(),
        "digest": digest,
        "failures": {ops[i].id: reason for i, reason in sorted(bad.items())},
        "metrics": metrics,
    }
    WORK.mkdir(exist_ok=True)
    (WORK / f"record-{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if tracer is not None:
        (WORK / f"spans-{tag}.json").write_text(json.dumps(tracer.spans) + "\n")

    print(f"# env {json.dumps(record['env'], sort_keys=True)}")
    print(f"# digest sha256:{digest} over {len(client.first)} op outputs")
    for i, reason in sorted(bad.items()):
        print(f"# FAILED {ops[i].id}: {reason}")
    units = dict(INFO_UNITS, **{m["name"]: m["unit"] for m in wanted})
    for name in sorted(metrics):
        print(f"# {name} = {metrics[name]:.6g} {units.get(name, '')}".rstrip())
    print(f"# failed_frac = {failed / attempted:.6g} ratio")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        _fail(f"metrics missing from this run: {missing}")
    result = {
        "correct": not bad and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
