"""Check a seed-0 benchmark pass against the committed benchmark record.

    python perfbench/run.py --workload W --seed 0 --seconds 0 --trace 0 \
        | python scripts/check_digest.py W

Reads the run's output on stdin.  Exits 0 when its last line reports
``"correct": true`` and its ``# digest sha256:...`` line equals
``seed0_digests[W]["change"]`` in the highest-numbered ``BENCH_<n>.json`` at
the root of the checkout; otherwise prints the reason and exits 1.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
DIGEST = re.compile(r"# digest sha256:([0-9a-f]{64}) ")


def latest_record(root: Path) -> Path:
    numbered = [
        (int(m.group(1)), path)
        for path in root.glob("BENCH_*.json")
        if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name))
    ]
    if not numbered:
        raise FileNotFoundError(f"no BENCH_<n>.json under {root}")
    return max(numbered)[1]


def problem(workload: str, output: str, record: dict) -> Optional[str]:
    """Why the run's output fails the check, or None when it passes."""
    lines = output.strip().splitlines()
    if not lines:
        return "empty benchmark output"
    try:
        correct = json.loads(lines[-1]).get("correct")
    except (json.JSONDecodeError, AttributeError):
        return f"last line is not a JSON result: {lines[-1][:80]!r}"
    if correct is not True:
        return f"the pass reports correct: {correct!r}"
    digests = [m.group(1) for line in lines if (m := DIGEST.match(line))]
    if len(digests) != 1:
        return f"expected one '# digest' line, found {len(digests)}"
    want = record.get("seed0_digests", {}).get(workload, {}).get("change")
    if want is None:
        return f"the record has no seed-0 digest for {workload}"
    if digests[0] != want:
        return f"digest {digests[0]} differs from the recorded {want}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    args = parser.parse_args(argv)
    path = latest_record(ROOT)
    reason = problem(args.workload, sys.stdin.read(), json.loads(path.read_text()))
    if reason:
        print(f"check_digest: {args.workload}: {reason} ({path.name})", file=sys.stderr)
        return 1
    print(f"check_digest: {args.workload}: correct, digest matches {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
