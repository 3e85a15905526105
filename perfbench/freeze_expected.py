"""Write expected_seed0.json: the outputs of every ``exact`` and
``decide-invertible`` op of the default seed, keyed by op id together with a
digest of its input.  Run it only on a commit whose outputs are trusted:

    python3 perfbench/freeze_expected.py
"""

from __future__ import annotations

import json
import shutil

import run

FROZEN_VERBS = ("exact", "decide-invertible")


def main() -> None:
    cli = run.import_program()
    table = {}
    for workload in sorted(run.gen.WORKLOADS):
        run_dir = run.WORK / f"freeze-{workload}"
        try:
            _, ops, paths = run.setup(workload, run.DEFAULT_SEED, run_dir)
            client = run.Client(cli, ops, paths)
            for op in ops:
                if op.verb in FROZEN_VERBS:
                    _rc, stdout, _ = client.call(client.argv(op))
                    table[op.id] = {"input": client.input_digest(op), "stdout": stdout}
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    run.EXPECTED_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
