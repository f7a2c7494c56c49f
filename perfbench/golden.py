"""Write ``golden.json``: every pool answer of every workload at the default seed.

    python3 perfbench/golden.py

Each answer is checked as in a benchmark run before it is recorded; floats
are stored as their exact hex bit patterns.  Regenerate only when a change
is meant to alter answers, and say so with the change.
"""

import json
import shutil
import sys
from dataclasses import asdict

import run
import workloads


def make_golden(seed, sizes, workdir):
    """Golden record of all workloads; raises if any answer fails its check."""
    golden = {"seed": seed, "sizes": asdict(sizes), "workloads": {}}
    try:
        for name in workloads.WORKLOADS:
            _, wl, _, _ = run.setup(name, seed, sizes, workdir, None)
            checker = run.Checker(wl, None)
            answers = []

            def record(k, out, error):
                checker(k, out, error)
                answers.append(None if error is not None else wl.golden_key(out))

            run.closed_loop(wl, record, ops=wl.pool)
            if checker.failed:
                raise RuntimeError(f"{name}: {checker.failures}")
            golden["workloads"][name] = answers
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return golden


def main():
    golden = make_golden(run.DEFAULT_SEED, workloads.FULL, run.OUT / "work-golden")
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
