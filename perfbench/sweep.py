"""One-off size sweep behind the baseline table in ROADMAP.md.

    python3 perfbench/sweep.py

Times the cost-matrix build, ``solve`` and ``certify_optimal`` on one
half-plane instance per size in ``SIZES``, generated from seed 0, with
general masses and ``p = 2``, and prints a markdown table plus one JSON
record per size.  This is not a
benchmark workload and no pipeline runs it; it takes a few minutes at
n = 80.  The pivots column stays empty until the solver reports pivot counts.
"""

import json
import random
import sys
from time import perf_counter

import workloads

SIZES = (10, 20, 40, 80)


def main():
    po = workloads.import_partialot()
    pair = po.HalfPlanePair()
    rows = []
    for n in SIZES:
        rng = random.Random(f"sweep/0/{n}")
        mu = po.new_measure(pair, workloads.half_plane_atoms(rng, n))
        nu = po.new_measure(pair, workloads.half_plane_atoms(rng, n))
        start = perf_counter()
        po.build_augmented_problem(mu, nu, 2)
        build = perf_counter() - start
        start = perf_counter()
        wb, plan, duals = po.solve(mu, nu, 2)
        solve = perf_counter() - start
        start = perf_counter()
        report = po.certify_optimal(mu, nu, plan, duals, 2)
        certify = perf_counter() - start
        row = {"n": n, "build_s": build, "solve_s": solve, "pivots": None,
               "certify_s": certify, "certified": report.all_passed(), "wb": wb.hex()}
        rows.append(row)
        print(json.dumps(row), file=sys.stderr, flush=True)
    print("| n / side | build cost matrix | `solve` | pivots | `certify_optimal` |")
    print("|---|---|---|---|---|")
    for r in rows:
        print(f"| {r['n']} | {r['build_s']:.3f} s | {r['solve_s']:.2f} s |  | {r['certify_s']:.2f} s |")
    return 0 if all(r["certified"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
