"""Same-process A/B timing of two checkouts of partialot.

    python3 tools/ab.py A B [--workload NAME ...] [--passes N] [--seed S] [--tiny]

A and B are the roots of two checkouts (they may be the same directory).
Both packages are imported into this one process, each as its own module
objects, and each builds the seeded pool of every named benchmark workload
(``perfbench/workloads.py`` of this checkout, at its full sizes or, with
``--tiny``, at ``workloads.TINY``).  One untimed pass over each pool warms
the side up and records its answers, which must match the other side's bit
for bit.  Then whole pool passes alternate, A before B on even passes and B
before A on odd ones, so host drift and heap growth fall on both sides
alike rather than on whichever ran second.

For each side it prints the median time per operation over the passes and
the garbage collections during the timed passes, read through
``gc.callbacks``: generation-0 collections per operation and the count of
generation-2 (full) collections.  Then the median of the per-pass ratios
B/A and the passes each side won.  It warns when B's generation-0
collections per op fall more than ``GC_CADENCE_DROP`` below A's: the
benchmark's ``peak_rss_mb`` follows that rate, since garbage that waits
longer for a collection raises the peak.  Exit status 1 means the answers
differ.
"""

import argparse
import gc
import importlib
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

#: The fall in generation-0 collections per op, B against A, that is warned about.
GC_CADENCE_DROP = 0.1


def _purge():
    for name in [m for m in sys.modules if m == "partialot" or m.startswith("partialot.")]:
        del sys.modules[name]


def import_checkout(checkout):
    """The partialot package of ``checkout``, imported afresh as its own modules."""
    src = Path(checkout).resolve() / "src"
    _purge()
    sys.path.insert(0, str(src))
    try:
        for name in workloads.MODULES:
            importlib.import_module(name)
        po = sys.modules["partialot"]
    finally:
        sys.path.remove(str(src))
        _purge()
    if Path(po.__file__).resolve().parent != src / "partialot":
        raise ImportError(f"partialot imported from {po.__file__}, not from {src}")
    return po


class GcCounter:
    """Collections per generation, charged to the side that is running."""

    def __init__(self):
        self.side = None
        self.counts = {}

    def __call__(self, phase, info):
        if phase == "start" and self.side is not None:
            self.counts.setdefault(self.side, [0, 0, 0])[info["generation"]] += 1


def one_pass(wl):
    """Run every operation of the pool once, in order; returns the seconds taken."""
    start = perf_counter()
    for k in range(wl.pool):
        wl.op(k)
    return perf_counter() - start


def compare(name, sides, passes, gc_counter):
    """Alternate timed passes of the two sides' pools of one workload; prints a report."""
    answers = {}
    for side, wl in sides.items():
        answers[side] = [wl.golden_key(wl.op(k)) for k in range(wl.pool)]
    differ = sum(a != b for a, b in zip(answers["A"], answers["B"]))
    pool = sides["A"].pool

    times = {"A": [], "B": []}
    gc_counter.counts = {}
    for i in range(passes):
        for side in ("A", "B") if i % 2 == 0 else ("B", "A"):
            gc_counter.side = side
            try:
                times[side].append(one_pass(sides[side]))
            finally:
                gc_counter.side = None

    ratios = [b / a for a, b in zip(times["A"], times["B"])]
    ops = passes * pool
    print(f"{name}: {pool} ops a pass, {passes} passes, alternating A-B then B-A")
    print("  side  median s/op  gen-0/op  gen-2")
    gen0_per_op = {}
    for side in ("A", "B"):
        gen0, _, gen2 = gc_counter.counts.get(side, [0, 0, 0])
        per_op = statistics.median(times[side]) / pool
        gen0_per_op[side] = gen0 / ops
        print(f"  {side}     {per_op:.4e}   {gen0_per_op[side]:8.3f}  {gen2:5d}")
    drop = gen0_per_op["A"] - gen0_per_op["B"]
    if drop > GC_CADENCE_DROP:
        print(
            f"  warning: B runs {drop:.3f} fewer gen-0 collections per op than A; "
            "the benchmark's peak_rss_mb follows that rate"
        )
    median = statistics.median(ratios)
    b_won = sum(r < 1.0 for r in ratios)
    a_won = sum(r > 1.0 for r in ratios)
    print(
        f"  B/A median time ratio {median:.3f} (B x{1.0 / median:.3f} as fast); "
        f"passes won: A {a_won}, B {b_won} of {passes}"
    )
    print(f"  answers: {'identical' if not differ else f'{differ} of {pool} differ'}")
    return differ == 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="root of checkout A")
    parser.add_argument("b", help="root of checkout B")
    parser.add_argument(
        "--workload", action="append", choices=sorted(workloads.WORKLOADS),
        help="workload to compare (repeatable; default: all)",
    )
    parser.add_argument("--passes", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tiny", action="store_true", help="use workloads.TINY sizes")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    sizes = workloads.TINY if args.tiny else workloads.FULL
    packages = {"A": import_checkout(args.a), "B": import_checkout(args.b)}

    gc_counter = GcCounter()
    gc.callbacks.append(gc_counter)
    workdir = Path(tempfile.mkdtemp(prefix="partialot-ab-"))
    same = True
    try:
        for name in args.workload or list(workloads.WORKLOADS):
            cls = workloads.WORKLOADS[name]
            sides = {
                side: cls(po, args.seed, sizes, workdir / f"{name}-{side}")
                for side, po in packages.items()
            }
            same = compare(name, sides, args.passes, gc_counter) and same
    finally:
        gc.callbacks.remove(gc_counter)
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
