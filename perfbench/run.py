"""Closed-loop benchmark of partialot.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One caller issues the next operation only
after the previous one returned (no threads, no processes).  Operations are
timed one by one; the correctness checks between them run off the clock.

``--trace 0`` measures the end-to-end metrics for S seconds.  ``--trace 1``
measures untraced for S/2 seconds, replays exactly the same operations with
every layer wrapped (see ``spans.py``), then replays the count window once
more and fails if any exact count differs.

The last line of standard output is the result
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
full record (environment with a calibration time, error rate, tail
percentile, failures), which is also written to ``perfbench/out/``.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
GOLDEN = BENCH / "golden.json"
DEFAULT_SEED = 0
#: Set-ups timed per untraced run, spread evenly over it; ``setup_s`` is
#: their median.
SETUP_REPS = 15
#: Repetitions of the calibration loop recorded with every result.
CALIBRATION_REPS = 5
FAILURES_KEPT = 5


class Checker:
    """Counts operations that raised, returned a wrong answer, or changed answer.

    The first occurrence of each pool operation gets the workload's validity
    check; later occurrences must reproduce it exactly.  With a golden record
    for this seed and these sizes, every answer must also match it.
    """

    def __init__(self, wl, golden):
        self.wl = wl
        self.golden = golden
        self.first = {}  # pool index -> (repeat key, ok)
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def __call__(self, k, out, error):
        self.attempted += 1
        i = k % self.wl.pool
        if error is not None:
            problems = [f"raised {error!r}"]
        else:
            problems = self._problems(i, out)
        if problems:
            self.failed += 1
            if len(self.failures) < FAILURES_KEPT:
                self.failures.append(f"op {k}: {'; '.join(problems)}")

    def _problems(self, i, out):
        key = self.wl.repeat_key(out)
        if i in self.first:
            first_key, ok = self.first[i]
            problems = [] if ok else ["repeats an invalid answer"]
            if key != first_key:
                problems.append("differs from its first occurrence")
        else:
            problems = self.wl.check(i, out)
            self.first[i] = (key, not problems)
        if self.golden is not None and self.wl.golden_key(out) != self.golden[i]:
            problems.append("differs from the golden record")
        return problems


def closed_loop(wl, checker, seconds=math.inf, ops=None, min_ops=0, tracer=None, window=0, first=0):
    """Run operations ``first``, ``first + 1``, ... and return their latencies.

    Stops after ``ops`` operations if given, else once the timed total
    reaches ``seconds`` and at least ``min_ops`` ran.
    """
    latencies = []
    busy = 0.0
    while len(latencies) < ops if ops is not None else (busy < seconds or len(latencies) < min_ops):
        k = first + len(latencies)
        out = error = None
        if tracer is not None:
            tracer.begin_op(counting=k < window)
        start = perf_counter()
        try:
            out = wl.op(k)
        except Exception as exc:  # an operation that raises counts as failed
            error = exc
        finally:
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.end_op()
        latencies.append(elapsed)
        busy += elapsed
        checker(k, out, error)
    return latencies


def load_golden(name, seed, sizes, path):
    """The golden answers of ``name`` if they were made at this seed and size."""
    if path is None or not Path(path).exists():
        return None
    data = json.loads(Path(path).read_text())
    if data["seed"] != seed or data["sizes"] != json.loads(json.dumps(asdict(sizes))):
        return None
    return data["workloads"][name]


def setup(name, seed, sizes, workdir, golden_path):
    """Import, generate inputs, write input files, load the golden record.

    Returns the package, the workload, the golden answers and the time taken.
    """
    start = perf_counter()
    po = workloads.import_partialot()
    wl = workloads.WORKLOADS[name](po, seed, sizes, workdir)
    golden = load_golden(name, seed, sizes, golden_path)
    return po, wl, golden, perf_counter() - start


def setup_again(name, seed, sizes, workdir, golden_path):
    """Time one more set-up, then restore the modules the run is using."""
    live = {n: m for n, m in sys.modules.items() if n == "partialot" or n.startswith("partialot.")}
    try:
        return setup(name, seed, sizes, workdir, golden_path)[-1]
    finally:
        for n in [n for n in sys.modules if n == "partialot" or n.startswith("partialot.")]:
            del sys.modules[n]
        sys.modules.update(live)


def measure(wl, checker, seconds, first_setup_s, timed_setup):
    """Operations for ``seconds`` of op time, with set-ups timed between them.

    After each of ``SETUP_REPS - 1`` equal slices of op time one more set-up
    is timed, so the set-up times meet the same host speed as the operations
    and their median is as steady as the op metrics.
    """
    latencies, setups = [], [first_setup_s]
    slices = SETUP_REPS - 1
    for i in range(1, slices + 1):
        budget = seconds * i / slices - sum(latencies)
        latencies += closed_loop(wl, checker, seconds=budget, first=len(latencies))
        setups.append(timed_setup())
    return latencies, statistics.median(setups)


def latency_summary(wl, latencies):
    """Timing metrics, and how the tail was taken.

    The tail is the workload's fixed nearest-rank percentile, so a faster
    program reports the same percentile of its latencies, not a higher one.
    """
    ordered = sorted(latencies)
    rank = (wl.tail_percentile * len(ordered) + 99) // 100 - 1
    metrics = {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (ordered[rank], "s"),
    }
    tail = {
        "tail_percentile": wl.tail_percentile,
        "tail_samples_beyond": len(ordered) - rank - 1,
    }
    return metrics, tail


def calibration_s():
    """Median time of a fixed stdlib ``Fraction`` loop, so host drift shows."""
    times = []
    for _ in range(CALIBRATION_REPS):
        start = perf_counter()
        total = Fraction(0)
        for i in range(1, 4000):
            total += Fraction(1, i)
        times.append(perf_counter() - start)
    return statistics.median(times)


def environment(seed):
    def git(*args):
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top).resolve() == ROOT
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    status = git("status", "--porcelain", "--untracked-files=no") if in_repo else None
    return {
        "git_revision": git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "calibration_s": calibration_s(),
        "seed": seed,
    }


def run_benchmark(name, seed, seconds, trace, sizes=workloads.FULL, golden_path=GOLDEN, out_dir=OUT):
    """Run one workload; returns (full record, result line)."""
    workdir = Path(out_dir) / f"work-{os.getpid()}"
    try:
        po, wl, golden, setup_s = setup(name, seed, sizes, workdir, golden_path)
        checker = Checker(wl, golden)
        record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "sizes": asdict(sizes), "pool": wl.pool, "golden_checked": golden is not None}
        if trace:
            metrics = traced(po, wl, checker, seconds, record)
        else:
            latencies, setup_s = measure(
                wl, checker, seconds, setup_s,
                lambda: setup_again(name, seed, sizes, Path(f"{workdir}-setup"), golden_path),
            )
            metrics, tail = latency_summary(wl, latencies)
            record.update(ops=len(latencies), **tail)
            metrics["setup_s"] = (setup_s, "s")
            metrics["success_rate"] = (1.0 - checker.failed / checker.attempted, "ratio")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(f"{workdir}-setup", ignore_errors=True)
    record.update(
        env=environment(seed),
        attempted=checker.attempted,
        failed=checker.failed,
        error_rate={"value": checker.failed / checker.attempted, "unit": "ratio"},
        failures=checker.failures,
        metrics={key: {"value": v, "unit": u} for key, (v, u) in metrics.items()},
    )
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": record["metrics"],
    }
    return record, result


def traced(po, wl, checker, seconds, record):
    """Untraced half, traced replay of the same operations, count-window replay."""
    untraced = closed_loop(wl, checker, seconds=seconds / 2, min_ops=wl.window)
    tracer = spans.Tracer()
    uninstall = spans.install(tracer, po)
    try:
        traced_lat = closed_loop(wl, checker, ops=len(untraced), tracer=tracer, window=wl.window)
        counts = dict(tracer.counts)
        metrics = spans.layer_metrics(tracer, counts)
        record["span_log"] = tracer.log
        tracer.counts.clear()
        tracer.log = []
        closed_loop(wl, checker, ops=wl.window, tracer=tracer, window=wl.window)
        again = dict(tracer.counts)
    finally:
        uninstall()
    metrics["trace.ops"] = (float(len(traced_lat)), "count")
    metrics["trace.overhead"] = (sum(untraced) / sum(traced_lat) - 1.0, "ratio")
    record.update(ops=len(untraced), count_window=wl.window)
    if counts != again:
        differing = sorted(k for k in counts.keys() | again.keys() if counts.get(k) != again.get(k))
        raise RuntimeError(f"exact counts differ between two traced passes: {differing}")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record, result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:  # no result line: the run itself failed
        traceback.print_exc()
        return 2
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    span_log = record.pop("span_log", None)
    if span_log is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(span_log) + "\n")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
