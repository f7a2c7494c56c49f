"""Seeded workloads of the partialot benchmark.

Each workload turns a seed into a finite pool of operations that the
benchmark cycles through in a fixed order, so every operation a run can make
has a reference answer in the golden file (at the default seed) and a first
occurrence that later repetitions must reproduce bit for bit.

The program only sees the generated inputs.  The checks here run off the
clock: each is a validity proof that does not trust the solver's own value
(marginals, plan cost against ``wb ** p``, and dual feasibility with
complementary slackness).
"""

import contextlib
import importlib
import io
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Exponents cycled by the measure workloads; the diagram workload uses 1 and 2.
EXPONENTS = (1.0, 1.5, 2.0, 3.0)
DIAGRAM_EXPONENTS = (1.0, 2.0)
#: Relative tolerance of the off-clock validity checks.
CHECK_TOL = 1e-9
#: Modules imported (and timed) during set-up.
MODULES = ("partialot", "partialot.io", "partialot.certify", "partialot.cli")


@dataclass(frozen=True)
class Sizes:
    """Instance sizes; ``FULL`` is the benchmark, ``TINY`` the smoke test."""

    dense_atoms: int = 24
    dense_pool: int = 64
    diagrams: int = 30
    diagram_points: tuple = (2, 12)
    cli_atoms: int = 16
    cli_pool: int = 64
    geodesic_steps: int = 10


FULL = Sizes()
TINY = Sizes(
    dense_atoms=4, dense_pool=8, diagrams=5, diagram_points=(2, 4),
    cli_atoms=3, cli_pool=4, geodesic_steps=2,
)


def import_partialot():
    """Import the package from this checkout's ``src``, discarding earlier imports.

    Purging first makes every set-up repetition pay for the import, so work
    moved into import time shows in ``setup_s``.
    """
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "partialot" or m.startswith("partialot.")]:
        del sys.modules[name]
    for name in MODULES:
        importlib.import_module(name)
    po = sys.modules["partialot"]
    if Path(po.__file__).resolve().parent != ROOT / "src" / "partialot":
        raise ImportError(f"partialot imported from {po.__file__}, not from {src}")
    return po


def half_plane_atoms(rng, n):
    atoms = []
    for _ in range(n):
        a = rng.uniform(0.0, 10.0)
        atoms.append(((a, a + rng.uniform(0.1, 5.0)), rng.uniform(0.1, 3.0)))
    return atoms


def box_atoms(rng, n):
    return [
        ((rng.uniform(0.05, 3.95), rng.uniform(0.05, 3.95)), rng.uniform(0.1, 3.0))
        for _ in range(n)
    ]


def _measure_pairs(po, rng, count, atoms):
    """``count`` (mu, nu, p) instances: pairs alternate, p changes every two."""
    half_plane = po.HalfPlanePair()
    box = po.EuclideanBoxPair((0.0, 0.0), (4.0, 4.0))
    out = []
    for i in range(count):
        pair, gen = (half_plane, half_plane_atoms) if i % 2 == 0 else (box, box_atoms)
        mu = po.new_measure(pair, gen(rng, atoms))
        nu = po.new_measure(pair, gen(rng, atoms))
        out.append((mu, nu, EXPONENTS[(i // 2) % len(EXPONENTS)]))
    return out


def _masses_match(got, want):
    a, b = got.mass_by_point(), want.mass_by_point()
    return a.keys() == b.keys() and all(
        abs(a[pt] - b[pt]) <= CHECK_TOL * max(a[pt], b[pt]) for pt in a
    )


def plan_problems(po, mu, nu, value, plan, duals, p):
    """Why ``plan`` is not a proven optimum of value ``value`` (empty if it is)."""
    problems = []
    got_mu, got_nu = po.marginals(plan)
    if not (_masses_match(got_mu, mu) and _masses_match(got_nu, nu)):
        problems.append("plan marginals differ from the inputs")
    cost, target = po.cost(plan, p), value ** p
    if abs(cost - target) > CHECK_TOL * target:
        problems.append(f"plan cost {cost!r} != value**p {target!r}")
    violation = po.certify.potentials_violation(plan, duals, p)
    if violation > CHECK_TOL:
        problems.append(f"dual potentials violated by {violation:.3e}")
    return problems


class SolveDense:
    """``partialot.solve`` on general-mass measure pairs, 24 atoms a side.

    The pool holds 64 distinct pairs, so a run of about 120 solves averages
    over many instances and the run's figures hardly depend on the seed.
    """

    name = "solve-dense"
    #: Operations whose exact counts two traced runs must reproduce.
    window = 2
    #: ``latency_tail_s`` is this nearest-rank percentile of the run's op
    #: latencies, fixed per workload so that a faster program reports the same
    #: percentile.  At least 12 samples lay beyond p85 in the slowest
    #: reference run (81 solves).
    tail_percentile = 85

    def __init__(self, po, seed, sizes, workdir):
        self.po = po
        self.instances = _measure_pairs(
            po, random.Random(f"{self.name}/{seed}"), sizes.dense_pool, sizes.dense_atoms
        )
        self.pool = len(self.instances)

    def op(self, k):
        mu, nu, p = self.instances[k % self.pool]
        return self.po.solve(mu, nu, p)

    def golden_key(self, out):
        return out.wb.hex()

    def repeat_key(self, out):
        return (out.wb, out.plan.entries, sorted(out.duals.phi.items()), sorted(out.duals.psi.items()))

    def check(self, i, out):
        mu, nu, p = self.instances[i]
        return plan_problems(self.po, mu, nu, out.wb, out.plan, out.duals, p)


def _diagrams(po, rng, count, lo, hi):
    """Diagrams with stratified sizes and log-uniform scales in 1e-4..1e4.

    Sizes cycle through lo..hi and scales take one draw per stratum of the
    log range, both shuffled, so the mix of work is the same at every seed
    and only the instances change.
    """
    sizes = [lo + k % (hi - lo + 1) for k in range(count)]
    logs = [-4.0 + 8.0 * (k + rng.random()) / count for k in range(count)]
    rng.shuffle(sizes)
    rng.shuffle(logs)
    diagrams = []
    for n, log_scale in zip(sizes, logs):
        scale = 10.0 ** log_scale
        points = []
        for _ in range(n):
            birth = rng.uniform(0.0, 1.0) * scale
            points.append((birth, birth + rng.uniform(0.05, 1.0) * scale))
        diagrams.append(po.new_diagram(points))
    return diagrams


class DiagramMatrix:
    """All pairs of ``partialot.diagram_distance`` over a set of diagrams."""

    name = "diagram-matrix"
    window = 29
    #: p99 is set by the few slowest cells of the pool and varied most from
    #: seed to seed; at least 111 samples lay beyond p95 in the slowest
    #: reference run (2237 cells).
    tail_percentile = 95

    def __init__(self, po, seed, sizes, workdir):
        self.po = po
        rng = random.Random(f"{self.name}/{seed}")
        self.diagrams = _diagrams(po, rng, sizes.diagrams, *sizes.diagram_points)
        n = len(self.diagrams)
        self.cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
        self.pool = len(self.cells)

    def _cell(self, k):
        i, j = self.cells[k % self.pool]
        return self.diagrams[i], self.diagrams[j], DIAGRAM_EXPONENTS[k % self.pool % 2]

    def op(self, k):
        sigma, tau, p = self._cell(k)
        return self.po.diagram_distance(sigma, tau, p)

    def golden_key(self, out):
        return out[0].hex()

    def repeat_key(self, out):
        return out[0], out[1].entries

    def check(self, i, out):
        # diagram_distance returns no duals; a separate solve supplies them.
        sigma, tau, p = self._cell(i)
        mu, nu = self.po.diagram_to_measure(sigma), self.po.diagram_to_measure(tau)
        duals = self.po.solve(mu, nu, p).duals
        return plan_problems(self.po, mu, nu, out[0], out[1], duals, p)


class CliPipeline:
    """``partialot.cli.main``: plan -o, then certify, then geodesic --steps."""

    name = "cli-pipeline"
    window = 2
    #: At least 13 samples lay beyond p80 in the slowest reference run (69 chains).
    tail_percentile = 80

    def __init__(self, po, seed, sizes, workdir):
        self.po = po
        self.steps = sizes.geodesic_steps
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        instances = _measure_pairs(
            po, random.Random(f"{self.name}/{seed}"), sizes.cli_pool, sizes.cli_atoms
        )
        self.instances = []
        for i, (mu, nu, p) in enumerate(instances):
            a, b = self.workdir / f"{i:03d}_a.measure", self.workdir / f"{i:03d}_b.measure"
            po.io.save_measure(mu, a)
            po.io.save_measure(nu, b)
            self.instances.append((mu, nu, p, str(a), str(b)))
        self.pool = len(self.instances)
        self.plan_path = str(self.workdir / "out.plan")
        self.geo_prefix = str(self.workdir / "geo_")

    def op(self, k):
        _, _, p, a, b = self.instances[k % self.pool]
        common = ["--p", repr(p), "--format", "machine"]
        commands = (
            ["plan", a, b, "-o", self.plan_path, *common],
            ["certify", a, b, self.plan_path, *common],
            ["geodesic", a, b, "--steps", str(self.steps), "-o", self.geo_prefix, *common],
        )
        records = []
        for argv in commands:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                status = self.po.cli.main(argv)
            if status != 0:
                raise RuntimeError(f"`partialot {argv[0]}` exited with {status}")
            records.append(stdout.getvalue())
        return records

    @staticmethod
    def _parsed(out):
        plan, certify, geodesic = (json.loads(text) for text in out)
        return {
            "wb": float(plan["wb"]).hex(),
            "certified": certify["all_passed"],
            "length": float(geodesic["length"]).hex(),
        }

    def golden_key(self, out):
        return self._parsed(out)

    def repeat_key(self, out):
        return tuple(out), Path(self.plan_path).read_text()

    def check(self, i, out):
        po = self.po
        mu, nu, p, _, _ = self.instances[i]
        rec = self._parsed(out)
        problems = [] if rec["certified"] else ["certify rejected the solver's plan"]
        if rec["length"] != rec["wb"]:
            problems.append("geodesic length differs from the plan's wb")
        plan, duals = po.io.load_plan(self.plan_path)
        problems += plan_problems(po, mu, nu, float.fromhex(rec["wb"]), plan, duals, p)
        ends = (po.io.load_measure(f"{self.geo_prefix}{s:03d}.measure") for s in (0, self.steps))
        if not all(_masses_match(got, want) for got, want in zip(ends, (mu, nu))):
            problems.append("geodesic end points differ from the inputs")
        return problems


WORKLOADS = {w.name: w for w in (SolveDense, DiagramMatrix, CliPipeline)}
