"""Command-line front end.

Commands: dist, plan, certify, geodesic, curvature-check, diagram-dist,
self-test.  Exit codes: 0 success, 1 usage, parse or file error, 2
infeasible or mismatched inputs, 3 failing optimality certificate.
"""

import argparse
import functools
import json
import sys

from . import certify as certify_mod
from . import io as pot_io
from .errors import (
    InadmissiblePlanError,
    MarginalMismatchError,
    MissingPotentialError,
    OracleSizeError,
    PairMismatchError,
    PartialOTError,
)
from .geodesic import curvature_margins, geodesic_path, interpolate
from .oracle import brute_force_wb
from .plans import cost as plan_cost
from .solver import diagram_distance, solve, solve_detail, wb_distance

_MISMATCH_ERRORS = (
    PairMismatchError,
    MarginalMismatchError,
    InadmissiblePlanError,
    MissingPotentialError,
    OracleSizeError,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(value: float) -> str:
    return f"{value:.11f}"


def _emit(args, record: dict, text_lines):
    if args.format == "machine":
        print(json.dumps(record, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_dist(args) -> int:
    mu = pot_io.load_measure(args.measure_a)
    nu = pot_io.load_measure(args.measure_b)
    if not args.oracle:  # the distance alone builds no potentials
        wb = wb_distance(mu, nu, args.p)
        _emit(args, {"command": "dist", "p": args.p, "wb": wb}, [_fmt(wb)])
        return 0
    result = solve_detail(mu, nu, args.p)
    oracle = brute_force_wb(mu, nu, args.p)
    gap = float(abs(result.wb_p_exact - oracle.exact))
    agree = result.wb_p_exact == oracle.exact
    record = {
        "command": "dist", "p": args.p, "wb": result.wb,
        "oracle": oracle.value, "oracle_gap": gap, "agree": agree,
    }
    lines = [
        _fmt(result.wb),
        f"oracle {_fmt(oracle.value ** (1.0 / args.p))}",
        "agreement ok" if agree else f"ORACLE MISMATCH gap={gap:.3e}",
    ]
    _emit(args, record, lines)
    return 0 if agree else 2


def _cmd_plan(args) -> int:
    mu = pot_io.load_measure(args.measure_a)
    nu = pot_io.load_measure(args.measure_b)
    result = solve(mu, nu, args.p)
    pot_io.save_plan(result.plan, args.output, duals=result.duals)
    record = {
        "command": "plan",
        "p": args.p,
        "wb": result.wb,
        "entries": len(result.plan.entries),
        "output": args.output,
    }
    _emit(args, record, [_fmt(result.wb), f"plan written to {args.output}"])
    return 0


def _cmd_certify(args) -> int:
    mu = pot_io.load_measure(args.measure_a)
    nu = pot_io.load_measure(args.measure_b)
    plan, duals = pot_io.load_plan(args.plan, default_pair=mu.pair)
    if duals is None:
        print("plan file carries no dual potentials; run `plan` to produce them", file=sys.stderr)
        return 2
    report = certify_mod.certify_optimal(mu, nu, plan, duals, args.p, tol=args.tol)
    cost = plan_cost(plan, args.p)
    record = {
        "command": "certify",
        "p": args.p,
        "tol": args.tol,
        "cost": cost,
        **{field: getattr(report, field) for field, _ in report.CHECKS},
        "worst_violation": report.worst_violation,
        "all_passed": report.all_passed(),
    }
    lines = [
        f"cost {_fmt(cost)}",
        *(
            f"{label:<23s}{'pass' if getattr(report, field) else 'FAIL'}"
            for field, label in report.CHECKS
        ),
        f"worst violation {report.worst_violation:.3e}",
        "certificate PASSED" if report.all_passed() else "certificate FAILED",
    ]
    _emit(args, record, lines)
    return 0 if report.all_passed() else 3


def _cmd_geodesic(args) -> int:
    if args.steps < 1:
        raise PartialOTError("--steps must be >= 1")
    mu = pot_io.load_measure(args.measure_a)
    nu = pot_io.load_measure(args.measure_b)
    path = geodesic_path(mu, nu, args.p)
    files = []
    for i in range(args.steps + 1):
        t = i / args.steps
        out = f"{args.output_prefix}{i:03d}.measure"
        pot_io.save_measure(interpolate(path, t), out)
        files.append(out)
    record = {"command": "geodesic", "p": args.p, "length": path.length, "files": files}
    _emit(args, record, [f"length {_fmt(path.length)}", *files])
    return 0


def _cmd_curvature(args) -> int:
    if args.grid < 2:
        raise PartialOTError("--grid must be >= 2")
    mu_p = pot_io.load_measure(args.measure_p)
    mu_q = pot_io.load_measure(args.measure_q)
    mu_r = pot_io.load_measure(args.measure_r)
    grid = [i / (args.grid - 1) for i in range(args.grid)]
    margins = curvature_margins(mu_p, mu_q, mu_r, grid)
    min_margin = min(margins)
    record = {
        "command": "curvature-check",
        "grid": grid,
        "margins": margins,
        "min_margin": min_margin,
    }
    lines = ["t,margin"] + [f"{t:.6f},{m:.12e}" for t, m in zip(grid, margins)]
    lines.append(f"min,{min_margin:.12e}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        _emit(args, record, [f"margin table written to {args.output}"])
    else:
        _emit(args, record, lines)
    return 0


def _cmd_diagram_dist(args) -> int:
    sigma = pot_io.load_diagram(args.diagram_a)
    tau = pot_io.load_diagram(args.diagram_b, default_pair=sigma.pair)
    dp, matching = diagram_distance(sigma, tau, args.p)
    pair = matching.pair
    moves = []
    for s, d, m in matching.entries:
        if pair._in_A(s):
            moves.append(("insert", pot_io._point_to_json(d)))
        elif pair._in_A(d):
            moves.append(("delete", pot_io._point_to_json(s)))
        else:
            moves.append(("match", pot_io._point_to_json(s), pot_io._point_to_json(d)))
    record = {"command": "diagram-dist", "p": args.p, "dp": dp, "matching": moves}
    lines = [_fmt(dp)] + [" ".join(str(part) for part in move) for move in moves]
    _emit(args, record, lines)
    return 0


def _cmd_self_test(args) -> int:
    # Imported here: no other command needs the acceptance suite.
    from . import selftest

    seed = selftest.DEFAULT_SEED if args.seed is None else args.seed
    results = selftest.run_all(seed=seed, quick=args.quick)
    passed = all(r.passed for r in results)
    record = {
        "command": "self-test",
        "seed": seed,
        "quick": args.quick,
        "criteria": [
            {
                "number": r.number,
                "name": r.name,
                "passed": r.passed,
                "worst": r.worst,
                "detail": r.detail,
            }
            for r in results
        ],
        "all_passed": passed,
    }
    lines = [r.line() for r in results]
    lines.append("self-test PASSED" if passed else "self-test FAILED")
    _emit(args, record, lines)
    return 0 if passed else 1


@functools.cache
def _build_parser() -> _Parser:
    """The CLI parser, built once per process: parse_args does not change it."""
    parser = _Parser(prog="partialot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p_cmd, with_p=True):
        p_cmd.add_argument("--format", choices=("text", "machine"), default="text")
        if with_p:
            p_cmd.add_argument("--p", type=float, default=2.0, help="transport exponent (>= 1)")

    p = sub.add_parser("dist", help="print Wb_p between two measures")
    p.add_argument("measure_a")
    p.add_argument("measure_b")
    p.add_argument("--oracle", action="store_true", help="cross-check exactly against the oracle")
    common(p)
    p.set_defaults(fn=_cmd_dist)

    p = sub.add_parser("plan", help="solve and write an optimal plan with duals")
    p.add_argument("measure_a")
    p.add_argument("measure_b")
    p.add_argument("-o", "--output", required=True)
    common(p)
    p.set_defaults(fn=_cmd_plan)

    p = sub.add_parser("certify", help="verify a plan file against two measures")
    p.add_argument("measure_a")
    p.add_argument("measure_b")
    p.add_argument("plan")
    p.add_argument("--tol", type=float, default=1e-8)
    common(p)
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("geodesic", help="write interpolated measures along a geodesic")
    p.add_argument("measure_a")
    p.add_argument("measure_b")
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("-o", "--output-prefix", required=True)
    common(p)
    p.set_defaults(fn=_cmd_geodesic)

    p = sub.add_parser("curvature-check", help="non-negative curvature margin table (p = 2)")
    p.add_argument("measure_p")
    p.add_argument("measure_q")
    p.add_argument("measure_r")
    p.add_argument("--grid", type=int, default=11)
    p.add_argument("-o", "--output")
    common(p, with_p=False)
    p.set_defaults(fn=_cmd_curvature)

    p = sub.add_parser("diagram-dist", help="persistence-diagram distance d_p and matching")
    p.add_argument("diagram_a")
    p.add_argument("diagram_b")
    common(p)
    p.set_defaults(fn=_cmd_diagram_dist)

    p = sub.add_parser("self-test", help="run the acceptance suite")
    p.add_argument("--seed", type=int)
    p.add_argument("--quick", action="store_true", help="reduced instance counts")
    common(p, with_p=False)
    p.set_defaults(fn=_cmd_self_test)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _MISMATCH_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PartialOTError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
