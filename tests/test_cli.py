"""Tests for the command-line interface."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import partialot
from partialot import (
    HalfPlanePair,
    curvature_margins,
    new_diagram,
    new_measure,
    zero_measure,
)
from partialot import io as pot_io
from partialot.cli import _build_parser, main

HP = HalfPlanePair()


@pytest.fixture()
def measures(tmp_path):
    a = tmp_path / "a.measure"
    b = tmp_path / "b.measure"
    pot_io.save_measure(new_measure(HP, [((0, 1), 1.0)]), a)
    pot_io.save_measure(new_measure(HP, [((0, 3), 1.0)]), b)
    return str(a), str(b)


def test_dist_text_output(measures, capsys):
    a, b = measures
    assert main(["dist", "--p", "2", a, b]) == 0
    assert capsys.readouterr().out.strip() == "2.00000000000"


def test_dist_distance_to_zero(tmp_path, capsys):
    a = tmp_path / "a.measure"
    z = tmp_path / "zero.measure"
    pot_io.save_measure(new_measure(HP, [((0, 2), 1.0)]), a)
    pot_io.save_measure(zero_measure(HP), z)
    assert main(["dist", "--p", "2", str(a), str(z)]) == 0
    assert capsys.readouterr().out.strip() == "1.41421356237"


def test_dist_oracle_flag(measures, capsys):
    a, b = measures
    assert main(["dist", "--p", "2", "--oracle", a, b]) == 0
    out = capsys.readouterr().out
    assert "agreement ok" in out


def test_dist_oracle_agreement_is_exact(tmp_path, capsys):
    # Wb_3^3 is about 4e7 here: the exact optima agree with no gap at all.
    a = tmp_path / "a.measure"
    b = tmp_path / "b.measure"
    pot_io.save_measure(new_measure(HP, [((1645.0, 3126.0), 1.0)]), a)
    pot_io.save_measure(new_measure(HP, [((1761.0, 2804.0), 1.0)]), b)
    assert main(["dist", "--p", "3", "--oracle", "--format", "machine", str(a), str(b)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["agree"] and record["oracle_gap"] == 0.0


def test_dist_oracle_catches_a_doubled_answer_at_small_scale(tmp_path, capsys, monkeypatch):
    # At 2^-40 Wb_2^2 is about 2^-80, far below any absolute or 1 + x tolerance.
    lam = 2.0**-40
    a = tmp_path / "a.measure"
    b = tmp_path / "b.measure"
    pot_io.save_measure(new_measure(HP, [((0, lam), 1.0), ((2 * lam, 6 * lam), 2.0)]), a)
    pot_io.save_measure(new_measure(HP, [((0, 3 * lam), 1.5), ((lam, 2 * lam), 0.5)]), b)
    real = partialot.solver.solve_transportation

    def doubled(supply, demand, cost):
        flows, u, v, alt = real(supply, demand, cost)
        return {cell: 2 * f for cell, f in flows.items()}, u, v, alt

    monkeypatch.setattr(partialot.solver, "solve_transportation", doubled)
    assert main(["dist", "--p", "2", "--oracle", str(a), str(b)]) == 2
    assert "ORACLE MISMATCH" in capsys.readouterr().out


def test_dist_oracle_takes_any_float_masses(tmp_path, capsys):
    a = tmp_path / "a.measure"
    b = tmp_path / "b.measure"
    pot_io.save_measure(new_measure(HP, [((0, 1), 0.1), ((2, 6), 0.3)]), a)
    pot_io.save_measure(new_measure(HP, [((0, 3), 0.7)]), b)
    assert main(["dist", "--p", "2", "--oracle", str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "agreement ok"


def test_dist_machine_format_deterministic(measures, capsys):
    a, b = measures
    assert main(["dist", "--p", "2", "--format", "machine", a, b]) == 0
    first = capsys.readouterr().out
    assert main(["dist", "--p", "2", "--format", "machine", a, b]) == 0
    second = capsys.readouterr().out
    assert first == second
    record = json.loads(first)
    assert record["wb"] == 2.0


def test_plan_certify_roundtrip(measures, tmp_path, capsys):
    a, b = measures
    plan_file = str(tmp_path / "out.plan")
    assert main(["plan", "--p", "2", a, b, "-o", plan_file]) == 0
    capsys.readouterr()
    assert main(["certify", "--p", "2", a, b, plan_file]) == 0
    out = capsys.readouterr().out
    assert "certificate PASSED" in out
    # printed cost must match the solver cost at full precision
    assert "cost 4.00000000000" in out


def test_certify_failing_plan_exits_3(measures, tmp_path, capsys):
    a, b = measures
    plan_file = str(tmp_path / "sub.plan")
    # canonical suboptimal plan: everything through the boundary
    from partialot import new_plan, solve

    mu = pot_io.load_measure(a)
    nu = pot_io.load_measure(b)
    sub = new_plan(HP, [((0, 1), (0.5, 0.5), 1.0), ((1.5, 1.5), (0, 3), 1.0)], 2)
    pot_io.save_plan(sub, plan_file, duals=solve(mu, nu, 2).duals)
    assert main(["certify", "--p", "2", a, b, plan_file]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert "certificate FAILED" in lines
    assert [line for line in lines if line.startswith("cyclical")] == ["cyclical-monotonicity  FAIL"]
    assert main(["certify", "--p", "2", "--format", "machine", a, b, plan_file]) == 3
    assert json.loads(capsys.readouterr().out)["cyclically_monotone"] is False


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_certify_bad_tolerance_is_a_usage_error(measures, tmp_path, capsys, tol):
    a, b = measures
    plan_file = str(tmp_path / "out.plan")
    assert main(["plan", "--p", "2", a, b, "-o", plan_file]) == 0
    capsys.readouterr()
    assert main(["certify", "--p", "2", "--tol", tol, a, b, plan_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "tolerance" in captured.err


def test_certify_tiny_masses_mismatch_exits_2(tmp_path, capsys):
    a, b, plan_file = (str(tmp_path / name) for name in ("a.measure", "b.measure", "heavy.plan"))
    pot_io.save_measure(new_measure(HP, [((0, 1), 1e-12)]), a)
    pot_io.save_measure(new_measure(HP, [((0, 3), 1e-12)]), b)
    assert main(["plan", "--p", "2", a, b, "-o", plan_file]) == 0
    with open(plan_file, encoding="utf-8") as fh:
        data = json.load(fh)
    for entry in data["entries"]:
        entry["mass"] *= 50
    with open(plan_file, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    assert main(["certify", "--p", "2", a, b, plan_file]) == 2


def test_certify_without_duals_exits_2(measures, tmp_path, capsys):
    a, b = measures
    plan_file = str(tmp_path / "bare.plan")
    from partialot import new_plan

    pot_io.save_plan(new_plan(HP, [((0, 1), (0, 3), 1.0)], 2), plan_file)
    assert main(["certify", "--p", "2", a, b, plan_file]) == 2


def test_geodesic_writes_files(measures, tmp_path, capsys):
    a, b = measures
    prefix = str(tmp_path / "geo_")
    assert main(["geodesic", "--p", "2", a, b, "--steps", "4", "-o", prefix]) == 0
    for i in range(5):
        mu = pot_io.load_measure(f"{prefix}{i:03d}.measure")
        assert mu.total_mass == pytest.approx(1.0)
    mid = pot_io.load_measure(f"{prefix}002.measure")
    assert mid.atoms == (((0.0, 2.0), 1.0),)


def test_curvature_check_table(measures, tmp_path, capsys):
    a, b = measures
    c = tmp_path / "c.measure"
    pot_io.save_measure(new_measure(HP, [((1, 4), 0.5)]), c)
    assert main(["curvature-check", "--grid", "5", a, b, str(c)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "t,margin"
    assert len(out) == 7  # header + 5 grid rows + min row
    margins = [float(line.split(",")[1]) for line in out[1:6]]
    assert all(m >= -1e-8 for m in margins)


def test_curvature_check_machine_margins_are_the_library_margins(measures, tmp_path, capsys):
    a, b = measures
    c = tmp_path / "c.measure"
    pot_io.save_measure(new_measure(HP, [((1, 4), 0.5), ((-1, 0.5), 1.5)]), c)
    assert main(["curvature-check", "--grid", "7", "--format", "machine", a, b, str(c)]) == 0
    record = json.loads(capsys.readouterr().out)
    mus = [pot_io.load_measure(path) for path in (a, b, str(c))]
    grid = [i / 6 for i in range(7)]
    assert record["grid"] == grid
    assert [m.hex() for m in record["margins"]] == [m.hex() for m in curvature_margins(*mus, grid)]
    assert record["min_margin"].hex() == min(curvature_margins(*mus, grid)).hex()


def test_diagram_dist(tmp_path, capsys):
    da = tmp_path / "a.diagram"
    db = tmp_path / "b.diagram"
    pot_io.save_diagram(new_diagram([(0, 4)]), da)
    pot_io.save_diagram(new_diagram([(1, 5)]), db)
    assert main(["diagram-dist", "--p", "2", str(da), str(db)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "1.41421356237"
    assert out[1].startswith("match")


def test_diagram_dist_on_a_finite_pair(tmp_path, capsys):
    pair = {"kind": "finite", "dist": [[0, 1, 2], [1, 0, 1.5], [2, 1.5, 0]], "A": [0]}
    da = tmp_path / "a.diagram"
    db = tmp_path / "b.diagram"
    da.write_text(json.dumps({"pair": pair, "points": [1]}))
    db.write_text(json.dumps({"pair": pair, "points": [2]}))
    assert main(["diagram-dist", "--p", "2", str(da), str(db)]) == 0
    assert capsys.readouterr().out.splitlines() == ["1.50000000000", "match 1 2"]
    assert main(["diagram-dist", "--p", "2", "--format", "machine", str(da), str(db)]) == 0
    assert json.loads(capsys.readouterr().out)["matching"] == [["match", 1, 2]]


def test_unwritable_output_exits_1(measures, tmp_path, capsys):
    a, b = measures
    missing = tmp_path / "missing"
    for argv in (
        ["plan", a, b, "-o", str(missing / "x.plan")],
        ["geodesic", a, b, "-o", str(missing / "geo_")],
        ["curvature-check", a, b, a, "-o", str(missing / "table.csv")],
    ):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def test_parse_error_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.measure"
    bad.write_text("{ nope")
    good = tmp_path / "good.measure"
    pot_io.save_measure(new_measure(HP, [((0, 1), 1.0)]), good)
    assert main(["dist", str(bad), str(good)]) == 1
    assert main(["dist", "--p", "0.5", str(good), str(good)]) == 1
    with pytest.raises(SystemExit) as exc:
        main(["dist"])  # missing positional arguments
    assert exc.value.code == 1


def _run(argv):
    """(exit code, stdout, stderr) of one in-process call of main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_cached_parser_serves_every_call_alike(measures, tmp_path):
    a, b = measures
    plan_file = str(tmp_path / "out.plan")
    assert main(["plan", "--p", "2", a, b, "-o", plan_file, "--format", "machine"]) == 0
    dist = ["dist", "--p", "2", "--format", "machine", a, b]
    certify = ["certify", "--p", "2", a, b, plan_file]
    first = [_run(dist), _run(certify)]
    assert [code for code, _, _ in first] == [0, 0]
    code, out, err = _run(["dist", "--p", "2", a])  # missing measure_b
    assert (code, out) == (1, "")
    assert err.startswith("usage: partialot dist") and "error:" in err
    assert [_run(dist), _run(certify)] == first
    assert _build_parser() is _build_parser()


def test_non_integer_point_index_exits_1(tmp_path, capsys):
    pair = {"kind": "finite", "dist": [[0, 2, 3], [2, 0, 1], [3, 1, 0]], "A": [0]}
    good = tmp_path / "good.measure"
    good.write_text(json.dumps({"pair": pair, "atoms": [{"point": 2, "mass": 1.0}]}))
    assert main(["dist", str(good), str(good)]) == 0
    for k, point in enumerate((2.7, True)):
        bad = tmp_path / f"bad{k}.measure"
        bad.write_text(json.dumps({"pair": pair, "atoms": [{"point": point, "mass": 1.0}]}))
        assert main(["dist", str(bad), str(good)]) == 1
        assert "integer index" in capsys.readouterr().err


def test_non_number_in_measure_exits_1(tmp_path, capsys):
    good = tmp_path / "good.measure"
    good.write_text(json.dumps({"pair": {"kind": "half_plane"}, "atoms": [{"point": [0, 2], "mass": 1.0}]}))
    assert main(["dist", str(good), str(good)]) == 0
    for k, atom in enumerate(({"point": [True, 2], "mass": 1.0}, {"point": [0, 2], "mass": "1.5"})):
        bad = tmp_path / f"bad{k}.measure"
        bad.write_text(json.dumps({"pair": {"kind": "half_plane"}, "atoms": [atom]}))
        assert main(["dist", str(bad), str(good)]) == 1
        assert capsys.readouterr().err


def test_malformed_shapes_exit_1(measures, tmp_path, capsys):
    a, b = measures
    box = tmp_path / "box.measure"
    box.write_text(
        json.dumps(
            {
                "pair": {"kind": "euclidean_box", "lo": 5, "hi": [4, 4]},
                "atoms": [{"point": [1, 1], "mass": 1.0}],
            }
        )
    )
    plan = tmp_path / "shape.plan"
    plan.write_text(json.dumps({"pair": {"kind": "half_plane"}, "p": 2, "entries": 5}))
    assert main(["dist", str(box), str(box)]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["certify", a, b, str(plan)]) == 1
    assert "entries" in capsys.readouterr().err


@pytest.mark.parametrize("side", ["sources", "sinks"])
def test_repeated_dual_point_exits_1(measures, tmp_path, capsys, side):
    # Keeping the last of two potentials made certify exit 3 on this file.
    a, b = measures
    plan_file = tmp_path / "out.plan"
    assert main(["plan", "--p", "2", a, b, "-o", str(plan_file)]) == 0
    capsys.readouterr()
    data = json.loads(plan_file.read_text())
    [[point, _]] = data["duals"][side]
    data["duals"][side].append([point, 12345.0])
    plan_file.write_text(json.dumps(data))
    assert main(["certify", "--p", "2", a, b, str(plan_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "two potentials" in captured.err


def test_infinite_mass_exits_1(measures, tmp_path, capsys):
    a, _ = measures
    bad = tmp_path / "inf.measure"
    bad.write_text('{"pair": {"kind": "half_plane"}, "atoms": [{"point": [0, 2], "mass": Infinity}]}')
    assert main(["dist", str(bad), a]) == 1
    assert "infinite mass" in capsys.readouterr().err


@pytest.mark.parametrize(
    "atoms, p",
    [
        ([((0, 1e120), 1.0)], "3"),  # the cost d(x, A)^p
        ([((0, 1), 1e308), ((0, 2), 1e308)], "2"),  # the optimum
    ],
)
def test_float_overflow_exits_1(measures, tmp_path, capsys, atoms, p):
    a, _ = measures
    big = tmp_path / "big.measure"
    pot_io.save_measure(new_measure(HP, atoms), big)
    assert main(["dist", "--p", p, str(big), a]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_merged_infinite_mass_exits_1(measures, tmp_path, capsys):
    a, _ = measures
    bad = tmp_path / "dup.measure"
    atom = {"point": [0, 1], "mass": 1e308}
    bad.write_text(json.dumps({"pair": {"kind": "half_plane"}, "atoms": [atom, atom]}))
    assert main(["dist", str(bad), a]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "infinite mass" in err


def test_certify_plan_with_an_infinite_marginal_exits_1(tmp_path, capsys):
    # The plan's source marginal at x is 2e308 = inf: not admissible.
    from partialot import new_plan, solve

    a, b, plan_file = (str(tmp_path / name) for name in ("a.measure", "b.measure", "huge.plan"))
    x, y1, y2 = (0, 1), (0, 2), (0, 3)
    unit = solve(new_measure(HP, [(x, 1.0)]), new_measure(HP, [(y1, 1.0), (y2, 1.0)]), 2)
    pot_io.save_measure(new_measure(HP, [(x, 1e308)]), a)
    pot_io.save_measure(new_measure(HP, [(y1, 1e308), (y2, 1e308)]), b)
    plan = new_plan(HP, [(x, y1, 1e308), (x, y2, 1e308)], 2)
    pot_io.save_plan(plan, plan_file, duals=unit.duals)
    assert main(["certify", "--p", "2", a, b, plan_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "infinite mass" in captured.err


def test_certify_plan_cost_beyond_the_float_range_exits_1(tmp_path, capsys):
    # d((0, 1e200), A)^2 is about 5e399: the printed plan cost overflows.
    from partialot import DualPotentials, new_plan

    a, z, plan_file = (str(tmp_path / name) for name in ("a.measure", "z.measure", "far.plan"))
    pot_io.save_measure(new_measure(HP, [((0, 1e200), 1.0)]), a)
    pot_io.save_measure(zero_measure(HP), z)
    plan = new_plan(HP, [((0, 1e200), (5e199, 5e199), 1.0)], 2)
    pot_io.save_plan(plan, plan_file, duals=DualPotentials({(0.0, 1e200): 0.0}, {}))
    assert main(["certify", "--p", "2", a, z, plan_file]) == 1
    assert capsys.readouterr().err.startswith("error: value out of the float range")


def test_only_plan_needs_potentials_within_the_float_range(tmp_path, capsys):
    # Matching (0, 2^700) to (1, 2^700) costs 1, but a potential is near
    # 2^1399: dist, dist --oracle and geodesic build none, plan writes them
    # and refuses.
    a, b = str(tmp_path / "a.measure"), str(tmp_path / "b.measure")
    pot_io.save_measure(new_measure(HP, [((0.0, 2.0**700), 1.0)]), a)
    pot_io.save_measure(new_measure(HP, [((1.0, 2.0**700), 1.0)]), b)
    assert main(["dist", "--p", "2", a, b]) == 0
    assert capsys.readouterr().out == "1.00000000000\n"
    assert main(["dist", "--p", "2", "--oracle", a, b]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "agreement ok"
    prefix = str(tmp_path / "geo_")
    assert main(["geodesic", "--p", "2", "--steps", "2", a, b, "-o", prefix]) == 0
    assert capsys.readouterr().out.startswith("length 1.00000000000\n")
    assert main(["plan", "--p", "2", a, b, "-o", str(tmp_path / "out.plan")]) == 1
    assert capsys.readouterr().err.startswith("error: value out of the float range")


def test_pair_mismatch_exit_code(tmp_path, capsys):
    from partialot import EuclideanBoxPair

    a = tmp_path / "a.measure"
    b = tmp_path / "b.measure"
    pot_io.save_measure(new_measure(HP, [((0, 1), 1.0)]), a)
    pot_io.save_measure(new_measure(EuclideanBoxPair((0, 0), (4, 4)), [((1, 1), 1.0)]), b)
    assert main(["dist", str(a), str(b)]) == 2


def test_self_test_quick(capsys):
    assert main(["self-test", "--quick", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS criterion") == 10
    assert "self-test PASSED" in out


def test_cli_import_leaves_the_self_test_suite_unloaded():
    code = "import sys, partialot.cli; print('partialot.selftest' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(partialot.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"


def test_self_test_seed_defaults_to_the_suite_seed(monkeypatch, capsys):
    from partialot import selftest

    seeds = []
    monkeypatch.setattr(selftest, "run_all", lambda seed, quick: seeds.append(seed) or [])
    assert main(["self-test", "--quick", "--format", "machine"]) == 0
    assert seeds == [selftest.DEFAULT_SEED]
    assert json.loads(capsys.readouterr().out)["seed"] == selftest.DEFAULT_SEED
