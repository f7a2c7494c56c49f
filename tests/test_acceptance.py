"""Acceptance suite: one test per criterion, at full counts and tolerances.

Each test prints its pass/fail line (visible with ``pytest -s`` or on
failure) and asserts the criterion outcome.  The criteria functions live in
``partialot.selftest`` so the CLI ``self-test`` command runs exactly the
same checks.
"""

from partialot import selftest

SEED = selftest.DEFAULT_SEED


def _run(criterion, **kwargs):
    result = criterion(seed=SEED, **kwargs)
    print(result.line())
    assert result.passed, result.line()
    return result


def test_criteria_are_registered_in_order_with_their_quick_counts():
    assert [c.number for c in selftest.CRITERIA] == list(range(1, 11))
    assert [c.quick for c in selftest.CRITERIA] == [
        {"count": 50},
        {"count": 20},
        {"count": 20},
        {"count": 20},
        {"count1": 50, "count2": 20, "count3": 20},
        {"count": 5},
        {"count": 10},
        {"count": 20},
        {"count": 10},
        {"count": 10},
    ]
    assert selftest.CRITERIA[0] is selftest.criterion_oracle_equivalence
    assert selftest.CRITERIA[-1] is selftest.criterion_gluing


def test_criterion_1_oracle_equivalence():
    # 500 instances, <= 4 unit atoms/side, p in {1, 1.5, 2, 3}, gap <= 1e-9
    _run(selftest.criterion_oracle_equivalence)


def test_criterion_2_diagram_embedding():
    # 200 diagram pairs, <= 4 points, p in {1, 2}; matches solver and oracle
    _run(selftest.criterion_embedding)


def test_criterion_3_metric_axioms():
    # 200 triples, <= 6 atoms, masses in [0.1, 3], both Euclidean pairs
    _run(selftest.criterion_metric_axioms)


def test_criterion_4_distance_to_zero():
    # 100 measures, relative error <= 1e-10
    _run(selftest.criterion_distance_to_zero)


def test_criterion_5_optimality_certificates():
    # every plan from criteria 1-3 passes all checks; perturbations rejected
    _run(selftest.criterion_certificates)


def test_criterion_6_geodesics():
    # 50 paths, 11-point grid: constant speed, endpoint recovery, interior atoms
    _run(selftest.criterion_geodesics)


def test_criterion_7_non_negative_curvature():
    # 100 triples of <= 3-atom measures, p = 2, margin >= -1e-8
    _run(selftest.criterion_curvature)


def test_criterion_8_angle_at_zero():
    # 200 pairs, angle witness >= -1e-10
    _run(selftest.criterion_angle_at_zero)


def test_criterion_9_truncation():
    # 50 measures, radii 1 .. 2^-8: monotone, tail-bounded, eventually zero
    _run(selftest.criterion_truncation)


def test_criterion_10_gluing_composition():
    # 100 triples: projections recover inputs, composed cost obeys triangle
    _run(selftest.criterion_gluing)
