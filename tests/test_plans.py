"""Tests for transport plans: cost, marginals, gluing and projections."""

import itertools

import pytest

from partialot import (
    FloatRangeError,
    HalfPlanePair,
    MarginalMismatchError,
    NonPositiveMassError,
    compose,
    cost,
    glue,
    marginals,
    new_measure,
    new_plan,
    projection_12,
    projection_23,
    solve,
    wb_distance,
)

HP = HalfPlanePair()


def test_cost_examples():
    plan = new_plan(HP, [((0, 1), (0, 3), 1.0)], 2)
    assert cost(plan, 2) == pytest.approx(4.0, rel=1e-14)
    assert cost(new_plan(HP, [], 2), 2) == 0.0
    # d((0,2),(1,1)) = sqrt(2), squared = 2, times mass 2
    plan2 = new_plan(HP, [((0, 2), (1, 1), 2.0)], 2)
    assert cost(plan2, 2) == pytest.approx(4.0, rel=1e-14)
    with pytest.raises(ValueError):
        cost(plan, 0.9)


def test_plan_validation():
    with pytest.raises(ValueError, match="A x A"):
        new_plan(HP, [((1, 1), (2, 2), 1.0)], 2)
    with pytest.raises(NonPositiveMassError):
        new_plan(HP, [((0, 1), (0, 2), 0.0)], 2)
    with pytest.raises(NonPositiveMassError, match="infinite"):
        new_plan(HP, [((0, 1), (0, 2), float("inf"))], 2)


def test_cost_beyond_the_float_range_raises():
    # d ** p overflows; one product overflows; the sum of two finite terms overflows.
    for entries in (
        [((0, 1e200), (5e199, 5e199), 1.0)],
        [((0, 1), (0, 3), 1e308)],
        [((0, 1), (0, 2), 1e308), ((0, 3), (0, 4), 1e308)],
    ):
        with pytest.raises(FloatRangeError, match="float range"):
            cost(new_plan(HP, entries, 2), 2)


def test_merged_entries_and_marginals_must_stay_finite():
    with pytest.raises(NonPositiveMassError, match="infinite"):
        new_plan(HP, [((0, 1), (0, 2), 1e308)] * 2, 2)
    # Two entries of 1e308 leave (0, 1): its source marginal would be inf.
    plan = new_plan(HP, [((0, 1), (0, 2), 1e308), ((0, 1), (0, 3), 1e308)], 2)
    with pytest.raises(NonPositiveMassError, match="infinite"):
        marginals(plan)


def test_total_masses_beyond_the_float_range_raise():
    # Two entries of 1e308 between different points: each is finite, the sum is not.
    x, y1, y2, a1, a2 = (0.0, 1.0), (0.0, 2.0), (0.0, 3.0), (0.5, 0.5), (1.5, 1.5)
    plan = new_plan(HP, [(x, y1, 1e308), (x, y2, 1e308)], 2)
    with pytest.raises(FloatRangeError, match="float range"):
        plan.total_mass
    assert new_plan(HP, [(x, y1, 1e308), (x, y2, 0.5e308)], 2).total_mass == 1.5e308
    # Two boundary triples of 1e308 each: the glued plan's mass is 2e308.
    glued = glue(new_plan(HP, [(x, a1, 1e308), (y1, a2, 1e308)], 2), new_plan(HP, [], 2))
    assert len(glued.triples) == 2
    with pytest.raises(FloatRangeError, match="float range"):
        glued.total_mass
    assert glue(new_plan(HP, [(x, a1, 1.0)], 2), new_plan(HP, [], 2)).total_mass == 1.0


def test_plan_merges_duplicate_entries():
    plan = new_plan(HP, [((0, 1), (0, 2), 1.0), ((0, 1), (0, 2), 2.0)], 2)
    assert plan.entries == (((0.0, 1.0), (0.0, 2.0), 3.0),)


def test_marginals_examples():
    mu, nu = marginals(new_plan(HP, [((0, 2), (1, 1), 1.0)], 2))
    assert mu.atoms == (((0.0, 2.0), 1.0),)
    assert nu.is_zero

    mu, nu = marginals(new_plan(HP, [((0, 1), (0, 3), 1.0)], 2))
    assert mu.atoms == (((0.0, 1.0), 1.0),)
    assert nu.atoms == (((0.0, 3.0), 1.0),)

    mu, nu = marginals(new_plan(HP, [((1, 1), (0, 3), 2.0)], 2))
    assert mu.is_zero
    assert nu.atoms == (((0.0, 3.0), 2.0),)


def test_glue_chain_of_singletons():
    x, y, z = (0.0, 1.0), (0.0, 2.0), (0.0, 3.0)
    g = glue(new_plan(HP, [(x, y, 1.0)], 2), new_plan(HP, [(y, z, 1.0)], 2))
    assert g.triples == ((x, y, z, 1.0),)
    assert projection_12(g)[1] == () and projection_23(g)[1] == ()
    assert compose(g).entries == ((x, z, 1.0),)


def test_glue_boundary_branches():
    x, a = (0.0, 1.0), (0.5, 0.5)
    z = (0.0, 3.0)
    # plan12 ships to the boundary, plan23 is empty
    g = glue(new_plan(HP, [(x, a, 1.0)], 2), new_plan(HP, [], 2))
    assert g.triples == ((x, a, a, 1.0),)
    assert projection_23(g)[1] == ((a, 1.0),)
    assert projection_12(g)[1] == ()
    assert compose(g).entries == ((x, a, 1.0),)

    # symmetric branch: plan23 receives from the boundary
    b = (1.5, 1.5)
    g2 = glue(new_plan(HP, [], 2), new_plan(HP, [(b, z, 1.0)], 2))
    assert g2.triples == ((b, b, z, 1.0),)
    assert projection_12(g2)[1] == ((b, 1.0),)
    assert compose(g2).entries == ((b, z, 1.0),)


def test_glue_marginal_mismatch():
    x, y, w, z = (0.0, 1.0), (0.0, 2.0), (0.0, 4.0), (0.0, 3.0)
    with pytest.raises(MarginalMismatchError):
        glue(new_plan(HP, [(x, y, 1.0)], 2), new_plan(HP, [(w, z, 1.0)], 2))
    with pytest.raises(MarginalMismatchError):
        glue(new_plan(HP, [(x, y, 1.0)], 2), new_plan(HP, [(y, z, 2.0)], 2))


def test_glue_compares_middle_masses_relatively():
    x, y, z = (0.0, 1.0), (0.0, 2.0), (0.0, 3.0)
    with pytest.raises(MarginalMismatchError):
        glue(new_plan(HP, [(x, y, 1e-12)], 2), new_plan(HP, [(y, z, 5e-11)], 2))
    glued = glue(new_plan(HP, [(x, y, 1e-12)], 2), new_plan(HP, [(y, z, 1e-12)], 2))
    assert glued.triples == ((x, y, z, 1e-12),)


def test_compose_drops_boundary_to_boundary():
    a = (1.0, 1.0)
    g = glue(new_plan(HP, [((0, 1), a, 1.0)], 2), new_plan(HP, [], 2))
    # triple (x, a, a) projects to (x, a): kept, it is not in A x A
    assert compose(g).entries == (((0.0, 1.0), a, 1.0),)
    g2 = glue(new_plan(HP, [], 2), new_plan(HP, [(a, (0, 3), 1.0)], 2))
    comp = compose(g2)
    assert comp.entries == ((a, (0.0, 3.0), 1.0),)


def test_glue_proportional_disintegration():
    y = (0.0, 2.0)
    plan12 = new_plan(HP, [((0, 1), y, 2.0), ((1, 4), y, 1.0)], 2)
    plan23 = new_plan(HP, [(y, (0, 3), 1.5), (y, (2, 5), 1.5)], 2)
    g = glue(plan12, plan23)
    masses = {(t[0], t[2]): t[3] for t in g.triples}
    assert masses[((0.0, 1.0), (0.0, 3.0))] == pytest.approx(1.0)
    assert masses[((0.0, 1.0), (2.0, 5.0))] == pytest.approx(1.0)
    assert masses[((1.0, 4.0), (0.0, 3.0))] == pytest.approx(0.5)
    assert masses[((1.0, 4.0), (2.0, 5.0))] == pytest.approx(0.5)


def _plans_equal(got, want, tol=1e-10):
    got_d = {(s, d): m for s, d, m in got.entries}
    want_d = {(s, d): m for s, d, m in want.entries}
    keys = set(got_d) | set(want_d)
    return all(
        abs(got_d.get(k, 0.0) - want_d.get(k, 0.0)) <= tol * (1 + want_d.get(k, 0.0))
        for k in keys
    )


def _boundary_masses(plan, end):
    masses = {}
    for entry in plan.entries:
        if HP.in_A(entry[end]):
            masses[entry[end]] = masses.get(entry[end], 0.0) + entry[2]
    return tuple(sorted(masses.items()))


def test_glue_roundtrip_on_solver_plans():
    mu1 = new_measure(HP, [((0, 1), 1.0), ((2, 6), 2.0)])
    mu2 = new_measure(HP, [((0, 2), 1.5), ((1, 4), 0.5)])
    mu3 = new_measure(HP, [((0, 3), 1.0)])
    # Read backwards, the chain glues plans that create mass on A as well.
    for (first, middle, last), p in itertools.product(((mu1, mu2, mu3), (mu3, mu2, mu1)), (1, 2)):
        r12 = solve(first, middle, p)
        r23 = solve(middle, last, p)
        g = glue(r12.plan, r23.plan)
        back12, diag12 = projection_12(g)
        back23, diag23 = projection_23(g)
        assert _plans_equal(back12, r12.plan)
        assert _plans_equal(back23, r23.plan)
        # The A x A parts are the entries of plan23 starting on A and of
        # plan12 ending on A, merged by boundary point.
        assert diag12 == _boundary_masses(r23.plan, 0)
        assert diag23 == _boundary_masses(r12.plan, 1)
        # triangle bound through composition
        lhs = cost(compose(g), p) ** (1 / p)
        assert lhs <= wb_distance(first, middle, p) + wb_distance(middle, last, p) + 1e-9
