"""Tests for the optimality certificates."""

import math
import operator
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

import partialot.solver
from exact_reference import full_pass_potentials
from partialot import certify, selftest
from partialot import (
    DualPotentials,
    EuclideanBoxPair,
    FinitePair,
    HalfPlanePair,
    InadmissiblePlanError,
    InvalidPointError,
    MissingPotentialError,
    NonPositiveMassError,
    TransportPlan,
    certify_optimal,
    new_measure,
    new_plan,
    solve,
    zero_measure,
)
from partialot.certify import (
    boundary_shipping_violation,
    concentration_violation,
    cyclical_monotonicity_violation,
    duality_gap_violation,
    potentials_violation,
)
from partialot.plans import cost as plan_cost
from partialot.plans import marginals

HP = HalfPlanePair()
BOX = EuclideanBoxPair((0, 0), (4, 4))
# Manhattan distances between integer points of the plane: exact, so every
# triangle inequality holds.
_GRID = [
    (0, 0), (7, 1), (3, 5), (9, 9), (1, 8), (5, 2), (8, 4), (2, 3), (6, 7), (4, 9), (10, 0), (0, 10)
]
FIN = FinitePair(
    tuple(tuple(float(abs(a - c) + abs(b - d)) for c, d in _GRID) for a, b in _GRID),
    frozenset({10, 11}),
)


def test_concentrated_on_S_examples():
    mu = new_measure(HP, [((0, 1), 1.0)])
    nu = new_measure(HP, [((0, 3), 1.0)])
    r = solve(mu, nu, 2)
    assert concentration_violation(r.plan, 2) <= 1e-8

    bad = new_plan(HP, [((0, 1), (0, 5), 1.0)], 2)
    assert concentration_violation(bad, 2) > 1e-8

    assert concentration_violation(new_plan(HP, [], 2), 2) <= 1e-8


def test_boundary_entries_pass_S_vacuously():
    shipping = new_plan(HP, [((0, 5), (2.5, 2.5), 1.0)], 2)
    assert concentration_violation(shipping, 2) <= 1e-8


def test_cyclical_monotonicity_solver_output():
    rng = random.Random(11)
    for _ in range(10):
        mu = new_measure(
            HP, [((rng.uniform(-2, 2), rng.uniform(3, 5)), 1.0) for _ in range(3)]
        )
        nu = new_measure(
            HP, [((rng.uniform(-2, 2), rng.uniform(3, 5)), 1.0) for _ in range(3)]
        )
        r = solve(mu, nu, 2)
        assert cyclical_monotonicity_violation(r.plan, 2) == 0.0


def test_cyclical_monotonicity_detects_swap():
    # optimal: monotone matching; swapped targets raise the cost
    mu = new_measure(HP, [((0, 1), 1.0), ((0, 2), 1.0)])
    nu = new_measure(HP, [((0, 1.5), 1.0), ((0, 2.5), 1.0)])
    r = solve(mu, nu, 2)
    assert cyclical_monotonicity_violation(r.plan, 2) == 0.0
    swapped = new_plan(
        HP, [((0, 1), (0, 2.5), 1.0), ((0, 2), (0, 1.5), 1.0)], 2
    )
    assert cyclical_monotonicity_violation(swapped, 2) > 1e-3


@pytest.mark.parametrize("lam", [1.0, 2.0**-20, 2.0**-100])
def test_cyclical_monotonicity_violation_is_scale_free(lam):
    # The swap costs 2.25 + 0.25 and the monotone matching 0.25 + 0.25, at
    # every scale: the improvement is 2 / 2.5 of the cycle's cost.
    swapped = new_plan(
        HP, [((0, lam), (0, 2.5 * lam), 1.0), ((0, 2 * lam), (0, 1.5 * lam), 1.0)], 2
    )
    assert cyclical_monotonicity_violation(swapped, 2) == 0.8


def test_cyclical_monotonicity_single_entry_vs_virtual():
    # in S: the two-cycle against the virtual boundary pair cannot improve
    good = new_plan(HP, [((0, 1), (0, 3), 1.0)], 2)
    assert cyclical_monotonicity_violation(good, 2) == 0.0
    # off S: rerouting via the boundary beats the direct edge
    bad = new_plan(HP, [((0, 1), (0, 5), 1.0)], 2)
    assert cyclical_monotonicity_violation(bad, 2) > 0.0


def test_potentials_examples():
    mu = new_measure(HP, [((0, 1), 1.0), ((2, 6), 2.0)])
    nu = new_measure(HP, [((0, 3), 1.5)])
    r = solve(mu, nu, 2)
    assert potentials_violation(r.plan, r.duals, 2) <= 1e-9

    # all-zero potentials break slackness whenever the plan has positive cost
    zeros = DualPotentials(
        {pt: 0.0 for pt, _ in mu.atoms}, {pt: 0.0 for pt, _ in nu.atoms}
    )
    assert potentials_violation(r.plan, zeros, 2) > 1e-9

    z = zero_measure(HP)
    rz = solve(z, z, 2)
    assert potentials_violation(rz.plan, rz.duals, 2) <= 1e-9


# The half-plane instance of test_solver's ``_WIDE``: coordinates from 5e-324
# to 1e150, so the potentials dwarf the small cells by many orders.
_WIDE_XS = [(0.0, 1e-8 + 1e-7), (5e-324, 1.0), (-3.25, 0.1), (1e-8, 2.5), (7.0, 1e100)]
_WIDE_YS = [(0.5, 3.0), (5e-324, 0.75), (-1e-8, 1e-3), (1e50, 1e100 + 1e90), (-2.0, 1e150)]


@pytest.mark.parametrize("p", [1.5, 2, 2.5, 3])
def test_potentials_exact_at_wide_scales(p):
    xs, ys = _WIDE_XS, _WIDE_YS
    if p > 2:  # keep d^p below the float range
        xs = [x for x in xs if max(x) < 1e120]
        ys = [y for y in ys if max(y) < 1e120]
    mu = new_measure(HP, [(x, 1.0) for x in xs])
    nu = new_measure(HP, [(y, 0.5) for y in ys])
    r = solve(mu, nu, p)
    assert potentials_violation(r.plan, r.duals, p) == 0.0
    assert certify_optimal(mu, nu, r.plan, r.duals, p).all_passed()


def test_potentials_exact_on_near_identical_wide_measures():
    # Coordinates 1e4-1e8, the second measure the first with each atom moved
    # by up to 1e-3 of its scale: potentials reach about scale^p while the
    # matched cells stay small, so one ulp of a potential can exceed 1e-9 of
    # (1 + its cell).
    for seed in range(30):
        rng = random.Random(seed)
        atoms, moved = [], []
        for _ in range(12):
            scale = 10 ** rng.uniform(4, 8)
            a = rng.uniform(0, scale)
            pt, m = (a, a + rng.uniform(0.05, 0.5) * scale), rng.uniform(0.1, 3)
            atoms.append((pt, m))
            moved.append(((a + rng.uniform(-1e-3, 1e-3) * scale, pt[1]), m))
        mu, nu = new_measure(HP, atoms), new_measure(HP, moved)
        for p in (1, 2):
            r = solve(mu, nu, p)
            assert potentials_violation(r.plan, r.duals, p) == 0.0, (seed, p)


def test_potentials_missing_atom():
    mu = new_measure(HP, [((0, 1), 1.0)])
    nu = new_measure(HP, [((0, 3), 1.0)])
    r = solve(mu, nu, 2)
    with pytest.raises(MissingPotentialError):
        potentials_violation(r.plan, DualPotentials({}, {}), 2)


def test_duality_gap_missing_atom():
    mu = new_measure(HP, [((0, 1), 1.0)])
    nu = new_measure(HP, [((0, 3), 1.0)])
    r = solve(mu, nu, 2)
    for duals in (DualPotentials({}, r.duals.psi), DualPotentials(r.duals.phi, {})):
        with pytest.raises(MissingPotentialError):
            duality_gap_violation(r.plan, duals, 2)


def test_boundary_shipping_examples():
    good = new_plan(HP, [((0, 5), (2.5, 2.5), 1.0)], 2)
    assert boundary_shipping_violation(good) <= 1e-9
    # (0,0) is on A but is not the nearest boundary point to (0,5)
    bad = new_plan(HP, [((0, 5), (0, 0), 1.0)], 2)
    assert boundary_shipping_violation(bad) > 1e-9
    assert boundary_shipping_violation(new_plan(HP, [((0, 1), (0, 2), 1.0)], 2)) <= 1e-9


def test_boundary_shipping_is_relative_to_the_distance_to_A():
    # At 2^-100, (0, 2^-99) shipped to (-2^-100, -2^-100) instead of its
    # nearest point (2^-100, 2^-100) of A travels sqrt(5) times d(x, A).
    lam = 2.0**-100
    mu = new_measure(HP, [((0.0, 2 * lam), 1.0)])
    duals = solve(mu, zero_measure(HP), 2).duals
    far = new_plan(HP, [((0.0, 2 * lam), (-lam, -lam), 1.0)], 2)
    assert boundary_shipping_violation(far) == pytest.approx(math.sqrt(5) - 1, rel=1e-15)
    report = certify_optimal(mu, zero_measure(HP), far, duals, 2)
    assert not report.boundary_shipping
    assert report.concentrated_on_S and report.potentials_valid and report.cost_optimal


def test_boundary_shipping_validates_boundary_endpoints():
    # A raw TransportPlan validates nothing; (2, 1) lies below the diagonal.
    for entry in (((1.0, 1.0), (2.0, 1.0), 1.0), ((2.0, 1.0), (1.0, 1.0), 1.0)):
        with pytest.raises(InvalidPointError, match="below the diagonal"):
            boundary_shipping_violation(TransportPlan(HP, (entry,), 2.0))


def test_certify_optimal_refuses_a_plan_whose_marginal_overflows():
    # x of mass 1e308 ships 1e308 to each of y1 and y2, so the plan's source
    # marginal at x is inf, which is within any relative tolerance of 1e308.
    x, y1, y2 = (0, 1), (0, 2), (0, 3)
    unit = solve(new_measure(HP, [(x, 1.0)]), new_measure(HP, [(y1, 1.0), (y2, 1.0)]), 2)
    mu = new_measure(HP, [(x, 1e308)])
    nu = new_measure(HP, [(y1, 1e308), (y2, 1e308)])
    plan = new_plan(HP, [(x, y1, 1e308), (x, y2, 1e308)], 2)
    with pytest.raises(NonPositiveMassError, match="infinite"):
        certify_optimal(mu, nu, plan, unit.duals, 2)


def test_certify_optimal_solver_output():
    mu = new_measure(HP, [((0, 1), 1.0), ((2, 6), 2.0)])
    nu = new_measure(HP, [((0, 3), 1.5), ((1, 2), 0.5)])
    for p in (1, 2, 3):
        r = solve(mu, nu, p)
        report = certify_optimal(mu, nu, r.plan, r.duals, p)
        assert report.all_passed(), report
        assert report.worst_violation < 1e-10


def test_certify_optimal_rejects_canonical_suboptimal_plan():
    mu = new_measure(HP, [((0, 1), 1.0)])
    nu = new_measure(HP, [((0, 3), 1.0)])
    r = solve(mu, nu, 2)
    # ship everything through the boundary although the direct match is cheaper
    canonical = new_plan(
        HP, [((0, 1), (0.5, 0.5), 1.0), ((1.5, 1.5), (0, 3), 1.0)], 2
    )
    report = certify_optimal(mu, nu, canonical, r.duals, 2)
    assert not report.all_passed()
    assert not report.cost_optimal
    assert not report.cyclically_monotone


def test_sixty_atom_plans_certify_as_the_full_pass_search_does(monkeypatch):
    # Sixty atoms a side take the work-list search through many passes: the
    # solver's plan certifies with exact potentials, and a swap that raises
    # its cost fails with the report the full-pass reference search gives.
    rng = random.Random(60)

    def atoms():
        out = []
        for _ in range(60):
            a = rng.uniform(0.0, 10.0)
            out.append(((a, a + rng.uniform(0.1, 5.0)), rng.uniform(0.1, 3.0)))
        return out

    mu, nu = new_measure(HP, atoms()), new_measure(HP, atoms())
    r = solve(mu, nu, 2)
    perturbed = selftest._perturb_swap(rng, r.plan)
    while plan_cost(perturbed, 2) - plan_cost(r.plan, 2) <= 1e-6:
        perturbed = selftest._perturb_swap(rng, r.plan)
    solved = certify_optimal(mu, nu, r.plan, r.duals, 2)
    rejected = certify_optimal(mu, nu, perturbed, r.duals, 2)
    assert solved.all_passed() and potentials_violation(r.plan, r.duals, 2) == 0.0
    assert not rejected.all_passed() and not rejected.cyclically_monotone
    monkeypatch.setattr(certify, "_tight_potentials", full_pass_potentials)
    assert certify_optimal(mu, nu, r.plan, r.duals, 2) == solved
    assert certify_optimal(mu, nu, perturbed, r.duals, 2) == rejected


def _one_ulp_box_on(pair, p, monkeypatch):
    """``_one_ulp_box`` on a seeded plan: the cells after, their rows and ints before, the shift.

    Also checks that the search read the caller's cells and that the exact
    potentials are the floats on the cells' scale after the call.
    """
    rng = random.Random(f"one copy/{pair.kind}/{p}")
    if pair is FIN:
        atoms = [[(rng.randrange(10), rng.uniform(0.1, 3.0)) for _ in range(8)] for _ in "mn"]
        mu, nu = (new_measure(FIN, side) for side in atoms)
    else:
        mu, nu = (selftest._random_measure(rng, pair, 8, min_atoms=4) for _ in range(2))
    r = solve(mu, nu, p)
    xs, ys, cells, scale, support = certify._plan_cells(r.plan, marginals(r.plan), p)
    rows, before = list(cells), [list(row) for row in cells]
    searched, search = [], certify._tight_potentials
    monkeypatch.setattr(
        certify, "_tight_potentials", lambda c, *args: searched.append(c) or search(c, *args)
    )
    phi, psi = certify._potential_values(xs, ys, r.duals)
    tight, exact_phi, exact_psi = certify._one_ulp_box(cells, scale, support, phi, psi)
    assert tight is not None
    floats, bits = phi + psi, scale.bit_length() - 1
    ratios = [[v.as_integer_ratio() for v in row] for row in (floats, map(math.ulp, floats))]
    (values, _), k = certify._dyadic(ratios, bits)
    assert exact_phi + exact_psi == values
    assert searched == [cells] and searched[0] is cells
    return cells, rows, before, k - bits


def test_one_ulp_box_reads_the_cells_it_is_given_at_p_2(monkeypatch):
    # On the half-plane at p = 2 the potentials sit on the cells' own scale,
    # so the search reads the caller's rows as they are: no copy is made.
    cells, rows, before, shift = _one_ulp_box_on(HP, 2, monkeypatch)
    assert shift == 0 and len(cells) == len(rows) and all(map(operator.is_, cells, rows))
    assert cells == before


def test_one_ulp_box_shifts_the_callers_cells_in_place(monkeypatch):
    # The finite pair's cells are ints over 1, and the potentials' ulps need a
    # finer scale: the caller's cells hold the shifted ints afterwards.
    cells, _, before, shift = _one_ulp_box_on(FIN, 2, monkeypatch)
    assert shift > 0
    assert cells == [[c << shift for c in row] for row in before]


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf, -math.inf, "1e-8", True])
def test_certificate_tolerance_must_be_finite_and_non_negative(tol):
    mu = new_measure(HP, [((0, 1), 1.0)])
    nu = new_measure(HP, [((0, 3), 1.0)])
    r = solve(mu, nu, 2)
    # A suboptimal plan: an infinite tolerance would pass it, NaN fail anything.
    canonical = new_plan(HP, [((0, 1), (0.5, 0.5), 1.0), ((1.5, 1.5), (0, 3), 1.0)], 2)
    with pytest.raises(ValueError, match="tolerance"):
        certify_optimal(mu, nu, canonical, r.duals, 2, tol=tol)
    assert certify_optimal(mu, nu, r.plan, r.duals, 2, tol=0.0).all_passed()
    assert not certify_optimal(mu, nu, canonical, r.duals, 2, tol=1e300).all_passed()


def test_certify_optimal_zero_vs_zero():
    z = zero_measure(HP)
    r = solve(z, z, 2)
    report = certify_optimal(z, z, r.plan, r.duals, 2)
    assert report.all_passed()


def test_certify_optimal_rejects_inadmissible():
    mu = new_measure(HP, [((0, 1), 1.0)])
    nu = new_measure(HP, [((0, 3), 1.0)])
    r = solve(mu, nu, 2)
    other = new_plan(HP, [((0, 1), (1, 4), 1.0)], 2)
    with pytest.raises(InadmissiblePlanError):
        certify_optimal(mu, nu, other, r.duals, 2)


def test_certify_optimal_rejects_atom_missing_from_measure():
    mu = new_measure(HP, [((0, 1), 1.0)])
    nu = new_measure(HP, [((0, 3), 1.0)])
    r = solve(mu, nu, 2)
    # A source atom of mass 1e-11 that mu lacks, shipped to its nearest point of A.
    extra = new_plan(HP, [*r.plan.entries, ((0, 2), (1, 1), 1e-11)], 2)
    duals = DualPotentials({**r.duals.phi, (0.0, 2.0): 2.0}, r.duals.psi)
    with pytest.raises(InadmissiblePlanError):
        certify_optimal(mu, nu, extra, duals, 2)


def test_certify_optimal_compares_tiny_masses_relatively():
    # 50 times the prescribed mass 1e-12 differs by 4.9e-11: a floor of
    # 1e-10 absolute mass would have passed it.
    mu = new_measure(HP, [((0, 1), 1e-12)])
    nu = new_measure(HP, [((0, 3), 1e-12)])
    r = solve(mu, nu, 2)
    assert certify_optimal(mu, nu, r.plan, r.duals, 2).all_passed()
    heavy = new_plan(HP, [(s, d, 50 * m) for s, d, m in r.plan.entries], 2)
    with pytest.raises(InadmissiblePlanError):
        certify_optimal(mu, nu, heavy, r.duals, 2)


def test_sensitivity_to_perturbation():
    rng = random.Random(12)
    rejected = tried = 0
    for _ in range(30):
        mu = new_measure(
            HP, [((rng.uniform(-2, 2), rng.uniform(3, 5)), 1.0) for _ in range(3)]
        )
        nu = new_measure(
            HP, [((rng.uniform(-2, 2), rng.uniform(3, 5)), 1.0) for _ in range(3)]
        )
        r = solve(mu, nu, 2)
        interior = [e for e in r.plan.entries if not HP.in_A(e[0]) and not HP.in_A(e[1])]
        pairs = [
            (a, b)
            for i, a in enumerate(interior)
            for b in interior[i + 1 :]
            if a[1] != b[1]
        ]
        if not pairs:
            continue
        (x1, y1, m1), (x2, y2, m2) = rng.choice(pairs)
        m = min(m1, m2)
        entries = [e for e in r.plan.entries if e not in ((x1, y1, m1), (x2, y2, m2))]
        entries += [(x1, y2, m), (x2, y1, m)]
        if m1 > m:
            entries.append((x1, y1, m1 - m))
        if m2 > m:
            entries.append((x2, y2, m2 - m))
        perturbed = new_plan(HP, entries, 2)
        from partialot.plans import cost

        if cost(perturbed, 2) - cost(r.plan, 2) <= 1e-6:
            continue
        tried += 1
        report = certify_optimal(mu, nu, perturbed, r.duals, 2)
        if not report.all_passed():
            rejected += 1
    assert tried > 0
    assert rejected >= 0.95 * tried


def _random_plan(rng, pair, size, p):
    """A plan of random interior and boundary entries, not optimal for anything."""
    def point():
        if pair is HP:
            a = rng.uniform(0, 10)
            return (a, a + rng.uniform(0.1, 5))
        if pair is BOX:
            return (rng.uniform(0.1, 3.9), rng.uniform(0.1, 3.9))
        return rng.randrange(10)

    entries = []
    while len(set(e[:2] for e in entries)) < size:
        x, y, m = point(), point(), rng.uniform(0.1, 3)
        kind = rng.random()
        if kind < 0.2:
            entries.append((x, pair.project_A(x), m))
        elif kind < 0.4:
            entries.append((pair.project_A(y), y, m))
        else:
            entries.append((x, y, m))
    return new_plan(pair, entries, p)


def _reference_improvement(plan, p):
    """Largest improvement of any reassignment over its cost, by exhaustive enumeration.

    Every permutation of the columns of every subset of the plan's support
    cells plus (A, A), on the ``cost_matrix`` ints of the plan's marginals;
    exact, and 0 when no reassignment lowers the cost.  A subset of cost 0
    cannot improve, and is skipped.
    """
    got_mu, got_nu = marginals(plan)
    xs, ys = [x for x, _ in got_mu.atoms], [y for y, _ in got_nu.atoms]
    cells, _ = plan.pair.cost_matrix(xs, ys, p)
    m, n = len(xs), len(ys)
    row_of = {x: i for i, x in enumerate(xs)}
    col_of = {y: j for j, y in enumerate(ys)}
    items = {(row_of.get(x, m), col_of.get(y, n)) for x, y, _ in plan.entries} | {(m, n)}
    best = Fraction(0)
    for k in range(2, len(items) + 1):
        for subset in combinations(sorted(items), k):
            base = sum(cells[i][j] for i, j in subset)
            if base == 0:
                continue
            low = min(
                sum(cells[i][j] for (i, _), j in zip(subset, cols))
                for cols in permutations([j for _, j in subset])
            )
            best = max(best, Fraction(base - low, base))
    return best


@pytest.mark.parametrize("pair", [HP, BOX, FIN], ids=["half_plane", "box", "finite"])
@pytest.mark.parametrize("p", [1, 1.5, 2, 3])
def test_cyclical_monotonicity_matches_exhaustive_reference(pair, p):
    rng = random.Random(f"{pair.kind}/{p}")
    plans = [_random_plan(rng, pair, size, p) for size in range(1, 7) for _ in range(4)]
    if pair is HP:
        plans += [
            new_plan(HP, [((0, 1), (0, 2.5), 1.0), ((0, 2), (0, 1.5), 1.0)], p),
            new_plan(HP, [((0, 1), (0, 3), 1.0)], p),
            new_plan(HP, [((0, 1), (0, 5), 1.0)], p),
        ]
    verdicts = set()
    for plan in plans:
        got = cyclical_monotonicity_violation(plan, p)
        want = _reference_improvement(plan, p)
        assert (got == 0.0) == (want == 0), (plan, got, want)
        # The reported cycle is one of the reassignments the reference tries.
        assert got <= math.nextafter(float(want), math.inf)
        verdicts.add(got == 0.0)
    assert verdicts == {False, True}


@pytest.mark.parametrize("p", [1, 2])
def test_cyclical_monotonicity_finds_a_five_cycle(p):
    # Five sources on a unit circle far from the diagonal, each sent to the
    # sink 40 degrees ahead.  Sending each to the sink 32 degrees behind is
    # cheaper, but only when all five move at once.
    def at(degrees):
        t = math.radians(degrees)
        return (math.cos(t), 100 + math.sin(t))

    ring = new_plan(HP, [(at(72 * k), at(72 * k + 40), 1.0) for k in range(5)], p)
    got = cyclical_monotonicity_violation(ring, p)
    assert 0 < got <= math.nextafter(float(_reference_improvement(ring, p)), math.inf)


def test_certify_optimal_calls_no_solver(monkeypatch):
    mu = new_measure(HP, [((0, 1), 1.0), ((2, 6), 2.0)])
    nu = new_measure(HP, [((0, 3), 1.5), ((1, 2), 0.5)])
    solved = {p: solve(mu, nu, p) for p in (1, 1.5, 2, 3)}

    def refuse(*args, **kwargs):
        raise AssertionError("certify_optimal must not solve")

    monkeypatch.setattr(partialot.solver, "solve_transportation", refuse)
    for p, r in solved.items():
        report = certify_optimal(mu, nu, r.plan, r.duals, p)
        assert report.all_passed(), report
        # Exact potentials within an ulp of the solver's floats close the gap.
        assert duality_gap_violation(r.plan, r.duals, p) == 0.0


def test_duality_gap_rejects_weak_feasible_potentials():
    mu = new_measure(HP, [((0, 1), 1.0), ((2, 6), 2.0)])
    nu = new_measure(HP, [((0, 3), 1.5)])
    r = solve(mu, nu, 2)
    # Zero potentials are feasible, but their objective 0 bounds nothing.
    zeros = DualPotentials({pt: 0.0 for pt, _ in mu.atoms}, {pt: 0.0 for pt, _ in nu.atoms})
    report = certify_optimal(mu, nu, r.plan, zeros, 2)
    assert not report.cost_optimal
    # The gap is relative to the plan's cost, and a bound of 0 leaves all of it.
    assert duality_gap_violation(r.plan, zeros, 2) == 1.0
    assert duality_gap_violation(r.plan, r.duals, 2) <= 1e-12


def test_duality_gap_corrects_infeasible_potentials():
    mu = new_measure(HP, [((0, 1), 1.0)])
    nu = new_measure(HP, [((0, 3), 1.0)])
    # Everything through the boundary costs 0.5 + 4.5 = 5, the direct match 4.
    canonical = new_plan(HP, [((0, 1), (0.5, 0.5), 1.0), ((1.5, 1.5), (0, 3), 1.0)], 2)
    # Slack on both boundary entries and an objective of 5, equal to the plan's
    # cost, but phi + psi exceeds the direct cost 4 by 1.
    inflated = DualPotentials({(0.0, 1.0): 0.5}, {(0.0, 3.0): 4.5})
    assert 0.5 + 4.5 == pytest.approx(plan_cost(canonical, 2))
    report = certify_optimal(mu, nu, canonical, inflated, 2)
    assert not report.cost_optimal
    # phi drops by 1 to -0.5, so the bound is 4 and the gap (5 - 4) / 5.
    assert duality_gap_violation(canonical, inflated, 2) == 0.2

    # With twice the sink mass, psi above its boundary cost 4.5 would lift the
    # objective past the plan's cost 0.5 + 2 * 4.5 = 9.5; capped, it is -10 + 9,
    # and the gap (9.5 + 1) / 9.5.
    nu2 = new_measure(HP, [((0, 3), 2.0)])
    canonical2 = new_plan(HP, [((0, 1), (0.5, 0.5), 1.0), ((1.5, 1.5), (0, 3), 2.0)], 2)
    above_A = DualPotentials({(0.0, 1.0): -10.0}, {(0.0, 3.0): 14.0})
    assert not certify_optimal(mu, nu2, canonical2, above_A, 2).cost_optimal
    assert duality_gap_violation(canonical2, above_A, 2) == 10.5 / 9.5


def test_duality_gap_exact_when_potentials_dwarf_the_optimum():
    # Near-identical measures far from the diagonal: the optimum is about 1e4
    # but the potentials reach 1e13, so their float rounding alone (an ulp is
    # about 0.002) would open a gap far above 1e-8 relative to the optimum.
    rng = random.Random(3)
    atoms = []
    for _ in range(12):
        a = rng.uniform(0, 1e5)
        atoms.append(((a, a + rng.uniform(5e3, 5e4)), rng.uniform(0.1, 3)))
    mu = new_measure(HP, atoms)
    nu = new_measure(HP, [((x + rng.uniform(-10, 10), y), m) for (x, y), m in atoms])
    for target in (mu, nu):
        r = solve(mu, target, 3)
        assert max(abs(v) for v in r.duals.phi.values()) > 1e12
        assert duality_gap_violation(r.plan, r.duals, 3) == 0.0
        assert certify_optimal(mu, target, r.plan, r.duals, 3).cost_optimal


def test_duality_gap_non_finite_potential():
    mu = new_measure(HP, [((0, 1), 1.0), ((2, 6), 2.0)])
    nu = new_measure(HP, [((0, 3), 1.5)])
    r = solve(mu, nu, 2)
    for bad in (math.nan, math.inf, -math.inf):
        phi = {**r.duals.phi, (0.0, 1.0): bad}
        duals = DualPotentials(phi, r.duals.psi)
        assert duality_gap_violation(r.plan, duals, 2) == math.inf
        assert not certify_optimal(mu, nu, r.plan, duals, 2).cost_optimal


def test_potentials_non_finite_potential():
    mu = new_measure(HP, [((0, 1), 1.0), ((2, 6), 2.0)])
    nu = new_measure(HP, [((0, 3), 1.5)])
    r = solve(mu, nu, 2)
    first = min(r.duals.phi)
    for bad in (math.nan, math.inf, -math.inf):
        duals = DualPotentials({**r.duals.phi, first: bad}, r.duals.psi)
        assert potentials_violation(r.plan, duals, 2) == math.inf
        duals = DualPotentials(r.duals.phi, {y: bad for y in r.duals.psi})
        assert potentials_violation(r.plan, duals, 2) == math.inf


@pytest.mark.parametrize("pair", [HP, BOX], ids=["half_plane", "box"])
@pytest.mark.parametrize("p", [1, 1.5, 2, 3])
def test_certify_optimal_agrees_with_each_violation(pair, p):
    # Solver plans and their swap perturbations, certified against each plan's
    # own marginals: the verdict is the five values read against tol.
    rng = random.Random(f"verdict/{pair.kind}/{p}")
    cases = []
    for _ in range(12):
        mu, nu = (selftest._random_measure(rng, pair, 5) for _ in range(2))
        r = solve(mu, nu, p)
        cases.append((r.plan, r.duals))
        perturbed = selftest._perturb_swap(rng, r.plan)
        if perturbed is not None:
            cases.append((perturbed, r.duals))
    verdicts = set()
    for plan, duals in cases:
        values = {
            "concentrated_on_S": concentration_violation(plan, p),
            "cyclically_monotone": cyclical_monotonicity_violation(plan, p),
            "potentials_valid": potentials_violation(plan, duals, p),
            "boundary_shipping": boundary_shipping_violation(plan),
            "cost_optimal": duality_gap_violation(plan, duals, p),
        }
        for tol in (0.0, 1e-9, 1e-8):
            report = certify_optimal(*marginals(plan), plan, duals, p, tol=tol)
            assert report.worst_violation == max(values.values())
            for field, value in values.items():
                want = value == 0.0 if field == "cyclically_monotone" else value <= tol
                assert getattr(report, field) == want, (field, value, tol)
            verdicts.add(report.all_passed())
    assert verdicts == {False, True}


def test_criterion_5_certifies_as_partialot_certify_does(monkeypatch):
    # A solver plan with its mass doubled is optimal for its own marginals, so
    # each check's value passes it; but its marginals are not the instance's,
    # so certify_optimal refuses it, and criterion 5 must count it failed.
    real, doubled = selftest.solve, []

    def solve_doubling_one(mu, nu, p):
        result = real(mu, nu, p)
        if len(result.plan.entries) == 1 and not doubled:
            doubled.append(result)
            heavy = [(x, y, 2 * m) for x, y, m in result.plan.entries]
            return result._replace(plan=new_plan(result.plan.pair, heavy, p))
        return result

    monkeypatch.setattr(selftest, "solve", solve_doubling_one)
    got = selftest.criterion_certificates(count1=20, count2=4, count3=4)
    assert doubled
    assert not got.passed
    assert "1 cert failures" in got.detail
