"""Property tests: the lighter entry points agree with the full solve bit for bit.

``wb_distance`` reads only the optimum's value and ``diagram_distance`` only
its value and plan; neither builds the potentials ``solve_detail`` returns.
What they do return must be exactly what ``solve_detail`` gives, on all
three pairs, and ``diagram_to_measure``'s runs of sorted points must be the
atoms that merging by point and sorting again would give.  The solver builds
its plans without ``new_plan``'s checks, so they must be what ``new_plan``
makes of the same entries; and its exact optimum must be the oracle's.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from partialot import (  # noqa: E402
    DiscreteMeasure,
    EuclideanBoxPair,
    FinitePair,
    HalfPlanePair,
    brute_force_wb,
    diagram_distance,
    diagram_to_measure,
    new_diagram,
    new_measure,
    new_plan,
    solve_detail,
    wb_distance,
)
from partialot.measures import _canonical_atoms  # noqa: E402

HP = HalfPlanePair()
BOX = EuclideanBoxPair((-1.0, -1.0), (4.0, 4.0))
FIN = FinitePair(
    ((0, 1, 2, 2.5), (1, 0, 1.5, 2.5), (2, 1.5, 0, 1.25), (2.5, 2.5, 1.25, 0)), frozenset({0})
)
EXPONENTS = (1.0, 1.5, 2.0, 3.0)

# Few coordinates, -0.0 among them, so points repeat and equal points can
# differ in their bits.
_coord = st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 3.0, 3.75])
_POINTS = {
    "half_plane": st.builds(
        lambda a, gap: (a, a + gap), _coord, st.sampled_from([0.25, 0.5, 1.0, 2.5])
    ),
    "box": st.tuples(_coord, _coord),
    "finite": st.sampled_from([1, 2, 3]),
}
_PAIRS = {"half_plane": HP, "box": BOX, "finite": FIN}
_kind = st.sampled_from(sorted(_PAIRS))
_p = st.sampled_from(EXPONENTS)


def _bits(value):
    """``value`` with each float replaced by its hex form, so -0.0 and 0.0 differ."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value


@st.composite
def _multiset(draw, kind):
    """Points of ``kind``, some drawn again so that the multiset has repeats."""
    points = draw(st.lists(_POINTS[kind], max_size=5))
    if points:
        points += draw(st.lists(st.sampled_from(points), max_size=3))
    return draw(st.permutations(points))


@st.composite
def _measure_pair(draw):
    kind = draw(_kind)
    mass = st.floats(0.01, 100.0)
    mu, nu = (
        new_measure(_PAIRS[kind], [(pt, draw(mass)) for pt in draw(_multiset(kind))])
        for _ in range(2)
    )
    return mu, nu


@st.composite
def _diagram_pair(draw):
    kind = draw(_kind)
    return tuple(new_diagram(draw(_multiset(kind)), _PAIRS[kind]) for _ in range(2))


@given(_measure_pair(), _p)
def test_wb_distance_is_solve_detail_wb(measures, p):
    mu, nu = measures
    assert wb_distance(mu, nu, p).hex() == solve_detail(mu, nu, p).wb.hex()


@given(_diagram_pair(), _p)
def test_diagram_distance_is_solve_detail_on_the_embedded_measures(diagrams, p):
    sigma, tau = diagrams
    wb, plan = diagram_distance(sigma, tau, p)
    detail = solve_detail(diagram_to_measure(sigma), diagram_to_measure(tau), p)
    assert wb.hex() == detail.wb.hex()
    assert _bits(plan.entries) == _bits(detail.plan.entries)
    assert (plan.pair, plan.p) == (detail.plan.pair, detail.plan.p)


@given(_diagram_pair())
def test_diagram_to_measure_is_the_merged_and_sorted_form(diagrams):
    for sigma in diagrams:
        merged = DiscreteMeasure(sigma.pair, _canonical_atoms((pt, 1.0) for pt in sigma.points))
        got = diagram_to_measure(sigma)
        assert got.pair == merged.pair
        assert _bits(got.atoms) == _bits(merged.atoms)


_embedded_diagrams = _diagram_pair().map(lambda diagrams: tuple(map(diagram_to_measure, diagrams)))


@given(st.one_of(_measure_pair(), _embedded_diagrams), _p)
def test_solver_plan_is_new_plan_on_its_entries(measures, p):
    plan = solve_detail(*measures, p).plan
    again = new_plan(plan.pair, plan.entries, p)
    assert _bits(plan.entries) == _bits(again.entries)
    assert (plan.pair, plan.p) == (again.pair, again.p)


@given(_measure_pair(), _p)
def test_oracle_optimum_is_the_solver_optimum(measures, p):
    assert brute_force_wb(*measures, p).exact == solve_detail(*measures, p).wb_p_exact
