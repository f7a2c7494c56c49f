"""Property tests of certify's work-list potential search against the full-pass reference.

``certify._tight_potentials`` must reach the labels of
``exact_reference.full_pass_potentials`` from the same start, report a
negative cycle exactly when the reference does, and report only cycles whose
reassignment lowers the cost.  Both starts that certify uses are drawn:
the monotonicity check's ``c_iA`` / ``-max`` start, and the one-ulp box
around float potentials, bounds and all.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from exact_reference import full_pass_potentials  # noqa: E402
from partialot.certify import _one_ulp_box, _tight_potentials  # noqa: E402
from partialot.pairs import _dyadic  # noqa: E402


@st.composite
def _instances(draw):
    """Augmented int cells with ties, m + 1 rows and n + 1 columns for m, n <= 6, and a support."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    cells = [[draw(st.integers(0, 6)) for _ in range(n + 1)] for _ in range(m + 1)]
    cells[m][n] = 0
    every = [(i, j) for i in range(m + 1) for j in range(n + 1)]
    return cells, draw(st.lists(st.sampled_from(every), unique=True))


def _monotonicity_start(cells):
    """Certify's start for the monotonicity check: phi at c_iA, psi below every c_ij - c_iA."""
    phi = [row[-1] for row in cells]
    return phi, [-max(phi)] * len(cells[0])


def _check_same_search(cells, support, phi, psi):
    """The search and the reference from one start: the same labels, a cycle in both or neither."""
    got, cycle = _tight_potentials(cells, support, phi, psi)
    want, want_cycle = full_pass_potentials(cells, support, phi, psi)
    assert got == want
    assert (cycle is None) == (want_cycle is None)
    if cycle is not None:
        m, n = len(cells) - 1, len(cells[0]) - 1
        taken, given = cycle
        assert set(taken) <= {*support, (m, n)}
        for side in (0, 1):  # rows, then columns
            assert len({cell[side] for cell in taken}) == len(taken)
            assert sorted(cell[side] for cell in taken) == sorted(cell[side] for cell in given)
        assert sum(cells[i][j] for i, j in taken) > sum(cells[i][j] for i, j in given)


@given(_instances())
def test_search_from_the_monotonicity_start_matches_the_reference(instance):
    cells, support = instance
    _check_same_search(cells, support, *_monotonicity_start(cells))


_NUDGES = ("keep", "keep", "ulp up", "ulp down", "quarter up", "quarter down", "one up")


def _nudged(value: float, nudge: str) -> float:
    return {
        "keep": value,
        "ulp up": math.nextafter(value, math.inf),
        "ulp down": math.nextafter(value, -math.inf),
        "quarter up": value + 0.25,
        "quarter down": value - 0.25,
        "one up": value + 1.0,
    }[nudge]


@given(_instances(), st.data())
def test_one_ulp_box_matches_the_bounded_reference(instance, data):
    cells, support = instance
    m, n = len(cells) - 1, len(cells[0]) - 1
    # Float potentials vanishing on A, at or near the greatest ones when any
    # exist, so that the box holds exact potentials in about half the draws.
    labels, _ = full_pass_potentials(cells, support, *_monotonicity_start(cells))
    if labels is None:
        exact = data.draw(st.lists(st.integers(-6, 6), min_size=m + n, max_size=m + n))
    else:
        phi, psi = labels
        exact = [f - phi[m] for f in phi[:m]] + [g + phi[m] for g in psi[:n]]
    floats = [_nudged(float(v), data.draw(st.sampled_from(_NUDGES))) for v in exact]

    tight, phi, psi = _one_ulp_box(cells, 1, support, floats[:m], floats[m:])
    rows = [[v.as_integer_ratio() for v in row] for row in (floats, map(math.ulp, floats))]
    (values, ulps), _ = _dyadic(rows)
    assert phi + psi == values
    lo = [v - u for v, u in zip(values, ulps)] + [0]
    hi = [v + u for v, u in zip(values, ulps)] + [0]
    start = (hi[:m] + [0], lo[m:])
    # The box shifts the caller's cells to the potentials' scale in place.
    assert tight == full_pass_potentials(cells, support, *start, lo[:m] + [0], hi[m:])[0]
    _check_same_search(cells, support, *start)
