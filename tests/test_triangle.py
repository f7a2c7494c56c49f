"""Property test: Wb_p obeys the triangle inequality at p != 2 on all three pairs.

Wb_p is a metric for every p >= 1.  The solver's value is the exact optimum
of its cost cells rounded once and its p-th root rounded once, and at
p != 2 each cell is the float ``d ** p`` read exactly, so the inequality
may fail only by rounding: a relative 1e-12 of its right-hand side.
Coordinates keep 1e-6 away from 0 and from the box's faces, so no cost
underflows; the solver refuses such a cost with ``FloatRangeError``, which
``tests/test_solver.py`` covers.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from partialot import new_measure, wb_distance  # noqa: E402
from test_certify import BOX, FIN, HP  # noqa: E402

_a = st.floats(-4.0, 4.0).filter(lambda a: abs(a) >= 1e-6)
_POINTS = {
    "half_plane": st.builds(lambda a, gap: (a, a + gap), _a, st.floats(0.01, 4.0)),
    "box": st.tuples(*[st.floats(1e-6, 4.0 - 1e-6)] * 2),
    "finite": st.integers(0, 9),  # points 10 and 11 are A
}
_PAIRS = {"half_plane": HP, "box": BOX, "finite": FIN}


@pytest.mark.parametrize("p", [1, 1.5, 3])
@pytest.mark.parametrize("kind", sorted(_PAIRS))
@given(data=st.data())
def test_triangle_inequality_away_from_p_2(kind, p, data):
    atoms = st.lists(st.tuples(_POINTS[kind], st.floats(0.01, 100.0)), max_size=5)
    mu1, mu2, mu3 = (new_measure(_PAIRS[kind], data.draw(atoms)) for _ in range(3))
    direct = wb_distance(mu1, mu3, p)
    detour = wb_distance(mu1, mu2, p) + wb_distance(mu2, mu3, p)
    assert direct <= detour * (1 + 1e-12), (direct, detour)
