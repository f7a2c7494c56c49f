"""Property tests of ``pairs._dyadic``, the one helper that puts exact numbers on a power of two.

Every exact scale in the package comes from it: the cost cells of every
pair, the p = 2 coordinate grids, and certify's potentials, ulps and plan
masses.  Each int it returns over 2^k must equal its input ratio exactly,
and k must be the least exponent at or above the given one that allows it.
"""

import sys
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from partialot.pairs import _dyadic  # noqa: E402

_EDGES = (5e-324, sys.float_info.min, sys.float_info.max, 2.0**1000, 2.0**-1000, 0.0, 1.0)
_float = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([v for e in _EDGES for v in (e, -e)]),
)
# A float's ratio, or the exact cube of one, as the finite pair builds at p = 3.
_ratio = st.one_of(
    _float.map(float.as_integer_ratio),
    _float.map(lambda v: tuple(c**3 for c in abs(v).as_integer_ratio())),
)
_rows = st.lists(st.lists(_ratio, max_size=4), max_size=4)
_k = st.integers(0, 3300)


@given(_rows, _k)
def test_each_int_over_its_scale_is_its_ratio(rows, k0):
    ints, k = _dyadic(rows, k0)
    assert [len(row) for row in ints] == [len(row) for row in rows]
    for int_row, row in zip(ints, rows):
        for v, (n, d) in zip(int_row, row):
            assert type(v) is int
            assert Fraction(v, 2**k) == Fraction(n, d)


@given(_rows, _k)
def test_the_scale_is_the_least_at_or_above_the_given_one(rows, k0):
    _, k = _dyadic(rows, k0)
    # Ratios are in lowest terms, so 2^(k - 1) fails one of them unless k is the given one.
    fits = [all(d <= 2**e for row in rows for _, d in row) for e in (k - 1, k)]
    assert k >= k0 and fits[1]
    assert k == k0 or not fits[0]


@pytest.mark.parametrize("k0", [0, 7, 1074])
def test_empty_rows_keep_the_given_scale(k0):
    assert _dyadic([], k0) == ([], k0)
    assert _dyadic([[], []], k0) == ([[], []], k0)


def test_default_scale_and_extremes():
    assert _dyadic([[(1, 1), (0, 1)]]) == ([[1, 0]], 0)
    assert _dyadic([[(5e-324).as_integer_ratio()]]) == ([[1]], 1074)
    assert _dyadic([[(3, 4)], [(1, 2**3222)]]) == ([[3 << 3220], [1]], 3222)
