"""The not-a-knot spline of ``interp`` and the cumulative Simpson of
``rigidity`` against closed forms and against the SciPy routines they
replace, and ``MonotoneCubic`` against the two splines it pairs, the
inverse one being ``inverse_spline``.

The spline reproduces cubics.  Cumulative Simpson integrates quadratics
exactly on any grid; on a cubic, each interval's quadratic misses by a
multiple of the third derivative times the step to the fourth, which
cancels only within an equal-step pair of intervals, so cubics are exact
at the even nodes of a uniform grid.

Against ``CubicSpline`` and ``cumulative_simpson`` the arithmetic is the
same operation for operation; the comparisons allow 2 ulp so that they
also hold on SciPy releases whose compiled kernels round differently.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline

from anosov_lab.errors import NonMonotoneG
from anosov_lab.interp import MonotoneCubic, inverse_spline, not_a_knot_spline
from anosov_lab.rigidity import _cumulative_simpson

SETTINGS = settings(max_examples=25, derandomize=True, deadline=None)
GAPS = st.lists(st.floats(0.01, 0.1), min_size=4, max_size=20)
CUBICS = st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4)


def _assert_within_2ulp(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    ulp = np.spacing(np.maximum(np.abs(got), np.abs(want)))
    assert np.all(np.abs(got - want) <= 2 * ulp), np.max(np.abs(got - want) / ulp)


def _grid(gaps):
    return np.concatenate([[-0.5], -0.5 + np.cumsum(gaps)])


def _beyond(x):
    """Every knot, midpoints, and points past both ends."""
    span = x[-1] - x[0]
    return np.concatenate([x, (x[:-1] + x[1:]) / 2,
                           [x[0] - 0.3 * span, x[0] - 1e-3, x[-1] + 1e-3, x[-1] + 0.3 * span]])


def _cases():
    """(name, x, y): the shapes the 2-ulp comparison covers."""
    rng = np.random.default_rng(7)
    uneven = np.cumsum(rng.uniform(0.02, 1.0, 30))
    r = np.linspace(-0.35, 0.35, 701)
    profile = r + 0.01 * np.sin(9.0 * r) + 0.004 * r ** 2
    ys = np.linspace(-0.1, 0.111, 212)
    g = ys + 0.02 * np.sin(5.0 * ys)
    return [
        ("smooth", uneven, np.sin(uneven)),
        ("flat segments", np.arange(9.0), np.array([0, 1, 1, 1, 2, 5, 5, 3, 3], float)),
        ("sign changes", uneven, rng.normal(size=30)),
        ("decreasing", uneven, -np.cumsum(rng.uniform(0.0, 1.0, 30))),
        ("profile, 701 knots", r, profile),
        ("inverse profile, 701 knots", profile, r),
        ("decreasing profile, 701 knots", r, -profile),
        ("coordinate g, 212 knots", ys, g),
        ("inverse of g, 212 knots", g, ys),
    ]


CASES = _cases()


@pytest.mark.parametrize("name,x,y", CASES, ids=[c[0] for c in CASES])
def test_not_a_knot_spline_matches_scipy(name, x, y):
    got, want = not_a_knot_spline(x, y), CubicSpline(x, y)
    u = _beyond(x)
    _assert_within_2ulp(got(u), want(u))
    _assert_within_2ulp(got.derivative(u), want.derivative()(u))


@pytest.mark.parametrize("name,x,y", CASES, ids=[c[0] for c in CASES])
def test_cumulative_simpson_matches_scipy(name, x, y):
    _assert_within_2ulp(_cumulative_simpson(y, x), cumulative_simpson(y, x=x, initial=0.0))


def test_scalar_argument_gives_a_0d_array_as_scipy_does():
    x, y = np.arange(5.0), np.array([0.0, 1.0, 3.0, 3.5, 6.0])
    got, want = not_a_knot_spline(x, y), CubicSpline(x, y)
    assert got(1.5).shape == want(1.5).shape == ()
    assert got(1.5) == want(1.5)


@SETTINGS
@given(gaps=GAPS, c=CUBICS)
def test_not_a_knot_spline_reproduces_cubics(gaps, c):
    x = _grid(gaps)
    spline = not_a_knot_spline(x, np.polyval(c, x))
    u = _beyond(x)
    assert np.max(np.abs(spline(u) - np.polyval(c, u))) <= 1e-12
    assert np.max(np.abs(spline.derivative(u) - np.polyval(np.polyder(c), u))) <= 1e-11


MONOTONE = [case for case in CASES if case[0] in (
    "decreasing", "profile, 701 knots", "decreasing profile, 701 knots",
    "coordinate g, 212 knots")]


@pytest.mark.parametrize("name,x,y", MONOTONE, ids=[c[0] for c in MONOTONE])
def test_monotone_cubic_is_the_spline_and_its_inverse(name, x, y):
    """Forward: the spline through (x, y); inverse: through (y, x), knots
    reversed where y decreases; coefficient for coefficient."""
    cubic = MonotoneCubic(x, y, name)
    fwd = not_a_knot_spline(x, y)
    inv = not_a_knot_spline(y, x) if y[1] > y[0] else not_a_knot_spline(y[::-1], x[::-1])
    assert np.array_equal(cubic._fwd.c, fwd.c) and np.array_equal(cubic._inv.c, inv.c)
    assert np.array_equal(cubic._inv.x, inv.x)
    u, v = _beyond(x), _beyond(inv.x)
    assert np.array_equal(cubic(u), fwd(u))
    assert np.array_equal(cubic.derivative(u), fwd.derivative(u))
    assert np.array_equal(cubic.inverse(v), inv(v))
    alone = inverse_spline(x, y, name)
    assert np.array_equal(alone.c, inv.c) and np.array_equal(alone.x, inv.x)
    assert cubic.domain == (x[0], x[-1])
    assert np.max(np.abs(cubic.inverse(cubic(x)) - x)) <= 1e-9 * np.ptp(x)


def test_monotone_cubic_names_its_non_monotone_samples():
    with pytest.raises(NonMonotoneG, match="^profile samples are not strictly monotone$"):
        MonotoneCubic(np.arange(5.0), np.array([0.0, 2.0, 1.0, 3.0, 4.0]), "profile")
    with pytest.raises(NonMonotoneG, match="^leaf arc length samples are not strictly monotone$"):
        inverse_spline(np.arange(5.0), np.array([0.0, 1.0, 1.0, 3.0, 4.0]), "leaf arc length")


def _simpson_error(x, c):
    integral = np.polyint(c)
    exact = np.polyval(integral, x) - np.polyval(integral, x[0])
    return _cumulative_simpson(np.polyval(c, x), x) - exact


@SETTINGS
@given(gaps=st.lists(st.floats(0.01, 0.1), min_size=2, max_size=20),
       c=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
def test_cumulative_simpson_is_exact_for_quadratics(gaps, c):
    assert np.max(np.abs(_simpson_error(_grid(gaps), c))) <= 1e-14


@SETTINGS
@given(pairs=st.integers(1, 20), c=CUBICS)
def test_cumulative_simpson_is_exact_for_cubics_at_even_nodes(pairs, c):
    x = np.linspace(-0.5, 1.5, 2 * pairs + 1)
    assert np.max(np.abs(_simpson_error(x, c)[::2])) <= 1e-13


def test_knots_must_increase_strictly():
    with pytest.raises(ValueError, match="strictly increasing"):
        not_a_knot_spline([0.0, 1.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0, 4.0])


def test_spline_rejects_fewer_than_four_knots():
    with pytest.raises(ValueError, match="at least 4 knots"):
        not_a_knot_spline([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])
    not_a_knot_spline([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 4.0, 9.0])
