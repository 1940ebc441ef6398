"""The field-lookup kernels against the forms they replaced.

``foliations._unit`` writes cos and sin into one array and negates the
flipped rows in place, and ``PeriodicBicubic.__call__`` writes each channel
into one preallocated array and returns its transpose.  The references
below are the ``np.stack`` and ``np.where`` forms they replaced.  The
arithmetic is the same, so every comparison is bit for bit, sign bits
included.

``foliations._aligned_direction`` aligns the uncanonicalized direction of
each angle with its heading; its reference aligns the canonical one,
``direction_at``.  The two agree bit for bit on every row whose alignment
is not exactly 0; on such a row only the sign of a zero may differ.
"""

import math

import numpy as np
import pytest
from scipy import ndimage

from anosov_lab.errors import SignAmbiguity
from anosov_lab.foliations import LineField, _aligned_direction, _flow, _unit
from anosov_lab.interp import PeriodicBicubic

SIZES = [1, 7, 300, 16384]
# 0, pi/2 and its neighbours, the last angle below pi, and -0.0
SPECIAL_ANGLES = [0.0, math.pi / 2, np.nextafter(math.pi / 2, 0.0),
                  np.nextafter(math.pi / 2, 4.0), np.nextafter(math.pi, 0.0), -0.0]


def _ref_unit(theta):
    v = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    flip = (v[..., 0] < 0) | ((v[..., 0] == 0) & (v[..., 1] < 0))
    return np.where(flip[..., None], -v, v)


def _ref_bicubic(interp, x):
    coords = (x.T * interp.n) % interp.n
    return np.stack(
        [ndimage.map_coordinates(c, coords, order=3, mode="grid-wrap", prefilter=False)
         for c in interp._coeffs],
        axis=1,
    )


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                          np.ascontiguousarray(want).view(np.uint64))


@pytest.mark.parametrize("theta", SPECIAL_ANGLES)
def test_unit_at_special_angles(theta):
    _assert_same_bits(_unit(np.array([theta])), _ref_unit(np.array([theta])))
    assert np.signbit(_unit(np.array([-0.0]))[0]).tolist() == [False, True]


@pytest.mark.parametrize("size", SIZES)
def test_unit_matches_stack_and_where(size):
    rng = np.random.default_rng(size)
    # angles of a line field, and angles of either sign past pi
    for theta in (rng.uniform(0.0, math.pi, size), rng.uniform(-7.0, 7.0, size)):
        theta[:len(SPECIAL_ANGLES)] = SPECIAL_ANGLES[:size]
        _assert_same_bits(_unit(theta), _ref_unit(theta))


def test_unit_of_a_field_grid(conj_fields):
    theta = conj_fields["f1u"].theta
    _assert_same_bits(_unit(theta), _ref_unit(theta))


def _grids(field):
    """A line field's interpolator and a displacement field's."""
    n = 64
    x, y = np.meshgrid(np.arange(n) / n, np.arange(n) / n, indexing="ij")
    values = np.stack([0.02 * np.sin(2 * np.pi * y) + 0.01 * np.cos(2 * np.pi * (x + 2 * y)),
                       -0.015 * np.sin(2 * np.pi * (x - y))], axis=-1)
    return {"line field": field._interp,
            "displacement": PeriodicBicubic(values)}


@pytest.mark.parametrize("size", SIZES)
def test_bicubic_matches_stacked_channels(conj_fields, size):
    rng = np.random.default_rng(size)
    x = rng.uniform(-1.0, 2.0, (size, 2))
    # grid nodes, the origin's neighbours below 1 and points of negative sign
    special = np.array([[0.0, 0.0], [-0.0, 0.5], [np.nextafter(1.0, 0.0), 0.25],
                        [0.5, np.nextafter(1.0, 0.0)], [-1e-17, 3 / 128], [0.125, -0.75]])
    x[:len(special)] = special[:size]
    for name, interp in _grids(conj_fields["f1u"]).items():
        got = interp(x)
        _assert_same_bits(got, _ref_bicubic(interp, x))
        assert got.shape == (size, 2), name



def _ref_aligned_direction(field, pts, headings):
    d = field.direction_at(np.mod(pts, 1.0))
    dots = np.einsum("ni,ni->n", d, headings)
    d *= np.sign(dots)[:, None]
    return d, np.abs(dots)


class _FixedAngles:
    """A line field stand-in whose lookups return the given angles."""

    def __init__(self, theta):
        self.theta = np.asarray(theta, dtype=float)

    def angle_at(self, x):
        assert len(x) == len(self.theta)
        return self.theta.copy()

    def direction_at(self, x):
        return _unit(self.angle_at(x))


def _headings(rng, size):
    """Unit headings of both signs, at angles over the whole circle."""
    phi = rng.uniform(-math.pi, math.pi, size)
    return np.column_stack([np.cos(phi), np.sin(phi)])


def _assert_aligned_same_bits(field, pts, headings):
    got, got_dots = _aligned_direction(field, pts, headings)
    want, want_dots = _ref_aligned_direction(field, pts, headings)
    _assert_same_bits(got, want)
    _assert_same_bits(got_dots, want_dots)
    return got_dots


@pytest.mark.parametrize("size", SIZES)
def test_aligned_direction_matches_canonical_form(conj_fields, size):
    rng = np.random.default_rng(size)
    pts = rng.uniform(-1.0, 2.0, (size, 2))
    headings = _headings(rng, size)
    for field in conj_fields.values():
        # random headings, then the field's own directions and their opposites
        dots = _assert_aligned_same_bits(field, pts, headings)
        assert np.all(dots > 0.0)
        own = field.direction_at(np.mod(pts, 1.0))
        own[::2] *= -1.0
        _assert_aligned_same_bits(field, pts, own)


@pytest.mark.parametrize("size", SIZES)
def test_aligned_direction_at_special_angles(size):
    rng = np.random.default_rng(size + 1)
    theta = rng.uniform(0.0, math.pi, size)
    theta[:len(SPECIAL_ANGLES)] = SPECIAL_ANGLES[:size]
    field = _FixedAngles(theta)
    pts = rng.random((size, 2))
    unit = np.column_stack([np.cos(theta), np.sin(theta)])
    for headings in (_headings(rng, size), unit, -unit, _unit(theta), -_unit(theta)):
        dots = _assert_aligned_same_bits(field, pts, headings)
        assert np.all(dots > 0.0)


def test_aligned_direction_at_zero_alignment_differs_only_in_zero_signs():
    # headings exactly perpendicular to d = (cos, sin): (sin, -cos) . d is
    # exactly 0; at the angles past pi/2 the canonical form flips d
    theta = np.array([0.0, -0.0, 0.3, math.pi / 2, 2.0, np.nextafter(math.pi, 0.0)])
    field = _FixedAngles(theta)
    pts = np.zeros((len(theta), 2))
    headings = np.column_stack([np.sin(theta), -np.cos(theta)])
    got, got_dots = _aligned_direction(field, pts, headings)
    want, want_dots = _ref_aligned_direction(field, pts, headings)
    assert np.all(got_dots == 0.0)
    _assert_same_bits(got_dots, want_dots)
    assert np.all(got == 0.0) and np.all(want == 0.0)
    # the canonical form flips the rows past pi/2, so its zeros carry the
    # other signs there
    flipped = np.cos(theta) < 0
    assert flipped.any()
    assert np.array_equal(np.signbit(got[flipped]), ~np.signbit(want[flipped]))
    assert np.array_equal(np.signbit(got[~flipped]), np.signbit(want[~flipped]))


@pytest.mark.parametrize("field", [
    LineField(None, np.zeros((2, 2))),
    _FixedAngles([np.nextafter(math.pi, 0.0)]),
])
def test_flow_raises_sign_ambiguity_at_zero_alignment(field):
    theta = field.angle_at(np.zeros((1, 2)))
    headings = np.column_stack([np.sin(theta), -np.cos(theta)])
    assert _aligned_direction(field, np.zeros((1, 2)), headings)[1][0] == 0.0
    with pytest.raises(SignAmbiguity):
        _flow(field, np.zeros((1, 2)), headings, 3, 8e-3)
