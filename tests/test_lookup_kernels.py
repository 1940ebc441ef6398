"""The field-lookup kernels against the forms they replaced.

``foliations._unit`` writes cos and sin into one array and negates the
flipped rows in place.  The reference below is the ``np.stack`` and
``np.where`` form it replaced.  The arithmetic is the same, so every
comparison is bit for bit, sign bits included.

``PeriodicBicubic``, the interpolant of h, divides the values' spectrum by the B-spline symbol and
sums 16 taps; SciPy's ``ndimage``, which it replaced, filters recursively
and sums the taps in another order.  So the bicubic is held to
``ndimage``'s coefficients and values within 1e-14 of the largest sample,
and to two closed forms: the samples at the grid nodes, and a constant
field exactly.  Its prefilter runs the 1-D transforms of ``rfft2`` and
``irfft2`` in blocks of lines, and is held to the whole-grid transforms
bit for bit and to a bound on its memory.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from anosov_lab.foliations import _unit
from anosov_lab.interp import PeriodicBicubic

SIZES = [1, 7, 300, 16384]
# 0, pi/2 and its neighbours, the last angle below pi, and -0.0
SPECIAL_ANGLES = [0.0, math.pi / 2, np.nextafter(math.pi / 2, 0.0),
                  np.nextafter(math.pi / 2, 4.0), np.nextafter(math.pi, 0.0), -0.0]


def _ref_unit(theta):
    v = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    flip = (v[..., 0] < 0) | ((v[..., 0] == 0) & (v[..., 1] < 0))
    return np.where(flip[..., None], -v, v)


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


BICUBIC_GRIDS = [64, 128, 1024]
# grid nodes, the origin's neighbours below 1, a point whose t rounds to N,
# and points of negative sign
SPECIAL_POINTS = np.array([[0.0, 0.0], [-0.0, 0.5], [np.nextafter(1.0, 0.0), 0.25],
                           [0.5, np.nextafter(1.0, 0.0)], [-1e-17, 3 / 128], [0.125, -0.75]])


def _grid_values(n):
    """Values on the n x n grid: a displacement field of h's size, and O(1)
    noise, whose high frequencies the prefilter amplifies most."""
    x, y = np.meshgrid(np.arange(n) / n, np.arange(n) / n, indexing="ij")
    smooth = np.stack([0.02 * np.sin(2 * np.pi * y) + 0.01 * np.cos(2 * np.pi * (x + 2 * y)),
                       -0.015 * np.sin(2 * np.pi * (x - y))], axis=-1)
    return {"displacement": smooth,
            "noise": np.random.default_rng(n).standard_normal((n, n, 2))}


def _bicubic_cases(n):
    """(name, grid values, their interpolator) of n's grids."""
    for name, values in _grid_values(n).items():
        yield name, values, PeriodicBicubic(values)


def _points(size):
    x = np.random.default_rng(size).uniform(-1.0, 2.0, (size, 2))
    x[:len(SPECIAL_POINTS)] = SPECIAL_POINTS[:size]
    return x


@pytest.mark.parametrize("n", BICUBIC_GRIDS)
def test_bicubic_coefficients_match_spline_filter(n):
    for name, values, interp in _bicubic_cases(n):
        want = np.stack([ndimage.spline_filter(values[:, :, m], order=3, mode="grid-wrap")
                         for m in range(values.shape[2])], axis=-1)
        err = np.max(np.abs(interp._coeffs.reshape(want.shape) - want))
        assert err <= 1e-14 * np.max(np.abs(values)), name


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("n", [64, 100, 1024])
def test_bicubic_coefficients_are_the_whole_grid_transforms_bit_for_bit(n, m):
    # blocks of ROW_BLOCK // N lines: one block at N = 64 and 100; at
    # N = 1024, 64 row blocks and 33 column blocks, the last of one column
    values = np.random.default_rng(n + m).standard_normal((n, n, m))
    d = (4 + 2 * np.cos(2 * np.pi / n * np.arange(n))) / 6
    spectrum = np.fft.rfft2(values, axes=(0, 1))
    spectrum /= (d[:, None] * d[:n // 2 + 1])[:, :, None]
    want = np.fft.irfft2(spectrum, s=(n, n), axes=(0, 1)).reshape(n * n, m)
    got = PeriodicBicubic(values)._coeffs
    assert got.flags.c_contiguous
    _assert_same_bits(got, want)


def test_bicubic_build_peak_memory_per_grid_point():
    # the complex spectrum, 16 B per grid point for two channels, and a few
    # blocks of lines (measured 20 at N = 512 and 17 at N = 1024); the
    # whole-grid rfft2 and irfft2 took 48
    n = 512
    values = _grid_values(n)["noise"]
    tracemalloc.start()
    try:
        PeriodicBicubic(values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 28 * n * n


@pytest.mark.parametrize("n", BICUBIC_GRIDS)
@pytest.mark.parametrize("size", SIZES)
def test_bicubic_matches_map_coordinates(n, size):
    x = _points(size)
    for name, values, interp in _bicubic_cases(n):
        coords = (x.T * len(values)) % len(values)
        want = np.stack([ndimage.map_coordinates(values[:, :, m], coords, order=3,
                                                 mode="grid-wrap")
                         for m in range(values.shape[2])], axis=1)
        got = interp(x)
        assert got.shape == (size, 2), name
        # the transposed view of one (m, n) array
        assert got.T.flags.c_contiguous, name
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(values)), name


@pytest.mark.parametrize("n", BICUBIC_GRIDS)
def test_bicubic_reproduces_the_samples_at_the_grid_nodes(n):
    nodes = np.stack(np.meshgrid(np.arange(n) / n, np.arange(n) / n, indexing="ij"),
                     axis=-1).reshape(-1, 2)
    for name, values in _grid_values(n).items():
        err = np.max(np.abs(PeriodicBicubic(values)(nodes) - values.reshape(-1, 2)))
        # measured 9.0e-16 (displacement) and 1.1e-15 (noise, N = 1024) of
        # the largest sample: a few ulps of the coefficients
        assert err <= 2e-15 * np.max(np.abs(values)), name


@pytest.mark.parametrize("n", BICUBIC_GRIDS)
def test_bicubic_reproduces_a_constant_field_exactly(n):
    # on power-of-two grids the FFT leaves a constant's coefficients exact,
    # and the taps sum differences from the centre coefficient, all 0
    x = np.concatenate([SPECIAL_POINTS, np.random.default_rng(n).uniform(-1.0, 2.0, (4096, 2))])
    for c in (1.0, 0.3, -2.7):
        interp = PeriodicBicubic(np.full((n, n, 2), c))
        assert np.all(interp._coeffs == c)
        assert np.all(interp(x) == c)
