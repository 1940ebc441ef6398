import numpy as np
import pytest

from anosov_lab.fourier import FourierPerturbation


def test_zero_perturbation():
    p = FourierPerturbation.zero()
    x = np.random.default_rng(0).random((7, 2))
    assert np.all(p.evaluate(x) == 0.0)
    assert p.sup_bound == 0.0
    assert p.deriv_bound == 0.0
    assert p.is_zero


def test_sin_mode_evaluates_real():
    amp = 0.03
    p = FourierPerturbation.from_sin_cos([((0, 1), (amp, 0.0), None)])
    x = np.random.default_rng(1).random((50, 2))
    vals = p.evaluate(x)
    expected = np.column_stack([amp * np.sin(2 * np.pi * x[:, 1]), np.zeros(50)])
    assert np.allclose(vals, expected, atol=1e-14)


def test_cos_mode_evaluates_real():
    p = FourierPerturbation.from_sin_cos([((1, 1), None, (0.0, 0.25))])
    x = np.random.default_rng(2).random((50, 2))
    vals = p.evaluate(x)
    expected = 0.25 * np.cos(2 * np.pi * (x[:, 0] + x[:, 1]))
    assert np.allclose(vals[:, 1], expected, atol=1e-14)
    assert np.allclose(vals[:, 0], 0.0, atol=1e-14)


def test_values_are_real_for_any_coefficients():
    rng = np.random.default_rng(3)
    kv = np.array([[1, 0], [0, 2], [1, -1]])
    cf = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    p = FourierPerturbation(kv, cf)
    vals = p.evaluate(rng.random((40, 2)))
    assert np.all(np.isreal(vals)) and np.all(np.isfinite(vals))


def test_derivative_matches_finite_difference():
    p = FourierPerturbation.from_sin_cos([
        ((1, 0), (0.01, 0.02), (0.005, 0.0)),
        ((0, 2), (0.0, 0.01), None),
    ])
    rng = np.random.default_rng(4)
    x = rng.random((10, 2))
    jac = p.derivative(x)
    h = 1e-6
    for axis in range(2):
        dx = np.zeros(2)
        dx[axis] = h
        fd = (p.evaluate(x + dx) - p.evaluate(x - dx)) / (2 * h)
        assert np.allclose(jac[:, :, axis], fd, atol=1e-7)


def test_bounds_dominate_samples():
    p = FourierPerturbation.from_sin_cos([
        ((1, 0), (0.02, 0.0), None),
        ((1, 1), None, (0.0, 0.015)),
    ])
    x = np.random.default_rng(5).random((500, 2))
    assert np.max(np.abs(p.evaluate(x))) <= p.sup_bound + 1e-12
    assert np.max(np.abs(p.derivative(x))) <= p.deriv_bound + 1e-12


def test_periodicity():
    p = FourierPerturbation.from_sin_cos([((2, -1), (0.01, 0.03), (0.0, 0.02))])
    x = np.random.default_rng(6).random((20, 2))
    assert np.allclose(p.evaluate(x), p.evaluate(x + np.array([3.0, -2.0])), atol=1e-12)


def test_scaled():
    p = FourierPerturbation.from_sin_cos([((0, 1), (0.02, 0.0), None)])
    x = np.random.default_rng(8).random((10, 2))
    assert np.allclose(p.scaled(0.5).evaluate(x), 0.5 * p.evaluate(x), atol=1e-15)
