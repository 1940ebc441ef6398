import functools
from fractions import Fraction

import numpy as np
import pytest

from anosov_lab.conjugacy import (
    PeriodicOrbitData,
    _iterated_lift,
    _lattice_seeds,
    compare_smooth_invariants,
    estimate_holder_exponent,
    find_periodic_points,
    solve_conjugacy,
)
from anosov_lab.errors import AnosovLabError, NewtonFailed, PeriodOutOfRange
from anosov_lab.fourier import FourierPerturbation
from anosov_lab.lattice import IntMatrix2, power, wrap_point
from anosov_lab.maps import PerturbedMap
from anosov_lab.rigidity import teichmuller_experiment


@pytest.fixture(scope="module")
def h_conj(e1, conj_g1):
    return solve_conjugacy(e1, conj_g1, n=256)


@pytest.fixture(scope="module")
def perturbed_g1(e1):
    # ||Dp||_inf = 0.03
    p = FourierPerturbation.from_sin_cos([((0, 1), (0.03 / (2 * np.pi), 0.0), None)])
    return PerturbedMap(e1, p)


def test_zero_perturbation_gives_identity(e1, linear_g1):
    h = solve_conjugacy(e1, linear_g1, n=64)
    assert h.displacement.sup_norm == 0.0


def test_solved_conjugacy_matches_phi(h_conj, phi02):
    n = h_conj.displacement.grid_size
    idx = np.arange(n * n)
    grid = np.column_stack([(idx // n) / n, (idx % n) / n])
    expected = phi02.lift(grid)
    assert np.max(np.abs(h_conj.lift(grid) - expected)) < 1e-6


def test_conjugacy_residual(h_conj):
    assert h_conj.residual_on_grid(64) < 1e-9


def test_finer_grid_smaller_residual(e1, conj_g1):
    coarse = solve_conjugacy(e1, conj_g1, n=64).residual_on_grid(32)
    fine = solve_conjugacy(e1, conj_g1, n=512).residual_on_grid(32)
    assert fine <= coarse


def test_uniqueness_from_different_seeds(e1, conj_g1):
    n = 128
    h0 = solve_conjugacy(e1, conj_g1, n=n)
    rng = np.random.default_rng(42)
    u0 = 0.01 * rng.standard_normal((n * n, 2))
    h1 = solve_conjugacy(e1, conj_g1, n=n, u0=u0)
    assert np.max(np.abs(h0.displacement.values - h1.displacement.values)) < 1e-8


def test_secant_jacobian_identity_for_linear(e1, linear_g1):
    h = solve_conjugacy(e1, linear_g1, n=64)
    jac = h.secant_jacobian(np.array([0.3, 0.4]))
    assert np.allclose(jac, np.eye(2), atol=1e-10)


def test_periodic_counts_linear(e1, linear_g1):
    orbits1, fail1 = find_periodic_points(linear_g1, e1, 1)
    assert not fail1
    assert sum(len(o.points) for o in orbits1) == 1  # |det(A - I)| = 1
    orbits2, fail2 = find_periodic_points(linear_g1, e1, 2)
    assert not fail2
    assert sum(len(o.points) for o in orbits2) == 5  # |det(A^2 - I)| = 5


def test_periodic_counts_perturbed(e1, perturbed_g1):
    orbits, failures = find_periodic_points(perturbed_g1, e1, 2)
    assert not failures
    assert sum(len(o.points) for o in orbits) == 5


def test_multipliers_linear(e1, linear_g1):
    orbits, _ = find_periodic_points(linear_g1, e1, 2)
    for orb in orbits:
        assert abs(orb.mult_u) == pytest.approx(e1.lambda_u ** 2, rel=1e-10)
        assert orb.mult_u * orb.mult_s == pytest.approx(1.0, abs=1e-8)


def test_mismatch_zero_for_conjugated(e1, conj_g1):
    report = compare_smooth_invariants(conj_g1, e1, 2)
    assert not report.failures
    assert report.max_mismatch < 1e-10


def test_mismatch_positive_for_raw_perturbation(e1, perturbed_g1):
    report = compare_smooth_invariants(perturbed_g1, e1, 2)
    assert report.max_mismatch > 1e-4


def test_holder_exponent_near_one_for_smooth(e1, h_conj):
    exponent, stderr = estimate_holder_exponent(
        h_conj, e1.vu, scales=np.geomspace(1e-4, 1e-2, 7))
    assert exponent == pytest.approx(1.0, abs=1e-3)
    assert stderr < 1e-3


# --- scalar references for the batched periodic-orbit finder ---------------
#
# The per-candidate Fraction enumeration, the one-seed Newton loop and the
# list-scan orbit grouping that the batched finder replaced.  On maps that
# evaluate each row of a batch independently of the others, the batched
# finder must reproduce them bit for bit.

@functools.lru_cache(maxsize=None)
def _ref_lattice_seeds(m_n: IntMatrix2):
    p = m_n.a - 1, m_n.b, m_n.c, m_n.d - 1
    det = p[0] * p[3] - p[1] * p[2]
    corners = [(0, 0), (p[0], p[2]), (p[1], p[3]), (p[0] + p[1], p[2] + p[3])]
    k1_lo = min(c[0] for c in corners) - 1
    k1_hi = max(c[0] for c in corners) + 1
    k2_lo = min(c[1] for c in corners) - 1
    k2_hi = max(c[1] for c in corners) + 1
    seeds = []
    for k1 in range(k1_lo, k1_hi + 1):
        for k2 in range(k2_lo, k2_hi + 1):
            x1 = Fraction(p[3] * k1 - p[1] * k2, det)
            x2 = Fraction(-p[2] * k1 + p[0] * k2, det)
            if 0 <= x1 < 1 and 0 <= x2 < 1:
                seeds.append(((float(x1), float(x2)), (k1, k2)))
    assert len(seeds) == abs(det)
    return seeds


def _ref_group_orbits(g, points, n, tol=1e-8):
    remaining = [np.asarray(p) for p in points]
    orbits = []
    while remaining:
        x = remaining.pop(0)
        orbit = [x]
        y = x
        while True:
            y = wrap_point(np.atleast_2d(g.apply(y))[0])
            d = [np.max(np.minimum(np.abs(y - r) % 1.0, 1.0 - np.abs(y - r) % 1.0))
                 for r in remaining]
            hit = [i for i, di in enumerate(d) if di < tol]
            if hit:
                orbit.append(remaining.pop(hit[0]))
                y = orbit[-1]
            else:
                break
        _, jac = _iterated_lift(g, orbit[0], n)
        eigs = np.linalg.eigvals(jac[0])
        eigs = sorted(np.real_if_close(eigs), key=abs, reverse=True)
        orbits.append(PeriodicOrbitData(
            period=n,
            points=np.array(orbit),
            multipliers=(complex(eigs[0]).real, complex(eigs[1]).real),
        ))
    return orbits


def _ref_find_periodic_points(g, a_elem, n, newton_tol=1e-12, max_newton=50):
    seeds = _ref_lattice_seeds(power(a_elem.matrix, n))
    points = []
    failures = []
    for seed, k in seeds:
        x = np.array(seed)
        kv = np.array(k, dtype=float)
        converged = False
        for _ in range(max_newton):
            fx, jac = _iterated_lift(g, x, n)
            res = fx[0] - x - kv
            if np.max(np.abs(res)) < newton_tol:
                converged = True
                break
            j = jac[0] - np.eye(2)
            x = x - np.linalg.solve(j, res)
        if converged:
            points.append(wrap_point(x))
        else:
            failures.append(NewtonFailed(f"seed {seed} for k={k}, period {n}"))
    return _ref_group_orbits(g, points, n), failures


@pytest.fixture(scope="module")
def two_mode_g1(e1):
    # both components of each wavevector nonzero: evaluated through gemm
    p = FourierPerturbation.from_sin_cos([
        ((1, 1), (0.002, 0.001), None),
        ((2, -1), (0.0, 0.0015), (0.001, 0.0)),
    ])
    return PerturbedMap(e1, p)


@pytest.mark.parametrize("rows, max_n", [
    (((2, 1), (1, 1)), 7),
    (((1, 1), (1, 2)), 6),
    (((3, 1), (2, 1)), 4),
    (((-2, -1), (-1, -1)), 6),  # det(A^n - I) > 0 at odd n
])
def test_lattice_seeds_match_fraction_reference(rows, max_n):
    m = IntMatrix2.from_rows(rows)
    for n in range(1, max_n + 1):
        m_n = power(m, n)
        seeds = _lattice_seeds(m_n, n)
        assert seeds == _ref_lattice_seeds(m_n)
        # no negative zero from a negative determinant
        assert all(np.copysign(1.0, c) > 0 for (x, _) in seeds for c in x)


# the reference groups orbits in quadratic time (5 s at n = 7), so the
# zero perturbation stops at n = 6 and the benchmark's map runs to n = 7
@pytest.mark.parametrize("handle, n", [("linear_g1", n) for n in range(1, 7)]
                         + [("perturbed_g1", n) for n in range(1, 8)])
def test_batched_finder_matches_scalar_reference(request, e1, handle, n):
    g = request.getfixturevalue(handle)
    orbits, failures = find_periodic_points(g, e1, n)
    ref_orbits, ref_failures = _ref_find_periodic_points(g, e1, n)
    assert [str(f) for f in failures] == [str(f) for f in ref_failures] == []
    assert len(orbits) == len(ref_orbits)
    for orb, ref in zip(orbits, ref_orbits):
        assert orb.period == ref.period == n
        assert np.array_equal(orb.points, ref.points)
        assert orb.multipliers == ref.multipliers


def _wrapped_sup(a, b):
    d = np.abs(a - b) % 1.0
    return float(np.max(np.minimum(d, 1.0 - d)))


@pytest.mark.parametrize("handle, max_n", [("conj_g1", 5), ("two_mode_g1", 5)])
def test_batched_finder_close_on_batch_dependent_maps(request, e1, handle, max_n):
    # phi^-1 stops on the batch-wide residual, and two-component
    # wavevectors go through gemm: the last bits may move, nothing else
    g = request.getfixturevalue(handle)
    for n in range(1, max_n + 1):
        orbits, failures = find_periodic_points(g, e1, n)
        ref_orbits, ref_failures = _ref_find_periodic_points(g, e1, n)
        assert not failures and not ref_failures
        assert [(o.period, len(o.points)) for o in orbits] == \
            [(o.period, len(o.points)) for o in ref_orbits]
        for orb, ref in zip(orbits, ref_orbits):
            assert _wrapped_sup(orb.points, ref.points) < 1e-12
            assert orb.multipliers == pytest.approx(ref.multipliers, rel=1e-9, abs=0)


def test_newton_cap_fails_seeds_in_order(e1, perturbed_g1):
    orbits, failures = find_periodic_points(perturbed_g1, e1, 2, max_newton=1)
    ref_orbits, ref_failures = _ref_find_periodic_points(perturbed_g1, e1, 2, max_newton=1)
    # only the exact fixed point 0 needs no Newton step
    assert len(orbits) == len(ref_orbits) == 1
    assert np.array_equal(orbits[0].points, np.zeros((1, 2)))
    assert len(failures) == 4
    assert all(isinstance(f, NewtonFailed) for f in failures)
    assert [str(f) for f in failures] == [str(f) for f in ref_failures]

    orbits, failures = find_periodic_points(perturbed_g1, e1, 2, max_newton=0)
    _, ref_failures = _ref_find_periodic_points(perturbed_g1, e1, 2, max_newton=0)
    assert orbits == []
    assert [str(f) for f in failures] == [str(f) for f in ref_failures]
    assert len(failures) == 5


@pytest.mark.parametrize("n", [0, 9])
def test_period_out_of_range_is_typed(e1, linear_g1, n):
    with pytest.raises(AnosovLabError) as info:
        find_periodic_points(linear_g1, e1, n)
    assert isinstance(info.value, PeriodOutOfRange)


def test_teichmuller_records_period_failure(e1, perturbed_g1):
    verdict = teichmuller_experiment(e1, perturbed_g1, grid_n=64, max_period=9)
    assert verdict.verdict == "inconclusive"
    assert any(err.startswith("compare_smooth_invariants: PeriodOutOfRange")
               for err in verdict.errors)
