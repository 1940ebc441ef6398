import functools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from anosov_lab import conjugacy
from anosov_lab.conjugacy import (
    MAX_ITERATIONS,
    PeriodicOrbitData,
    _index_permutation,
    _group_orbits,
    _OrbitLayout,
    _iterated_lift,
    _lattice_seeds,
    compare_smooth_invariants,
    estimate_holder_exponent,
    find_periodic_points,
    solve_conjugacy,
)
from anosov_lab.errors import AnosovLabError, NewtonFailed, PeriodOutOfRange
from anosov_lab.fourier import FourierPerturbation
from anosov_lab.lattice import IntMatrix2, eigen_data, grid_points, invert, power, wrap_point
from anosov_lab.maps import ConjugatedMap, Diffeo, PerturbedMap
from anosov_lab.rigidity import teichmuller_experiment

from strategies import BOUNDS, TWO_MODES, two_mode_diffeo


@pytest.fixture(scope="module")
def h_conj(e1, conj_g1):
    return solve_conjugacy(e1, conj_g1, n=256)


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


def _ref_solve(a_elem, g, n):
    """A Jacobi-sweep solve, one sweep per evaluation of p, with
    fancy-index gathers (a converging solve only): the displacement values
    and the residual."""
    m = a_elem.matrix
    a = m.as_array()
    pts = grid_points(n)
    fwd = _index_permutation(m, n)
    bwd = _index_permutation(invert(m), n)
    w_s, w_u = a_elem.dual_basis()
    lam_s, lam_u = a_elem.signed_lambda_s, a_elem.signed_lambda_u
    u = np.zeros((n * n, 2))
    for _ in range(MAX_ITERATIONS):
        p = g.displacement(pts + u)
        res = float(np.max(np.abs(u[fwd] - u @ a.T - p)))
        if res < 1e-9:
            return u, res
        xi, eta = u @ w_s, u @ w_u
        p_s, p_u = p @ w_s, p @ w_u
        u = (np.outer(lam_s * xi[bwd] + p_s[bwd], a_elem.vs)
             + np.outer((eta[fwd] - p_u) / lam_u, a_elem.vu))
    raise AssertionError("reference solve did not converge")


def _ref_residual_on_grid(h, n):
    pts = grid_points(n)
    a = h.source.matrix.as_array()
    hx = pts + h.displacement(pts)
    lhs = pts @ a.T + h.displacement(pts @ a.T)
    d = np.abs(lhs - (hx @ a.T + h.target.displacement(hx)))
    return float(np.minimum(d % 1.0, 1.0 - d % 1.0).max())


@pytest.mark.parametrize("handle, n", [("conj_g1", 256), ("perturbed_g1", 512)])
def test_solve_matches_fancy_index_reference(request, e1, handle, n):
    # both stop below the 1e-9 residual from different iterates, so u
    # agrees to about that residual, not bit for bit
    g = request.getfixturevalue(handle)
    h = solve_conjugacy(e1, g, n=n)
    u, res = _ref_solve(e1, g, n)
    assert h.residual < 1e-9 and res < 1e-9
    assert np.max(np.abs(h.displacement.values - u)) <= 2e-9
    assert h.residual_on_grid(96) == _ref_residual_on_grid(h, 96)


@pytest.mark.parametrize("rows", [((2, 1), (1, 1)), ((2, 1), (5, 3)), ((5, 2), (2, 1))])
@pytest.mark.parametrize("n", [64, 100, 256])
def test_orbit_layout_rows_follow_the_permutation(rows, n):
    m = IntMatrix2.from_rows(rows)
    fwd = _index_permutation(m, n)
    layout = _OrbitLayout(m, n)
    assert np.array_equal(np.sort(layout.order), np.arange(n * n))
    end, lengths = 0, []
    for start, stop, length in layout.blocks:
        assert start == end
        block = layout.order[start:stop].reshape(-1, length)
        # row k, column j holds A^j of the row's first index, and A^length
        # closes the row; the first index is the row's smallest
        assert np.array_equal(fwd[block], np.roll(block, -1, axis=1))
        assert np.array_equal(block[:, 0], block.min(axis=1))
        end, lengths = stop, lengths + [length]
    assert end == n * n
    assert lengths == sorted(set(lengths))
    # shift(f, s) is f o A^s: f at the grid index s steps along the row
    f = np.random.default_rng(n).standard_normal((n * n, 2))
    for s in (1, -1, 5, 64):
        perm = np.arange(n * n)
        for _ in range(abs(s)):
            perm = fwd[perm] if s > 0 else np.argsort(fwd)[perm]
        out = layout.shift(layout.gather(f), s, np.empty_like(f))
        assert np.array_equal(layout.scatter(out), f[perm])


def _ref_index_permutation(m, n):
    idx = np.arange(n, dtype=np.int64)
    ii, jj = np.meshgrid(idx, idx, indexing="ij")
    return (((m.a * ii + m.b * jj) % n) * n + (m.c * ii + m.d * jj) % n).ravel()


# large powers of A: a i + b j reaches 10^11 for A^20 at N = 1024
@pytest.mark.parametrize("k", [1, 15, 20])
def test_index_permutation_matches_meshgrid(k):
    m = power(IntMatrix2.from_rows(((2, 1), (1, 1))), k)
    for n in (64, 256, 1024):
        fwd = _index_permutation(m, n)
        assert np.array_equal(fwd, _ref_index_permutation(m, n))
        order = _OrbitLayout(m, n).order
        assert np.array_equal(np.bincount(order, minlength=n * n), np.ones(n * n, dtype=int))


def _phi_sup_error(a_elem, phi, n):
    h = solve_conjugacy(a_elem, ConjugatedMap(phi, a_elem), n=n)
    pts = grid_points(n)
    return h.residual, float(np.max(np.abs(h.lift(pts) - phi.lift(pts))))


@pytest.mark.parametrize("amp", [0.12, 0.15])
def test_solve_gives_phi_for_large_derivative(e1, amp):
    # |Dq| = 2 pi amp = 0.75 and 0.94, near the bound 1 that config accepts;
    # a Jacobi sweep per evaluation of p diverges on both
    phi = Diffeo(FourierPerturbation.from_sin_cos([((0, 1), (amp, 0.0), None)]))
    residual, err = _phi_sup_error(e1, phi, 128)
    assert residual < 1e-9
    assert err < 1e-8


def test_solve_gives_phi_for_negative_trace():
    # signed eigenvalues: both series alternate in sign
    e = eigen_data(IntMatrix2.from_rows(((-2, -1), (-1, -1))))
    assert e.signed_lambda_s < 0
    phi = Diffeo(FourierPerturbation.from_sin_cos([((1, 1), (0.01, -0.005), (0.0, 0.004))]))
    _, err = _phi_sup_error(e, phi, 128)
    assert err < 1e-8


@settings(max_examples=10, derandomize=True, deadline=None)
@given(modes=TWO_MODES, bound=BOUNDS)
def test_solve_gives_phi_for_drawn_two_mode_diffeo(modes, bound):
    phi = two_mode_diffeo(modes, bound)
    if phi is None:
        return
    e = eigen_data(IntMatrix2.from_rows(((2, 1), (1, 1))))
    _, err = _phi_sup_error(e, phi, 128)
    assert err < 1e-8


@pytest.mark.parametrize("handle", ["conj_g1", "perturbed_g1", "two_mode_g1"])
def test_reported_residual_is_the_grid_order_residual(request, e1, handle):
    g = request.getfixturevalue(handle)
    n = 128
    h = solve_conjugacy(e1, g, n=n)
    u = h.displacement.values
    p = g.displacement(grid_points(n) + u)
    r = u[_index_permutation(e1.matrix, n)] - u @ e1.matrix.as_array().T - p
    assert h.residual == float(np.max(np.abs(r)))


def test_perturbed_solve_evaluates_p_at_most_six_times(e1, perturbed_g1, monkeypatch):
    calls = []
    displacement = perturbed_g1.displacement
    monkeypatch.setattr(perturbed_g1, "displacement", lambda x: calls.append(len(x)) or displacement(x))
    solve_conjugacy(e1, perturbed_g1, n=256)
    assert 1 < len(calls) <= 6


def test_secant_jacobian_identity_for_linear(e1, linear_g1):
    h = solve_conjugacy(e1, linear_g1, n=64)
    jac = h.secant_jacobian(np.array([[0.3, 0.4]]))
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


def _ref_holder_exponent(h, direction, scales, seed=0):
    """The per-point loop the batched estimate replaced, each lift of one
    point as the one-row batch it was evaluated as."""
    v = np.asarray(direction, dtype=float)
    v = v / np.linalg.norm(v)
    scales = np.asarray(scales, dtype=float)
    rng = np.random.default_rng(seed)
    base = rng.random((100, 2))
    log_s = np.log(scales)
    slopes = []
    for x in base:
        incs = np.array([np.linalg.norm(h.lift((x + d * v)[None])[0] - h.lift(x[None])[0])
                         for d in scales])
        slope = np.polyfit(log_s, np.log(incs), 1)[0]
        slopes.append(slope)
    slopes = np.array(slopes)
    return float(slopes.mean()), float(slopes.std(ddof=1) / np.sqrt(len(slopes)))


@pytest.fixture(scope="module")
def holder_conjugacies(e1, linear_g1, h_conj, perturbed_g1):
    # the three benchmark actions: linear, phi 0.02, and the perturbed
    # contrast at the grid it runs on
    return {"linear": solve_conjugacy(e1, linear_g1, n=256), "conjugated": h_conj,
            "perturbed": solve_conjugacy(e1, perturbed_g1, n=1024)}


@pytest.mark.parametrize("kind", ["linear", "conjugated", "perturbed"])
@pytest.mark.parametrize("seed", [0, 1, 5])
def test_holder_exponent_matches_per_point_reference(holder_conjugacies, e1, kind, seed):
    h = holder_conjugacies[kind]
    scales = np.geomspace(1e-4, 1e-2, 7)
    assert estimate_holder_exponent(h, e1.vu, scales, seed=seed) == \
        _ref_holder_exponent(h, e1.vu, scales, seed=seed)


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
            y = wrap_point(g.apply(y[None])[0])
            d = [np.max(np.minimum(np.abs(y - r) % 1.0, 1.0 - np.abs(y - r) % 1.0))
                 for r in remaining]
            hit = [i for i, di in enumerate(d) if di < tol]
            if hit:
                orbit.append(remaining.pop(hit[0]))
                y = orbit[-1]
            else:
                break
        _, jac = _iterated_lift(g, orbit[0][None], n)
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
            fx, jac = _iterated_lift(g, x[None], n)
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


def _assert_same_orbits(orbits, ref_orbits):
    assert len(orbits) == len(ref_orbits)
    for orb, ref in zip(orbits, ref_orbits):
        assert orb.period == ref.period
        assert np.array_equal(orb.points, ref.points)
        assert orb.multipliers == ref.multipliers


def _finder_points(monkeypatch, g, e1, n):
    """The converged, wrapped points the finder hands to _group_orbits."""
    seen = []
    monkeypatch.setattr(conjugacy, "_group_orbits",
                        lambda g, points, n: seen.append(points) or _group_orbits(g, points, n))
    find_periodic_points(g, e1, n)
    monkeypatch.undo()
    return seen[0]


@pytest.mark.parametrize("handle", ["perturbed_g1", "two_mode_g1"])
@pytest.mark.parametrize("n", range(1, 6))
def test_group_orbits_matches_scan_reference(request, monkeypatch, e1, handle, n):
    g = request.getfixturevalue(handle)
    points = _finder_points(monkeypatch, g, e1, n)
    shuffled = points[np.random.default_rng(n).permutation(len(points))]
    for pts in (points, shuffled):
        _assert_same_orbits(_group_orbits(g, pts, n), _ref_group_orbits(g, pts, n))


def test_group_orbits_duplicates_and_seam_match_scan_reference(e1, linear_g1, perturbed_g1):
    # the fixed point (0, 0) listed twice and four points within 1e-9 of it
    # across the 0/1 seam, and a period-2 orbit of A with a point listed
    # twice: each chain of near points is walked into one orbit
    points = np.array([[0.0, 0.0], [1.0 - 5e-10, 0.0], [0.2, 0.4], [0.0, 1.0 - 5e-10],
                       [5e-10, 1.0 - 5e-10], [0.8, 0.6], [0.0, 0.0], [0.2, 0.4],
                       [1.0 - 1e-9, 1.0 - 1e-9]])
    for g in (linear_g1, perturbed_g1):
        _assert_same_orbits(_group_orbits(g, points, 2), _ref_group_orbits(g, points, 2))
    assert [len(o.points) for o in _group_orbits(linear_g1, points, 2)] == [6, 3]


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
