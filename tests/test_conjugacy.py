import functools
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings

from anosov_lab import conjugacy
from anosov_lab.config import load_config
from anosov_lab.conjugacy import (
    COARSE_N,
    Conjugacy,
    MAX_ITERATIONS,
    PeriodicOrbitData,
    _index_permutation,
    _OrbitLayout,
    _lattice_seeds,
    _orbit_order,
    _shift,
    coarse_start,
    compare_smooth_invariants,
    estimate_holder_exponent,
    find_periodic_points,
    solve_conjugacy,
)
from anosov_lab.errors import AnosovLabError, PeriodOutOfRange, SolverDiverged
from anosov_lab.fourier import FourierPerturbation
from anosov_lab.lattice import (ROW_BLOCK, IntMatrix2, eigen_data, grid_points, invert, power,
                                wrap_point)
from anosov_lab.maps import ConjugatedMap, Diffeo, PerturbedMap
from anosov_lab.rigidity import SOLVE, RunContext, run_stages, teichmuller_experiment

from strategies import BOUNDS, TWO_MODES, two_mode_diffeo


@pytest.fixture(scope="module")
def h_conj(e1, conj_g1):
    return solve_conjugacy(conj_g1, n=256)


def test_zero_perturbation_gives_identity(linear_g1):
    h = solve_conjugacy(linear_g1, n=64)
    assert h.sup_norm == 0.0


@pytest.mark.parametrize("values", [
    np.zeros((16, 2)),
    np.full((16, 2), -0.0),
    np.array([[0.0, -0.0], [-0.0, 0.0]]),
    np.array([[0.25, -0.5], [0.125, 0.5]]),       # ties between max u and -min u
    np.array([[0.25, -0.75], [0.125, 0.5]]),
    np.array([[1e-300, -3.0], [2.5, -0.0]]),
    np.array([[np.inf, -1.0], [0.0, 2.0]]),
    np.array([[1.0, -np.inf], [0.0, 2.0]]),
    np.array([[0.1, np.nan], [-0.3, 0.2]]),
    np.array([[np.nan, -np.inf], [np.inf, 0.2]]),
    np.random.default_rng(5).normal(size=(4096, 2)),
], ids=["zeros", "negative-zeros", "signed-zeros", "tie", "mixed", "tiny", "inf", "minus-inf",
        "nan", "nan-and-infs", "normal"])
def test_sup_norm_has_the_bits_of_the_max_abs(values):
    got = Conjugacy(8, values, 0.0).sup_norm
    want = float(np.max(np.abs(values)))
    assert type(got) is float
    assert np.array_equal(np.array([got]), np.array([want]), equal_nan=True)
    assert np.signbit(got) == np.signbit(want)


def test_solved_conjugacy_matches_phi(h_conj, phi02):
    n = h_conj.grid_size
    idx = np.arange(n * n)
    grid = np.column_stack([(idx // n) / n, (idx % n) / n])
    expected = phi02.lift(grid)
    assert np.max(np.abs(h_conj.lift(grid) - expected)) < 1e-6


def test_conjugacy_residual(h_conj, conj_g1):
    # the solve's own residual over every node, and the bicubic's off the
    # nodes: measured 5.0e-10 at N = 256
    assert h_conj.residual < 1e-9
    assert _ref_residual_on_grid(h_conj, conj_g1, 96) < 1e-9


def test_finer_grid_smaller_residual(conj_g1):
    coarse = _ref_residual_on_grid(solve_conjugacy(conj_g1, n=64), conj_g1, 32)
    fine = _ref_residual_on_grid(solve_conjugacy(conj_g1, n=512), conj_g1, 32)
    assert fine <= coarse


def test_uniqueness_from_different_seeds(conj_g1):
    n = 128
    h0 = solve_conjugacy(conj_g1, n=n)
    rng = np.random.default_rng(42)
    u0 = 0.01 * rng.standard_normal((n * n, 2))
    h1 = solve_conjugacy(conj_g1, n=n, u0=u0)
    assert np.max(np.abs(h0.values - h1.values)) < 1e-8


def _ref_solve(g, n):
    """A Jacobi-sweep solve, one sweep per evaluation of p, with
    fancy-index gathers (a converging solve only): the displacement values
    and the residual."""
    a_elem = g.element
    m = a_elem.matrix
    a = m.as_array()
    pts = grid_points(n)
    fwd = _index_permutation(m, n)
    bwd = _index_permutation(invert(m), n)
    w_s, w_u = a_elem.ws, a_elem.wu
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


def _ref_residual_on_grid(h, g, n):
    """The residual of h, solved for the map g, on the n x n grid."""
    pts = grid_points(n)
    a = g.element.matrix.as_array()
    hx = pts + h.displacement(pts)
    lhs = pts @ a.T + h.displacement(pts @ a.T)
    d = np.abs(lhs - (hx @ a.T + g.displacement(hx)))
    return float(np.minimum(d % 1.0, 1.0 - d % 1.0).max())


@pytest.mark.parametrize("handle, n", [("conj_g1", 256), ("perturbed_g1", 512)])
def test_solve_matches_fancy_index_reference(request, handle, n):
    # both stop below the 1e-9 residual from different iterates, so u
    # agrees to about that residual, not bit for bit
    g = request.getfixturevalue(handle)
    h = solve_conjugacy(g, n=n)
    u, res = _ref_solve(g, n)
    assert h.residual < 1e-9 and res < 1e-9
    assert np.max(np.abs(h.values - u)) <= 2e-9


def _ref_shift(layout, f, s, out):
    """f o A^s into out, both whole arrays in orbit order (out C-contiguous):
    two slice copies per block of the layout."""
    for start, stop, length in layout.blocks:
        k = s % length
        src = f[start:stop].reshape(-1, length, *f.shape[1:])
        dst = out[start:stop].reshape(src.shape)
        dst[:, :length - k] = src[:, k:]
        dst[:, length - k:] = src[:, :k]
    return out


def _ref_geometric_sum(layout, f, c, s, tmp):
    """sum_k c^k f o A^(k s) for |c| < 1, summed in place in the whole
    array f by doubling until |c| is below machine epsilon."""
    while abs(c) >= np.finfo(float).eps:
        _ref_shift(layout, f, s, tmp)
        tmp *= c
        f += tmp
        s, c = 2 * s, c * c
    return f


def _ref_scatter(layout, f):
    """f in orbit order, returned in grid order."""
    out = np.empty_like(f)
    out[layout.order] = f
    return out


@pytest.mark.parametrize("rows", [((2, 1), (1, 1)), ((2, 1), (5, 3)), ((5, 2), (2, 1))])
@pytest.mark.parametrize("n", [50, 64, 100, 256, 1024])
def test_orbit_layout_rows_follow_the_permutation(rows, n):
    m = IntMatrix2(*rows[0], *rows[1])
    fwd = _index_permutation(m, n)
    layout = _OrbitLayout(*_orbit_order(m, n))
    assert np.array_equal(np.sort(layout.order), np.arange(n * n))
    end, lengths = 0, []
    for start, stop, length in layout.blocks:
        assert start == end
        block = layout.order[start:stop].reshape(-1, length)
        # row k, column j holds A^j of the row's first index, and A^length
        # closes the row; a row lifted from the N/2 layout starts at any of
        # its indices, not at its smallest
        assert np.array_equal(fwd[block], np.roll(block, -1, axis=1))
        end, lengths = stop, lengths + [length]
    assert end == n * n
    assert lengths == sorted(set(lengths))
    # each row reduces mod N/2 onto one row of the N/2 layout, repeated t
    # times for t in {1, 2, 3, 4}
    if n % 2 == 0:
        h = n // 2
        half = _OrbitLayout(*_orbit_order(m, h))
        row_of, length_of = np.empty(h * h, dtype=int), np.empty(h * h, dtype=int)
        for start, stop, length in half.blocks:
            # each index of the N/2 grid mapped to its row's first position
            row_of[half.order[start:stop]] = start + np.arange(stop - start) // length * length
            length_of[half.order[start:stop]] = length
        for start, stop, length in layout.blocks:
            i, j = np.divmod(layout.order[start:stop].reshape(-1, length), n)
            reduced = (i % h) * h + j % h
            assert np.array_equal(row_of[reduced], row_of[reduced[:, :1]].repeat(length, axis=1))
            for half_length in set(length_of[reduced[:, 0]].tolist()):
                assert length // half_length in (1, 2, 3, 4) and length % half_length == 0
                rows_here = reduced[length_of[reduced[:, 0]] == half_length]
                assert np.array_equal(rows_here, np.tile(rows_here[:, :half_length],
                                                         length // half_length))
    # the chunks cut the layout into runs of whole rows of at least
    # ROW_BLOCK points, but the last, which is not a single row
    cut = 0
    for lo, hi, segments in layout.chunks:
        assert lo == cut and sum(b - a for a, b, _ in segments) == hi - lo
        assert all((b - a) % length == 0 for a, b, length in segments)
        assert hi - lo >= min(ROW_BLOCK, n * n) or hi == n * n
        cut = hi
    last = layout.chunks[-1][2]
    assert len(last) > 1 or last[0][1] - last[0][0] > last[0][2]
    assert cut == n * n
    # _shift(f, s) over each chunk is f o A^s: f at the grid index s steps
    # along the row
    if n > 256:
        return
    f = np.random.default_rng(n).standard_normal((n * n, 2))
    for s in (1, -1, 5, 64):
        perm = np.arange(n * n)
        for _ in range(abs(s)):
            perm = fwd[perm] if s > 0 else np.argsort(fwd)[perm]
        gathered, out = f[layout.order], np.empty_like(f)
        for lo, hi, segments in layout.chunks:
            _shift(gathered[lo:hi], s, out[lo:hi], segments)
        assert np.array_equal(_ref_scatter(layout, out), f[perm])
        assert np.array_equal(_ref_shift(layout, gathered, s, np.empty_like(f)), out)


def _ref_index_permutation(m, n):
    idx = np.arange(n, dtype=np.int64)
    ii, jj = np.meshgrid(idx, idx, indexing="ij")
    return (((m.a * ii + m.b * jj) % n) * n + (m.c * ii + m.d * jj) % n).ravel()


# large powers of A: a i + b j reaches 10^11 for A^20 at N = 1024
@pytest.mark.parametrize("k", [1, 15, 20])
def test_index_permutation_matches_meshgrid(k):
    m = power(IntMatrix2(2, 1, 1, 1), k)
    for n in (64, 256, 1024):
        fwd = _index_permutation(m, n)
        assert np.array_equal(fwd, _ref_index_permutation(m, n))
        order = _OrbitLayout(*_orbit_order(m, n)).order
        assert np.array_equal(np.bincount(order, minlength=n * n), np.ones(n * n, dtype=int))


def _phi_sup_error(a_elem, phi, n, coarse=False):
    """The residual and sup |h - phi| on the grid of the solve, started
    cold or, with coarse, from ``coarse_start``, which must give a start."""
    g = ConjugatedMap(phi, a_elem)
    u0 = coarse_start(g, n) if coarse else None
    assert (u0 is not None) == coarse
    h = solve_conjugacy(g, n=n, u0=u0)
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


@pytest.mark.parametrize("amp", [0.02, 0.15])
def test_solve_from_coarse_start_gives_phi(e1, amp):
    # the bounds of the cold solve
    phi = Diffeo(FourierPerturbation.from_sin_cos([((0, 1), (amp, 0.0), None)]))
    residual, err = _phi_sup_error(e1, phi, 128, coarse=True)
    assert residual < 1e-9
    assert err < 1e-8


def test_solve_gives_phi_for_negative_trace():
    # signed eigenvalues: both series alternate in sign
    e = eigen_data(IntMatrix2(-2, -1, -1, -1))
    assert e.signed_lambda_s < 0
    phi = Diffeo(FourierPerturbation.from_sin_cos([((1, 1), (0.01, -0.005), (0.0, 0.004))]))
    for coarse in (False, True):
        _, err = _phi_sup_error(e, phi, 128, coarse)
        assert err < 1e-8


@settings(max_examples=10, derandomize=True, deadline=None)
@given(modes=TWO_MODES, bound=BOUNDS)
def test_solve_gives_phi_for_drawn_two_mode_diffeo(modes, bound):
    phi = two_mode_diffeo(modes, bound)
    if phi is None:
        return
    e = eigen_data(IntMatrix2(2, 1, 1, 1))
    for coarse in (False, True):
        _, err = _phi_sup_error(e, phi, 128, coarse)
        assert err < 1e-8


@pytest.mark.parametrize("handle", ["conj_g1", "perturbed_g1", "two_mode_g1"])
def test_reported_residual_is_the_grid_order_residual(request, e1, handle):
    g = request.getfixturevalue(handle)
    n = 128
    h = solve_conjugacy(g, n=n)
    u = h.values
    p = g.displacement(grid_points(n) + u)
    r = u[_index_permutation(e1.matrix, n)] - u @ e1.matrix.as_array().T - p
    assert h.residual == float(np.max(np.abs(r)))


def _ref_solve_conjugacy(g, n, u0=None):
    """solve_conjugacy with whole-grid arrays (a converging solve only):
    the orbit-order grid gathered once, u o A in its own array and the
    residual formed over the whole grid; the displacement values in grid
    order and the residual."""
    a_elem = g.element
    m = a_elem.matrix
    a = m.as_array()
    pts = grid_points(n)
    w_s, w_u = a_elem.ws, a_elem.wu
    v_s, v_u = a_elem.vs, a_elem.vu
    lam_s, lam_u = a_elem.signed_lambda_s, a_elem.signed_lambda_u
    if u0 is None:
        u, u_a = np.zeros((n * n, 2)), 0.0
    else:
        u = np.array(u0, dtype=float).reshape(n * n, 2)
        u_a = np.take(u, _index_permutation(m, n), axis=0)
    layout = None
    for _ in range(MAX_ITERATIONS):
        p = g.displacement(pts + u)
        if layout is not None:
            u_a = _ref_shift(layout, u, 1, u_a)
        r = u @ a.T
        np.subtract(u_a, r, out=r)
        r -= p
        res = float(np.max(np.abs(r, out=r)))
        if res < 1e-9:
            return (u if layout is None else _ref_scatter(layout, u)), res
        if layout is None:
            layout = _OrbitLayout(*_orbit_order(m, n))
            pts, p = pts[layout.order], p[layout.order]
            u, u_a = np.empty_like(p), np.empty_like(p)
            xi, eta, tmp = np.empty(n * n), np.empty(n * n), np.empty(n * n)
        _ref_shift(layout, np.dot(p, w_s, out=tmp), -1, xi)
        _ref_geometric_sum(layout, xi, lam_s, -1, tmp)
        np.dot(p, w_u, out=eta)
        eta /= -lam_u
        _ref_geometric_sum(layout, eta, 1.0 / lam_u, 1, tmp)
        for j in range(2):
            np.multiply(xi, v_s[j], out=tmp)
            np.add(tmp, eta * v_u[j], out=u[:, j])
    raise AssertionError("reference solve did not converge")


@pytest.fixture(scope="module")
def negative_trace():
    e = eigen_data(IntMatrix2(-2, -1, -1, -1))
    phi = Diffeo(FourierPerturbation.from_sin_cos([((1, 1), (0.01, -0.005), (0.0, 0.004))]))
    return ConjugatedMap(phi, e)


@pytest.mark.parametrize("n", [64, 100, 256])
@pytest.mark.parametrize("handle, start", [
    ("linear_g1", False), ("conj_g1", False), ("perturbed_g1", False),
    ("two_mode_g1", False), ("negative_trace", False),
    ("conj_g1", True), ("perturbed_g1", True),
])
def test_solve_matches_whole_grid_reference_bit_for_bit(request, handle, start, n):
    # the solve streams the grid, u o A and the residual through one point
    # buffer and row blocks; every iterate keeps its bits
    g = request.getfixturevalue(handle)
    u0 = (1e-3 * np.random.default_rng(n).standard_normal((n * n, 2))) if start else None
    h = solve_conjugacy(g, n=n, u0=u0)
    values, res = _ref_solve_conjugacy(g, n, u0)
    assert np.array_equal(h.values.view(np.uint64), values.view(np.uint64))
    assert np.float64(h.residual).view(np.uint64) == np.float64(res).view(np.uint64)


def test_solve_accepts_a_fortran_ordered_start(conj_g1):
    # PeriodicBicubic returns a transposed view, so an interpolated h is a
    # Fortran-ordered start; the solve gives the bits of its C-ordered copy
    n = 128
    u0 = solve_conjugacy(conj_g1, n=64).displacement(grid_points(n))
    assert not u0.flags.c_contiguous
    h = solve_conjugacy(conj_g1, n=n, u0=u0)
    h_c = solve_conjugacy(conj_g1, n=n, u0=np.ascontiguousarray(u0))
    assert np.array_equal(h.values.view(np.uint64),
                          h_c.values.view(np.uint64))


def test_solve_peak_memory_per_grid_point(perturbed_g1):
    # xi, eta, one point buffer, into which p is evaluated, and the layout's
    # int32 order come to 36 B per grid point, u being formed a chunk at a
    # time (measured 39 at N = 512 and 37 at N = 1024); an int64 order took
    # 43 and 41, p in a buffer of its own 59 and 57, and a whole-grid u and
    # three series arrays 80
    n = 512
    tracemalloc.start()
    try:
        solve_conjugacy(perturbed_g1, n=n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 42 * n * n


def test_solve_from_the_coarse_start_peak_memory_per_grid_point(conj_g1):
    # the first check passes from the spectral start: the point buffer
    # beside the phi^-1 Newton of its one evaluation of p, 112 B per grid
    # point, with u0 read in place; a copy of u0 and a Newton that kept its
    # spent temporaries took 184
    n = 256
    u0 = coarse_start(conj_g1, n)
    tracemalloc.start()
    try:
        h = solve_conjugacy(conj_g1, n=n, u0=u0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.shares_memory(h.values, u0)
    assert peak <= 120 * n * n


@pytest.mark.parametrize("n", [31, 32, 64, 1024])
def test_grid_layout_is_int32(e1, n):
    # N^2 <= 2^20 for every accepted grid: the walked (odd N, N <= 32) and
    # the lifted layouts, and the permutation both are built from
    assert _index_permutation(e1.matrix, n).dtype == np.int32
    assert _OrbitLayout(*_orbit_order(e1.matrix, n)).order.dtype == np.int32


def test_perturbed_solve_evaluates_p_at_most_six_times(perturbed_g1, monkeypatch):
    calls = []
    displacement = PerturbedMap.displacement
    # on the class, so that the shared fixture handle keeps no attribute of its own
    monkeypatch.setattr(PerturbedMap, "displacement",
                        lambda self, x, out=None: calls.append(len(x))
                        or displacement(self, x, out=out))
    solve_conjugacy(perturbed_g1, n=256)
    monkeypatch.undo()
    assert "displacement" not in vars(perturbed_g1)
    assert 1 < len(calls) <= 6


def _stage_h(g, n):
    """h of the solve_conjugacy stage on g at grid_n n; the stage records
    no error."""
    ctx = RunContext(replace(load_config(), generators=[g.element], grid_n=n), [g])
    run_stages(ctx, [SOLVE])
    assert ctx.errors == []
    return ctx.made["h"]


def _same_bits(h, h_ref):
    return (np.array_equal(h.values.view(np.uint64),
                           h_ref.values.view(np.uint64))
            and np.float64(h.residual).view(np.uint64) == np.float64(h_ref.residual).view(np.uint64))


def test_coarse_start_declined_for_holder_h(perturbed_g1):
    # the band max(|k1|, |k2|) >= 16 of the coarse u reads about 1e-6 here
    n = 256
    assert coarse_start(perturbed_g1, n) is None
    assert _same_bits(_stage_h(perturbed_g1, n), solve_conjugacy(perturbed_g1, n=n))


def test_coarse_start_declined_for_linear_action_before_fft(linear_g1, monkeypatch):
    calls = []
    for name in ("rfft2", "irfft2"):
        fft = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name,
                            lambda *a, name=name, fft=fft, **k: calls.append(name) or fft(*a, **k))
    assert coarse_start(linear_g1, 256) is None
    assert calls == []


def test_coarse_start_declined_on_the_coarse_grid(conj_g1):
    assert coarse_start(conj_g1, COARSE_N) is None


def test_coarse_divergence_falls_back_to_the_cold_solve(conj_g1, monkeypatch):
    solve = conjugacy.solve_conjugacy

    def diverging_on_the_coarse_grid(g, n=256, u0=None):
        if n == COARSE_N:
            raise SolverDiverged("coarse")
        return solve(g, n=n, u0=u0)

    monkeypatch.setattr(conjugacy, "solve_conjugacy", diverging_on_the_coarse_grid)
    n = 128
    assert _same_bits(_stage_h(conj_g1, n), solve(conj_g1, n=n))


def _stage_evaluations_of_p(g, n):
    """How many times the solve_conjugacy stage at grid_n n evaluates p on
    the N*N grid; g, a handle of the calling test's own, keeps its
    displacement wrapped by the counter."""
    calls = []
    displacement = g.displacement
    g.displacement = lambda x, out=None: calls.append(len(x)) or displacement(x, out=out)
    _stage_h(g, n)
    return calls.count(n * n)


@pytest.mark.parametrize("amp", [0.02, 0.15])
def test_stage_fine_solve_evaluates_p_once(e1, amp):
    # from the spectral start the fine solve stops at its first check; from
    # the bicubic interpolant it evaluated p 2 and 21 times, cold 9 and 80
    phi = Diffeo(FourierPerturbation.from_sin_cos([((0, 1), (amp, 0.0), None)]))
    assert _stage_evaluations_of_p(ConjugatedMap(phi, e1), 256) == 1


@settings(max_examples=1, derandomize=True, deadline=None)
@given(modes=TWO_MODES, bound=BOUNDS)
def test_stage_fine_solve_evaluates_p_once_for_drawn_two_mode_diffeo(modes, bound):
    phi = two_mode_diffeo(modes, bound)
    assume(phi is not None)
    e = eigen_data(IntMatrix2(2, 1, 1, 1))
    assert _stage_evaluations_of_p(ConjugatedMap(phi, e), 256) == 1


@pytest.mark.parametrize("n", [128, 256])
def test_coarse_start_is_exact_on_a_trigonometric_polynomial(conj_g1, n, monkeypatch):
    # every mode has max(|k1|, |k2|) < SMOOTH_BAND, so zero-padding the
    # coarse spectrum reproduces the polynomial at the N grid points
    q = FourierPerturbation.from_sin_cos([
        ((0, 1), (0.02, 0.0), None),
        ((15, -7), (0.01, -0.003), (0.004, 0.002)),
        ((-3, 15), None, (0.0, 0.015)),
        ((11, 11), (0.005, 0.005), (-0.002, 0.001)),
    ])
    values = q.evaluate(grid_points(COARSE_N))
    monkeypatch.setattr(conjugacy, "solve_conjugacy",
                        lambda g, n: conjugacy.Conjugacy(COARSE_N, values, 0.0))
    u0 = coarse_start(conj_g1, n)
    assert np.max(np.abs(u0 - q.evaluate(grid_points(n)))) < 1e-14


def test_coarse_start_is_a_c_ordered_grid_without_a_bicubic_build(conj_g1, monkeypatch):
    calls = []
    bicubic = conjugacy.PeriodicBicubic
    monkeypatch.setattr(conjugacy, "PeriodicBicubic", lambda *a: calls.append(1) or bicubic(*a))
    n = 256
    u0 = coarse_start(conj_g1, n)
    assert calls == []
    assert u0.shape == (n * n, 2)
    assert u0.dtype == np.float64
    assert u0.flags.c_contiguous


def test_linear_h_is_the_identity_without_a_bicubic_build(linear_g1, monkeypatch):
    calls = []
    bicubic = conjugacy.PeriodicBicubic
    monkeypatch.setattr(conjugacy, "PeriodicBicubic", lambda *a: calls.append(1) or bicubic(*a))
    n = 256
    h = solve_conjugacy(linear_g1, n=n)
    x = np.random.default_rng(5).random((500, 2)) * 4 - 2
    assert np.array_equal(h.lift(x).view(np.uint64), x.view(np.uint64))
    assert calls == []
    # the bicubic of the zero grid gives the same bits
    u = bicubic(h.values.reshape(n, n, 2))(x)
    assert np.array_equal(u.view(np.uint64), h.displacement(x).view(np.uint64))


def test_secant_jacobian_identity_for_linear(linear_g1):
    h = solve_conjugacy(linear_g1, n=64)
    jac = h.secant_jacobian(np.array([[0.3, 0.4]]))
    assert np.allclose(jac, np.eye(2), atol=1e-10)


def test_periodic_counts_linear(e1, linear_g1):
    # the default g1, and a negative trace, whose det(A^n - I) > 0 at odd n
    e = eigen_data(IntMatrix2(-2, -1, -1, -1))
    for elem, g, counts in (
            (e1, linear_g1, [(1, 1), (3, 5)]),
            (e, ConjugatedMap(Diffeo(FourierPerturbation.zero()), e),
             [(5, 5), (5, 5), (10, 20), (15, 45), (29, 125)])):
        # (orbits, points) at n = 1, 2, ..., the points |det(A^n - I)|
        for n, count in enumerate(counts, 1):
            orbits = find_periodic_points(g, n)
            assert (len(orbits), sum(len(o.points) for o in orbits)) == count


def test_periodic_counts_perturbed(perturbed_g1):
    orbits = find_periodic_points(perturbed_g1, 2)
    assert sum(len(o.points) for o in orbits) == 5


def test_multipliers_linear(e1, linear_g1):
    orbits = find_periodic_points(linear_g1, 2)
    for orb in orbits:
        assert abs(orb.multipliers[0]) == pytest.approx(e1.lambda_u ** 2, rel=1e-10)
        assert orb.multipliers[0] * orb.multipliers[1] == pytest.approx(1.0, abs=1e-8)


def test_mismatch_zero_for_conjugated(conj_g1):
    report = compare_smooth_invariants(conj_g1, 2)
    assert report.max_mismatch < 1e-10


def test_mismatch_positive_for_raw_perturbation(perturbed_g1):
    report = compare_smooth_invariants(perturbed_g1, 2)
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
    return {"linear": solve_conjugacy(linear_g1, n=256), "conjugated": h_conj,
            "perturbed": solve_conjugacy(perturbed_g1, n=1024)}


@pytest.mark.parametrize("kind", ["linear", "conjugated", "perturbed"])
@pytest.mark.parametrize("seed", [0, 1, 5])
def test_holder_exponent_matches_per_point_reference(holder_conjugacies, e1, kind, seed):
    h = holder_conjugacies[kind]
    scales = np.geomspace(1e-4, 1e-2, 7)
    assert estimate_holder_exponent(h, e1.vu, scales, seed=seed) == \
        _ref_holder_exponent(h, e1.vu, scales, seed=seed)


# --- scalar references for the periodic-orbit solve ----------------------
#
# The per-candidate Fraction enumeration, the one-seed Newton loop on
# g^n(x) = x + k and the list-scan orbit grouping that the cycle solve
# replaced.  Where every seed's Newton converges, the solve must find the
# same orbits, in the same order, to within 1e-12.

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
            y = wrap_point(g.lift(y[None])[0])
            d = [np.max(np.minimum(np.abs(y - r) % 1.0, 1.0 - np.abs(y - r) % 1.0))
                 for r in remaining]
            hit = [i for i, di in enumerate(d) if di < tol]
            if hit:
                orbit.append(remaining.pop(hit[0]))
                y = orbit[-1]
            else:
                break
        _, jac = g.orbit(orbit[0][None], n)
        eigs = np.linalg.eigvals(jac[0])
        eigs = sorted(np.real_if_close(eigs), key=abs, reverse=True)
        orbits.append(PeriodicOrbitData(
            period=n,
            points=np.array(orbit),
            multipliers=(complex(eigs[0]).real, complex(eigs[1]).real),
        ))
    return orbits


def _ref_find_periodic_points(g, n, newton_tol=1e-12, max_newton=50):
    points = []
    for seed, k in _ref_lattice_seeds(power(g.element.matrix, n)):
        x = np.array(seed)
        kv = np.array(k, dtype=float)
        for _ in range(max_newton):
            fx, jac = g.orbit(x[None], n)
            res = fx[0] - x - kv
            if np.max(np.abs(res)) < newton_tol:
                break
            j = jac[0] - np.eye(2)
            x = x - np.linalg.solve(j, res)
        else:
            raise AssertionError(f"reference Newton diverged from seed {seed}, period {n}")
        points.append(wrap_point(x))
    return _ref_group_orbits(g, points, n)


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
    (((4, 1), (3, 1)), 3),  # trace 5
    (((-3, -1), (-2, -1)), 4),  # trace -4, det(A^n - I) > 0 at odd n
])
def test_lattice_seeds_match_fraction_reference(rows, max_n):
    m = IntMatrix2(*rows[0], *rows[1])
    for n in range(1, max_n + 1):
        m_n = power(m, n)
        nums, ks = _lattice_seeds(m_n, n)
        seeds = [(tuple(x), tuple(k)) for x, k in zip((nums / len(nums)).tolist(), ks.tolist())]
        assert seeds == _ref_lattice_seeds(m_n)
        # no negative zero from a negative determinant
        assert all(np.copysign(1.0, c) > 0 for (x, _) in seeds for c in x)


@pytest.mark.parametrize("n", range(1, conjugacy.MAX_PERIOD + 1))
def test_lattice_seeds_solve_the_lattice_equation(e1, n):
    # the Fraction reference is too slow at n = 8, q = 2,205
    m_n = power(e1.matrix, n)
    nums, ks = _lattice_seeds(m_n, n)
    p = np.array([[m_n.a - 1, m_n.b], [m_n.c, m_n.d - 1]])
    q = abs((m_n.a - 1) * (m_n.d - 1) - m_n.b * m_n.c)
    assert nums.shape == ks.shape == (q, 2)
    assert nums.dtype.kind == ks.dtype.kind == "i"
    assert len(set(map(tuple, nums.tolist()))) == q
    assert nums.min() >= 0 and nums.max() < q
    assert np.array_equal(nums @ p.T, q * ks)
    assert sorted(map(tuple, ks.tolist())) == list(map(tuple, ks.tolist()))


def _wrapped_sup(a, b):
    d = np.abs(a - b) % 1.0
    return float(np.max(np.minimum(d, 1.0 - d)))


def _assert_orbits_close(orbits, ref_orbits, n):
    """The same orbits in the same order: points within 1e-12 mod 1 and
    mult_u within 1e-12 relative."""
    assert [(o.period, len(o.points)) for o in orbits] == \
        [(n, len(o.points)) for o in ref_orbits]
    for orb, ref in zip(orbits, ref_orbits):
        assert _wrapped_sup(orb.points, ref.points) < 1e-12
        assert orb.multipliers[0] == pytest.approx(ref.multipliers[0], rel=1e-12, abs=0)


# the reference groups orbits in quadratic time (5 s at n = 7), so the
# zero perturbation stops at n = 6 and the benchmark's map runs to n = 7
@pytest.mark.parametrize("handle, n", [("linear_g1", n) for n in range(1, 7)]
                         + [("perturbed_g1", n) for n in range(1, 8)])
def test_batched_finder_matches_scalar_reference(request, handle, n):
    g = request.getfixturevalue(handle)
    _assert_orbits_close(find_periodic_points(g, n), _ref_find_periodic_points(g, n), n)


@pytest.mark.parametrize("handle, max_n", [("conj_g1", 5), ("two_mode_g1", 5)])
def test_batched_finder_close_on_batch_dependent_maps(request, handle, max_n):
    # phi^-1 stops on the batch-wide residual, and two-component
    # wavevectors go through gemm: the last bits may move, nothing else
    g = request.getfixturevalue(handle)
    for n in range(1, max_n + 1):
        orbits = find_periodic_points(g, n)
        ref_orbits = _ref_find_periodic_points(g, n)
        _assert_orbits_close(orbits, ref_orbits, n)
        for orb, ref in zip(orbits, ref_orbits):
            assert orb.multipliers == pytest.approx(ref.multipliers, rel=1e-9, abs=0)


def _assert_orbits_are_phi_of_seed_cycles(phi, e, max_n):
    """For g = phi A phi^-1, h = phi: each orbit of period dividing n is
    phi of one cycle of A on the seeds num / q of Fix(A^n), walked from its
    smallest seed, the cycles in seed order, its points within 1e-12 and
    its mult_u lambda_u^n within 1e-12 relative."""
    g = ConjugatedMap(phi, e)
    a = e.matrix
    for n in range(1, max_n + 1):
        nums, _ = _lattice_seeds(power(a, n), n)
        q = len(nums)
        index = {num: i for i, num in enumerate(map(tuple, nums.tolist()))}
        seen, cycles = set(), []
        for head in range(q):
            cycle = []
            while head not in seen:
                seen.add(head)
                cycle.append(head)
                x, y = nums[head].tolist()
                head = index[((a.a * x + a.b * y) % q, (a.c * x + a.d * y) % q)]
            if cycle:
                cycles.append(cycle)
        orbits = find_periodic_points(g, n)
        assert [len(o.points) for o in orbits] == [len(c) for c in cycles]
        for orb, cycle in zip(orbits, cycles):
            assert orb.period == n
            assert _wrapped_sup(orb.points, phi.lift(nums[cycle] / q)) < 1e-12
            assert orb.multipliers[0] == pytest.approx(e.signed_lambda_u ** n, rel=1e-12, abs=0)


@pytest.mark.parametrize("amp", [0.02, 0.15])
def test_periodic_orbits_are_phi_of_the_seed_cycles(e1, amp):
    # at 0.15 Newton from the linear seeds diverged at 1,258 of the 2,095
    # seeds of periods 1 to 7; the cycle solve reaches every one
    phi = Diffeo(FourierPerturbation.from_sin_cos([((0, 1), (amp, 0.0), None)]))
    _assert_orbits_are_phi_of_seed_cycles(phi, e1, 7)


@settings(max_examples=2, derandomize=True, deadline=None)
@given(modes=TWO_MODES, bound=BOUNDS)
def test_periodic_orbits_are_phi_of_the_seed_cycles_for_drawn_two_mode_diffeo(modes, bound):
    phi = two_mode_diffeo(modes, bound)
    assume(phi is not None)
    _assert_orbits_are_phi_of_seed_cycles(phi, eigen_data(IntMatrix2(2, 1, 1, 1)), 7)


@pytest.mark.parametrize("n", [0, 9])
def test_period_out_of_range_is_typed(linear_g1, n):
    with pytest.raises(AnosovLabError) as info:
        find_periodic_points(linear_g1, n)
    assert isinstance(info.value, PeriodOutOfRange)


def test_teichmuller_records_period_failure(perturbed_g1):
    verdict = teichmuller_experiment(perturbed_g1, grid_n=64, max_period=9)
    assert verdict.verdict == "inconclusive"
    assert any(err.startswith("compare_smooth_invariants: PeriodOutOfRange")
               for err in verdict.errors)
