import numpy as np
import pytest

from anosov_lab.errors import NotADiffeo
from anosov_lab.foliations import compute_line_field
from anosov_lab.fourier import TWO_PI, FourierPerturbation
from anosov_lab.lattice import (IntMatrix2, _inv2, eigen_data, grid_points, invert, line_angle,
                                wrap_point)
from anosov_lab.maps import (
    NEWTON_MAX_ITERS,
    NEWTON_TOL,
    ConjugatedMap,
    Diffeo,
    InverseMap,
    PerturbedMap,
)

RNG = np.random.default_rng(11)


def _check_equivariance(handle, n=20):
    x = RNG.random((n, 2))
    k = RNG.integers(-2, 3, size=(n, 2)).astype(float)
    a = handle.linear_part.as_array()
    lhs = handle.lift(x + k)
    rhs = handle.lift(x) + k @ a.T
    assert np.allclose(lhs, rhs, atol=1e-9)


def _check_jacobian(handle, n=10, tol=1e-6):
    x = RNG.random((n, 2))
    jac = handle.jacobian(x)
    h = 1e-6
    for axis in range(2):
        dx = np.zeros(2)
        dx[axis] = h
        fd = (handle.lift(x + dx) - handle.lift(x - dx)) / (2 * h)
        assert np.allclose(jac[:, :, axis], fd, atol=tol)


def _check_inverse(handle, n=15, tol=1e-10):
    x = RNG.random((n, 2))
    inv = handle.inverse()
    back = inv.apply(handle.apply(x))
    err = np.abs(back - x)
    err = np.minimum(err, 1.0 - err)
    assert np.max(err) < tol


@pytest.fixture(scope="module")
def perturbed(e1):
    p = FourierPerturbation.from_sin_cos([((0, 1), (0.004, 0.0), None),
                                          ((1, 0), None, (0.0, 0.003))])
    return PerturbedMap(e1, p)


@pytest.fixture(scope="module")
def phi_two_mode():
    return Diffeo(FourierPerturbation.from_sin_cos([((0, 1), (0.02, 0.0), None),
                                                   ((1, 1), (0.0, 0.01), (0.005, 0.0))]))


def test_linear_map_matches_matrix(linear_g1, e1):
    x = RNG.random((8, 2))
    assert np.allclose(linear_g1.lift(x), x @ e1.matrix.as_array().T, atol=1e-14)
    assert np.allclose(linear_g1.displacement(x), 0.0, atol=1e-15)


def test_perturbed_map_contract(perturbed):
    _check_equivariance(perturbed)
    _check_jacobian(perturbed)
    _check_inverse(perturbed)


def test_diffeo_contract(phi02):
    x = RNG.random((10, 2))
    jac = phi02.derivative(x)
    h = 1e-6
    for axis in range(2):
        dx = np.zeros(2)
        dx[axis] = h
        fd = (phi02.lift(x + dx) - phi02.lift(x - dx)) / (2 * h)
        assert np.allclose(jac[:, :, axis], fd, atol=1e-6)
    x = RNG.random((15, 2))
    back = phi02.inverse_lift(phi02.lift(x))
    assert np.allclose(back, x, atol=1e-11)


def test_diffeo_rejects_large_derivative():
    q = FourierPerturbation.from_sin_cos([((0, 1), (0.5, 0.0), None)])  # ||Dq|| ~ pi
    with pytest.raises(NotADiffeo):
        Diffeo(q)


def test_conjugated_map_contract(conj_g1, phi02, e2):
    _check_equivariance(conj_g1)
    _check_jacobian(conj_g1)
    _check_inverse(conj_g1)
    # the second generator of the conjugated action
    conj_g2 = ConjugatedMap(phi02, e2)
    assert conj_g2.linear_part == e2.matrix
    _check_equivariance(conj_g2)


def test_conjugated_map_is_conjugate(conj_g1, phi02, e1):
    x = RNG.random((10, 2))
    lhs = conj_g1.lift(phi02.lift(x))
    rhs = phi02.lift(x @ e1.matrix.as_array().T)
    assert np.allclose(lhs, rhs, atol=1e-10)


# --- references: the (n, 2, 2) arithmetic that the component-major
# kernels replace, kept as it was: the derivative einsum, the three inline
# 2x2 formulas (the conjugated one a three-operand einsum), the two Newton
# loops and the line-field transport ---------------------------------------

def _ref_derivative(p, x, m=None):
    """D p(x) by the one "nmj,ml->njl" einsum, plus the 2x2 matrix m."""
    if p.is_zero:
        d = np.zeros((len(x), 2, 2))
    else:
        sin, cos = p.trig(x)
        rate = cos[:, :, None] * p.sin_amps - sin[:, :, None] * p.cos_amps
        d = np.einsum("nmj,ml->njl", rate, TWO_PI * p.wavevectors.astype(float))
    return d if m is None else m[None, :, :] + d


def _ref_inv2(j):
    det = j[:, 0, 0] * j[:, 1, 1] - j[:, 0, 1] * j[:, 1, 0]
    inv = np.empty_like(j)
    inv[:, 0, 0] = j[:, 1, 1] / det
    inv[:, 0, 1] = -j[:, 0, 1] / det
    inv[:, 1, 0] = -j[:, 1, 0] / det
    inv[:, 1, 1] = j[:, 0, 0] / det
    return inv


def _ref_solve2(j, rhs):
    det = j[:, 0, 0] * j[:, 1, 1] - j[:, 0, 1] * j[:, 1, 0]
    v0 = (j[:, 1, 1] * rhs[:, 0] - j[:, 0, 1] * rhs[:, 1]) / det
    v1 = (-j[:, 1, 0] * rhs[:, 0] + j[:, 0, 0] * rhs[:, 1]) / det
    return np.stack([v0, v1], axis=1)


def _ref_perturbed_jacobian(g, x):
    return _ref_derivative(g.perturbation, x, g.linear_part.as_array())


def _ref_dphi(phi, x):
    return _ref_derivative(phi.q, x, np.eye(2))


def _ref_inverse_map_jacobian(handle, y):
    pts = np.atleast_2d(np.asarray(y, dtype=float))
    return _ref_inv2(_ref_perturbed_jacobian(handle.forward, handle.lift(pts)))


def _ref_conjugated_jacobian(handle, x):
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    A = handle.base.matrix.as_array()
    w = _ref_diffeo_inverse_lift(handle.phi, pts)
    d_out = _ref_dphi(handle.phi, w @ A.T)
    return np.einsum("nij,jk,nkl->nil", d_out, A, _ref_inv2(_ref_dphi(handle.phi, w)))


def _ref_inverse_map_lift(handle, y):
    pts = np.atleast_2d(np.asarray(y, dtype=float))
    z = pts @ invert(handle.forward.linear_part).as_array().T
    for _ in range(NEWTON_MAX_ITERS):
        res = handle.forward.lift(z) - pts
        if np.max(np.abs(res)) < NEWTON_TOL:
            break
        z = z - _ref_solve2(_ref_perturbed_jacobian(handle.forward, z), res)
    return z


def _ref_diffeo_inverse_lift(phi, y):
    pts = np.atleast_2d(np.asarray(y, dtype=float))
    x = pts.copy()
    for _ in range(NEWTON_MAX_ITERS):
        res = x + phi.q.evaluate(x) - pts
        if np.max(np.abs(res)) < NEWTON_TOL:
            break
        x = x - _ref_solve2(_ref_dphi(phi, x), res)
    return x


def _ref_backward_jacobians(handle, x):
    """Each handle kind's backward_jacobians, from the references above."""
    if isinstance(handle, PerturbedMap):
        inv = handle.inverse()
        while True:
            x = wrap_point(_ref_inverse_map_lift(inv, x))
            yield _ref_perturbed_jacobian(handle, x)
    elif isinstance(handle, InverseMap):
        while True:
            yield _ref_inv2(_ref_perturbed_jacobian(handle.forward, x))
            x = wrap_point(handle.forward.lift(x))
    else:
        A = handle.base.matrix.as_array()
        B = invert(handle.base.matrix).as_array()
        w = _ref_diffeo_inverse_lift(handle.phi, x)
        d_prev = _ref_dphi(handle.phi, w)
        while True:
            w = wrap_point(w @ B.T)
            d_here = _ref_dphi(handle.phi, w)
            yield np.einsum("nij,jk,nkl->nil", d_prev, A, _ref_inv2(d_here))
            d_prev = d_here


def _ref_pushed_seeds(handle, pts):
    seed = eigen_data(handle.linear_part).vu
    v_prev = np.broadcast_to(seed, pts.shape)
    prod = None
    for jac in _ref_backward_jacobians(handle, pts):
        if prod is None:
            prod = jac
        else:
            prod = prod[:, :, 0, None] * jac[:, None, 0] + prod[:, :, 1, None] * jac[:, None, 1]
        v = prod[:, :, 0] * seed[0] + prod[:, :, 1] * seed[1]
        norm = np.linalg.norm(v, axis=1, keepdims=True)
        v /= norm
        prod = prod / norm[:, :, None]
        yield v, float(np.max(line_angle(v, v_prev)))
        v_prev = v


def _ref_unstable_theta(handle, n, tol=1e-8):
    for v, residual in _ref_pushed_seeds(handle, grid_points(n)):
        if residual <= tol:
            return np.mod(np.arctan2(v[:, 1], v[:, 0]), np.pi).reshape(n, n)


def _assert_same_bits(new, ref):
    assert np.array_equal(new, ref)
    assert np.array_equal(np.signbit(new), np.signbit(ref))  # signed zeros too


def test_inv2_matches_inline_formulas():
    rng = np.random.default_rng(5)
    j = rng.standard_normal((400, 2, 2))
    j[:100, 0, 1] = 0.0        # a zero off-diagonal entry
    j[100:200, 1, 0] = -0.0    # a negative zero off-diagonal entry
    j[200:250, 0, 1] = 0.0     # diagonal matrices
    j[200:250, 1, 0] = 0.0
    rhs = rng.standard_normal((400, 2))
    rhs[::3, 0] = 0.0
    rhs[1::3, 1] = -0.0
    _assert_same_bits(_inv2(j, rhs), _ref_solve2(j, rhs))
    _assert_same_bits(_inv2(j), _ref_inv2(j))


def test_jacobians_match_inline_inverses(perturbed, conj_g1):
    y = RNG.random((200, 2))
    handle = InverseMap(perturbed)
    _assert_same_bits(handle.jacobian(y), _ref_inverse_map_jacobian(handle, y))
    _assert_same_bits(conj_g1.jacobian(y), _ref_conjugated_jacobian(conj_g1, y))
    _assert_same_bits(conj_g1.inverse().jacobian(y),
                      _ref_conjugated_jacobian(conj_g1.inverse(), y))


@pytest.mark.parametrize("n", [1, 7, 300, 16384])
def test_newton_inverse_matches_both_loops(perturbed, phi02, phi_two_mode, n):
    # the loops evaluate lift and jacobian in two calls at each iterate;
    # _newton_inverse forms both from one trig evaluation
    y = RNG.random((n, 2)) * 3.0 - 1.0
    for phi in (phi02, phi_two_mode):
        _assert_same_bits(phi.inverse_lift(y), _ref_diffeo_inverse_lift(phi, y))
    handle = InverseMap(perturbed)
    _assert_same_bits(handle.lift(y), _ref_inverse_map_lift(handle, y))


def test_newton_inverse_returns_a_fresh_array(phi02):
    # q(0) = 0, so Newton stops before its first step at the starting guess
    y = np.zeros((3, 2))
    x = phi02.inverse_lift(y)
    x += 1.0
    assert np.all(y == 0.0)


@pytest.mark.parametrize("phi_name", ["phi02", "phi_two_mode"])
@pytest.mark.parametrize("rows", [((2, 1), (1, 1)), ((1, 1), (1, 2)), ((5, 2), (2, 1)),
                                  ((2, 1), (5, 3))])
def test_conjugated_jacobian_matches_einsum(request, phi_name, rows):
    # with entries of A at most 2, d_out[i, j] A[j, k] is exact and the
    # association of the written-out product does not show; an entry above
    # 2 rounds.  D phi02 has its one inexact entry in row 0, column 1, so it
    # meets only the second row of A: [[2, 1], [5, 3]] puts the 5 there
    phi = request.getfixturevalue(phi_name)
    x = np.random.default_rng(17).random((2000, 2)) * 3.0 - 1.0
    # rows of signed zeros; phi02 fixes 0, so there they reach
    # _conjugated_jacobian as they are
    x[:4] = [[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]]
    handle = ConjugatedMap(phi, eigen_data(IntMatrix2.from_rows(rows)))
    for h in (handle, handle.inverse()):
        _assert_same_bits(h.jacobian(x), _ref_conjugated_jacobian(h, x))


@pytest.mark.parametrize("name", ["conjugated", "inverse_conjugated", "two_mode", "perturbed",
                                  "inverse_perturbed"])
def test_line_field_matches_the_reference_transport(perturbed, conj_g1, phi_two_mode, e1,
                                                    name):
    g = {"conjugated": conj_g1, "inverse_conjugated": conj_g1.inverse(),
         "two_mode": ConjugatedMap(phi_two_mode, e1), "perturbed": perturbed,
         "inverse_perturbed": InverseMap(perturbed)}[name]
    theta = compute_line_field(g, "unstable", n=32).theta
    _assert_same_bits(theta, _ref_unstable_theta(g, 32))


@pytest.mark.parametrize("name", ["perturbed", "inverse_perturbed", "conjugated",
                                  "inverse_conjugated"])
def test_backward_jacobians_are_jacobians_along_the_backward_orbit(perturbed, conj_g1, name):
    handle = {"perturbed": perturbed, "inverse_perturbed": InverseMap(perturbed),
              "conjugated": conj_g1, "inverse_conjugated": conj_g1.inverse()}[name]
    x = RNG.random((64, 2))
    orbit = x
    for depth, jac in zip(range(1, 7), handle.backward_jacobians(x)):
        orbit = handle.inverse().apply(orbit)
        expected = handle.jacobian(orbit)
        if name == "perturbed":  # the same Newton inverse and jacobian
            _assert_same_bits(jac, expected)
        else:  # the orbit found another way: rounding grows like lambda_u^depth
            assert np.max(np.abs(jac - expected)) < 1e-12, depth
