import math

import numpy as np
import pytest

from anosov_lab.errors import NotADiffeo
from anosov_lab.foliations import compute_line_field
from anosov_lab.fourier import TWO_PI, FourierPerturbation
from anosov_lab.lattice import (ROW_BLOCK, IntMatrix2, _inv2, eigen_data, grid_points, invert,
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
    a = handle.element.matrix.as_array()
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
    back = wrap_point(inv.lift(wrap_point(handle.lift(x))))
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
    back = phi02.inverse_lift(phi02.lift(x))[0]
    assert np.allclose(back, x, atol=1e-11)


def test_diffeo_rejects_large_derivative():
    q = FourierPerturbation.from_sin_cos([((0, 1), (0.5, 0.0), None)])  # ||Dq|| ~ pi
    with pytest.raises(NotADiffeo):
        Diffeo(q)


def test_diffeo_rejects_nan_derivative_bound():
    q = FourierPerturbation.from_sin_cos([((0, 1), (1e308, 0.0), None)])
    assert math.isnan(q.deriv_bound)
    with pytest.raises(NotADiffeo, match="derivative bound nan is not below 1"):
        Diffeo(q)


def test_conjugated_map_contract(conj_g1, phi02, e2):
    _check_equivariance(conj_g1)
    _check_jacobian(conj_g1)
    _check_inverse(conj_g1)
    # the second generator of the conjugated action
    conj_g2 = ConjugatedMap(phi02, e2)
    assert conj_g2.element is e2
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
    return _ref_derivative(g.perturbation, x, g.element.matrix.as_array())


def _ref_dphi(phi, x):
    return _ref_derivative(phi.q, x, np.eye(2))


def _ref_inverse_map_jacobian(handle, y):
    pts = np.atleast_2d(np.asarray(y, dtype=float))
    return _ref_inv2(_ref_perturbed_jacobian(handle.forward, handle.lift(pts)))


def _ref_conjugated_jacobian(handle, x):
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    A = handle.element.matrix.as_array()
    w = _ref_diffeo_inverse_lift(handle.phi, pts)
    d_out = _ref_dphi(handle.phi, w @ A.T)
    return np.einsum("nij,jk,nkl->nil", d_out, A, _ref_inv2(_ref_dphi(handle.phi, w)))


def _ref_inverse_map_lift(handle, y):
    pts = np.atleast_2d(np.asarray(y, dtype=float))
    z = pts @ invert(handle.forward.element.matrix).as_array().T
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
    """The jacobians of each handle kind along the backward orbit of x, one
    depth at a time, from the references above: the perturbed map by
    Newton inverses, its inverse by stepping the forward map, and a
    conjugated map in phi's chart."""
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
        A = handle.element.matrix.as_array()
        B = invert(handle.element.matrix).as_array()
        w = _ref_diffeo_inverse_lift(handle.phi, x)
        d_prev = _ref_dphi(handle.phi, w)
        while True:
            w = wrap_point(w @ B.T)
            d_here = _ref_dphi(handle.phi, w)
            yield np.einsum("nij,jk,nkl->nil", d_prev, A, _ref_inv2(d_here))
            d_prev = d_here


def _ref_unstable_theta(handle, n, depth=40):
    """The unstable field: the seed v_u pushed forward to the grid from
    depth ``depth`` of the backward orbit by the reference jacobians."""
    jacs = [jac for _, jac in zip(range(depth), _ref_backward_jacobians(handle, grid_points(n)))]
    v = np.broadcast_to(handle.element.vu, (n * n, 2))
    for jac in reversed(jacs):
        v = np.einsum("nij,nj->ni", jac, v)
        v = v / np.linalg.norm(v, axis=1, keepdims=True)
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
        _assert_same_bits(phi.inverse_lift(y)[0], _ref_diffeo_inverse_lift(phi, y))
    handle = InverseMap(perturbed)
    _assert_same_bits(handle.lift(y), _ref_inverse_map_lift(handle, y))


def test_newton_inverse_returns_a_fresh_array(phi02):
    # q(0) = 0, so Newton stops before its first step at the starting guess
    y = np.zeros((3, 2))
    x = phi02.inverse_lift(y)[0]
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
    handle = ConjugatedMap(phi, eigen_data(IntMatrix2(*rows[0], *rows[1])))
    for h in (handle, handle.inverse()):
        _assert_same_bits(h.jacobian(x), _ref_conjugated_jacobian(h, x))


@pytest.mark.parametrize("name", ["conjugated", "inverse_conjugated", "two_mode", "perturbed",
                                  "inverse_perturbed"])
def test_line_field_matches_the_reference_transport(perturbed, conj_g1, phi_two_mode, e1,
                                                    name):
    g = {"conjugated": conj_g1, "inverse_conjugated": conj_g1.inverse(),
         "two_mode": ConjugatedMap(phi_two_mode, e1), "perturbed": perturbed,
         "inverse_perturbed": InverseMap(perturbed)}[name]
    # the kernel at orbit length 16 and the depth-40 push are both within
    # about lambda_u^-32 = 4e-14 of the limit
    theta = compute_line_field(g, "unstable", n=32).theta
    gap = np.abs(theta - _ref_unstable_theta(g, 32))
    assert np.max(np.minimum(gap, np.pi - gap)) < 1e-12


@pytest.mark.parametrize("name", ["perturbed", "inverse_perturbed", "conjugated",
                                  "inverse_conjugated"])
def test_backward_jacobians_are_jacobians_along_the_backward_orbit(perturbed, conj_g1, name):
    # the reference transport's jacobians, against each handle's jacobian
    # on its inverse's orbit
    handle = {"perturbed": perturbed, "inverse_perturbed": InverseMap(perturbed),
              "conjugated": conj_g1, "inverse_conjugated": conj_g1.inverse()}[name]
    x = RNG.random((64, 2))
    orbit = x
    for depth, jac in zip(range(1, 7), _ref_backward_jacobians(handle, x)):
        orbit = wrap_point(handle.inverse().lift(orbit))
        # the orbit found another way: rounding grows like lambda_u^depth
        assert np.max(np.abs(jac - handle.jacobian(orbit))) < 1e-12, depth


def _ref_orbit(handle, x, n):
    """g^n(x) and D g^n(x) by n explicit ``lift`` and ``jacobian`` steps."""
    jac = np.broadcast_to(np.eye(2), (len(x), 2, 2)).copy()
    for _ in range(n):
        jac = np.einsum("nij,njk->nik", handle.jacobian(x), jac)
        x = handle.lift(x)
    return x, jac


@pytest.mark.parametrize("name", ["perturbed", "inverse_perturbed", "conjugated",
                                  "inverse_conjugated"])
@pytest.mark.parametrize("n", [0, 1, 3, 8])
def test_orbit_is_the_explicit_steps(perturbed, conj_g1, name, n):
    handle = {"perturbed": perturbed, "inverse_perturbed": InverseMap(perturbed),
              "conjugated": conj_g1, "inverse_conjugated": conj_g1.inverse()}[name]
    x = RNG.random((64, 2)) * 4 - 2
    got, jac = handle.orbit(x, n)
    want, want_jac = _ref_orbit(handle, x, n)
    if name == "perturbed":  # the same steps
        _assert_same_bits(got, want)
        _assert_same_bits(jac, want_jac)
    else:  # another evaluation: rounding grows like lambda_u^n = 2.6^n
        scale = 2.7 ** n
        assert np.max(np.abs(got - want)) < 1e-13 * scale, n
        assert np.max(np.abs(jac - want_jac)) < 1e-12 * scale, n


@pytest.mark.parametrize("size", [1, 2, 3, ROW_BLOCK + 1, 2 * ROW_BLOCK + 2])
@pytest.mark.parametrize("name", ["perturbed_g1", "perturbed", "zero_perturbed",
                                  "inverse_perturbed", "conj_g1", "linear_g1"])
def test_displacement_into_its_own_points_has_the_bits(request, e1, perturbed, name, size):
    # the conjugacy solve evaluates p into its point buffer: a Fourier p
    # forms each row block's phases before writing that block, and the
    # other handles form the whole lift before writing; ROW_BLOCK + 1
    # points are one block that takes a one-row tail, 2 ROW_BLOCK + 2
    # three blocks, the last of two rows
    if name == "zero_perturbed":
        handle = PerturbedMap(e1, FourierPerturbation.zero())
    elif name == "inverse_perturbed":
        handle = InverseMap(perturbed)
    else:
        handle = request.getfixturevalue(name)
    x = np.random.default_rng(size).random((size, 2)) * 4 - 2
    want = handle.displacement(x)
    got = handle.displacement(x, out=x)
    assert got is x
    _assert_same_bits(got, want)


@pytest.mark.parametrize("size", [1, 2, 3, 100, 2205])
def test_perturbed_orbit_has_the_bits_of_separate_lift_and_jacobian_steps(perturbed, size):
    # each step forms lift and jacobian from one trig evaluation; 2,205 is
    # the finder's batch at period 8
    x = np.random.default_rng(size).random((size, 2))
    for n in range(1, 8):
        got, jac = perturbed.orbit(x, n)
        want, want_jac = _ref_orbit(perturbed, x, n)
        _assert_same_bits(got, want)
        _assert_same_bits(jac, want_jac)


class _GeneralPath(ConjugatedMap):
    """A ConjugatedMap that never takes the identity-phi shortcuts."""

    is_linear = False


@pytest.mark.parametrize("inverse", [False, True])
def test_identity_phi_shortcuts_are_the_general_path_and_a_power(linear_g1, inverse):
    handle = linear_g1.inverse() if inverse else linear_g1
    assert handle.is_linear
    general = _GeneralPath(handle.phi, handle.element)
    a = handle.element.matrix.as_array().astype(np.int64)
    x = RNG.random((64, 2)) * 4 - 2
    for n in range(17):
        got, jac = handle.orbit(x, n)
        want, want_jac = general.orbit(x, n)
        a_n = np.linalg.matrix_power(a, n).astype(float)
        _assert_same_bits(got, want)
        _assert_same_bits(got, x @ a_n.T)
        _assert_same_bits(jac, want_jac)
        _assert_same_bits(jac, np.broadcast_to(a_n, jac.shape))
        assert jac.strides == want_jac.strides  # the layout of _empty2x2
    _assert_same_bits(handle.displacement(x), general.displacement(x))


@pytest.mark.parametrize("name", ["linear_g1", "conj_g1", "perturbed_g1"])
def test_conjugated_inverse_is_built_once(request, name):
    g = request.getfixturevalue(name)
    inv = g.inverse()
    assert g.inverse() is inv
    assert inv.inverse() is g
    assert inv.element.matrix == invert(g.element.matrix)
    # the kept handle gives the bits of one built afresh
    fresh = (InverseMap(g) if isinstance(g, PerturbedMap)
             else ConjugatedMap(g.phi, eigen_data(invert(g.element.matrix))))
    x = RNG.random((64, 2)) * 4 - 2
    for n in (0, 1, 12, 16):
        for got, want in zip(inv.orbit(x, n), fresh.orbit(x, n)):
            _assert_same_bits(got, want)
    _assert_same_bits(inv.lift(x), fresh.lift(x))
    _assert_same_bits(inv.jacobian(x), fresh.jacobian(x))
