import math

import numpy as np
import pytest

from anosov_lab.errors import AnosovLabError, NotHyperbolic, NotInSL2Z
from anosov_lab.lattice import (
    IntMatrix2,
    check_pair_hypothesis,
    compose,
    eigen_data,
    invert,
    is_hyperbolic,
    line_angle,
    power,
    wrap_point,
)

G1 = IntMatrix2(2, 1, 1, 1)
G2 = IntMatrix2(1, 1, 1, 2)

PHI = (1.0 + math.sqrt(5.0)) / 2.0  # golden ratio


def test_determinant_enforced():
    with pytest.raises(ValueError):
        IntMatrix2(1, 0, 0, 2)


@pytest.mark.parametrize("entries", [(1, 0, 0, 2), (1, 0.5, 0, 1)])
def test_bad_matrix_raises_typed_error(entries):
    with pytest.raises(NotInSL2Z) as info:
        IntMatrix2(*entries)
    assert isinstance(info.value, AnosovLabError)


def test_inverse_and_compose():
    assert compose(G1, invert(G1)) == IntMatrix2(1, 0, 0, 1)
    assert power(G1, 3) == compose(G1, compose(G1, G1))
    assert power(G1, -1) == invert(G1)


def test_hyperbolicity_detection():
    assert is_hyperbolic(G1) and is_hyperbolic(G2)
    rotation = IntMatrix2(0, -1, 1, 0)
    assert not is_hyperbolic(rotation)
    with pytest.raises(NotHyperbolic):
        eigen_data(rotation)


def test_eigen_oracle_gamma1():
    # [[2,1],[1,1]]: lambda_u = (3+sqrt(5))/2, v_u parallel to (1, 1/phi)
    e = eigen_data(G1)
    assert e.lambda_u == pytest.approx((3.0 + math.sqrt(5.0)) / 2.0, abs=1e-14)
    assert e.lambda_u * e.lambda_s == pytest.approx(1.0, abs=1e-14)
    slope_u = e.vu[1] / e.vu[0]
    slope_s = e.vs[1] / e.vs[0]
    assert slope_u == pytest.approx(1.0 / PHI, abs=1e-12)
    assert slope_s == pytest.approx(-PHI, abs=1e-12)


def test_eigenvector_residual():
    for m in (G1, G2, power(G1, 2), compose(G1, G2)):
        e = eigen_data(m)
        a = m.as_array()
        assert np.linalg.norm(a @ e.vu - e.signed_lambda_u * np.asarray(e.vu)) < 1e-12
        assert np.linalg.norm(a @ e.vs - e.signed_lambda_s * np.asarray(e.vs)) < 1e-12


def test_canonical_sign_convention():
    for m in (G1, G2, invert(G1), power(G2, 3)):
        e = eigen_data(m)
        for v in (e.vu, e.vs):
            assert v[0] > 0 or (v[0] == 0 and v[1] > 0)


def test_dual_basis_identity():
    e = eigen_data(G1)
    w_s, w_u = e.dual_basis()
    assert float(np.dot(w_s, e.vs)) == pytest.approx(1.0, abs=1e-12)
    assert float(np.dot(w_u, e.vu)) == pytest.approx(1.0, abs=1e-12)
    assert abs(float(np.dot(w_s, e.vu))) < 1e-12
    assert abs(float(np.dot(w_u, e.vs))) < 1e-12


def test_pair_hypothesis_standard_pair():
    cert = check_pair_hypothesis(eigen_data(G1), eigen_data(G2))
    assert cert.hypothesis_ok
    assert cert.min_pairwise_sine == pytest.approx(1.0 / math.sqrt(5.0), abs=1e-12)


def test_pair_hypothesis_fails_for_powers():
    cert = check_pair_hypothesis(eigen_data(G1), eigen_data(power(G1, 2)))
    assert not cert.hypothesis_ok
    assert cert.min_pairwise_sine == 0.0


def test_pair_hypothesis_fails_for_inverse():
    cert = check_pair_hypothesis(eigen_data(G1), eigen_data(invert(G1)))
    assert not cert.hypothesis_ok


def test_certificate_serialization_fields():
    doc = check_pair_hypothesis(eigen_data(G1), eigen_data(G2)).to_dict()
    for key in ("matrices", "eigenvalues", "eigenvectors", "min_pairwise_sine", "hypothesis_ok"):
        assert key in doc


def test_wrap_point():
    assert np.allclose(wrap_point(np.array([1.25, -0.25])), [0.25, 0.75])
    # np.mod(-1e-17, 1.0) rounds to 1.0, which wraps to 0
    assert np.array_equal(wrap_point(np.array([-1e-17, 0.5])), [0.0, 0.5])


def _ref_wrap_point(x):
    y = np.mod(np.asarray(x, dtype=float), 1.0)
    y[y >= 1.0] -= 1.0
    return y


def test_wrap_point_matches_mod_bit_for_bit():
    # 2^21 magnitudes log-uniform over [1e-20, 1e20] of either sign, plus
    # signed zeros, integers and the extremes of the negative range
    rng = np.random.default_rng(21)
    x = 10.0 ** rng.uniform(-20.0, 20.0, 1 << 21) * rng.choice([-1.0, 1.0], 1 << 21)
    special = [0.0, -0.0, -1e-20, 1e-20, 1.0, -1.0, 3.0, -7.0, 2.0 ** 52, -(2.0 ** 53),
               2.0 ** 53, -5e-324, 5e-324, 1.0 - 2.0 ** -53, -(1.0 - 2.0 ** -53), -0.5]
    x = np.concatenate([x, special]).reshape(-1, 2)
    got = wrap_point(x)
    assert np.array_equal(got.view(np.uint64), _ref_wrap_point(x).view(np.uint64))
    assert np.all((got >= 0.0) & (got < 1.0))
    # the marching lookup wraps with x - floor(x), no fix-up: np.mod's bits
    assert np.array_equal((x - np.floor(x)).view(np.uint64), np.mod(x, 1.0).view(np.uint64))


def test_line_angle_parallel_antiparallel_perpendicular():
    v = np.array([3.0, 4.0])   # exact products, so the zeros are exact
    w = np.array([-4.0, 3.0])
    assert line_angle(v, 2.5 * v) == 0.0
    assert line_angle(v, -v) == 0.0
    assert line_angle(v, w) == math.pi / 2
    assert line_angle(v, -w) == math.pi / 2
    rows = line_angle(np.stack([v, v, v]), np.stack([v, -v, w]))
    assert np.array_equal(rows, [0.0, 0.0, math.pi / 2])
    # (n, m, 2) against one direction broadcasts to (n, m)
    assert line_angle(np.zeros((4, 3, 2)) + w, v).shape == (4, 3)


def test_line_angle_matches_inline_row_formula():
    # the arctan2(|cross|, |dot|) form written out at each former call site
    rng = np.random.default_rng(3)
    a = rng.standard_normal((500, 2))
    b = rng.standard_normal((500, 2))
    cross = np.abs(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])
    dots = np.abs(np.einsum("ni,ni->n", a, b))
    assert np.array_equal(line_angle(a, b), np.arctan2(cross, dots))
    assert np.array_equal([line_angle(x, y) for x, y in zip(a, b)], np.arctan2(cross, dots))
