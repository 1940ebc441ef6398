import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from anosov_lab.errors import AnosovLabError, NotHyperbolic, NotInSL2Z
from anosov_lab.foliations import heteroclinic_points
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
    w_s, w_u = e.ws, e.wu
    assert float(np.dot(w_s, e.vs)) == pytest.approx(1.0, abs=1e-12)
    assert float(np.dot(w_u, e.vu)) == pytest.approx(1.0, abs=1e-12)
    assert abs(float(np.dot(w_s, e.vu))) < 1e-12
    assert abs(float(np.dot(w_u, e.vs))) < 1e-12


def test_frame_is_held_once_as_read_only_arrays(perturbed_g1, conj_g1):
    """eigen_data's frame and those of the inverse handles' elements: each
    of vu, vs, wu and ws is one read-only array, the same on every read."""
    for e in (eigen_data(G1), perturbed_g1.inverse().element, conj_g1.inverse().element):
        assert e.vu is e.vu
        for v in (e.vu, e.vs, e.wu, e.ws):
            assert v.shape == (2,) and not v.flags.writeable
            with pytest.raises(ValueError):
                v[0] = 0.0


# the generators U = [[1, 1], [0, 1]] and L = [[1, 0], [1, 1]] of SL(2,Z)
# and their inverses
LETTERS = (IntMatrix2(1, 1, 0, 1), IntMatrix2(1, 0, 1, 1), IntMatrix2(1, -1, 0, 1),
           IntMatrix2(1, 0, -1, 1))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(word=st.lists(st.integers(0, 3), min_size=2, max_size=8), sign=st.sampled_from((1, -1)))
def test_dual_rows_are_biorthogonal_and_read_the_heteroclinic_seeds(word, sign):
    # a word in the letters times +-I, so that both signs of the trace are
    # drawn, and its inverse: measured within 2 ulp and 3.6e-15
    m = IntMatrix2(sign, 0, 0, sign)
    for letter in word:
        m = compose(m, LETTERS[letter])
    assume(is_hyperbolic(m))
    eps = np.finfo(float).eps
    for e in (eigen_data(m), eigen_data(invert(m))):
        for w, v, delta in ((e.wu, e.vu, 1.0), (e.wu, e.vs, 0.0), (e.ws, e.vu, 0.0),
                            (e.ws, e.vs, 1.0)):
            assert abs(float(w @ v) - delta) <= 4 * eps, m.rows()
        for hp in heteroclinic_points(np.zeros(2), e, 3):
            off = hp.u_param * e.vu - hp.s_param * e.vs - np.array(hp.lattice)
            assert np.max(np.abs(off)) <= 1e-14, (m.rows(), hp.lattice)


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
