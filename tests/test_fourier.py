import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anosov_lab import fourier
from anosov_lab.fourier import TWO_PI, FourierPerturbation
from anosov_lab.lattice import ROW_BLOCK

from test_lookup_kernels import _assert_same_bits
from test_maps import _ref_derivative

# --- reference: the complex-exponential form with conjugate closure --------


def _conjugate_closure(kv, cf):
    """Merge duplicate wavevectors and symmetrize so that p is real-valued:
    c(-k) = conj(c(k)), and a pure k=0 mode keeps only its real part."""
    merged = {}
    for k, c in zip(kv, cf):
        key = (int(k[0]), int(k[1]))
        merged[key] = merged.get(key, np.zeros(2, dtype=complex)) + c
    closed = {}
    for key, c in merged.items():
        neg = (-key[0], -key[1])
        if key == (0, 0):
            closed[key] = closed.get(key, 0) + c.real.astype(complex)
            continue
        c_neg = merged.get(neg)
        sym = c if c_neg is None else (c + np.conj(c_neg)) / 2.0
        closed[key] = sym
        closed[neg] = np.conj(sym)
    keys = sorted(closed)
    kv_out = np.array(keys, dtype=np.int64)
    cf_out = np.array([closed[k] for k in keys])
    keep = np.abs(cf_out).sum(axis=1) > 0
    return kv_out[keep], cf_out[keep]


class ComplexReference:
    """p(x) = sum_k c_k exp(2 pi i k.x), closed under k -> -k, c -> conj(c)."""

    def __init__(self, terms):
        kv = np.array([t[0] for t in terms], dtype=np.int64)
        cf = np.array([(np.zeros(2) if t[2] is None else np.asarray(t[2])) / 2.0
                       + (np.zeros(2) if t[1] is None else np.asarray(t[1])) / (2.0j)
                       for t in terms])
        self.kv, self.cf = _conjugate_closure(kv, cf)
        amp = np.abs(self.cf)
        entry = np.einsum("mj,ml->jl", amp, TWO_PI * np.abs(self.kv).astype(float))
        self.deriv_bound = float(np.linalg.norm(entry, 2))

    def evaluate(self, x):
        phase = np.exp(1j * TWO_PI * (x @ self.kv.T.astype(float)))
        return np.real(phase @ self.cf)

    def derivative(self, x):
        phase = np.exp(1j * TWO_PI * (x @ self.kv.T.astype(float)))
        return np.real(np.einsum("nm,mj,ml->njl", phase, self.cf,
                                 1j * TWO_PI * self.kv.astype(float)))


REFERENCE_POINTS = np.random.default_rng(11).random((1 << 16, 2))
PURE_KS = [(0, 1), (1, 0), (1, 1), (2, -1), (-1, 2)]
PURE_MODES = ([[(k, (0.02, -0.013), None)] for k in PURE_KS]
              + [[(k, None, (0.011, 0.025))] for k in PURE_KS])


@pytest.mark.parametrize("terms", PURE_MODES)
def test_pure_mode_bit_equal_to_complex_reference(terms):
    p, ref = FourierPerturbation.from_sin_cos(terms), ComplexReference(terms)
    x = REFERENCE_POINTS
    assert np.array_equal(p.evaluate(x), ref.evaluate(x))
    assert np.array_equal(p.derivative(x), ref.derivative(x))
    assert np.array_equal(p.derivative(x), _ref_derivative(p, x))
    assert p.deriv_bound == ref.deriv_bound


@pytest.mark.parametrize("terms", [
    [((1, 1), (0.01, 0.02), (0.03, -0.01))],
    [((-2, 1), (0.004, 0.0), (0.0, 0.007))],
    [((0, 1), (0.01, 0.0), None), ((1, 0), None, (0.0, 0.02)),
     ((2, -1), (0.001, 0.002), (0.003, 0.001))],
    [((1, 2), (0.003, 0.001), None), ((-1, 0), (0.0, 0.005), (0.002, 0.0)),
     ((3, 1), None, (0.001, -0.004))],
])
def test_mixed_and_multi_mode_match_complex_reference(terms):
    p, ref = FourierPerturbation.from_sin_cos(terms), ComplexReference(terms)
    x = REFERENCE_POINTS
    assert np.max(np.abs(p.evaluate(x) - ref.evaluate(x))) <= 1e-15
    assert np.max(np.abs(p.derivative(x) - ref.derivative(x))) <= 1e-15
    assert np.array_equal(p.derivative(x), _ref_derivative(p, x))
    if len(terms) == 1:
        assert p.deriv_bound == ref.deriv_bound


# a term is sin-only, cos-only or both; an amplitude component may be zero
_AMP = st.tuples(st.sampled_from([0.0, 0.003, -0.02]), st.floats(-0.05, 0.05))
_TERM = st.tuples(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                  st.one_of(st.none(), _AMP), st.one_of(st.none(), _AMP))


@settings(max_examples=60, deadline=None)
@given(terms=st.lists(_TERM, min_size=1, max_size=4), n=st.sampled_from([1, 2, 7, 300]),
       seed=st.integers(0, 2**32 - 1))
def test_evaluate_equals_full_trig_formula(terms, n, seed):
    # evaluate skips a sin or cos term whose amplitudes are all zero; the
    # sum is the same to the bit
    p = FourierPerturbation.from_sin_cos(terms)
    x = np.random.default_rng(seed).random((n, 2))
    theta = p._phases(x)
    expected = np.sin(theta) @ p.sin_amps + np.cos(theta) @ p.cos_amps
    assert np.array_equal(p.evaluate(x), expected)


def _ref_evaluate(p, x):
    """evaluate over the whole batch at once, in one block."""
    theta = p._phases(x)
    terms = [trig(theta) @ amps
             for trig, amps in ((np.sin, p.sin_amps), (np.cos, p.cos_amps))
             if amps.any()]
    return terms[0] + terms[1] if len(terms) == 2 else terms[0]


_BLOCK_KS = [(0, 1), (1, 0), (1, 1), (2, -1), (-1, 2), (3, 1)]


def _block_terms(m, kind):
    """m wavevectors, each with sin, cos or (mixed) both amplitudes."""
    rng = np.random.default_rng(m)
    terms = []
    for i, k in enumerate(_BLOCK_KS[:m]):
        sin, cos = tuple(rng.uniform(-0.02, 0.02, 2)), tuple(rng.uniform(-0.02, 0.02, 2))
        if kind == "sin" or (kind == "mixed" and i % 2):
            cos = None
        elif kind == "cos" or (kind == "mixed" and m > 1):
            sin = None
        terms.append((k, sin, cos))
    return terms


@pytest.mark.parametrize("kind", ["sin", "cos", "mixed"])
@pytest.mark.parametrize("m", [1, 2, 3, 6])
def test_evaluate_in_row_blocks_matches_one_block(m, kind):
    # tails of 0, 1, 2 and 3 rows past a block; a one-row tail joins the
    # block before it
    p = FourierPerturbation.from_sin_cos(_block_terms(m, kind))
    x = np.random.default_rng(13).uniform(-1.0, 1.0, (2 * ROW_BLOCK + 3, 2))
    for n in (ROW_BLOCK, ROW_BLOCK + 1, ROW_BLOCK + 2, 2 * ROW_BLOCK + 3):
        _assert_same_bits(p.evaluate(x[:n]), _ref_evaluate(p, x[:n]))


def test_evaluate_peak_memory_per_point():
    # the phase and trig tables of one row block beside the (n, 2) output;
    # whole-batch tables of a 6-mode p took 128 B per point
    p = FourierPerturbation.from_sin_cos(_block_terms(6, "mixed"))
    n = 1 << 18
    x = np.random.default_rng(14).random((n, 2))
    tracemalloc.start()
    try:
        p.evaluate(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 40 * n


def _ref_value_from(p, trig):
    sin, cos = trig
    return sin @ p.sin_amps + cos @ p.cos_amps


def _ref_derivative_from(p, trig):
    sin, cos = trig
    k = TWO_PI * p.wavevectors.astype(float)
    out = np.empty((len(sin), 2, 2))
    for j in range(2):
        rate = cos * p.sin_amps[:, j] - sin * p.cos_amps[:, j]
        for l in range(2):
            np.einsum("nm,m->n", rate, k[:, l], out=out[:, j, l])
    return out


# points where a phase is exactly 0, so that sin is +0.0 and a product with
# a negative amplitude is -0.0, beside random points of either sign
SIGNED_ZERO_POINTS = np.concatenate([
    np.array([[0.0, 0.0], [-0.0, -0.0], [0.5, 0.0], [0.0, 0.5], [-0.25, 0.75]]),
    np.random.default_rng(12).uniform(-1.0, 1.0, (4091, 2))])


@pytest.mark.parametrize("terms", [
    [((0, 1), (0.02, 0.0), None)],                        # sin only, a zero column
    [((0, 1), (-0.02, 0.0), None)],                       # negative amplitude
    [((1, 1), (0.01, -0.02), None)],
    [((1, 0), None, (0.0, 0.02))],                        # cos only, a zero column
    [((2, -1), None, (-0.011, 0.025))],
    [((1, 1), (0.01, 0.02), (0.03, -0.01))],              # mixed
    [((0, 1), (0.03, 0.0), None), ((1, 1), (0.0, 0.01), None)],   # two-mode sin
    [((0, 1), (0.01, 0.0), None), ((1, 0), None, (0.0, 0.02)),
     ((2, -1), (0.001, 0.002), (0.003, 0.001))],          # multi-mode, mixed
    [((0, 0), None, (0.003, -0.002))],                    # the constant mode
    [((0, 1), (0.02, 0.0), None), ((0, -1), (0.02, 0.0), None)],  # cancels to zero
    [],                                                   # zero
])
def test_value_and_derivative_from_match_both_terms(terms):
    # value_from and derivative_from skip a sin or cos term whose amplitudes
    # are all zero; the results are those over both terms, sign bits included
    p = (FourierPerturbation.from_sin_cos(terms) if terms else FourierPerturbation.zero())
    for x in (SIGNED_ZERO_POINTS, REFERENCE_POINTS[:1], REFERENCE_POINTS[:7]):
        trig = p.trig(x)
        _assert_same_bits(p.value_from(trig), _ref_value_from(p, trig))
        _assert_same_bits(p.derivative_from(trig), _ref_derivative_from(p, trig))


class _CountingNumpy:
    """numpy as a module sees it, counting the values passed to sin and cos."""

    def __init__(self):
        self.values = {"sin": 0, "cos": 0}

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in self.values:
            return attr

        def counted(x, *args, **kwargs):
            self.values[name] += np.size(x)
            return attr(x, *args, **kwargs)
        return counted


@pytest.mark.parametrize("terms, sin_rows, cos_rows", [
    ([((0, 1), (0.0047, 0.0), None)], 1, 0),
    ([((0, 1), (0.01, 0.0), None), ((1, 1), (0.0, 0.002), None)], 2, 0),
    ([((1, 0), None, (0.0, 0.02))], 0, 1),
    # a term with any nonzero amplitude is taken at every wavevector
    ([((0, 1), (0.01, 0.0), None), ((1, 0), None, (0.0, 0.02))], 2, 2),
])
def test_evaluate_skips_a_term_whose_amplitudes_are_zero(monkeypatch, terms,
                                                         sin_rows, cos_rows):
    p = FourierPerturbation.from_sin_cos(terms)
    x = REFERENCE_POINTS[:1000]
    counting = _CountingNumpy()
    monkeypatch.setattr(fourier, "np", counting)
    p.evaluate(x)
    assert counting.values == {"sin": sin_rows * len(x), "cos": cos_rows * len(x)}
    # Newton's shared evaluation takes both at every wavevector
    counting.values = {"sin": 0, "cos": 0}
    p.trig(x)
    rows = len(p.wavevectors)
    assert counting.values == {"sin": rows * len(x), "cos": rows * len(x)}


def test_opposite_wavevectors_add():
    pair = FourierPerturbation.from_sin_cos([((0, 1), (0.01, 0.0), None),
                                             ((0, -1), (-0.01, 0.0), None)])
    single = FourierPerturbation.from_sin_cos([((0, 1), (0.02, 0.0), None)])
    x = REFERENCE_POINTS[:4096]
    expected = np.column_stack([0.02 * np.sin(TWO_PI * x[:, 1]), np.zeros(len(x))])
    assert np.allclose(pair.evaluate(x), expected, rtol=0, atol=1e-17)
    assert np.array_equal(pair.wavevectors, single.wavevectors)
    assert np.array_equal(pair.sin_amps, single.sin_amps)
    assert np.array_equal(pair.cos_amps, single.cos_amps)
    assert np.array_equal(pair.evaluate(x), single.evaluate(x))
    assert np.array_equal(pair.derivative(x), single.derivative(x))
    assert pair.deriv_bound == single.deriv_bound


def test_terms_fold_to_canonical_rows():
    p = FourierPerturbation.from_sin_cos([
        ((-1, 2), (0.25, 0.0), (0.0, 0.5)),    # -> (1, -2), sin negated
        ((1, -2), (0.75, 0.0), None),
        ((0, -1), None, (0.125, 0.0)),         # cos is even
        ((2, 0), (0.25, 0.0), None),
        ((-2, 0), (0.25, 0.0), None),          # cancels the (2, 0) term
        ((0, 0), (0.5, 0.0), (0.0, 0.0625)),   # sin 0 = 0
    ])
    assert p.wavevectors.tolist() == [[0, 0], [0, 1], [1, -2]]
    assert p.sin_amps.tolist() == [[0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]
    assert p.cos_amps.tolist() == [[0.0, 0.0625], [0.125, 0.0], [0.0, 0.5]]


def test_constant_mode_is_its_cos_amplitude():
    p = FourierPerturbation.from_sin_cos([((0, 0), None, (0.003, -0.002))])
    x = REFERENCE_POINTS[:16]
    assert np.array_equal(p.evaluate(x), np.tile([0.003, -0.002], (16, 1)))
    assert np.all(p.derivative(x) == 0.0)
    assert p.deriv_bound == 0.0




def test_zero_perturbation():
    p = FourierPerturbation.zero()
    x = np.random.default_rng(0).random((7, 2))
    assert np.all(p.evaluate(x) == 0.0)
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
    assert np.max(np.abs(p.derivative(x))) <= p.deriv_bound + 1e-12


def test_periodicity():
    p = FourierPerturbation.from_sin_cos([((2, -1), (0.01, 0.03), (0.0, 0.02))])
    x = np.random.default_rng(6).random((20, 2))
    assert np.allclose(p.evaluate(x), p.evaluate(x + np.array([3.0, -2.0])), atol=1e-12)


def test_scaled():
    p = FourierPerturbation.from_sin_cos([((0, 1), (0.02, 0.0), None)])
    x = np.random.default_rng(8).random((10, 2))
    assert np.allclose(p.scaled(0.5).evaluate(x), 0.5 * p.evaluate(x), atol=1e-15)
