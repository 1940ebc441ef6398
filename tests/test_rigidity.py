import numpy as np
import pytest

from anosov_lab import rigidity
from anosov_lab.conjugacy import Conjugacy, solve_conjugacy
from anosov_lab.errors import (
    AnosovLabError,
    DomainMismatch,
    NonMonotoneG,
    RootBracketFailed,
    SingularSystem,
)
from anosov_lab.foliations import integrate_leaf
from anosov_lab.fourier import FourierPerturbation
from anosov_lab.lattice import eigen_data
from anosov_lab.maps import ConjugatedMap, Diffeo
from anosov_lab.rigidity import (
    TranslationAction,
    _solve_t,
    factor_translation_linear,
    factor_translation_numeric,
    linearize_translation_action,
    teichmuller_experiment,
    translation_action_from_conjugacy,
    verify_action_regularity,
)


def _profile_action(fn, lo=-3.0, hi=3.0, step=1e-3):
    r = np.arange(lo, hi + step / 2, step)
    return TranslationAction(r, fn(r))


@pytest.fixture(scope="module")
def sine_action():
    # h(x) = x + 0.1 sin x, the weakly nonlinear reference profile
    return _profile_action(lambda r: r + 0.1 * np.sin(r))


def test_action_identity_and_flow(sine_action):
    y = np.linspace(-0.5, 0.5, 21)
    S = sine_action
    assert np.max(np.abs(S(0.0, y) - y)) < 1e-12
    assert np.max(np.abs(S(0.07 + 0.13, y) - S(0.07, S(0.13, y)))) < 1e-8


def test_nonmonotone_profile_rejected():
    r = np.linspace(-1, 1, 101)
    with pytest.raises(NonMonotoneG):
        TranslationAction(r, np.sin(4 * r))


def test_linearize_rejects_y0_outside_domain():
    S = _profile_action(lambda r: r)
    with pytest.raises(DomainMismatch) as info:
        linearize_translation_action(S, 0.7, (-0.5, 0.5))
    assert isinstance(info.value, AnosovLabError)
    assert "y0=0.7" in str(info.value)


def test_linearize_identity_translation():
    S = _profile_action(lambda r: r)
    lin = linearize_translation_action(S, 0.0, (-0.5, 0.5))
    assert lin.alpha == pytest.approx(1.0, abs=1e-10)
    assert lin.affinity_residual < 1e-10


def test_linearize_doubling_profile():
    # h(x) = 2x gives S(t, y) = y + 2t: g = id, alpha = 2
    S = _profile_action(lambda r: 2.0 * r)
    lin = linearize_translation_action(S, 0.0, (-0.5, 0.5))
    assert lin.alpha == pytest.approx(2.0, abs=1e-10)
    assert lin.affinity_residual < 1e-10


def test_linearize_sine_profile_alpha(sine_action):
    # oracle: alpha = h'(h^{-1}(0)) = 1 + 0.1 cos 0 = 1.1
    lin = linearize_translation_action(sine_action, 0.0, (-0.5, 0.5))
    assert lin.alpha == pytest.approx(1.1, abs=1e-6)
    assert lin.affinity_residual < 1e-8


def test_alpha_from_disjoint_subdomains(sine_action):
    lin_a = linearize_translation_action(sine_action, 0.0, (-0.5, 0.5),
                                         t_max=0.1)
    lin_b = linearize_translation_action(sine_action, 0.0, (-0.5, 0.5),
                                         t_max=0.25)
    assert lin_a.alpha == pytest.approx(lin_b.alpha, abs=1e-8)


def _ref_solve_t(S, y, y0, t_range):
    """One node: bisection bracketing plus secant polish."""

    def f(t):
        return float(S(t, y)) - y0

    lo, hi = -t_range, t_range
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if np.sign(f_lo) == np.sign(f_hi):
        raise RootBracketFailed(f"no sign change for y={y}")
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if np.sign(f_mid) == np.sign(f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    t0, t1, f0, f1 = lo, hi, f_lo, f_hi
    for _ in range(60):
        if f1 == f0:
            break
        t2 = min(max(t1 - f1 * (t1 - t0) / (f1 - f0), -t_range), t_range)
        f2 = f(t2)
        t0, f0, t1, f1 = t1, f1, t2, f2
        if abs(f2) < 1e-12 or abs(t1 - t0) < 1e-15:
            break
    return t1


def test_solve_t_matches_scalar_reference(sine_action):
    ys = np.linspace(-0.5, 0.5, 101)
    doubling = _profile_action(lambda r: 2.0 * r)
    cases = [
        (sine_action, 0.0, ys),
        (doubling, 0.13, ys),
        # node 0.3 has its root exactly at the first midpoint, t = 0
        (sine_action, float(sine_action(0.0, 0.3)), np.append(ys, 0.3)),
        # node 0.2 has its root exactly at the bracket end t = -4
        (sine_action, float(sine_action(-4.0, 0.2)), np.linspace(-0.5, 0.2, 8)),
    ]
    for S, y0, nodes in cases:
        got = _solve_t(S, nodes, y0, 4.0)
        want = np.array([_ref_solve_t(S, float(y), y0, 4.0) for y in nodes])
        assert np.array_equal(got, want)
    assert got[-1] == -4.0


def test_solve_t_names_first_unbracketed_y(sine_action):
    with pytest.raises(RootBracketFailed, match=r"^no sign change for y=2\.5 in t range \+-0\.5$"):
        _solve_t(sine_action, np.array([0.0, 0.1, 2.5, 3.0]), 0.0, 0.5)


def test_cocycle_identity(sine_action):
    lin = linearize_translation_action(sine_action, 0.0, (-0.5, 0.5))
    z = np.linspace(-0.2, 0.2, 9)
    for t in (0.02, 0.05):
        for s in (0.03, 0.07):
            lhs = lin.conjugated(t + s, z)
            rhs = lin.conjugated(s, lin.conjugated(t, z))
            assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_regularity_of_rigid_translation():
    S = _profile_action(lambda r: r)
    sup = verify_action_regularity(S, np.linspace(0, 0.1, 4), np.linspace(-0.4, 0.4, 17))
    assert sup < 1e-10


def test_regularity_smooth_profile(sine_action):
    sup = verify_action_regularity(sine_action, np.linspace(0, 0.1, 4),
                                   np.linspace(-0.4, 0.4, 17))
    assert sup < 1e-4


def test_factor_linear_zero(e1, e2):
    res = factor_translation_linear(e1, e2, 0.0)
    assert res.slide_r == 0.0 and res.translation_t == 0.0


def test_factor_linear_standard_pair(e1, e2):
    res = factor_translation_linear(e1, e2, 1.0)
    assert res.translation_t == pytest.approx(-0.8090170, abs=1e-6)
    assert res.slide_r == pytest.approx(-1.8090170, abs=1e-6)
    # defining identity s v1s + r v2s = t v1u in slope normalization
    v = lambda w: np.asarray(w) / w[0]
    resid = 1.0 * v(e1.vs) + res.slide_r * v(e2.vs) - res.translation_t * v(e1.vu)
    assert np.linalg.norm(resid) < 1e-12


def test_factor_linear_in_s(e1, e2):
    t1 = factor_translation_linear(e1, e2, 0.4).translation_t
    t2 = factor_translation_linear(e1, e2, 0.8).translation_t
    assert t2 == pytest.approx(2 * t1, abs=1e-12)


def test_factor_singular_for_dependent_directions(e1):
    # the stable direction of A^{-1} is the unstable direction of A
    from anosov_lab.lattice import invert
    with pytest.raises(SingularSystem):
        factor_translation_linear(e1, eigen_data(invert(e1.matrix)), 1.0)


def test_factor_numeric_matches_linear(e1, e2, linear_fields):
    tau = integrate_leaf(linear_fields["f1u"], np.zeros(2), 3.0, centered=True)
    lin = factor_translation_linear(e1, e2, 1.0)
    num = factor_translation_numeric(
        linear_fields["f1s"], linear_fields["f2s"], tau, e1, e2, 1.0)
    assert num.numeric_deviation < 1e-8
    assert num.translation_t == pytest.approx(lin.translation_t, abs=1e-10)


def test_factor_numeric_zero_slide(e1, e2, linear_fields):
    tau = integrate_leaf(linear_fields["f1u"], np.zeros(2), 2.0, centered=True)
    num = factor_translation_numeric(
        linear_fields["f1s"], linear_fields["f2s"], tau, e1, e2, 0.0)
    assert num.numeric_deviation < 1e-10


def test_translation_action_from_identity_conjugacy(e1, linear_g1):
    h = solve_conjugacy(e1, linear_g1, n=64)
    S = translation_action_from_conjugacy(h, np.zeros(2), e1.vu, 0.3)
    y = np.linspace(-0.1, 0.1, 9)
    assert np.max(np.abs(S(0.05, y) - (y + 0.05))) < 1e-10


def test_translation_action_flow_from_smooth_conjugacy(e1, conj_g1):
    h = solve_conjugacy(e1, conj_g1, n=256)
    S = translation_action_from_conjugacy(h, np.zeros(2), e1.vu, 0.3)
    y = np.linspace(-0.1, 0.1, 9)
    assert np.max(np.abs(S(0.0, y) - y)) < 1e-12
    assert np.max(np.abs(S(0.04 + 0.06, y) - S(0.04, S(0.06, y)))) < 1e-8


def test_teichmuller_obstructed_for_single_generator(e1, perturbed_contrast):
    verdict = teichmuller_experiment(e1, perturbed_contrast)
    assert verdict.verdict == "obstructed"
    assert verdict.diagnostics["periodic_max_mismatch"] > 1e-4


@pytest.fixture(scope="module")
def perturbed_contrast(e1):
    from anosov_lab.maps import PerturbedMap
    p = FourierPerturbation.from_sin_cos([((0, 1), (0.03 / (2 * np.pi), 0.0), None)])
    return PerturbedMap(e1, p)


class Planted(AnosovLabError):
    """A failure planted in one stage of ``teichmuller_experiment``."""


def _fail(*args, **kwargs):
    raise Planted("planted")


# stage -> (its callee as anosov_lab.rigidity sees it, the diagnostic it
# writes, the stages that need its output)
STAGES = {
    "solve_conjugacy": ("solve_conjugacy", "conjugacy_sup_norm",
                        {"estimate_holder_exponent", "prop1", "jacobian"}),
    "compare_smooth_invariants": ("compare_smooth_invariants", "periodic_max_mismatch", set()),
    "estimate_holder_exponent": ("estimate_holder_exponent", "holder_exponent", set()),
    "line_fields": ("line_fields", "line_field_depths", {"tangency_propagation"}),
    "tangency_propagation": ("tangency_propagation_check", "propagation_rows", set()),
    "prop1": ("_prop1_along", "prop1", set()),
    "jacobian": (None, "jacobian_refinement_sup", set()),  # Conjugacy.secant_jacobian
}


@pytest.mark.parametrize("stage", STAGES)
def test_teichmuller_failed_stage_leaves_the_others(monkeypatch, e1, e2, linear_g1, linear_g2,
                                                    stage):
    callee, _, needs_it = STAGES[stage]
    if callee is None:
        monkeypatch.setattr(Conjugacy, "secant_jacobian", _fail)
    else:
        monkeypatch.setattr(rigidity, callee, _fail)
    verdict = teichmuller_experiment(e1, linear_g1, e2, linear_g2, grid_n=64, field_n=32)
    assert verdict.errors == [f"{stage}: Planted: planted"]
    assert verdict.verdict == "inconclusive"
    reported = {name for name, (_, key, _) in STAGES.items() if key in verdict.diagnostics}
    assert reported == set(STAGES) - {stage} - needs_it


def test_teichmuller_names_diverged_periodic_seeds(e1):
    """phi = id + (0.15 sin 2 pi x2, 0): Newton diverges from 2 of the 5
    period-2 seeds, and the 3 orbits found are not an obstruction."""
    phi = Diffeo(FourierPerturbation.from_sin_cos([((0, 1), (0.15, 0.0), None)]))
    verdict = teichmuller_experiment(e1, ConjugatedMap(phi, e1), grid_n=64, max_period=2)
    assert verdict.verdict == "inconclusive"
    assert verdict.errors[0] == (
        "compare_smooth_invariants: NewtonFailed: 2 periodic seeds did not converge, "
        "first: seed (0.6, 0.2) for k=(3, 2), period 2")
    assert verdict.errors[1].startswith("pair: only one generator map was given")
    assert len(verdict.errors) == 2
    assert len(verdict.diagnostics["periodic_rows"]) == 3
