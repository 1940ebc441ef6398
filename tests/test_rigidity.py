import numpy as np
import pytest

from anosov_lab import rigidity
from anosov_lab.conjugacy import Conjugacy, solve_conjugacy
from anosov_lab.errors import (
    AnosovLabError,
    DomainMismatch,
    NonMonotoneG,
    SingularSystem,
)
from anosov_lab.fourier import FourierPerturbation
from anosov_lab.lattice import eigen_data
from anosov_lab.maps import ConjugatedMap, Diffeo
from anosov_lab.rigidity import (
    TranslationAction,
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


@pytest.fixture(scope="module")
def h_profiles(e1):
    """The actions of h along v_u and v_s through 0, as the prop1 stage
    builds them, for phi = id + (a sin 2 pi x2, 0) at a = 0.02 and 0.15."""
    actions = []
    for amp in (0.02, 0.15):
        phi = Diffeo(FourierPerturbation.from_sin_cos([((0, 1), (amp, 0.0), None)]))
        h = solve_conjugacy(ConjugatedMap(phi, e1), n=256)
        actions += [rigidity._prop1_along(h, v, 0.35, 2e-3) for v in (e1.vu, e1.vs)]
    return actions


def test_time_to_lands_on_y0_at_every_node(sine_action, h_profiles):
    doubling = _profile_action(lambda r: 2.0 * r)
    cases = [(S, linearize_translation_action(S, y0, (-0.5, 0.5)))
             for S, y0 in ((sine_action, 0.0), (doubling, 0.13))]
    for S, lin in cases + h_profiles:
        ys = lin.g.x  # the quadrature nodes
        assert np.max(np.abs(S(S.time_to(lin.y0, ys), ys) - lin.y0)) <= 1e-15


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


def test_factor_numeric_matches_linear(e1, e2, linear_g1, linear_g2):
    lin = factor_translation_linear(e1, e2, 1.0)
    num = factor_translation_numeric(linear_g1, linear_g2, 1.0)
    assert num.numeric_deviation < 1e-8
    assert num.translation_t == pytest.approx(lin.translation_t, abs=1e-10)


def test_factor_numeric_zero_slide(linear_g1, linear_g2):
    num = factor_translation_numeric(linear_g1, linear_g2, 0.0)
    assert num.numeric_deviation < 1e-10


def test_translation_action_from_identity_conjugacy(e1, linear_g1):
    h = solve_conjugacy(linear_g1, n=64)
    S = translation_action_from_conjugacy(h, np.zeros(2), e1.vu, 0.3)
    y = np.linspace(-0.1, 0.1, 9)
    assert np.max(np.abs(S(0.05, y) - (y + 0.05))) < 1e-10


def test_translation_action_flow_from_smooth_conjugacy(e1, conj_g1):
    h = solve_conjugacy(conj_g1, n=256)
    S = translation_action_from_conjugacy(h, np.zeros(2), e1.vu, 0.3)
    y = np.linspace(-0.1, 0.1, 9)
    assert np.max(np.abs(S(0.0, y) - y)) < 1e-12
    assert np.max(np.abs(S(0.04 + 0.06, y) - S(0.04, S(0.06, y)))) < 1e-8


def test_teichmuller_obstructed_for_single_generator(perturbed_contrast):
    verdict = teichmuller_experiment(perturbed_contrast)
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
    "line_fields": ("line_fields", "line_field_changes", {"tangency_propagation"}),
    "tangency_propagation": ("tangency_propagation_check", "propagation_rows", set()),
    "prop1": ("_prop1_along", "prop1", set()),
    "jacobian": (None, "jacobian_refinement_sup", set()),  # Conjugacy.secant_jacobian
}


@pytest.mark.parametrize("stage", STAGES)
def test_teichmuller_failed_stage_leaves_the_others(monkeypatch, linear_g1, linear_g2,
                                                    stage):
    callee, _, needs_it = STAGES[stage]
    if callee is None:
        monkeypatch.setattr(Conjugacy, "secant_jacobian", _fail)
    else:
        monkeypatch.setattr(rigidity, callee, _fail)
    verdict = teichmuller_experiment(linear_g1, linear_g2, grid_n=64, field_n=32)
    assert verdict.errors == [f"{stage}: Planted: planted"]
    assert verdict.verdict == "inconclusive"
    reported = {name for name, (_, key, _) in STAGES.items() if key in verdict.diagnostics}
    assert reported == set(STAGES) - {stage} - needs_it


def test_teichmuller_smooth_with_every_periodic_orbit_of_strong_phi(e1, e2):
    """phi = id + (0.15 sin 2 pi x2, 0) to period 7, where Newton from the
    linear seeds diverged at 1,258 of the 2,095 seeds: the periodic data
    hold every orbit, as many per period as the linear action has, and do
    not obstruct, and the run ends smooth."""
    phi = Diffeo(FourierPerturbation.from_sin_cos([((0, 1), (0.15, 0.0), None)]))
    verdict = teichmuller_experiment(ConjugatedMap(phi, e1), ConjugatedMap(phi, e2),
                                     max_period=7)
    assert (verdict.verdict, verdict.errors) == ("smooth", [])
    periods = [row["period"] for row in verdict.diagnostics["periodic_rows"]]
    assert [periods.count(n) for n in range(1, 8)] == [1, 3, 6, 13, 25, 58, 121]
    assert verdict.diagnostics["periodic_max_mismatch"] < 1e-12


@pytest.mark.parametrize("a", [0.05, 0.08, 0.10, 0.15])
def test_teichmuller_lemma3_on_strong_phi(e1, e2, a):
    """phi = id + (a sin 2 pi x2, 0): the local graphs sit at the u asked
    for, so no chart overflows, and every stage passes."""
    phi = Diffeo(FourierPerturbation.from_sin_cos([((0, 1), (a, 0.0), None)]))
    verdict = teichmuller_experiment(ConjugatedMap(phi, e1), ConjugatedMap(phi, e2))
    assert verdict.errors == []
    assert verdict.verdict == "smooth"
    # measured 1.6e-11 at a = 0.05, 9.5e-11 at a = 0.10 and 1.4e-10 at a = 0.15
    assert verdict.lemma3_deviation <= 1e-9
    assert len(verdict.diagnostics["propagation_rows"]) == 8


@pytest.mark.parametrize("modes", [
    [((1, 0), (0.3, -0.5), (0.2, 0.1)), ((1, 1), (-0.4, 0.2), (0.0, 0.3))],
    [((0, 1), (0.7, 0.1), (0.0, -0.2)), ((2, -1), (0.1, 0.4), (-0.3, 0.0))],
], ids=["A", "B"])
def test_teichmuller_reads_two_mode_phi_off_the_handles(e1, e2, modes):
    """A two-mode phi at ||Dq|| = 0.5, given only as the maps' own: the run
    ends smooth, and the secant Jacobian of h is D phi, read off g1."""
    q = FourierPerturbation.from_sin_cos(modes)
    phi = Diffeo(q.scaled(0.5 / q.deriv_bound))
    verdict = teichmuller_experiment(ConjugatedMap(phi, e1), ConjugatedMap(phi, e2))
    assert (verdict.verdict, verdict.errors) == ("smooth", [])
    # measured 3.8e-8 on A and 2.4e-7 on B
    assert verdict.diagnostics["jacobian_vs_dphi_sup"] < 1e-6
