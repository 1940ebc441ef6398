"""Acceptance suite: one test per top-level criterion, each printing a
single PASS/FAIL line with the measured values."""

import math

import numpy as np

from anosov_lab.cli import main as cli_main
from anosov_lab.conjugacy import (
    find_periodic_points,
    solve_conjugacy,
)
from anosov_lab.fourier import FourierPerturbation
from anosov_lab.foliations import (
    compute_line_field,
    holonomy,
    integrate_leaf,
    min_transversality_angle,
)
from anosov_lab.lattice import check_pair_hypothesis, eigen_data, power
from anosov_lab.maps import ConjugatedMap, Diffeo, PerturbedMap
from anosov_lab.rigidity import (
    TranslationAction,
    factor_translation_linear,
    factor_translation_numeric,
    linearize_translation_action,
    tangency_propagation_check,
    teichmuller_experiment,
)


def _verdict(n, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n} ({name}): {detail}")
    assert ok, f"criterion {n} ({name}): {detail}"


def _phi(dq_sup):
    # q = (dq_sup / 2 pi) sin(2 pi x2) e1, so ||Dq||_inf = dq_sup exactly
    if dq_sup == 0.0:
        return Diffeo(FourierPerturbation.zero())
    q = FourierPerturbation.from_sin_cos([((0, 1), (dq_sup / (2 * math.pi), 0.0), None)])
    return Diffeo(q)


def test_criterion_1_pair_hypothesis(e1, e2):
    cert = check_pair_hypothesis(e1, e2)
    sine = cert.min_pairwise_sine
    degenerate = check_pair_hypothesis(e1, eigen_data(power(e1.matrix, 2)))
    ok = (abs(sine - 0.4472136) <= 1e-6 and cert.hypothesis_ok
          and degenerate.min_pairwise_sine == 0.0 and not degenerate.hypothesis_ok)
    _verdict(1, "pair hypothesis", ok,
             f"min_pairwise_sine={sine:.7f} ok={cert.hypothesis_ok}; "
             f"degenerate sine={degenerate.min_pairwise_sine} ok={degenerate.hypothesis_ok}")


def test_criterion_2_conjugacy_solver(e1, phi02, conj_g1, linear_g1):
    h = solve_conjugacy(e1, conj_g1, n=256)
    n = h.displacement.grid_size
    idx = np.arange(n * n)
    grid = np.column_stack([(idx // n) / n, (idx % n) / n])
    sup_dist = float(np.max(np.abs(h.lift(grid) - phi02.lift(grid))))
    residual = h.residual_on_grid(64)
    h0 = solve_conjugacy(e1, linear_g1, n=256)
    zero_sup = h0.displacement.sup_norm
    ok = sup_dist < 1e-6 and residual < 1e-9 and zero_sup == 0.0
    _verdict(2, "conjugacy solver", ok,
             f"sup|h-phi|={sup_dist:.3e} residual={residual:.3e} u_zero={zero_sup}")


def test_criterion_3_prop1_pipeline():
    r = np.arange(-3.0, 3.0 + 5e-4, 1e-3)
    S = TranslationAction(r, r + 0.1 * np.sin(r))
    lin = linearize_translation_action(S, 0.0, (-0.5, 0.5))
    alpha_err = abs(lin.alpha - 1.1)
    z = np.linspace(-0.2, 0.2, 9)
    cocycle = max(
        float(np.max(np.abs(lin.conjugated(t + s, z) - lin.conjugated(s, lin.conjugated(t, z)))))
        for t in (0.02, 0.05) for s in (0.03, 0.07))
    lin_b = linearize_translation_action(S, 0.0, (-0.5, 0.5), t_max=0.1)
    sub_err = abs(lin.alpha - lin_b.alpha)
    ok = (alpha_err <= 1e-6 and lin.affinity_residual < 1e-8
          and cocycle <= 1e-10 and sub_err <= 1e-8)
    _verdict(3, "Prop 1 pipeline", ok,
             f"alpha={lin.alpha:.9f} residual={lin.affinity_residual:.3e} "
             f"cocycle={cocycle:.3e} subdomain_alpha_diff={sub_err:.3e}")


def test_criterion_4_holonomy_factorization(e1, e2, linear_fields):
    lin = factor_translation_linear(e1, e2, 1.0)
    tau = integrate_leaf(linear_fields["f1u"], np.zeros(2), 3.0, centered=True)
    num = factor_translation_numeric(
        linear_fields["f1s"], linear_fields["f2s"], tau, e1, e2, 1.0)
    t_err = abs(num.translation_t - lin.translation_t)
    ok = (num.numeric_deviation < 1e-8 and t_err < 1e-8
          and abs(lin.translation_t - (-0.8090170)) <= 1e-6)
    _verdict(4, "holonomy factorization", ok,
             f"t={lin.translation_t:.7f} numeric_t_err={t_err:.3e} "
             f"deviation={num.numeric_deviation:.3e}")


def test_criterion_5_lemma2_transversality(linear_fields, e1, e2):
    angle, _ = min_transversality_angle(linear_fields["f1u"], linear_fields["f2s"])
    deg = math.degrees(angle)
    phi = _phi(0.05)
    fields = {
        "f1u": compute_line_field(ConjugatedMap(phi, e1), "unstable"),
        "f2s": compute_line_field(ConjugatedMap(phi, e2), "stable"),
    }
    conj_angle, _ = min_transversality_angle(fields["f1u"], fields["f2s"])
    tangency_events = 0
    try:
        tau1 = integrate_leaf(fields["f1u"], np.array([0.1, 0.2]), 0.6, centered=True)
        tau2 = integrate_leaf(fields["f1u"], np.array([0.3, 0.15]), 0.8, centered=True)
        holonomy(fields["f2s"], tau1, tau2, span=(-0.2, 0.2), budget=1.5)
    except Exception:
        tangency_events += 1
    ok = abs(deg - 63.435) <= 0.01 and conj_angle > 0.05 and tangency_events == 0
    _verdict(5, "Lemma 2 transversality", ok,
             f"linear={deg:.5f} deg; conjugated(||Dq||=0.05)={conj_angle:.4f} rad; "
             f"tangency_events={tangency_events}")


def test_criterion_6_lemma3_transport(linear_fields, e1, conj_g1, conj_g2):
    rows_lin = tangency_propagation_check(
        linear_fields["f1u"], linear_fields["f1s"], linear_fields["f2s"],
        np.zeros(2), e1, radius=1, step=4e-3)
    dev_lin = max(r.transport_deviation for r in rows_lin)
    fields = {
        "f1u": compute_line_field(conj_g1, "unstable"),
        "f1s": compute_line_field(conj_g1, "stable"),
        "f2s": compute_line_field(conj_g2, "stable"),
    }
    rows_smooth = tangency_propagation_check(
        fields["f1u"], fields["f1s"], fields["f2s"], np.zeros(2), e1,
        radius=1, step=4e-3, nonlinear=True)
    dev_smooth = max(r.transport_deviation for r in rows_smooth)
    ok = (len(rows_lin) == 8 and dev_lin < 1e-8
          and len(rows_smooth) >= 8 and dev_smooth < 1e-3)
    _verdict(6, "Lemma 3 graph transport", ok,
             f"count={len(rows_lin)} linear_dev={dev_lin:.3e} smooth_dev={dev_smooth:.3e}")


def test_criterion_7_teichmuller_end_to_end(e1, e2):
    details = []
    ok = True
    for dq in (0.0, 0.01, 0.02, 0.05):
        phi = _phi(dq)
        verdict = teichmuller_experiment(
            e1, ConjugatedMap(phi, e1), e2, ConjugatedMap(phi, e2), phi=phi)
        jac_match = verdict.diagnostics.get("jacobian_vs_dphi_sup", float("inf"))
        run_ok = verdict.verdict == "smooth" and jac_match < 1e-3
        ok = ok and run_ok
        details.append(f"||Dq||={dq}: {verdict.verdict}, jac_vs_Dphi={jac_match:.2e}")
    p = FourierPerturbation.from_sin_cos([((0, 1), (0.03 / (2 * math.pi), 0.0), None)])
    contrast = teichmuller_experiment(e1, PerturbedMap(e1, p))
    mism = contrast.diagnostics["periodic_max_mismatch"]
    contrast_ok = contrast.verdict == "obstructed" and mism > 1e-4
    ok = ok and contrast_ok
    details.append(f"contrast: {contrast.verdict}, mismatch={mism:.2e}")
    _verdict(7, "Theorem 1 end-to-end", ok, "; ".join(details))


def test_criterion_8_periodic_counts(e1):
    p = FourierPerturbation.from_sin_cos([((0, 1), (0.03 / (2 * math.pi), 0.0), None)])
    counts = {}
    ok = True
    for label, g in (("linear", PerturbedMap(e1, FourierPerturbation.zero())),
                     ("perturbed", PerturbedMap(e1, p))):
        o1, f1 = find_periodic_points(g, e1, 1)
        o2, f2 = find_periodic_points(g, e1, 2)
        c1 = sum(len(o.points) for o in o1)
        c2 = sum(len(o.points) for o in o2)
        counts[label] = (c1, c2)
        ok = ok and not f1 and not f2 and c1 == 1 and c2 == 5
    _verdict(8, "periodic counts", ok,
             f"fixed/period<=2 counts: {counts} (oracle 1 and 5)")


def test_criterion_9_determinism(tmp_path):
    out = tmp_path / "repro"
    args = ["periodic-data", "--set", "experiment.seed=7", "--out", str(out)]
    assert cli_main(list(args)) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir() if "timings" not in p.name}
    assert cli_main(list(args)) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir() if "timings" not in p.name}
    ok = first == second and len(first) > 0
    _verdict(9, "byte-identical reports", ok,
             f"{len(first)} files compared byte-for-byte across two runs")
