"""Tests of the benchmark's oracles and checks (no anosov_lab import).

    python3 -m pytest bench/test_oracles.py

The oracles are pinned to known constants, a report built from the oracles
passes every check, and each check rejects that report once its checked
value is moved by more than the check's tolerance.
"""

import copy
import dataclasses
import math

import numpy as np
import pytest

from oracles import (
    PerturbedAutomorphism,
    TrigMap,
    conjugated_alpha,
    conjugated_transversality,
    eigen,
    fixed_points,
    line_angle,
    mismatch,
    multipliers,
    orbit_count,
)
from workloads import FIELD_N, GEN1, GEN2, PERTURBATION_EPS, PHI_MODES, WORKLOADS

GOLDEN = (1 + math.sqrt(5)) / 2


def test_eigen_data_closed_forms():
    lam_u, lam_s, v1u, v1s = eigen(GEN1)
    assert lam_u == pytest.approx(2.6180340, abs=5e-8)
    assert lam_u == pytest.approx(GOLDEN ** 2, rel=1e-15)
    assert lam_u * lam_s == pytest.approx(1.0, rel=1e-15)
    a = np.array(GEN1, dtype=float)
    assert np.allclose(a @ v1u, lam_u * v1u, atol=1e-14)
    assert np.allclose(a @ v1s, lam_s * v1s, atol=1e-14)


def test_transversality_of_the_linear_pair_is_atan_2():
    _, _, v1u, v1s = eigen(GEN1)
    _, _, v2u, v2s = eigen(GEN2)
    assert float(line_angle(v1u, v2s)) == pytest.approx(1.1071487, abs=5e-8)
    assert float(line_angle(v1u, v2s)) == pytest.approx(math.atan(2), abs=1e-15)
    assert float(line_angle(v2u, v1s)) == pytest.approx(math.atan(2), abs=1e-15)


def test_orbit_counts():
    assert [orbit_count(n) for n in range(1, 8)] == [1, 3, 6, 13, 25, 58, 121]
    a = np.array(GEN1, dtype=np.int64)
    power = np.eye(2, dtype=np.int64)
    for n in range(1, 8):
        power = power @ a
        assert fixed_points(n) == abs(round(np.linalg.det(power - np.eye(2))))


def test_phi_closed_forms():
    _, _, v1u, v1s = eigen(GEN1)
    assert conjugated_alpha(PHI_MODES, v1u) == pytest.approx(1.0567694, abs=5e-8)
    assert conjugated_alpha(PHI_MODES, v1s) == pytest.approx(0.9481718, abs=5e-8)
    m = TrigMap(PHI_MODES)
    y = np.random.default_rng(0).random((64, 2))
    assert np.max(np.abs(m.phi(m.phi_inverse(y)) - y)) < 1e-14
    # D phi against a centered difference of phi
    x, h = y[:8], 1e-6
    for col, e in enumerate(np.eye(2)):
        fd = (m.phi(x + h * e) - m.phi(x - h * e)) / (2 * h)
        assert np.max(np.abs(fd - m.dphi(x)[:, :, col])) < 1e-8
    # phi only moves x1 by 0.02 sin 2 pi x2, so the pushed fields at x2 = 0
    # are the linear ones and the grid minimum lies below atan 2
    assert conjugated_transversality(PHI_MODES, GEN1, GEN2, FIELD_N) < math.atan(2)


def test_perturbed_map_derivative_at_zero():
    g = PerturbedAutomorphism(GEN1, PERTURBATION_EPS)
    assert np.allclose(g.jacobian((0.0, 0.0))[0], [[2.0, 1.03], [1.0, 1.0]], atol=1e-15)
    big, small = multipliers(g.jacobian((0.0, 0.0))[0])
    assert big + small == pytest.approx(3.0) and big * small == pytest.approx(0.97)


# --- reports built from the oracles ---------------------------------------

def _linear_periodic_rows(max_period):
    lam_u, lam_s, _, _ = eigen(GEN1)
    return [{"period": n, "point_x": 0.0, "point_y": 0.0, "mult_u": lam_u ** n,
             "mult_s": lam_s ** n, "mismatch": 0.0}
            for n in range(1, max_period + 1) for _ in range(orbit_count(n))]


def _linear_report():
    angle = math.atan(2)
    rows = [{"lattice": [i, j], "angle": angle, "measured_slope": 2.0, "predicted_slope": 2.0,
             "transport_deviation": 1e-14}
            for i in (-1, 0, 1) for j in (-1, 0, 1) if (i, j) != (0, 0)]
    return {"verdict": "smooth", "diagnostics": {
        "transversality_min_angle": angle, "lemma3_deviation": 1e-14,
        "diagnostics": {"prop1": {"alpha_unstable": 1.0, "alpha_stable": 1.0},
                        "periodic_rows": _linear_periodic_rows(2),
                        "propagation_rows": rows}}}


def _conjugated_report():
    _, _, v1u, v1s = eigen(GEN1)
    return {"verdict": "smooth", "diagnostics": {
        "transversality_min_angle": conjugated_transversality(PHI_MODES, GEN1, GEN2, FIELD_N),
        "lemma3_deviation": 1e-7,
        "diagnostics": {"prop1": {"alpha_unstable": conjugated_alpha(PHI_MODES, v1u),
                                  "alpha_stable": conjugated_alpha(PHI_MODES, v1s)},
                        "jacobian_vs_dphi_sup": 1e-7, "periodic_max_mismatch": 0.0,
                        "holder_exponent": 1.0, "periodic_rows": _linear_periodic_rows(2)}}}


def _periodic_orbits(g, n):
    """One point per orbit of period dividing n, by Newton from the exact
    periodic points of the linear part."""
    a = np.array(GEN1, dtype=float)
    m = np.linalg.matrix_power(a, n) - np.eye(2)
    points = []
    reach = int(np.abs(m).sum()) + 1  # |(A^n - I) x| for x in [0, 1)^2
    for k in np.ndindex(2 * reach + 1, 2 * reach + 1):
        k = np.array(k, dtype=float) - reach
        x = np.linalg.solve(m, k)
        if not np.all((x >= -1e-12) & (x < 1 - 1e-12)):
            continue
        x = np.where(np.abs(x) < 1e-12, 0.0, x)
        for _ in range(50):
            z, prod = g.orbit_product(x, n)
            res = z - x - k
            if np.max(np.abs(res)) < 1e-13:
                break
            x = x - np.linalg.solve(prod - np.eye(2), res)
        points.append(np.mod(x, 1.0))
    reps = []
    while points:
        x = points.pop(0)
        reps.append(x)
        y = x
        for _ in range(n):
            y = np.mod(g.lift(y)[0], 1.0)
            points = [p for p in points if np.max(np.abs((p - y + 0.5) % 1.0 - 0.5)) > 1e-8]
    return reps


def _perturbed_report(workload):
    g = PerturbedAutomorphism(GEN1, workload.eps)
    lam_u = eigen(GEN1)[0]
    rows = []
    for n in range(1, workload.max_period + 1):
        for x in _periodic_orbits(g, n):
            mult_u, mult_s = multipliers(g.orbit_product(x, n)[1])
            rows.append({"period": n, "point_x": float(x[0]), "point_y": float(x[1]),
                         "mult_u": mult_u, "mult_s": mult_s,
                         "mismatch": mismatch(mult_u, n, lam_u)})
    return {"verdict": "obstructed",
            "diagnostics": {"diagnostics": {"periodic_rows": rows}}}


PERTURBED = dataclasses.replace(WORKLOADS["teichmuller-perturbed"], max_period=3)
CASES = {
    "linear": (WORKLOADS["teichmuller-linear"], _linear_report, 0),
    "conjugated": (WORKLOADS["teichmuller-conjugated"], _conjugated_report, 0),
    "perturbed": (PERTURBED, lambda: _perturbed_report(PERTURBED), 2),
}


def _failing(case, mutate=None, exit_code=None):
    workload, build, ok_exit = CASES[case]
    report = build()
    if mutate:
        report = copy.deepcopy(report)
        mutate(report)
    checks, _ = workload.check(report, ok_exit if exit_code is None else exit_code)
    return {c.name for c in checks if not c.ok}


@pytest.mark.parametrize("case", sorted(CASES))
def test_oracle_report_passes_every_check(case):
    assert _failing(case) == set()


def _diag(report):
    return report["diagnostics"]


def _inner(report):
    return report["diagnostics"]["diagnostics"]


def _set(getter, key, change):
    def mutate(report):
        node = getter(report)
        node[key] = change(node[key])
    return mutate


def _row(name, index, key, change):
    return _set(lambda r: _inner(r)[name][index], key, change)


REJECTIONS = [
    ("linear", "exit code", None, 3),
    ("linear", "verdict", _set(lambda r: r, "verdict", lambda v: "inconclusive"), None),
    ("linear", "alpha_unstable = 1",
     _set(lambda r: _inner(r)["prop1"], "alpha_unstable", lambda v: v + 2e-9), None),
    ("linear", "alpha_stable = 1",
     _set(lambda r: _inner(r)["prop1"], "alpha_stable", lambda v: v - 2e-9), None),
    ("linear", "transversality_min_angle = atan 2",
     _set(_diag, "transversality_min_angle", lambda v: v + 2e-9), None),
    ("linear", "propagation rows = nonzero k in {-1,0,1}^2",
     _set(_inner, "propagation_rows", lambda rows: rows[1:]), None),
    ("linear", "propagation angles = atan 2",
     _row("propagation_rows", 3, "angle", lambda v: v - 2e-9), None),
    ("linear", "measured slope = predicted slope",
     _row("propagation_rows", 5, "measured_slope", lambda v: v + 2e-8), None),
    ("linear", "periodic multipliers = lambda^n (rel)",
     _row("periodic_rows", 2, "mult_u", lambda v: v * (1 + 2e-9)), None),
    ("linear", "orbit counts per period",
     _set(_inner, "periodic_rows", lambda rows: rows[:-1]), None),
    ("conjugated", "exit code", None, 2),
    ("conjugated", "verdict", _set(lambda r: r, "verdict", lambda v: "inconclusive"), None),
    ("conjugated", "alpha_unstable = |Dphi(0) v_u|",
     _set(lambda r: _inner(r)["prop1"], "alpha_unstable", lambda v: v + 2e-6), None),
    ("conjugated", "alpha_stable = |Dphi(0) v_s|",
     _set(lambda r: _inner(r)["prop1"], "alpha_stable", lambda v: v - 2e-6), None),
    ("conjugated", "transversality_min_angle = grid min of Dphi-pushed eigenlines",
     _set(_diag, "transversality_min_angle", lambda v: v + 2e-6), None),
    ("conjugated", "jacobian_vs_dphi_sup",
     _set(_inner, "jacobian_vs_dphi_sup", lambda v: 1e-3), None),
    ("conjugated", "periodic_max_mismatch",
     _set(_inner, "periodic_max_mismatch", lambda v: 1e-9), None),
    ("conjugated", "holder_exponent = 1",
     _set(_inner, "holder_exponent", lambda v: 0.979), None),
    ("conjugated", "orbit counts per period",
     _set(_inner, "periodic_rows", lambda rows: rows[1:]), None),
    ("perturbed", "exit code", None, 0),
    ("perturbed", "verdict", _set(lambda r: r, "verdict", lambda v: "smooth"), None),
    ("perturbed", "orbit counts per period",
     _set(_inner, "periodic_rows", lambda rows: rows[:-1]), None),
    ("perturbed", "g^n(x) = x mod 1 at every orbit point",
     _row("periodic_rows", 7, "point_x", lambda v: v + 1e-9), None),
    ("perturbed", "mult_u + mult_s = trace of the orbit product (rel)",
     _row("periodic_rows", 2, "mult_u", lambda v: v * (1 + 3e-9)), None),
    ("perturbed", "mult_u * mult_s = det of the orbit product (rel)",
     _row("periodic_rows", 2, "mult_s", lambda v: v * (1 + 3e-9)), None),
    ("perturbed", "period-1 orbit is the fixed point 0",
     _row("periodic_rows", 0, "point_y", lambda v: 1e-15), None),
    ("perturbed", "period-1 mismatch = closed form at Dg(0)",
     _row("periodic_rows", 0, "mismatch", lambda v: v + 2e-9), None),
]


@pytest.mark.parametrize("case,check,mutate,exit_code", REJECTIONS,
                         ids=[f"{c}:{n}" for c, n, _, _ in REJECTIONS])
def test_check_rejects_value_beyond_tolerance(case, check, mutate, exit_code):
    assert check in _failing(case, mutate, exit_code)


def test_every_check_has_a_rejection_case():
    named = {(case, check) for case, check, _, _ in REJECTIONS}
    for case in CASES:
        workload, build, ok_exit = CASES[case]
        checks, _ = workload.check(build(), ok_exit)
        assert {(case, c.name) for c in checks} <= named
