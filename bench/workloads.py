"""The benchmark's workloads and the correctness checks run on every report.

Each workload is one ``anosov-lab teichmuller`` experiment given as
``--set`` overrides of the default config.  Its checks read the JSON report
the program wrote and compare it with the closed forms in ``oracles``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from oracles import (
    PerturbedAutomorphism,
    closing_error,
    conjugated_alpha,
    conjugated_transversality,
    eigen,
    line_angle,
    mismatch,
    multipliers,
    orbit_count,
)

GEN1 = ((2, 1), (1, 1))
GEN2 = ((1, 1), (1, 2))
FIELD_N = 128  # resolution.field_n of the default config
PHI_MODES = ({"k": [0, 1], "sin": [0.02, 0]},)
# eps with 2 pi eps = 0.03, so |Dp| = 0.03 and Dg(0) = [[2, 1.03], [1, 1]]
PERTURBATION_EPS = 0.0047746482927568605


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def _within(name, value, expected, tol):
    ok = isinstance(value, (int, float)) and abs(value - expected) <= tol
    return Check(name, ok, f"{_show(value)} vs {_show(expected)} (tol {tol:g})")


def _below(name, value, limit):
    ok = isinstance(value, (int, float)) and value < limit
    return Check(name, ok, f"{_show(value)} < {limit:g}")


def _show(value):
    return repr(float(value)) if isinstance(value, float) else repr(value)


def _equal(name, value, expected):
    return Check(name, value == expected, f"{value!r} == {expected!r}")


def _get(doc, path):
    """doc["a"]["b"]... for a dotted path, or None where a key is missing."""
    for key in path.split("."):
        if not isinstance(doc, dict) or key not in doc:
            return None
        doc = doc[key]
    return doc


def _rows(report, name):
    rows = _get(report, f"diagnostics.diagnostics.{name}")
    return rows if isinstance(rows, list) else []


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # linear | conjugated | perturbed
    expected_exit: int
    verdict: str
    max_period: int = 2
    grid_n: int = 256
    phi_modes: tuple = ()
    eps: float = 0.0

    def overrides(self, seed: int) -> list:
        sets = []
        if self.kind == "conjugated":
            sets += ["action.kind=conjugated",
                     "action.diffeo=" + json.dumps(list(self.phi_modes), separators=(",", ":"))]
        if self.kind == "perturbed":
            modes = [{"k": [0, 1], "sin": [self.eps, 0]}]
            sets += ["action.kind=perturbed",
                     "action.perturbation=" + json.dumps(modes, separators=(",", ":")),
                     f"resolution.grid_n={self.grid_n}",
                     f"resolution.max_period={self.max_period}"]
        return sets + [f"experiment.seed={seed}"]

    def cli_args(self, seed: int, out_dir: str) -> list:
        args = ["teichmuller"]
        for item in self.overrides(seed):
            args += ["--set", item]
        return args + ["--out", out_dir]

    def check(self, report: dict, exit_code: int):
        """(checks, errors): the pass/fail list and the check.* error sizes."""
        checks = [_equal("exit code", exit_code, self.expected_exit),
                  _equal("verdict", report.get("verdict"), self.verdict)]
        errors = {"alpha_err": 0.0, "transversality_err": 0.0, "lemma3_deviation": 0.0,
                  "jacobian_vs_dphi": 0.0}
        mult_checks, errors["periodic_mult_err"] = self._check_periodic(report)
        checks += mult_checks
        if self.kind == "linear":
            checks += self._check_linear(report, errors)
        elif self.kind == "conjugated":
            checks += self._check_conjugated(report, errors)
        return checks, errors

    def _check_periodic(self, report):
        rows = _rows(report, "periodic_rows")
        counts = [sum(1 for r in rows if r.get("period") == n) for n in range(1, self.max_period + 1)]
        checks = [_equal("orbit counts per period", counts,
                         [orbit_count(n) for n in range(1, self.max_period + 1)])]
        lam_u, lam_s, _, _ = eigen(GEN1)
        g = PerturbedAutomorphism(GEN1, self.eps)
        worst_close = worst_tr = worst_det = worst_rel = 0.0
        for r in rows:
            n, x = r["period"], (r["point_x"], r["point_y"])
            if self.kind == "perturbed":
                worst_close = max(worst_close, closing_error(g, x, n))
                _, prod = g.orbit_product(x, n)
                tr = prod[0, 0] + prod[1, 1]
                det = prod[0, 0] * prod[1, 1] - prod[0, 1] * prod[1, 0]
                worst_tr = max(worst_tr, abs(r["mult_u"] + r["mult_s"] - tr) / max(1.0, abs(tr)))
                worst_det = max(worst_det, abs(r["mult_u"] * r["mult_s"] - det) / max(1.0, abs(det)))
                ref_u, ref_s = multipliers(prod)
            else:
                ref_u, ref_s = lam_u ** n, lam_s ** n
            worst_rel = max(worst_rel, abs(r["mult_u"] - ref_u) / abs(ref_u),
                            abs(r["mult_s"] - ref_s) / abs(ref_s))
        if self.kind == "perturbed":
            checks += [
                _below("g^n(x) = x mod 1 at every orbit point", worst_close, 1e-9),
                _below("mult_u + mult_s = trace of the orbit product (rel)", worst_tr, 1e-9),
                _below("mult_u * mult_s = det of the orbit product (rel)", worst_det, 1e-9),
            ]
            fixed = [r for r in rows if r["period"] == 1]
            dg0 = g.jacobian((0.0, 0.0))[0]
            expected = mismatch(multipliers(dg0)[0], 1, lam_u)
            checks += [
                _equal("period-1 orbit is the fixed point 0",
                       [(r["point_x"], r["point_y"]) for r in fixed], [(0.0, 0.0)]),
                _within("period-1 mismatch = closed form at Dg(0)",
                        fixed[0]["mismatch"] if fixed else None, expected, 1e-9),
            ]
        elif self.kind == "linear":
            checks.append(_below("periodic multipliers = lambda^n (rel)", worst_rel, 1e-9))
        return checks, float(worst_rel)

    def _check_linear(self, report, errors):
        _, _, v1u, _ = eigen(GEN1)
        _, _, _, v2s = eigen(GEN2)
        angle = float(line_angle(v1u, v2s))  # atan 2
        a_u = _get(report, "diagnostics.diagnostics.prop1.alpha_unstable")
        a_s = _get(report, "diagnostics.diagnostics.prop1.alpha_stable")
        theta = _get(report, "diagnostics.transversality_min_angle")
        rows = _rows(report, "propagation_rows")
        checks = [
            _within("alpha_unstable = 1", a_u, 1.0, 1e-9),
            _within("alpha_stable = 1", a_s, 1.0, 1e-9),
            _within("transversality_min_angle = atan 2", theta, angle, 1e-9),
            _equal("propagation rows = nonzero k in {-1,0,1}^2",
                   sorted(tuple(r["lattice"]) for r in rows),
                   [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1) if (i, j) != (0, 0)]),
        ]
        worst_angle = max((abs(r["angle"] - angle) for r in rows), default=math.inf)
        worst_slope = max((abs(r["measured_slope"] - r["predicted_slope"]) for r in rows),
                          default=math.inf)
        checks += [_below("propagation angles = atan 2", worst_angle, 1e-9),
                   _below("measured slope = predicted slope", worst_slope, 1e-8)]
        errors.update(_alpha_theta_errors(a_u, a_s, 1.0, 1.0, theta, angle))
        errors["lemma3_deviation"] = _number(_get(report, "diagnostics.lemma3_deviation"))
        return checks

    def _check_conjugated(self, report, errors):
        _, _, v1u, v1s = eigen(GEN1)
        ref_u = conjugated_alpha(self.phi_modes, v1u)
        ref_s = conjugated_alpha(self.phi_modes, v1s)
        ref_theta = conjugated_transversality(self.phi_modes, GEN1, GEN2, FIELD_N)
        a_u = _get(report, "diagnostics.diagnostics.prop1.alpha_unstable")
        a_s = _get(report, "diagnostics.diagnostics.prop1.alpha_stable")
        theta = _get(report, "diagnostics.transversality_min_angle")
        jac = _get(report, "diagnostics.diagnostics.jacobian_vs_dphi_sup")
        checks = [
            _within("alpha_unstable = |Dphi(0) v_u|", a_u, ref_u, 1e-6),
            _within("alpha_stable = |Dphi(0) v_s|", a_s, ref_s, 1e-6),
            _within("transversality_min_angle = grid min of Dphi-pushed eigenlines",
                    theta, ref_theta, 1e-6),
            _below("jacobian_vs_dphi_sup", jac, 1e-3),
            _below("periodic_max_mismatch", _get(report, "diagnostics.diagnostics.periodic_max_mismatch"), 1e-9),
            _within("holder_exponent = 1", _get(report, "diagnostics.diagnostics.holder_exponent"), 1.0, 0.02),
        ]
        errors.update(_alpha_theta_errors(a_u, a_s, ref_u, ref_s, theta, ref_theta))
        errors["lemma3_deviation"] = _number(_get(report, "diagnostics.lemma3_deviation"))
        errors["jacobian_vs_dphi"] = _number(jac)
        return checks


def _number(value):
    return float(value) if isinstance(value, (int, float)) else math.nan


def _alpha_theta_errors(a_u, a_s, ref_u, ref_s, theta, ref_theta):
    return {
        "alpha_err": max(abs(_number(a_u) - ref_u), abs(_number(a_s) - ref_s)),
        "transversality_err": abs(_number(theta) - ref_theta),
    }


WORKLOADS = {w.name: w for w in (
    Workload("teichmuller-linear", "linear", expected_exit=0, verdict="smooth"),
    Workload("teichmuller-conjugated", "conjugated", expected_exit=0, verdict="smooth",
             phi_modes=PHI_MODES),
    Workload("teichmuller-perturbed", "perturbed", expected_exit=2, verdict="obstructed",
             max_period=7, grid_n=1024, eps=PERTURBATION_EPS),
)}
