"""Command-line driver: config-described experiments to report bundles.

Exit codes: 0 complete (or verdict smooth), 2 verdict obstructed,
3 verdict inconclusive or hard sub-experiment failure, 1 usage or config error
or an output directory that cannot be written.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from . import reports
from .conjugacy import compare_smooth_invariants, solve_conjugacy
from .config import ExperimentConfig, load_config
from .errors import AnosovLabError, ConfigError, IoError
from .foliations import integrate_leaf, line_fields, min_transversality_angle
from .lattice import check_pair_hypothesis
from .rigidity import (
    TranslationAction,
    _prop1_along,
    factor_translation_linear,
    factor_translation_numeric,
    linearize_translation_action,
    tangency_propagation_check,
    teichmuller_experiment,
)

EXIT_USAGE = 1
# main starts every run at "complete" and a command may set another
# verdict; the verdict alone sets the exit code
EXIT_CODES = {"complete": 0, "smooth": 0, "obstructed": 2, "inconclusive": 3}


def _require_pair(cfg: ExperimentConfig):
    if len(cfg.generators) < 2:
        raise ConfigError("group.generators", "this experiment needs two generators")
    return cfg.generators[0], cfg.generators[1]


def _add_propagation_table(report: reports.RunReport, rows) -> None:
    """lemma3-propagation.csv from Lemma 3 rows in their reported dict form."""
    report.add_table(
        "lemma3-propagation.csv",
        ("k1", "k2", "angle_rad", "measured_slope", "predicted_slope", "transport_deviation"),
        [(r["lattice"][0], r["lattice"][1], r["angle"], r["measured_slope"],
          r["predicted_slope"], r["transport_deviation"]) for r in rows])


def cmd_eigen(cfg: ExperimentConfig, report: reports.RunReport) -> None:
    e1, e2 = _require_pair(cfg)
    cert = check_pair_hypothesis(e1, e2)
    report.diagnostics.update(cert.to_dict())


def cmd_conjugacy(cfg: ExperimentConfig, report: reports.RunReport) -> None:
    handles = cfg.build_handles()
    e1 = cfg.generators[0]
    with report.time_block("solve_conjugacy"):
        h = solve_conjugacy(e1, handles[0], n=cfg.grid_n)
    residual = h.residual_on_grid(64)
    report.diagnostics.update({
        "N": cfg.grid_n,
        "matrix": cfg.generators[0].matrix.rows(),
        "sup_norm": h.displacement.sup_norm,
        "residual": residual,
    })
    report.add_table("conjugacy-field.csv", ("i", "j", "u1", "u2"),
                     reports.conjugacy_rows(h))


def cmd_foliation(cfg: ExperimentConfig, report: reports.RunReport) -> None:
    handles = cfg.build_handles()
    keys = ["f1u", "f1s"] + (["f2u", "f2s"] if len(handles) > 1 else [])
    with report.time_block("line_fields"):
        fields = line_fields(handles, keys, cfg.field_n, cfg.field_iters)
    report.diagnostics["line_field_depths"] = {key: f.depth for key, f in fields.items()}
    for key, field in fields.items():
        report.add_table(f"field-{key}.csv", ("i", "j", "theta"),
                         reports.line_field_rows(field))
        report.diagnostics[f"{key}_invariance_error"] = field.invariance_error()
    leaf = integrate_leaf(fields["f1u"], np.zeros(2), 1.0,
                          step=cfg.leaf_step, centered=True)
    report.add_table("leaf-f1u.csv", ("s", "x", "y", "lift_x", "lift_y"),
                     reports.leaf_rows(leaf))


def cmd_transversality(cfg: ExperimentConfig, report: reports.RunReport) -> None:
    _require_pair(cfg)
    handles = cfg.build_handles()
    with report.time_block("line_fields"):
        fields = line_fields(handles, ["f1u", "f1s", "f2u", "f2s"], cfg.field_n, cfg.field_iters)
    rows = []
    for a, b in (("f1u", "f2s"), ("f2u", "f1s"), ("f1u", "f1s"), ("f2u", "f2s")):
        angle, at = min_transversality_angle(fields[a], fields[b])
        rows.append((f"{a}-vs-{b}", angle, math.degrees(angle),
                     float(at[0]), float(at[1])))
    report.add_table("transversality.csv",
                     ("pair", "min_angle_rad", "min_angle_deg", "at_x", "at_y"), rows)
    cross = min(rows[0][1], rows[1][1])
    report.diagnostics["min_cross_angle_rad"] = cross
    report.diagnostics["min_cross_angle_deg"] = math.degrees(cross)
    if not cross >= cfg.thresholds["transversality"]:  # a nan angle too
        report.verdict = "inconclusive"


def _synthetic_action(amp: float) -> TranslationAction:
    r = np.arange(-3.0, 3.0 + 5e-4, 1e-3)
    return TranslationAction(r, r + amp * np.sin(r))


def cmd_prop1(cfg: ExperimentConfig, report: reports.RunReport) -> None:
    if cfg.kind == "conjugated":
        handles = cfg.build_handles()
        e1 = cfg.generators[0]
        with report.time_block("solve_conjugacy"):
            h = solve_conjugacy(e1, handles[0], n=cfg.grid_n)
        with report.time_block("linearize"):
            _, lin = _prop1_along(h, e1.vu, cfg.span, 1e-3)
        report.diagnostics["source"] = "conjugacy"
    else:
        with report.time_block("linearize"):
            lin = linearize_translation_action(_synthetic_action(cfg.prop1_profile_amp),
                                               0.0, (-0.5, 0.5))
        report.diagnostics["source"] = "synthetic-profile"
    # cocycle identity on the affine conjugated action, over the g-image of
    # the middle half of the linearized domain (ends: first and last nodes)
    lo, hi = lin.g_nodes[0, 0], lin.g_nodes[-1, 0]
    z = np.linspace(lin.g(lo * 0.5), lin.g(hi * 0.5), 9)
    t_vals = np.linspace(0.0, 0.05, 4)
    cocycle = max(
        float(np.max(np.abs(lin.conjugated(t + s, z) - lin.conjugated(s, lin.conjugated(t, z)))))
        for t in t_vals for s in t_vals
    )
    report.diagnostics.update({
        "alpha": lin.alpha,
        "affinity_residual": lin.affinity_residual,
        "cocycle_defect": cocycle,
        "y0": lin.y0,
    })
    report.add_table("prop1-g.csv", ("y", "g"),
                     [(float(a), float(b)) for a, b in lin.g_nodes[::10]])


def cmd_factorize(cfg: ExperimentConfig, report: reports.RunReport) -> None:
    e1, e2 = _require_pair(cfg)
    handles = cfg.build_handles()
    lin = factor_translation_linear(e1, e2, cfg.slide_s)
    report.diagnostics["linear"] = {
        "s": lin.slide_s, "r": lin.slide_r, "t": lin.translation_t,
    }
    with report.time_block("line_fields"):
        fields = line_fields(handles, ["f1u", "f1s", "f2s"], cfg.field_n, cfg.field_iters)
    tau = integrate_leaf(fields["f1u"], np.zeros(2), 3.0,
                         step=cfg.leaf_step, centered=True)
    with report.time_block("numeric_factorization"):
        num = factor_translation_numeric(
            fields["f1s"], fields["f2s"], tau, e1, e2, cfg.slide_s, step=cfg.propagation_step)
    report.diagnostics["numeric"] = {
        "t": num.translation_t, "deviation": num.numeric_deviation,
    }


def cmd_lemma3(cfg: ExperimentConfig, report: reports.RunReport) -> None:
    _require_pair(cfg)
    handles = cfg.build_handles()
    with report.time_block("line_fields"):
        fields = line_fields(handles, ["f1u", "f1s", "f2s"], cfg.field_n, cfg.field_iters)
    with report.time_block("propagation"):
        rows = tangency_propagation_check(
            fields["f1u"], fields["f1s"], fields["f2s"], np.zeros(2),
            cfg.generators[0], radius=cfg.radius, eps=cfg.eps,
            step=cfg.propagation_step, nonlinear=not handles[0].is_linear)
    _add_propagation_table(report, [r.to_dict() for r in rows])
    report.diagnostics.update({
        "n_heteroclinic": len(rows),
        "max_transport_deviation": max(r.transport_deviation for r in rows),
        "max_slope_deviation": max(r.slope_difference for r in rows),
        "min_angle_rad": min(r.angle for r in rows),
    })


def cmd_periodic_data(cfg: ExperimentConfig, report: reports.RunReport) -> None:
    handles = cfg.build_handles()
    with report.time_block("periodic_data"):
        rep = compare_smooth_invariants(handles[0], cfg.generators[0], cfg.max_period)
    report.add_table(
        "periodic-data.csv",
        ("period", "point_x", "point_y", "mult_u", "mult_s", "mismatch"),
        reports.periodic_rows(rep))
    report.diagnostics["max_mismatch"] = rep.max_mismatch
    report.diagnostics["n_orbits"] = len(rep.rows)
    if rep.max_mismatch > cfg.thresholds["periodic_mismatch"]:
        report.verdict = "obstructed"
    rep.check_converged()


def cmd_teichmuller(cfg: ExperimentConfig, report: reports.RunReport) -> None:
    e1 = cfg.generators[0]
    e2 = cfg.generators[1] if len(cfg.generators) > 1 else None
    handles = cfg.build_handles()
    g2 = handles[1] if len(handles) > 1 and cfg.kind != "perturbed" else None
    phi = cfg.build_phi() if cfg.kind == "conjugated" else None
    # the pair checks assume that one h conjugates both maps; h is solved
    # from g1 alone, and nothing yet tests it against g2 = A2 + p
    unpaired = ("the second map of a perturbed pair is not used, since h is solved from the "
                "first map alone and not tested against the second"
                ) if cfg.kind == "perturbed" and len(handles) > 1 else None
    with report.time_block("teichmuller"):
        verdict = teichmuller_experiment(
            e1, handles[0], e2, g2, phi=phi,
            thresholds=cfg.thresholds, grid_n=cfg.grid_n, field_n=cfg.field_n,
            field_iters=cfg.field_iters, max_period=cfg.max_period,
            propagation_step=cfg.propagation_step, span=cfg.span, seed=cfg.seed,
            radius=cfg.radius, eps=cfg.eps, unpaired=unpaired)
    report.diagnostics.update(dataclasses.asdict(verdict))
    prop = verdict.diagnostics.get("propagation_rows")
    if prop:
        _add_propagation_table(report, prop)
    report.verdict = verdict.verdict


COMMANDS = {
    "eigen": cmd_eigen,
    "conjugacy": cmd_conjugacy,
    "foliation": cmd_foliation,
    "transversality": cmd_transversality,
    "prop1": cmd_prop1,
    "factorize": cmd_factorize,
    "lemma3": cmd_lemma3,
    "periodic-data": cmd_periodic_data,
    "teichmuller": cmd_teichmuller,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anosov-lab",
        description="Numerical experiments on hyperbolic SL(2,Z) dynamics on the 2-torus.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="path to a JSON config document")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       dest="overrides", help="dotted-key config override")
        p.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args.config, args.overrides, out_dir=args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = reports.RunReport(cfg.echo(), args.command)
    report.verdict = "complete"
    try:
        COMMANDS[args.command](cfg, report)
    except AnosovLabError as exc:
        stage = f"{report.failed_stage}: " if report.failed_stage else ""
        report.diagnostics["failure"] = f"{stage}{type(exc).__name__}: {exc}"
        # a failure leaves an obstruction found before it standing
        if report.verdict != "obstructed":
            report.verdict = "inconclusive"
    try:
        report.write(cfg.out_dir)
    except IoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"{args.command}: verdict={report.verdict} -> {cfg.out_dir}")
    return EXIT_CODES[report.verdict]


if __name__ == "__main__":
    sys.exit(main())
