"""Command-line driver: config-described experiments to report bundles.

Each subcommand runs stages of the table in ``anosov_lab.rigidity``
through its one runner, then a writer turns what they made into the
report's diagnostics, tables and verdict.  A stage's failure is the entry
``"<stage>: <ExceptionType>: <message>"``, and a writer's failure the entry
``"<subcommand> report: <ExceptionType>: <message>"``; the first one is the
report's ``diagnostics.failure`` (``teichmuller`` lists them all under
``errors``).

Exit codes: 0 complete, or verdict smooth; 2 verdict obstructed, which a
later failure leaves standing; 3 verdict inconclusive: a stage failed, a
check fell short of its threshold, or ``teichmuller`` could not decide;
1 usage or config error (also a subcommand that needs a generator pair
given one generator) or an output directory that cannot be written, with
an ``error: ...`` line on standard error and no report bundle.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import reports
from .config import ExperimentConfig, load_config
from .errors import AnosovLabError, ConfigError, IoError
from .foliations import integrate_leaf, min_transversality_angle
from .lattice import check_pair_hypothesis
from .rigidity import (
    ALL_FIELDS,
    FACTORIZATION,
    LINE_FIELDS,
    PERIODIC,
    PROP1_ALONG_H,
    PROP1_SYNTHETIC,
    PROPAGATION,
    SOLVE,
    RunContext,
    factor_translation_linear,
    obstructed,
    run_stages,
    teichmuller_stages,
    teichmuller_verdict,
)

EXIT_USAGE = 1
# the writer may set a verdict other than "complete"; the verdict alone
# sets the exit code
EXIT_CODES = {"complete": 0, "smooth": 0, "obstructed": 2, "inconclusive": 3}
PAIR_FIELDS = ("f1u", "f1s", "f2s")


def _add_propagation_table(report: reports.RunReport, rows) -> None:
    """lemma3-propagation.csv from Lemma 3 rows in their reported dict form."""
    report.add_table(
        "lemma3-propagation.csv",
        ("k1", "k2", "angle_rad", "measured_slope", "predicted_slope", "transport_deviation"),
        [(r["lattice"][0], r["lattice"][1], r["angle"], r["measured_slope"],
          r["predicted_slope"], r["transport_deviation"]) for r in rows])


# Writers: (ctx, report) -> None.  A writer reports nothing of a product
# that its stage failed to make.

def _write_eigen(ctx: RunContext, report: reports.RunReport) -> None:
    pair = check_pair_hypothesis(*(g.element for g in ctx.handles[:2]))
    report.diagnostics.update(pair.to_dict())


def _write_conjugacy(ctx: RunContext, report: reports.RunReport) -> None:
    h = ctx.made.get("h")
    if h is None:
        return
    report.diagnostics.update({
        "N": ctx.cfg.grid_n,
        "matrix": ctx.handles[0].element.matrix.rows(),
        "sup_norm": h.sup_norm,
        "residual": h.residual,
    })
    report.add_table("conjugacy-field.csv", ("i", "j", "u1", "u2"),
                     reports.conjugacy_rows(h))


def _write_foliation(ctx: RunContext, report: reports.RunReport) -> None:
    fields = ctx.made.get("fields")
    if fields is None:
        return
    report.diagnostics["line_field_changes"] = {key: f.change for key, f in fields.items()}
    for key, field in fields.items():
        report.add_table(f"field-{key}.csv", ("i", "j", "theta"),
                         reports.line_field_rows(field))
        report.diagnostics[f"{key}_invariance_error"] = field.invariance_error()
    leaf = integrate_leaf(ctx.handles[0].inverse(), np.zeros(2), 1.0, centered=True)
    report.add_table("leaf-f1u.csv", ("s", "x", "y", "lift_x", "lift_y"),
                     reports.leaf_rows(leaf))


def _write_transversality(ctx: RunContext, report: reports.RunReport) -> None:
    fields = ctx.made.get("fields")
    if fields is None:
        return
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
    if not cross >= ctx.cfg.thresholds["transversality"]:  # a nan angle too
        report.verdict = "inconclusive"


def _write_prop1(ctx: RunContext, report: reports.RunReport) -> None:
    lin = ctx.made.get("linearization")
    if lin is None:
        return
    report.diagnostics["source"] = "conjugacy" if "h" in ctx.made else "synthetic-profile"
    # cocycle identity on the affine conjugated action, over the g-image of
    # the middle half of the linearized domain (ends: first and last nodes)
    lo, hi = lin.g.x[0], lin.g.x[-1]
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
                     [(float(a), float(b)) for a, b in zip(lin.g.x[::10], lin.g.y[::10])])


def _write_factorize(ctx: RunContext, report: reports.RunReport) -> None:
    lin = factor_translation_linear(*(g.element for g in ctx.handles[:2]), ctx.cfg.slide_s)
    report.diagnostics["linear"] = {
        "s": lin.slide_s, "r": lin.slide_r, "t": lin.translation_t,
    }
    num = ctx.made.get("factorization")
    if num is not None:
        report.diagnostics["numeric"] = {
            "t": num.translation_t, "deviation": num.numeric_deviation,
        }


def _write_lemma3(ctx: RunContext, report: reports.RunReport) -> None:
    rows = ctx.made.get("propagation")
    if rows is None:
        return
    _add_propagation_table(report, [r.to_dict() for r in rows])
    report.diagnostics.update({
        "n_heteroclinic": len(rows),
        "max_transport_deviation": max(r.transport_deviation for r in rows),
        "max_slope_deviation": max(r.slope_difference for r in rows),
        "min_angle_rad": min(r.angle for r in rows),
    })


def _write_periodic_data(ctx: RunContext, report: reports.RunReport) -> None:
    rep = ctx.made.get("periodic")
    if rep is None:
        return
    report.add_table(
        "periodic-data.csv",
        ("period", "point_x", "point_y", "mult_u", "mult_s", "mismatch"),
        reports.periodic_rows(rep))
    report.diagnostics["max_mismatch"] = rep.max_mismatch
    report.diagnostics["n_orbits"] = len(rep.rows)
    if obstructed(ctx):
        report.verdict = "obstructed"


def _write_teichmuller(ctx: RunContext, report: reports.RunReport) -> None:
    verdict = teichmuller_verdict(ctx)
    report.diagnostics.update(dataclasses.asdict(verdict))
    prop = verdict.diagnostics.get("propagation_rows")
    if prop:
        _add_propagation_table(report, prop)
    report.verdict = verdict.verdict


def _prop1_stages(ctx: RunContext):
    # h exists for a conjugated action; another one gets a synthetic profile
    return (SOLVE, PROP1_ALONG_H) if ctx.cfg.kind == "conjugated" else (PROP1_SYNTHETIC,)


class Command(NamedTuple):
    stages: tuple | Callable  # the stages it runs, or a function of the context giving them
    write: Callable           # its writer
    fields: tuple = ()        # the line fields its line_fields stage computes
    pair: bool = False        # it needs two generators


COMMANDS = {
    "eigen": Command((), _write_eigen, pair=True),
    "conjugacy": Command((SOLVE,), _write_conjugacy),
    "foliation": Command((LINE_FIELDS,), _write_foliation, ALL_FIELDS),
    "transversality": Command((LINE_FIELDS,), _write_transversality, ALL_FIELDS, pair=True),
    "prop1": Command(_prop1_stages, _write_prop1),
    "factorize": Command((FACTORIZATION,), _write_factorize, pair=True),
    "lemma3": Command((LINE_FIELDS, PROPAGATION), _write_lemma3, PAIR_FIELDS, pair=True),
    "periodic-data": Command((PERIODIC,), _write_periodic_data),
    "teichmuller": Command(teichmuller_stages, _write_teichmuller, ALL_FIELDS),
}


def _run(command: Command, cfg: ExperimentConfig, report: reports.RunReport) -> None:
    """Run the command's stages on one context and write its report; the
    context, with h and the line fields, is dropped on return."""
    handles = cfg.build_handles()
    # a field of a generator that is not there is not computed
    ctx = RunContext(cfg, handles,
                     tuple(key for key in command.fields if int(key[1]) <= len(handles)))
    stages = command.stages(ctx) if callable(command.stages) else command.stages
    run_stages(ctx, stages)
    report.verdict = "complete"
    try:
        command.write(ctx, report)
    except AnosovLabError as exc:
        ctx.errors.append(f"{report.name} report: {type(exc).__name__}: {exc}")
    report.timings = ctx.timings
    # teichmuller lists every error and weighs them into its own verdict
    if ctx.errors and "errors" not in report.diagnostics:
        report.diagnostics["failure"] = ctx.errors[0]
        report.verdict = "inconclusive"


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
    command = COMMANDS[args.command]
    try:
        cfg = load_config(args.config, args.overrides, out_dir=args.out)
        if command.pair and len(cfg.generators) < 2:
            raise ConfigError("group.generators", "this experiment needs two generators")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = reports.RunReport(cfg.doc, args.command)
    _run(command, cfg, report)
    try:
        report.write(cfg.out_dir)
    except IoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"{args.command}: verdict={report.verdict} -> {cfg.out_dir}")
    return EXIT_CODES[report.verdict]


if __name__ == "__main__":
    sys.exit(main())
