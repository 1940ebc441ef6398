import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import anosov_lab
from anosov_lab import foliations, reports
from anosov_lab.cli import main
from anosov_lab.config import load_config
from anosov_lab.maps import ConjugatedMap


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main(list(argv) + ["--out", str(out)])
    return code, out


def test_eigen_exit_zero_and_certificate(tmp_path):
    code, out = run(tmp_path, "eigen")
    assert code == 0
    doc = json.loads((out / "eigen-report.json").read_text())
    assert doc["diagnostics"]["hypothesis_ok"] is True
    assert doc["diagnostics"]["min_pairwise_sine"] == pytest.approx(0.4472136, abs=1e-6)


def test_eigen_reports_hypothesis_failure(tmp_path):
    code, out = run(tmp_path, "eigen",
                    "--set", "group.generators=[[[2,1],[1,1]],[[5,3],[3,2]]]")
    assert code == 0
    doc = json.loads((out / "eigen-report.json").read_text())
    assert doc["diagnostics"]["hypothesis_ok"] is False
    assert doc["diagnostics"]["min_pairwise_sine"] == 0.0


def test_config_error_exit_one(tmp_path):
    code, _ = run(tmp_path, "eigen", "--set", "group.generators=[[[2,1],[1,2]]]")
    assert code == 1  # determinant 3
    code, _ = run(tmp_path, "eigen", "--set", "resolution.grid_n=100")
    assert code == 1  # not a power of two
    code, _ = run(tmp_path, "eigen", "--set", "thresholds.lemma3=-1")
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["periodic-data", "--set", "resolution.max_period=9"],
    ["periodic-data", "--set", "resolution.max_period=0"],
    ["teichmuller", "--set", "action.kind=perturbed",
     "--set", 'action.perturbation=[{"k":[0,1],"sin":[0.0047746482927568605,0]}]',
     "--set", "resolution.max_period=9"],
])
def test_max_period_out_of_range_exit_one(tmp_path, capsys, argv):
    code, out = run(tmp_path, *argv)
    assert code == 1
    err = capsys.readouterr().err
    assert "resolution.max_period" in err
    assert "Traceback" not in err
    assert not out.exists()


FLOAT_KEYS = ("action.scale", "thresholds.transversality", "thresholds.lemma3", "thresholds.prop1_residual",
              "thresholds.jacobian", "thresholds.periodic_mismatch", "experiment.eps",
              "experiment.slide_s", "experiment.span", "experiment.prop1_profile_amp")
INT_KEYS = ("resolution.grid_n", "resolution.field_n", "resolution.max_period",
            "experiment.seed", "experiment.radius")
# the line fields' old depth cap and the old RK4 leaf steps are no config
# keys: any value is an unknown key
REMOVED_KEYS = ("resolution.field_iters", "resolution.leaf_step", "resolution.propagation_step")
BAD_VALUES = (
    [("eigen", f"{key}=abc", key) for key in FLOAT_KEYS + INT_KEYS + REMOVED_KEYS]
    + [("eigen", f"{key}=2.7", key) for key in INT_KEYS + REMOVED_KEYS]
    + [("eigen", f"{key}=true", key) for key in INT_KEYS + REMOVED_KEYS]
    + [("periodic-data", "resolution.max_period=abc", "resolution.max_period"),
       ("periodic-data", "resolution.max_period=2.7", "resolution.max_period"),
       ("lemma3", "experiment.radius=0", "experiment.radius"),
       ("lemma3", "experiment.radius=4", "experiment.radius"),
       ("teichmuller", "experiment.seed=x", "experiment.seed"),
       ("eigen", 'action.diffeo=[{"k":[0,1],"sin":"abc"}]', "action.diffeo[0].sin"),
       ("eigen", 'action.perturbation=[{"k":[0.5,1],"cos":[0.01,0]}]', "action.perturbation[0].k"),
       ("eigen", 'group.generators=[[[2,1],[1,"a"]]]', "group.generators[0]"),
       ("eigen", "group.generators=[[[2,1],[1]]]", "group.generators[0]")]
    + [("eigen", f"resolution.field_n={n}", "resolution.field_n") for n in (8, 100, 1024)]
    # values that set an array size or a step count
    + [("lemma3", "experiment.eps=0", "experiment.eps"),
       ("prop1", ("action.kind=conjugated", 'action.diffeo=[{"k":[0,1],"sin":[0.02,0]}]',
                  "experiment.span=-0.2"), "experiment.span"),
       ("eigen", "experiment.span=1.5", "experiment.span"),
       ("eigen", "experiment.eps=0.3", "experiment.eps")]
    # removed keys, at values they once took or once rejected
    + [("eigen", "resolution.field_iters=101", "resolution.field_iters"),
       ("eigen", "resolution.leaf_step=NaN", "resolution.leaf_step"),
       ("foliation", "resolution.leaf_step=1e-12", "resolution.leaf_step"),
       ("eigen", "resolution.leaf_step=5e-5", "resolution.leaf_step"),
       ("eigen", "resolution.propagation_step=5e-5", "resolution.propagation_step")]
    # the output directory is checked whichever of --out, ANOSOV_LAB_OUT
    # and the config wins
    + [("eigen", f"experiment.out_dir={v}", "experiment.out_dir") for v in ("5", "null", '""')]
    # experiment.name is no config key: any value is an unknown key
    + [("eigen", f"experiment.name={v}", "experiment.name") for v in ("5", "null", '""')]
    # the subcommands that need a generator pair, given one generator
    + [(command, "group.generators=[[[2,1],[1,1]]]", "group.generators")
       for command in ("eigen", "transversality", "factorize", "lemma3")]
    # a negative seed would reach np.random.default_rng, which rejects it
    + [("teichmuller", "experiment.seed=-1", "experiment.seed")]
    # a mode list must be a list of modes with the keys k, sin and cos only,
    # and int64 must hold each k
    + [("eigen", "action.diffeo=5", "action.diffeo"),
       ("eigen", "action.diffeo=null", "action.diffeo"),
       ("eigen", 'action.perturbation="abc"', "action.perturbation"),
       ("eigen", 'action.diffeo=[{"k":[0,1],"tan":[0.01,0]}]', "action.diffeo[0].tan"),
       ("eigen", 'action.diffeo=[{"k":[1e30,1],"sin":[0.001,0]}]', "action.diffeo[0].k")]
    # the derivative bound of this q is nan, which is not below 1
    + [("eigen", ("action.kind=conjugated", 'action.diffeo=[{"k":[0,1],"sin":[1e308,0]}]'),
        "action.diffeo")]
)


@pytest.mark.parametrize("command,override,key", BAD_VALUES)
def test_bad_numeric_value_exit_one(tmp_path, capsys, command, override, key):
    sets = [override] if isinstance(override, str) else override
    code, out = run(tmp_path, command, *[arg for item in sets for arg in ("--set", item)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"'{key}'" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_unwritable_out_dir_exit_one(tmp_path, capsys):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    code = main(["eigen", "--out", str(blocker / "sub")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocker / "sub") in err
    assert "Traceback" not in err


def test_numpy_nan_is_written_as_null(tmp_path):
    """NaN is not JSON: a numpy NaN scalar is written as null, as a Python
    NaN and a NaN inside an array are."""
    path = tmp_path / "nan.json"
    reports.dump_json({"np": np.float64("nan"), "np32": np.float32("nan"),
                       "py": float("nan"), "array": np.array([1.0, np.nan])}, str(path))

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    doc = json.loads(path.read_text(), parse_constant=refuse)
    assert doc == {"array": [1.0, None], "np": None, "np32": None, "py": None}


def test_integral_float_accepted_for_integer_key(tmp_path):
    cfg = load_config(overrides=["resolution.max_period=3.0", "experiment.radius=2"],
                      out_dir=str(tmp_path))
    assert cfg.max_period == 3 and isinstance(cfg.max_period, int)
    assert cfg.radius == 2


def test_unknown_key_rejected(tmp_path):
    code, _ = run(tmp_path, "eigen", "--set", "resolution.gridn=256")
    assert code == 1


CSV_HEADERS = {
    "conjugacy-field.csv": "i,j,u1,u2",
    "leaf-f1u.csv": "s,x,y,lift_x,lift_y",
    "transversality.csv": "pair,min_angle_rad,min_angle_deg,at_x,at_y",
    "lemma3-propagation.csv": "k1,k2,angle_rad,measured_slope,predicted_slope,transport_deviation",
    **{f"field-{key}.csv": "i,j,theta" for key in ("f1u", "f1s", "f2u", "f2s")},
}
FIELD_64 = ("--set", "resolution.field_n=64")


# subcommand -> (overrides, verdict, CSV tables in manifest order)
BUNDLES = {
    "conjugacy": ((), "complete", ["conjugacy-field.csv"]),
    "foliation": (FIELD_64, "complete",
                  ["field-f1u.csv", "field-f1s.csv", "field-f2u.csv", "field-f2s.csv", "leaf-f1u.csv"]),
    "transversality": (FIELD_64, "complete", ["transversality.csv"]),
    "lemma3": (FIELD_64, "complete", ["lemma3-propagation.csv"]),
    "teichmuller": (FIELD_64, "smooth", ["lemma3-propagation.csv"]),
}


@pytest.mark.parametrize("command", BUNDLES)
def test_subcommand_writes_its_bundle(tmp_path, command):
    extra, verdict, tables = BUNDLES[command]
    code, out = run(tmp_path, command, *extra)
    assert code == 0
    doc = json.loads((out / f"{command}-report.json").read_text())
    assert doc["verdict"] == verdict
    assert doc["manifest"] == tables + [f"{command}-report.json"]
    for name in tables:
        lines = (out / name).read_text().splitlines()
        assert lines[0] == CSV_HEADERS[name]
        assert len(lines) > 1


def test_handles_hold_the_configured_phi(tmp_path):
    # a run reads phi off its handles: id on the default config, and the
    # configured q itself on the conjugated one
    assert all(g.phi.q.is_zero for g in load_config(out_dir=str(tmp_path)).build_handles())
    cfg = load_config(overrides=["action.kind=conjugated",
                                 'action.diffeo=[{"k":[0,1],"sin":[0.02,0]}]'],
                      out_dir=str(tmp_path))
    assert all(g.phi.q is cfg.diffeo_q for g in cfg.build_handles())


def test_linear_action_handles_are_conjugated_maps_with_identity_phi(tmp_path):
    cfg = load_config(out_dir=str(tmp_path))
    handles = cfg.build_handles()
    assert [type(g) for g in handles] == [ConjugatedMap, ConjugatedMap]
    assert all(g.is_linear for g in handles)
    # each handle carries the config's element itself, its frame formed once
    assert all(g.element is e for g, e in zip(handles, cfg.generators))


def test_prop1_alpha(tmp_path):
    code, out = run(tmp_path, "prop1")
    assert code == 0
    doc = json.loads((out / "prop1-report.json").read_text())
    assert doc["diagnostics"]["alpha"] == pytest.approx(1.1, abs=1e-6)


def _bench_oracles():
    """bench/oracles.py: closed forms that do not import anosov_lab."""
    path = Path(__file__).resolve().parents[1] / "bench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ORACLES = _bench_oracles()
_, _, V_U, V_S = ORACLES.eigen(((2, 1), (1, 1)))  # of the default g1


def _conjugated_by(modes):
    return ("--set", "action.kind=conjugated", "--set", f"action.diffeo={json.dumps(modes)}")


@pytest.mark.parametrize("amp", [0.05, 0.08, 0.10, 0.15])
def test_prop1_alpha_on_strong_phi(tmp_path, amp):
    """phi = id + (a sin 2 pi x2, 0): alpha is |D phi(0) v_u|; measured
    errors 3.6e-9, 3.0e-9, 5.4e-9 and 9.7e-9."""
    modes = [{"k": [0, 1], "sin": [amp, 0]}]
    code, out = run(tmp_path, "prop1", *_conjugated_by(modes))
    assert code == 0
    doc = json.loads((out / "prop1-report.json").read_text())
    assert doc["diagnostics"]["alpha"] == pytest.approx(ORACLES.conjugated_alpha(modes, V_U),
                                                        abs=2e-7)


@pytest.mark.parametrize("modes", [[{"k": [1, -1], "sin": [0, 0.01]}],
                                   [{"k": [0, 2], "sin": [0.005, 0]}]])
def test_teichmuller_smooth_on_a_mode_phi(tmp_path, modes):
    code, out = run(tmp_path, "teichmuller", *_conjugated_by(modes))
    doc = json.loads((out / "teichmuller-report.json").read_text())
    assert (code, doc["verdict"], doc["diagnostics"]["errors"]) == (0, "smooth", [])


@pytest.mark.parametrize("amp", [0.10, 0.15])
def test_teichmuller_prop1_on_strong_phi(tmp_path, amp):
    """Every stage passes at these phi; Prop 1's alphas are |D phi(0) v|
    along both eigen-directions (worst error measured 3.0e-8)."""
    modes = [{"k": [0, 1], "sin": [amp, 0]}]
    code, out = run(tmp_path, "teichmuller", *_conjugated_by(modes))
    doc = json.loads((out / "teichmuller-report.json").read_text())
    assert (code, doc["verdict"], doc["diagnostics"]["errors"]) == (0, "smooth", [])
    prop1 = doc["diagnostics"]["diagnostics"]["prop1"]
    for alpha, v in ((prop1["alpha_unstable"], V_U), (prop1["alpha_stable"], V_S)):
        assert alpha == pytest.approx(ORACLES.conjugated_alpha(modes, v), abs=2e-7)


def test_periodic_data_obstructed_exit_two(tmp_path):
    code, out = run(
        tmp_path, "periodic-data",
        "--set", "action.kind=perturbed",
        "--set", 'action.perturbation=[{"k":[0,1],"sin":[0.0047746482927568605,0]}]')
    assert code == 2
    doc = json.loads((out / "periodic-data-report.json").read_text())
    assert doc["verdict"] == "obstructed"
    assert doc["diagnostics"]["max_mismatch"] > 1e-4


def test_periodic_data_opposite_modes_add(tmp_path):
    """A k term and a -k term run as their sum: 0.01 sin 2 pi x2 listed at
    k = (0, 1) and again, sign-flipped, at k = (0, -1) is 0.02 sin 2 pi x2."""
    reports = []
    for name, modes in (("pair", '[{"k":[0,1],"sin":[0.01,0]},{"k":[0,-1],"sin":[-0.01,0]}]'),
                        ("single", '[{"k":[0,1],"sin":[0.02,0]}]')):
        code, out = run(tmp_path / name, "periodic-data", "--set", "action.kind=perturbed",
                        "--set", f"action.perturbation={modes}")
        assert code == 2
        reports.append(json.loads((out / "periodic-data-report.json").read_text()))
    assert reports[0]["diagnostics"] == reports[1]["diagnostics"]
    assert reports[0]["diagnostics"]["max_mismatch"] > 0.02


def test_periodic_data_diverged_seeds_exit_three(tmp_path):
    """p = (0.4 sin 2 pi x2, 0): det Dg = 1 - 2.51 cos 2 pi x2 vanishes, so g
    is no diffeomorphism and no h exists; the solve on the period-2 seeds
    stalls, the run names the period and writes no table."""
    code, out = run(tmp_path, "periodic-data", "--set", "action.kind=perturbed",
                    "--set", 'action.perturbation=[{"k":[0,1],"sin":[0.4,0]}]',
                    "--set", "resolution.max_period=3")
    doc = json.loads((out / "periodic-data-report.json").read_text())
    assert (code, doc["verdict"]) == (3, "inconclusive")
    assert doc["diagnostics"]["failure"].startswith(
        "compare_smooth_invariants: SolverDiverged: period 2: residual stalled at ")
    assert not (out / "periodic-data.csv").exists()


def test_periodic_data_obstruction_stands_with_diverged_seeds(tmp_path):
    """p = (0.4 sin 2 pi x2, 0) to period 1: the fixed point 0 obstructs
    (Dg(0) is not A), while the grid solve of h diverges; teichmuller keeps
    the obstruction, lists the failure and exits 2."""
    perturbed = ("--set", "action.kind=perturbed",
                 "--set", 'action.perturbation=[{"k":[0,1],"sin":[0.4,0]}]',
                 "--set", "resolution.max_period=1")
    code, out = run(tmp_path / "periodic", "periodic-data", *perturbed)
    doc = json.loads((out / "periodic-data-report.json").read_text())
    assert (code, doc["verdict"], doc["diagnostics"]["n_orbits"]) == (2, "obstructed", 1)
    code, out = run(tmp_path / "teichmuller", "teichmuller", *perturbed)
    doc = json.loads((out / "teichmuller-report.json").read_text())
    assert (code, doc["verdict"]) == (2, "obstructed")
    assert doc["diagnostics"]["diagnostics"]["periodic_max_mismatch"] > 1e-4
    assert [e.split(":")[0] for e in doc["diagnostics"]["errors"]] == ["solve_conjugacy"]
    assert doc["diagnostics"]["errors"][0].startswith(
        "solve_conjugacy: SolverDiverged: residual stalled at ")


def test_periodic_data_counts_each_orbit_once_with_diverged_seeds(tmp_path):
    """phi 0.15 up to period 4, where Newton from the linear seeds diverged
    at 32 seeds: each cycle of A on the seeds is one orbit, 1 + 3 + 6 + 13
    rows."""
    code, out = run(tmp_path, "periodic-data", "--set", "action.kind=conjugated",
                    "--set", 'action.diffeo=[{"k":[0,1],"sin":[0.15,0]}]',
                    "--set", "resolution.max_period=4")
    doc = json.loads((out / "periodic-data-report.json").read_text())
    assert (code, doc["verdict"]) == (0, "complete")
    assert "failure" not in doc["diagnostics"]
    assert doc["diagnostics"]["n_orbits"] == 23


def test_periodic_data_strong_phi_to_period_7(tmp_path):
    """phi = id + (0.15 sin 2 pi x2, 0), |D q| = 0.94: every orbit up to
    period 7, the counts per period those of the linear action, and no
    multiplier mismatch (measured 7.9e-14)."""
    code, out = run(tmp_path, "periodic-data", "--set", "action.kind=conjugated",
                    "--set", 'action.diffeo=[{"k":[0,1],"sin":[0.15,0]}]',
                    "--set", "resolution.max_period=7")
    doc = json.loads((out / "periodic-data-report.json").read_text())
    assert (code, doc["verdict"]) == (0, "complete")
    assert "failure" not in doc["diagnostics"]
    assert doc["diagnostics"]["n_orbits"] == 227
    assert doc["diagnostics"]["max_mismatch"] < 1e-12
    periods = [row.split(",")[0] for row in
               (out / "periodic-data.csv").read_text().splitlines()[1:]]
    assert [periods.count(str(n)) for n in range(1, 8)] == [1, 3, 6, 13, 25, 58, 121]


def test_teichmuller_honours_radius_and_eps(tmp_path):
    extra = ("--set", "resolution.field_n=32", "--set", "resolution.grid_n=64",
             "--set", "experiment.radius=2", "--set", "experiment.eps=0.04")
    tables = []
    for command in ("teichmuller", "lemma3"):
        code, out = run(tmp_path / command, command, *extra)
        assert code == 0
        tables.append((out / "lemma3-propagation.csv").read_bytes())
    assert tables[0] == tables[1]
    assert len(tables[0].splitlines()) == 1 + 24  # 24 heteroclinic points at radius 2


def test_lemma3_matches_teichmuller_on_identity_conjugacy(tmp_path):
    """With no diffeo terms the conjugated action is linear (phi = id), and
    both commands run Lemma 3 on linear leaves alike."""
    extra = ("--set", "action.kind=conjugated", "--set", "resolution.field_n=32",
             "--set", "resolution.grid_n=64")
    tables = []
    for command in ("teichmuller", "lemma3"):
        code, out = run(tmp_path / command, command, *extra)
        assert code == 0
        tables.append((out / "lemma3-propagation.csv").read_bytes())
    assert tables[0] == tables[1]
    assert len(tables[0].splitlines()) == 1 + 8


def _teichmuller_errors(tmp_path, generators):
    code, out = run(tmp_path, "teichmuller", "--set", f"group.generators={generators}",
                    "--set", "resolution.field_n=32", "--set", "resolution.grid_n=64")
    doc = json.loads((out / "teichmuller-report.json").read_text())
    assert (code, doc["verdict"]) == (3, "inconclusive")
    return doc["diagnostics"]["errors"], doc["diagnostics"]["diagnostics"]


def test_teichmuller_single_generator_names_the_missing_pair(tmp_path):
    errors, _ = _teichmuller_errors(tmp_path, "[[[2,1],[1,1]]]")
    assert errors == ["pair: only one generator map was given, so the line fields, "
                      "Lemma 3 and Proposition 1 were not run"]


def test_teichmuller_perturbed_pair_says_why_the_second_map_is_unused(tmp_path):
    # a perturbation too small to be obstructed by period-2 data
    code, out = run(tmp_path, "teichmuller", "--set", "action.kind=perturbed",
                    "--set", 'action.perturbation=[{"k":[0,1],"sin":[1e-7,0]}]',
                    "--set", "resolution.field_n=32", "--set", "resolution.grid_n=64")
    doc = json.loads((out / "teichmuller-report.json").read_text())
    assert (code, doc["verdict"]) == (3, "inconclusive")
    assert doc["diagnostics"]["errors"] == [
        "pair: the second map of a perturbed pair is not used, since h is solved from the "
        "first map alone and not tested against the second, so the line fields, Lemma 3 and "
        "Proposition 1 were not run"]


def test_teichmuller_failed_pair_hypothesis_skips_line_fields(tmp_path):
    errors, diag = _teichmuller_errors(tmp_path, "[[[2,1],[1,1]],[[2,1],[1,1]]]")
    assert len(errors) == 1
    assert errors[0].startswith("pair_hypothesis: ")
    assert "(min sine 0)" in errors[0]
    assert diag["pair_min_sine"] == 0.0
    assert "transversality_pairs" not in diag and "propagation_rows" not in diag
    assert "prop1" in diag  # Proposition 1 needs only g1


def test_periodic_data_clean_exit_zero(tmp_path):
    code, out = run(tmp_path, "periodic-data")
    assert code == 0
    doc = json.loads((out / "periodic-data-report.json").read_text())
    assert doc["diagnostics"]["max_mismatch"] < 1e-10


def test_manifest_files_exist(tmp_path):
    code, out = run(tmp_path, "periodic-data")
    assert code == 0
    doc = json.loads((out / "periodic-data-report.json").read_text())
    for name in doc["manifest"]:
        path = out / name
        assert path.is_file() and path.stat().st_size > 0
    csv = (out / "periodic-data.csv").read_text().splitlines()
    assert csv[0] == "period,point_x,point_y,mult_u,mult_s,mismatch"
    # one row per orbit: fixed point at n=1, then it plus two 2-cycles at n=2
    assert len(csv) == 1 + 4


def test_config_echo_round_trip(tmp_path):
    code, out = run(tmp_path, "eigen", "--set", "resolution.grid_n=128")
    assert code == 0
    doc = json.loads((out / "eigen-report.json").read_text())
    echo = doc["config_echo"]
    path = tmp_path / "echo.json"
    path.write_text(json.dumps(echo))
    cfg = load_config(str(path))
    assert cfg.grid_n == 128
    assert cfg.doc["resolution"] == echo["resolution"]


def test_bundles_in_two_directories_are_byte_identical(tmp_path):
    bundles = []
    for name in ("a", "elsewhere"):
        code, out = run(tmp_path / name, "eigen")
        assert code == 0
        bundles.append((out / "eigen-report.json").read_bytes())
        assert "out_dir" not in json.loads(bundles[-1])["config_echo"]["experiment"]
    assert bundles[0] == bundles[1]


CONJUGATED_02 = ("--set", "action.kind=conjugated",
                 "--set", 'action.diffeo=[{"k":[0,1],"sin":[0.02,0]}]')
SMALL = ("--set", "resolution.field_n=32", "--set", "resolution.grid_n=64")


def test_determinism_byte_identical(tmp_path):
    for argv in (("factorize",), ("foliation",) + CONJUGATED_02 + SMALL, ("teichmuller",) + SMALL):
        out = tmp_path / "same"
        name = argv[0]
        assert main(list(argv) + ["--out", str(out)]) == 0
        first = (out / f"{name}-report.json").read_bytes()
        assert main(list(argv) + ["--out", str(out)]) == 0
        second = (out / f"{name}-report.json").read_bytes()
        assert first == second
        diag = json.loads(first)["diagnostics"]
        if name == "foliation":  # the phi 0.02 fields move 3e-12 to 9e-12
            changes = diag["line_field_changes"]
            assert sorted(changes) == ["f1s", "f1u", "f2s", "f2u"]
            assert all(1e-12 < c < 1e-11 for c in changes.values()), changes
        if name == "teichmuller":  # the kernels of l . A^m move by rounding alone
            changes = diag["diagnostics"]["line_field_changes"]
            assert sorted(changes) == ["f1s", "f1u", "f2s", "f2u"]
            assert all(c < 1e-15 for c in changes.values()), changes


def test_removed_field_iters_key_is_unknown(tmp_path, capsys):
    code, out = run(tmp_path, "teichmuller", "--set", "resolution.field_iters=40")
    assert code == 1
    err = capsys.readouterr().err
    assert "config key 'resolution.field_iters': unknown key" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, key", [("foliation", "resolution.leaf_step=1e-3"),
                                          ("factorize", "resolution.propagation_step=8e-3")])
def test_removed_step_keys_are_unknown(tmp_path, capsys, command, key):
    # leaves are shot on the maps, so no config key sets an RK4 step
    code, out = run(tmp_path, command, "--set", key)
    assert code == 1
    err = capsys.readouterr().err
    assert f"config key '{key.partition('=')[0]}': unknown key" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["teichmuller", "foliation"])
def test_line_fields_not_converged_exit_three(tmp_path, capsys, monkeypatch, command):
    # the phi 0.02 fields move by 3e-12 to 9e-12 from orbit length 12 to 16
    monkeypatch.setattr(foliations, "FIELD_TOL", 1e-12)
    code, out = run(tmp_path, command, *CONJUGATED_02, *SMALL)
    assert code == 3
    assert "Traceback" not in capsys.readouterr().err
    diag = json.loads((out / f"{command}-report.json").read_text())["diagnostics"]
    message = diag["errors"][0] if command == "teichmuller" else diag["failure"]
    assert message.startswith("line_fields: NotConverged: angular change ")
    assert message.endswith(" rad between orbit lengths 12 and 16 above 1.0e-12")


def test_writer_failure_names_the_writer(tmp_path, capsys, monkeypatch):
    # the foliation writer shoots its own leaf, outside every stage
    from anosov_lab import cli
    from anosov_lab.errors import NotConverged

    def failing_leaf(*args, **kwargs):
        raise NotConverged("last Newton step 1.000e-03 above 1e-10")

    monkeypatch.setattr(cli, "integrate_leaf", failing_leaf)
    code, out = run(tmp_path, "foliation", *SMALL)
    assert code == 3
    assert "Traceback" not in capsys.readouterr().err
    diag = json.loads((out / "foliation-report.json").read_text())["diagnostics"]
    assert diag["failure"] == "foliation report: NotConverged: last Newton step 1.000e-03 above 1e-10"
    # the line fields the stage made are still reported
    assert (out / "field-f1u.csv").exists() and not (out / "leaf-f1u.csv").exists()


def test_diverged_solve_names_the_size_briefly(tmp_path, capsys):
    # p of amplitude 1e308 blows u up in the first sweep
    code, out = run(tmp_path, "conjugacy", "--set", "action.kind=perturbed",
                    "--set", 'action.perturbation=[{"k":[0,1],"sin":[1e308,0]}]')
    assert code == 3
    assert "Traceback" not in capsys.readouterr().err
    failure = json.loads((out / "conjugacy-report.json").read_text())["diagnostics"]["failure"]
    assert re.search(r"\|u\| reached \S+ at iteration", failure), failure
    assert len(failure) < 120, failure


def test_teichmuller_inconclusive_on_thresholds_names_each_check(tmp_path):
    code, out = run(tmp_path, "teichmuller", *SMALL, "--set", "thresholds.lemma3=1e-300",
                    "--set", "thresholds.transversality=2")
    assert code == 3
    doc = json.loads((out / "teichmuller-report.json").read_text())["diagnostics"]
    assert doc["verdict"] == "inconclusive"
    thresholds = doc["diagnostics"]["thresholds"]
    fell_short = (("transversality_min_angle", "<", "transversality"),
                  ("lemma3_deviation", ">", "lemma3"))
    assert doc["errors"] == [f"verdict: {name} {doc[name]:.3g} {sign} thresholds.{key} = "
                             f"{thresholds[key]:g}" for name, sign, key in fell_short]


@pytest.mark.parametrize("slide_s", ["2", "-2"])
def test_slide_landing_off_the_transversal_exit_three(tmp_path, capsys, slide_s):
    """A slide may land within arc length 1.5 of 0; a slide of 2 predicts
    landings near -+1.9, so no leaf is sampled."""
    code, out = run(tmp_path, "factorize", *SMALL, "--set", f"experiment.slide_s={slide_s}")
    assert code == 3
    assert "Traceback" not in capsys.readouterr().err
    diag = json.loads((out / "factorize-report.json").read_text())["diagnostics"]
    assert diag["failure"].startswith("numeric_factorization: ChartOverflow: ")


def test_env_var_out_dir(tmp_path, monkeypatch):
    target = tmp_path / "env-out"
    monkeypatch.setenv("ANOSOV_LAB_OUT", str(target))
    assert main(["eigen"]) == 0
    assert (target / "eigen-report.json").is_file()


def test_out_flag_beats_env_var(tmp_path, monkeypatch):
    env_out = tmp_path / "env-out"
    monkeypatch.setenv("ANOSOV_LAB_OUT", str(env_out))
    code, out = run(tmp_path, "eigen")
    assert code == 0
    assert (out / "eigen-report.json").is_file()
    assert not env_out.exists()


def test_teichmuller_runs_without_scipy(tmp_path):
    """With every SciPy import made to raise, the driver imports and the
    default ``teichmuller`` run ends smooth and loads no SciPy module.  The
    import alone has loaded np.fft and np.random, which NumPy 2 loads on
    first use: otherwise their import would fall inside the run."""
    src = str(Path(anosov_lab.__file__).resolve().parents[1])
    code = f"""
import json, sys
sys.modules["scipy"] = None
sys.path.insert(0, {src!r})
import anosov_lab.cli
eager = ["numpy.fft" in sys.modules, "numpy.random" in sys.modules]
exit_code = anosov_lab.cli.main(["teichmuller", "--out", {str(tmp_path)!r}])
print(json.dumps([eager, exit_code, [m for m in sys.modules
                                     if m.startswith("scipy") and sys.modules[m] is not None]]))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    eager, exit_code, scipy_modules = json.loads(out.stdout.strip().splitlines()[-1])
    assert eager == [True, True]
    assert (exit_code, scipy_modules) == (0, [])
    doc = json.loads((tmp_path / "teichmuller-report.json").read_text())
    assert doc["verdict"] == "smooth"


PERTURBED_OBSTRUCTED = ("--set", "action.kind=perturbed", "--set",
                        'action.perturbation=[{"k":[0,1],"sin":[0.0047746482927568605,0]}]')


@pytest.mark.parametrize("argv, stages", [
    (("eigen",), []),
    (("conjugacy", *SMALL), ["solve_conjugacy"]),
    (("foliation", *SMALL), ["line_fields"]),
    (("transversality", *SMALL), ["line_fields"]),
    (("prop1",), ["prop1"]),
    (("prop1", *CONJUGATED_02, *SMALL), ["prop1", "solve_conjugacy"]),
    (("factorize", *SMALL), ["numeric_factorization"]),
    (("lemma3", *SMALL), ["line_fields", "tangency_propagation"]),
    (("periodic-data",), ["compare_smooth_invariants"]),
    (("teichmuller",), ["compare_smooth_invariants", "estimate_holder_exponent", "jacobian",
                        "line_fields", "prop1", "solve_conjugacy", "tangency_propagation",
                        "verdict"]),
    (("teichmuller", *PERTURBED_OBSTRUCTED, *SMALL),
     ["compare_smooth_invariants", "estimate_holder_exponent", "solve_conjugacy", "verdict"]),
])
def test_timings_are_keyed_by_the_stages_run(tmp_path, argv, stages):
    code, out = run(tmp_path, *argv)
    assert code in (0, 2)
    name = argv[0]
    doc = json.loads((out / f"{name}-report.json").read_text())
    timings = json.loads((out / f"{name}-timings.json").read_text())["timings_seconds"]
    assert doc["timings_present"] == sorted(timings) == stages


def test_teichmuller_verdict_measures_nothing_itself(tmp_path, monkeypatch):
    # the transversality angles run in the verdict stage, so its timing
    # holds them; the verdict only formats, and the conjugacy residual it
    # reports is the solve's own
    from anosov_lab import cli, rigidity

    calls, residuals = [], []
    angle, solve = rigidity.min_transversality_angle, rigidity.solve_conjugacy
    verdict = cli.teichmuller_verdict

    def kept_solve(*args, **kwargs):
        h = solve(*args, **kwargs)
        residuals.append(h.residual)
        return h

    def counting_angle(f1, f2):
        calls.append("angle")
        return angle(f1, f2)

    def checked_verdict(ctx):
        before = len(calls)
        result = verdict(ctx)
        assert len(calls) == before
        return result

    monkeypatch.setattr(rigidity, "solve_conjugacy", kept_solve)
    monkeypatch.setattr(rigidity, "min_transversality_angle", counting_angle)
    monkeypatch.setattr(cli, "teichmuller_verdict", checked_verdict)
    code, out = run(tmp_path, "teichmuller", *SMALL)
    assert code == 0
    assert calls == ["angle", "angle"]
    verdict_doc = json.loads((out / "teichmuller-report.json").read_text())["diagnostics"]
    diag = verdict_doc["diagnostics"]
    assert diag["conjugacy_residual"] == residuals[-1] < 1e-9
    assert set(diag["transversality_pairs"]) == {"E1u_vs_E2s", "E2u_vs_E1s"}
    assert verdict_doc["transversality_min_angle"] == min(
        a for a, _ in diag["transversality_pairs"].values())
