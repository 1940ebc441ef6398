import json
import os

import pytest

from anosov_lab.cli import main
from anosov_lab.config import load_config
from anosov_lab.errors import ConfigError


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


def test_unknown_key_rejected(tmp_path):
    code, _ = run(tmp_path, "eigen", "--set", "resolution.gridn=256")
    assert code == 1


def test_prop1_alpha(tmp_path):
    code, out = run(tmp_path, "prop1")
    assert code == 0
    doc = json.loads((out / "prop1-report.json").read_text())
    assert doc["diagnostics"]["alpha"] == pytest.approx(1.1, abs=1e-6)


def test_periodic_data_obstructed_exit_two(tmp_path):
    code, out = run(
        tmp_path, "periodic-data",
        "--set", "action.kind=perturbed",
        "--set", 'action.perturbation=[{"k":[0,1],"sin":[0.0047746482927568605,0]}]')
    assert code == 2
    doc = json.loads((out / "periodic-data-report.json").read_text())
    assert doc["verdict"] == "obstructed"
    assert doc["diagnostics"]["max_mismatch"] > 1e-4


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
    assert cfg.echo()["resolution"] == echo["resolution"]


def test_determinism_byte_identical(tmp_path):
    out = tmp_path / "same"
    assert main(["factorize", "--out", str(out)]) == 0
    first = (out / "factorize-report.json").read_bytes()
    assert main(["factorize", "--out", str(out)]) == 0
    second = (out / "factorize-report.json").read_bytes()
    assert first == second


def test_env_var_out_dir(tmp_path, monkeypatch):
    target = tmp_path / "env-out"
    monkeypatch.setenv("ANOSOV_LAB_OUT", str(target))
    assert main(["eigen"]) == 0
    assert (target / "eigen-report.json").is_file()
