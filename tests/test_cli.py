import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import levypassage
from levypassage.cli import dispatch, run_validation
from levypassage.maintenance import PolicyKernels, policy_from_dict
from levypassage.mc import SimConfig
from levypassage.models import model_from_dict

BM = {"kind": "brownian_drift", "mu": 1.0, "sigma": 1.0}
POLICY = {"b": 2.0, "m": {"family": "constant", "value": 1.0}, "d": {"family": "affine", "theta": 0.5}}


def _read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    header = lines[1].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    return header, rows


@pytest.fixture
def bm_files(tmp_path):
    model, policy = tmp_path / "model.json", tmp_path / "policy.json"
    model.write_text(json.dumps(BM))
    policy.write_text(json.dumps(POLICY))
    return ["--model", str(model), "--policy", str(policy)]


def test_validate_quick_passes():
    rows = run_validation(quick=True)
    assert "maintenance_kernel_c_route_gap" in [name for name, *_ in rows]
    assert [name for name, _, _, ok in rows if not ok] == []


@pytest.mark.parametrize("what", ["kernels", "joint", "idle"])
def test_maintenance_runs(what, bm_files, tmp_path):
    out = tmp_path / f"{what}.csv"
    assert dispatch(["maintenance", *bm_files, "--what", what, "--i", "2", "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    assert rows.size and np.all(np.isfinite(rows))


def test_kernels_c_column_is_kernel_c(bm_files, tmp_path):
    out = tmp_path / "kernels.csv"
    assert dispatch(["maintenance", *bm_files, "--what", "kernels", "--i", "3", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["y", "A0_density", "C"]
    kernels = PolicyKernels(model_from_dict(BM), policy_from_dict(POLICY))
    assert rows[:, 2] == pytest.approx(kernels.kernel_c(rows[:, 0]), rel=1e-15)


@pytest.fixture
def bm_model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(BM))
    return str(path)


@pytest.mark.parametrize("target", ["first", "last"])
def test_simulate_without_t_or_delta_is_usage_error(target, bm_model_file, capsys):
    argv = ["simulate", "--model", bm_model_file, "--target", target, "--b", "1", "--paths", "10"]
    assert dispatch(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("target", ["reflected-first", "reflected-last"])
def test_simulate_honours_delta_zero(target, bm_model_file, capsys):
    argv = ["simulate", "--model", bm_model_file, "--target", target, "--b", "1", "--delta", "0"]
    assert dispatch([*argv, "--paths", "200", "--dt", "0.01"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["meta"].startswith("E[e^(-0 ")
    assert doc["estimate"] == 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ["last-passage", "--b", "-1"],
        ["last-passage", "--b", "0", "--what", "joint"],
        ["first-passage", "--delta", "0", "--b", "1"],
    ],
)
def test_out_of_domain_input_is_usage_error(argv, bm_model_file, capsys):
    assert dispatch([argv[0], "--model", bm_model_file, *argv[1:]]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_brownian_scale_route_of_another_kind_is_usage_error(tmp_path, capsys):
    # the Brownian closed form once tabulated W(1) = 6.02 for this model, whose W(1) is 4.17
    path = tmp_path / "pgamma.json"
    path.write_text(json.dumps({"kind": "perturbed_gamma", "mu": 0.1, "sigma": 1.0, "alpha": 1.0, "xi": 1.0}))
    assert dispatch(["scale", "--model", str(path), "--delta", "0.5", "--route", "closed_bm"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _simulate(model_file, *argv):
    return dispatch(["simulate", "--model", model_file, "--paths", "200", "--dt", "0.01", *argv])


def test_simulate_reports_the_censored_count(bm_model_file, capsys):
    # a horizon of 0.05 is far too short for b = 1: every path is censored,
    # and none has crossed by t = 0.05
    argv = ["--target", "first", "--b", "1", "--t", "0.05", "--t-max", "0.05", "--max-blocks", "1"]
    assert _simulate(bm_model_file, *argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["censored"] == 200 and doc["n"] == 200


def test_simulate_cdf_beyond_the_horizon_is_numerical_failure(bm_model_file, capsys):
    # P(T_1 <= 5) is about 0.98, but the paths censored at 0.05 cannot tell
    argv = ["--target", "first", "--b", "1", "--t", "5", "--t-max", "0.05", "--max-blocks", "1"]
    assert _simulate(bm_model_file, *argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: ") and "censored" in captured.err


def test_simulate_with_one_uncensored_path_prints_json(tmp_path, capsys):
    # 199 of 200 paths are censored: one value has no standard error
    model = tmp_path / "pg.json"
    model.write_text(json.dumps({"kind": "perturbed_gamma", "mu": 0.2, "sigma": 0.8, "alpha": 1.5, "xi": 0.7}))
    argv = ["--target", "last", "--b", "3", "--delta", "0.5", "--t-max", "0.5", "--max-blocks", "1", "--seed", "9"]
    assert _simulate(str(model), *argv) == 0

    def not_json(name):
        raise ValueError(f"{name} is not JSON")

    doc = json.loads(capsys.readouterr().out, parse_constant=not_json)
    assert doc["n"] == 1 and doc["censored"] == 199
    assert doc["se"] is None and 0.0 < doc["estimate"] < 1.0


@pytest.mark.parametrize("module", ["levypassage", "levypassage.cli"])
def test_module_entry_point_runs_validate(module):
    src = str(Path(levypassage.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", module, "validate", "--quick"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "15/15 checks passed" in done.stdout


def test_simulate_with_every_path_censored_is_numerical_failure(bm_model_file, capsys):
    # the last-passage estimates drop censored paths; none is left here
    argv = ["--target", "last", "--b", "3", "--delta", "0.5", "--t-max", "0.5", "--max-blocks", "1"]
    assert _simulate(bm_model_file, *argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: ") and "censored" in captured.err


@pytest.mark.parametrize("max_blocks", [0, -3])
def test_max_blocks_below_one_is_rejected(max_blocks, bm_model_file, capsys):
    with pytest.raises(ValueError, match="max_blocks"):
        SimConfig(max_blocks=max_blocks)
    argv = ["--target", "first", "--b", "1", "--t", "1", "--max-blocks", str(max_blocks)]
    assert _simulate(bm_model_file, *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "max_blocks" in err


@pytest.mark.parametrize("idle", [False, True])
def test_policy_simulation_prints_idle_law_in_idle_mode(idle, bm_files, capsys):
    argv = ["maintenance", *bm_files, "--what", "simulate", "--i", "2", "--z", "0.3", "--paths", "500"]
    assert dispatch(argv + ["--idle"] * idle) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["p_i"]) == {"1", "2"}
    assert ("p_idle" in doc) == idle
    if idle:
        assert set(doc["p_idle"]) == {"1", "2"}
        for i in ("1", "2"):
            assert 0.0 <= doc["p_idle"][i]["estimate"] <= doc["p_i"][i]["estimate"]
            assert doc["p_idle"][i]["se"] >= 0.0


def test_policy_simulation_with_one_path_prints_json(bm_files, capsys):
    argv = ["maintenance", *bm_files, "--what", "simulate", "--i", "1", "--paths", "1", "--idle"]
    assert dispatch(argv) == 0

    def not_json(name):
        raise ValueError(f"{name} is not JSON")

    doc = json.loads(capsys.readouterr().out, parse_constant=not_json)
    assert doc["n"] == 1
    assert doc["p_i"]["1"]["se"] is None and doc["mean_t_star"]["se"] is None
    assert doc["p_idle"]["1"]["se"] is None
