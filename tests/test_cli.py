import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import levypassage
from levypassage.cli import dispatch, run_validation
from levypassage.errors import SchemaError
from levypassage.first_passage import PenaltySpec, ph_transform, pk_series_transform, transform_from_scales
from levypassage.last_passage import (
    last_passage_cdf,
    last_passage_joint_density,
    last_passage_overshoot_transform,
    reflected_last_passage_transform,
)
from levypassage.lundberg import build_scale_set, escape_rate
from levypassage.maintenance import PolicyKernels, expected_time_to_renewal, policy_from_dict
from levypassage.mc import SimConfig
from levypassage.models import model_from_dict
from levypassage.reflected import duality_check, reflected_passage_density

BM = {"kind": "brownian_drift", "mu": 1.0, "sigma": 1.0}
POLICY = {"b": 2.0, "m": {"family": "constant", "value": 1.0}, "d": {"family": "affine", "theta": 0.5}}
PG = {"kind": "perturbed_gamma", "mu": 0.2, "sigma": 0.8, "alpha": 1.5, "xi": 0.7}
GAMMA = {"kind": "pure_gamma", "alpha": 1.0, "xi": 1.0}
PH1 = {"kind": "perturbed_cp_ph", "mu": 0.0, "sigma": 1.0, "lambda": 1.0, "ph": {"alpha": [1.0], "T": [[-1.0]]}}


def _read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    header = lines[1].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    return header, rows


def _printed_csv(text):
    """(manifest parameters, header, rows of cells) of a CSV printed to stdout."""
    lines = text.splitlines()
    assert lines[0].startswith("# ")
    return json.loads(lines[0][2:])["parameters"], lines[1].split(","), [line.split(",") for line in lines[2:]]


def _model_file(tmp_path, doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def bm_files(tmp_path):
    model, policy = tmp_path / "model.json", tmp_path / "policy.json"
    model.write_text(json.dumps(BM))
    policy.write_text(json.dumps(POLICY))
    return ["--model", str(model), "--policy", str(policy)]


def test_validate_quick_passes():
    rows = run_validation(quick=True)
    assert {
        "maintenance_kernel_c_route_gap",
        "scale_routes_small_sigma_pgamma",
        "first_passage_pk_vs_euler_pgamma",
        "scale_closed_vs_inversion_ph_delta0",
        "last_passage_mass_split_pgamma_small_jumps",
        "perturbed_gamma_density_long_horizon",
    } <= {name for name, *_ in rows}
    assert [name for name, _, _, ok in rows if not ok] == []


@pytest.mark.parametrize("what", ["kernels", "joint", "idle"])
def test_maintenance_runs(what, bm_files, tmp_path):
    out = tmp_path / f"{what}.csv"
    assert dispatch(["maintenance", *bm_files, "--what", what, "--i", "2", "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    assert rows.size and np.all(np.isfinite(rows))


def test_expected_table_is_one_chain(tmp_path, monkeypatch):
    # the table reads E[T* 1{I = i}] for every i off one chain, so C is
    # computed once, and each row is expected_time_to_renewal(k, i) to the bit
    model, policy, out = tmp_path / "model.json", tmp_path / "policy.json", tmp_path / "expected.csv"
    model.write_text(json.dumps(PG))
    policy.write_text(json.dumps(POLICY))
    calls = []
    kernel_c = PolicyKernels.kernel_c
    monkeypatch.setattr(PolicyKernels, "kernel_c", lambda self, y: calls.append(y) or kernel_c(self, y))
    argv = ["maintenance", "--model", str(model), "--policy", str(policy), "--what", "expected", "--i", "5"]
    assert dispatch([*argv, "--out", str(out)]) == 0
    assert len(calls) == 1
    header, rows = _read_csv(out)
    assert header == ["i", "E_Tstar_on_I"]
    kernels = PolicyKernels(model_from_dict(PG), policy_from_dict(POLICY))
    assert rows[:, 0].tolist() == [1, 2, 3, 4, 5]
    assert rows[:, 1].tolist() == [expected_time_to_renewal(kernels, i) for i in range(1, 6)]


def test_kernels_c_column_is_kernel_c(bm_files, tmp_path):
    out = tmp_path / "kernels.csv"
    assert dispatch(["maintenance", *bm_files, "--what", "kernels", "--i", "3", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["y", "A0_density", "C"]
    kernels = PolicyKernels(model_from_dict(BM), policy_from_dict(POLICY))
    assert rows[:, 2] == pytest.approx(kernels.kernel_c(rows[:, 0]), rel=1e-15)


@pytest.mark.parametrize("what", ["kernels", "joint", "idle", "expected"])
def test_singular_pure_gamma_policy_is_numerical_failure(what, tmp_path, capsys):
    # alpha m = 0.5 < 1: the gamma density of a cycle is unbounded at the
    # origin, so no table of its point values is right; the kernels table
    # once printed inf and exited 0
    model, policy = tmp_path / "model.json", tmp_path / "policy.json"
    model.write_text(json.dumps(GAMMA))
    policy.write_text(json.dumps({**POLICY, "m": {"family": "constant", "value": 0.5}}))
    argv = ["maintenance", "--model", str(model), "--policy", str(policy), "--what", what]
    assert dispatch([*argv, "--out", str(tmp_path / "out.csv")]) == 1
    assert "direction 2" in capsys.readouterr().err


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
    assert dispatch([*argv, "--paths", "200"]) == 0
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


@pytest.mark.parametrize("penalty", ["overshoot-indicator:-0.5", "overshoot-indicator:nan", "overshoot-indicator:inf"])
@pytest.mark.parametrize("model", [PG, PH1], ids=["pg", "ph1"])
def test_bad_overshoot_threshold_is_usage_error(penalty, model, tmp_path, capsys):
    # a negative eps once returned twice the eps = 0 transform on phase type,
    # and "nan of nan" on perturbed gamma
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    argv = ["first-passage", "--model", str(path), "--delta", "0.5", "--b", "1", "--route", "pk", "--penalty", penalty]
    assert dispatch(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_brownian_scale_route_of_another_kind_is_usage_error(tmp_path, capsys):
    # the Brownian closed form once tabulated W(1) = 6.02 for this model, whose W(1) is 4.17
    path = tmp_path / "pgamma.json"
    path.write_text(json.dumps({"kind": "perturbed_gamma", "mu": 0.1, "sigma": 1.0, "alpha": 1.0, "xi": 1.0}))
    assert dispatch(["scale", "--model", str(path), "--delta", "0.5", "--route", "closed"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_unresolved_scale_grid_is_numerical_failure(tmp_path, capsys):
    # the kernels vary on the scale 1/rho(0.5) < sigma^2 / (2 mu) = 0.01, under
    # the step 20/1024: the renewal solve's two-grid check refuses the table
    path = tmp_path / "pgamma.json"
    path.write_text(json.dumps({**PG, "mu": 0.5, "sigma": 0.1, "alpha": 1.0, "xi": 1.0}))
    argv = ["scale", "--model", str(path), "--delta", "0.5", "--x-max", "20", "--n", "1025"]
    assert dispatch(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: ")


def test_scale_table_past_the_largest_double_is_numerical_failure(bm_model_file, capsys):
    # rho(0.5) = 2.414: the row at x = 300 once read inf in W, W' and Z, exit 0
    assert dispatch(["scale", "--model", bm_model_file, "--delta", "0.5", "--x-max", "300", "--n", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: ") and "292.1" in captured.err


def test_duality_takes_no_time_step(bm_model_file):
    # both of its estimates go from jump to jump, so there is no dt to set
    with pytest.raises(SystemExit) as exc:
        dispatch(["duality", "--model", bm_model_file, "--b", "1", "--t", "1", "--dt", "0.01"])
    assert exc.value.code == 2


def test_simulate_takes_no_time_step(bm_model_file):
    # every target, reflected first passage too, goes from jump to jump, so
    # there is no dt to set
    with pytest.raises(SystemExit) as exc:
        dispatch(["simulate", "--model", bm_model_file, "--target", "reflected-first", "--b", "1", "--dt", "0.01"])
    assert exc.value.code == 2


def _simulate(model_file, *argv):
    return dispatch(["simulate", "--model", model_file, "--paths", "200", *argv])


def test_simulate_reports_the_censored_count(bm_model_file, capsys):
    # a horizon of 0.05 is far too short for b = 1: every path is censored,
    # and none has crossed by t = 0.05
    argv = ["--target", "first", "--b", "1", "--t", "0.05", "--horizon", "0.05"]
    assert _simulate(bm_model_file, *argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["censored"] == 200 and doc["n"] == 200


def test_simulate_cdf_beyond_the_horizon_is_numerical_failure(bm_model_file, capsys):
    # P(T_1 <= 5) is about 0.98, but the paths censored at 0.05 cannot tell
    argv = ["--target", "first", "--b", "1", "--t", "5", "--horizon", "0.05"]
    assert _simulate(bm_model_file, *argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: ") and "censored" in captured.err


def test_simulate_with_one_uncensored_path_prints_json(tmp_path, capsys):
    # 199 of 200 paths are censored: one value has no standard error
    model = tmp_path / "pg.json"
    model.write_text(json.dumps({"kind": "perturbed_gamma", "mu": 0.2, "sigma": 0.8, "alpha": 1.5, "xi": 0.7}))
    argv = ["--target", "last", "--b", "3", "--delta", "0.5", "--horizon", "0.5", "--seed", "2"]
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
    assert "21/21 checks passed" in done.stdout


def test_simulate_with_every_path_censored_is_numerical_failure(bm_model_file, capsys):
    # the last-passage estimates drop censored paths; none is left here
    argv = ["--target", "last", "--b", "3", "--delta", "0.5", "--horizon", "0.5"]
    assert _simulate(bm_model_file, *argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: ") and "censored" in captured.err


@pytest.mark.parametrize("value", [0, -3])
def test_max_blocks_below_one_is_rejected(value, bm_model_file, capsys):
    # and, on the command line, a horizon that is not positive
    with pytest.raises(ValueError, match="max_blocks"):
        SimConfig(max_blocks=value)
    argv = ["--target", "first", "--b", "1", "--t", "1", "--horizon", str(value)]
    assert _simulate(bm_model_file, *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--horizon" in err


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


def _fill(doc: dict, value):
    """doc with every None, at any depth, replaced by value."""
    return {k: _fill(v, value) if isinstance(v, dict) else value if v is None else v for k, v in doc.items()}


@pytest.mark.parametrize("bad", [[1], True, "1"], ids=["list", "bool", "string"])
@pytest.mark.parametrize(
    "model, policy, where",
    [
        ({**BM, "mu": None}, POLICY, r"\$\.mu"),
        ({**GAMMA, "sigma": None}, POLICY, r"\$\.sigma"),
        (BM, {**POLICY, "b": None}, r"\$\.b"),
        (BM, {**POLICY, "m": {"family": "constant", "value": None}}, r"\$\.m\.value"),
        (BM, {**POLICY, "m": {"family": "affine", "value": 1.0, "slope": None}}, r"\$\.m\.slope"),
        (BM, {**POLICY, "m": {"family": "affine", "value": 1.0, "floor": None}}, r"\$\.m\.floor"),
        (BM, {**POLICY, "d": {"family": "affine", "theta": None}}, r"\$\.d\.theta"),
        (BM, {**POLICY, "d": {"family": "reset", "d0": None}}, r"\$\.d\.d0"),
    ],
    ids=["mu", "pure_gamma_sigma", "b", "m.value", "m.slope", "m.floor", "d.theta", "d.d0"],
)
def test_json_number_of_another_type_is_schema_error(model, policy, where, bad, tmp_path, capsys):
    # a list once crashed the CLI with a TypeError (exit 1), and true read as 1.0
    model, policy = _fill(model, bad), _fill(policy, bad)
    with pytest.raises(SchemaError, match=where + ": expected number"):
        model_from_dict(model)
        policy_from_dict(policy)
    paths = tmp_path / "model.json", tmp_path / "policy.json"
    for path, doc in zip(paths, (model, policy)):
        path.write_text(json.dumps(doc))
    assert dispatch(["maintenance", "--model", str(paths[0]), "--policy", str(paths[1])]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("what", ["joint", "overshoot", "reflected"])
def test_law_grids_are_the_library_values(what, tmp_path):
    path, out, b = tmp_path / "pg.json", tmp_path / "out.csv", 1.5
    path.write_text(json.dumps(PG))
    model = model_from_dict(PG)
    if what == "reflected":
        argv = ["reflected", "--b", str(b), "--grid-y", "5", "--grid-z", "7"]
    else:
        argv = ["last-passage", "--b", str(b), "--what", what, "--t", "0.5,2", "--grid-n", "9"]
    assert dispatch([argv[0], "--model", str(path), *argv[1:], "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    x, y, got = rows.T
    if what == "joint":
        assert np.array_equal(x, np.repeat([0.5, 2.0], 9))
        want = np.concatenate([last_passage_joint_density(model, b, t, y[x == t]) for t in (0.5, 2.0)])
    elif what == "overshoot":
        assert np.array_equal(x, np.repeat(np.linspace(0.0, b + 4.0, 9), 9))
        assert np.array_equal(y, np.tile(np.linspace(0.05, 4.0, 9), 9))
        want = last_passage_overshoot_transform(model, build_scale_set(model, 0.5, 2.0 * b), b, x, y)
    else:
        assert np.array_equal(x, np.repeat(np.linspace(0.0, b, 5), 7))
        want = reflected_passage_density(model, build_scale_set(model, 0.5, 2.0 * b), b, x, y)
    assert np.count_nonzero(want) > want.size // 2
    assert got == pytest.approx(want, rel=1e-15, abs=0.0)


def test_model_prints_the_library_values(tmp_path, capsys):
    assert dispatch(["model", "--model", _model_file(tmp_path, PH1), "--u", "0.5,2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    model = model_from_dict(PH1)
    assert doc["phi_d"] == {"0.5": float(model.phi_d(0.5)), "2": float(model.phi_d(2.0))}
    assert [doc["mean_d1"], doc["var_d1"], doc["rho0"]] == [model.mean_d1, model.var_d1, escape_rate(model)]


def test_scale_table_is_the_scale_set(tmp_path):
    out = tmp_path / "scale.csv"
    argv = ["scale", "--model", _model_file(tmp_path, PG), "--delta", "0.5", "--x-max", "2", "--n", "257"]
    assert dispatch([*argv, "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    scales = build_scale_set(model_from_dict(PG), 0.5, 2.0, 257)
    assert header == ["x", "W", "Wp", "Z"]
    assert np.array_equal(rows[:, 0], scales.w.grid())
    for col, table in zip(rows.T[1:], (scales.w, scales.w_prime, scales.z)):
        assert col == pytest.approx(table.values, rel=1e-15, abs=0.0)


@pytest.mark.parametrize(
    "doc, penalty, routes",
    [(PG, "one", ["pk", "scale"]), (PH1, "one", ["pk", "scale", "closed"]), (PH1, "overshoot-indicator:0.5", ["pk"])],
    ids=["pg", "ph1", "ph1-penalty"],
)
def test_first_passage_routes_are_the_library_values(doc, penalty, routes, tmp_path, capsys):
    # --route all skips the closed route on perturbed gamma, which has no
    # residue sum, and every route but the PK series under a penalty
    argv = ["first-passage", "--model", _model_file(tmp_path, doc), "--delta", "0.5,1", "--b", "0.5,1.5"]
    assert dispatch([*argv, "--penalty", penalty]) == 0
    params, header, rows = _printed_csv(capsys.readouterr().out)
    assert params == {"delta": [0.5, 1.0], "b": [0.5, 1.5], "route": "all", "penalty": penalty}
    assert header == ["b", "delta", "phi", "route"]
    model, b_max = model_from_dict(doc), 1.5 * 2.0 + 1.0
    pen = PenaltySpec() if penalty == "one" else PenaltySpec(tag="overshoot_indicator", eps=0.5)
    want = []
    for delta in (0.5, 1.0):
        laws = {
            "pk": lambda b: pk_series_transform(model, delta, pen, b_max=b_max)(b),
            "scale": lambda b: transform_from_scales(build_scale_set(model, delta, b_max))(b),
            "closed": lambda b: ph_transform(model, delta, b),
        }
        want += [(b, delta, float(laws[route](b)), route) for route in routes for b in (0.5, 1.5)]
    assert [row[3] for row in rows] == [w[3] for w in want]
    assert [(float(row[0]), float(row[1])) for row in rows] == [w[:2] for w in want]
    assert [float(row[2]) for row in rows] == pytest.approx([w[2] for w in want], rel=1e-15, abs=0.0)


def test_closed_route_by_name_on_a_kind_without_it_is_usage_error(tmp_path, capsys):
    argv = ["first-passage", "--model", _model_file(tmp_path, PG), "--delta", "0.5", "--b", "1", "--route", "closed"]
    assert dispatch(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_last_passage_cdf_prints_to_stdout(tmp_path, capsys):
    # no --out: the rows go to stdout, under the same manifest line
    argv = ["last-passage", "--model", _model_file(tmp_path, PH1), "--b", "1.5", "--t", "0.5,2"]
    assert dispatch(argv) == 0
    params, header, rows = _printed_csv(capsys.readouterr().out)
    assert params == {"b": 1.5, "t": [0.5, 2.0], "delta": [0.5], "what": "cdf"}
    assert header == ["t", "cdf"]
    model = model_from_dict(PH1)
    assert [float(t) for t, _ in rows] == [0.5, 2.0]
    assert [float(c) for _, c in rows] == pytest.approx([last_passage_cdf(model, 1.5, t) for t in (0.5, 2.0)], rel=1e-15)


def test_reflected_last_passage_takes_a_delta_list(tmp_path, capsys):
    argv = ["last-passage", "--model", _model_file(tmp_path, PG), "--b", "1.5", "--what", "reflected"]
    assert dispatch([*argv, "--delta", "0.5,1"]) == 0
    params, header, rows = _printed_csv(capsys.readouterr().out)
    assert params["delta"] == [0.5, 1.0] and header == ["delta", "laplace"]
    model = model_from_dict(PG)
    a_max = 1.5 + 24.0 / escape_rate(model)
    want = [
        reflected_last_passage_transform(model, transform_from_scales(build_scale_set(model, d, a_max, n=4097)), 1.5)
        for d in (0.5, 1.0)
    ]
    assert [float(d) for d, _ in rows] == [0.5, 1.0]
    assert [float(v) for _, v in rows] == pytest.approx(want, rel=1e-15, abs=0.0)


def test_overshoot_takes_one_delta(tmp_path, capsys):
    argv = ["last-passage", "--model", _model_file(tmp_path, PG), "--b", "1.5", "--what", "overshoot"]
    assert dispatch([*argv, "--delta", "0.5,1"]) == 2
    assert "one --delta" in capsys.readouterr().err
    assert dispatch([*argv, "--delta", "1", "--grid-n", "3"]) == 0
    params, _, rows = _printed_csv(capsys.readouterr().out)
    assert params["delta"] == [1.0] and len(rows) == 9


def test_duality_prints_the_library_estimates(bm_model_file, capsys):
    argv = ["duality", "--model", bm_model_file, "--b", "1", "--t", "1", "--paths", "500", "--seed", "4"]
    assert dispatch(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    refl, fp = duality_check(model_from_dict(BM), 1.0, 1.0, SimConfig(t_max=1.0, n_paths=500, seed=4, max_blocks=1))
    for key, res in (("p_reflected_exceeds", refl), ("p_passage_by_t", fp)):
        assert doc[key] == {"estimate": res.estimate, "se": res.std_error, "n": res.n}
    assert doc["gap_in_se"] == pytest.approx(
        abs(refl.estimate - fp.estimate) / np.hypot(refl.std_error, fp.std_error), rel=1e-15
    )
