"""Command-line interface: exit codes, file schemas, determinism."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import crflow
from crflow.cli import main as cli_main
from crflow.config import load_scenario
from crflow.errors import ConfigError

RUN = [sys.executable, "-m", "crflow.cli"]

# The directory holding the crflow package this test process imported, so
# the subprocess runs the same code whether crflow is installed or taken from
# a relative PYTHONPATH entry that does not resolve from the test's cwd.
_PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(crflow.__file__)))


def invoke(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_PKG_ROOT, env.get("PYTHONPATH")) if p)
    return subprocess.run(RUN + args, cwd=cwd, env=env, capture_output=True,
                          text=True)


def write_config(path, **overrides):
    cfg = {
        "n": 1, "J": 5, "f_spec": "constant", "u0_spec": "constant",
        "dt_init": 0.1, "t_max": 5.0, "record_every": 10,
        "compute_shadow": True,
    }
    cfg.update(overrides)
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=1)
    return cfg


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_constant_scenario_exit_zero(tmp_path):
    cfgp = tmp_path / "scenario.json"
    write_config(cfgp, u0_spec={"type": "perturbation",
                                "terms": [{"coordinate": 0, "amplitude": 0.05}]},
                 t_max=30.0, tol_converge=1e-8)
    proc = invoke(["run", str(cfgp)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["status"] == "Converged"
    assert summary["F2_final"] < 1e-8
    assert summary["sbc"] is True
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header == ["t", "E", "E_f", "alpha", "F2", "G2", "kw_residual",
                      "abs_P", "eps", "theta_1_re", "theta_1_im",
                      "theta_2_re", "theta_2_im", "max_u",
                      "mass_concentration"]
    assert len(lines) >= 3
    # >= 15 significant digits in the numeric text
    cell = lines[1].split(",")[1]
    mantissa = cell.replace("-", "").replace(".", "").split("e")[0].lstrip("0")
    assert len(mantissa) >= 15


def test_run_deterministic_csv(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    cfgp = tmp_path / "scenario.json"
    write_config(cfgp, u0_spec={"type": "random", "amplitude": 0.05},
                 seed=7, t_max=1.0)
    p1 = invoke(["run", str(cfgp), "--output-dir", str(a)], cwd=tmp_path)
    p2 = invoke(["run", str(cfgp), "--output-dir", str(b)], cwd=tmp_path)
    assert p1.returncode == p2.returncode
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()


MALFORMED = {
    "negative-dt_init": ({"dt_init": -3.0}, "dt_init"),
    "f_spec-coeff-text": ({"f_spec": [{"powers_x": [0, 0], "powers_xbar": [0, 0],
                                       "coeff": "abc"}]}, "f_spec term 0"),
    "f_spec-powers-text": ({"f_spec": [{"powers_x": ["a", 0], "powers_xbar": [0, 0],
                                        "coeff": 1.0}]}, "f_spec term 0"),
    "f_spec-negative-power": ({"f_spec": [{"powers_x": [-1, 0], "powers_xbar": [-1, 0],
                                           "coeff": 1.0}]}, "f_spec term 0"),
    "bubble-eps-above-1": ({"u0_spec": {"type": "bubble", "p": [[0, 0], [1, 0]],
                                        "eps": 2.0}}, "bubble"),
    "n-bool": ({"n": True}, "key 'n'"),
    "record_every-bool": ({"record_every": True}, "key 'record_every'"),
    "seed-negative": ({"u0_spec": {"type": "random"}, "seed": -1}, "key 'seed'"),
    "random-amplitude-text": ({"u0_spec": {"type": "random", "amplitude": "big"}},
                              "random u0_spec"),
    "perturbation-amplitude-text": ({"u0_spec": {"type": "perturbation", "terms": [
        {"coordinate": 0, "amplitude": "big"}]}}, "perturbation term 0"),
    # json.dumps writes the NaN and Infinity literals, which json.loads reads;
    # a NaN dt_init reached the stage count, a NaN tol_converge switched
    # convergence off
    "dt_init-NaN": ({"dt_init": float("nan")}, "key 'dt_init'"),
    "tol_converge-NaN": ({"tol_converge": float("nan")}, "key 'tol_converge'"),
}


@pytest.mark.parametrize("overrides,needle", MALFORMED.values(), ids=MALFORMED)
def test_run_malformed_config_exit_64_no_outputs(tmp_path, overrides, needle):
    cfgp = tmp_path / "bad.json"
    cfgp.write_text(json.dumps({"n": 1, "J": 5, **overrides}) + "\n")
    proc = invoke(["run", str(cfgp)], cwd=tmp_path)
    assert proc.returncode == 64, proc.stderr
    assert proc.stderr.startswith("config error:") and needle in proc.stderr
    assert not (tmp_path / "trajectory.csv").exists()
    assert not (tmp_path / "summary.json").exists()


# a JSON string, boolean or non-integer in f_spec or u0_spec was read as a
# number: amplitude "0.05" ran a flow to TimeLimit, true read as 1.0 and a
# coordinate 1.7 as 1; each must name its term and exit 64
CONSTANT_TERM = {"powers_x": [0, 0], "powers_xbar": [0, 0], "coeff": 2.0}
NOT_A_NUMBER = {
    "random-amplitude": ({"type": "random", "amplitude": "0.05"}, None,
                         "random u0_spec: amplitude"),
    "perturbation-coordinate": ({"type": "perturbation", "terms": [
        {"coordinate": 1.7, "amplitude": 0.05}]}, None,
        "perturbation term 0: coordinate"),
    "perturbation-amplitude": ({"type": "perturbation", "terms": [
        {"coordinate": 0, "amplitude": True}]}, None, "perturbation term 0: amplitude"),
    "bubble-eps": ({"type": "bubble", "p": [[0, 0], [1, 0]], "eps": "0.5"}, None,
                   "bubble u0_spec: eps"),
    "bubble-p": ({"type": "bubble", "p": [[True, 0], [0, 0]], "eps": 0.5}, None,
                 "bubble u0_spec: p[0]"),
    "f-powers_x": ("constant", [{**CONSTANT_TERM, "powers_x": [0.0, 0]}],
                   "f_spec term 0: powers_x"),
    "f-powers_xbar": ("constant", [{**CONSTANT_TERM, "powers_xbar": [False, 0]}],
                      "f_spec term 0: powers_xbar"),
    "f-coeff": ("constant", [{**CONSTANT_TERM, "coeff": "2.0"}], "f_spec term 0: coeff"),
}


@pytest.mark.parametrize("u0_spec,f_spec,needle", NOT_A_NUMBER.values(), ids=NOT_A_NUMBER)
def test_spec_numbers_must_be_json_numbers(tmp_path, capsys, u0_spec, f_spec, needle):
    cfgp = tmp_path / "bad.json"
    write_config(cfgp, u0_spec=u0_spec, f_spec=f_spec or "constant")
    with pytest.raises(ConfigError, match=re.escape(needle)):
        load_scenario(str(cfgp)).build()
    assert cli_main(["run", str(cfgp), "--output-dir", str(tmp_path)]) == 64
    err = capsys.readouterr().err
    assert err.startswith("config error:") and needle in err
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("key,old_default", [
    ("dt_min", 1e-7), ("monotonicity_slack", 1e-10), ("dt_growth_every", 20),
    ("morse_data", None)])
def test_scenario_rejects_removed_flow_keys(tmp_path, key, old_default):
    # the stepper's fixed constants and the Morse echo are no longer
    # scenario settings
    cfgp = tmp_path / "old.json"
    write_config(cfgp, **{key: old_default})
    line = next(i for i, text in enumerate(cfgp.read_text().splitlines(), start=1)
                if f'"{key}"' in text)
    with pytest.raises(ConfigError,
                       match=rf"old\.json:{line}: key '{key}': unknown key$"):
        load_scenario(str(cfgp))


NUMERIC_KEYS = ["n", "J", "seed", "dt_init", "t_max", "tol_converge", "blowup_factor",
                "mass_threshold", "concentration_rho", "record_every", "max_steps",
                "wall_time_cap"]


@pytest.mark.parametrize("key", NUMERIC_KEYS)
def test_scenario_rejects_nan_for_every_numeric_key(tmp_path, key):
    cfgp = tmp_path / "nan.json"
    write_config(cfgp, **{key: float("nan")})
    with pytest.raises(ConfigError, match=rf"key '{key}': must be"):
        load_scenario(str(cfgp))


@pytest.mark.parametrize("key", ["dt_init", "tol_converge", "concentration_rho"])
def test_scenario_rejects_infinity_where_it_is_not_never(tmp_path, key):
    # tol_converge Infinity reported Converged after one step at F2 0.15,
    # concentration_rho Infinity made the mass scan take cos(inf)
    cfgp = tmp_path / "inf.json"
    write_config(cfgp, **{key: float("inf")})
    with pytest.raises(ConfigError, match=rf"key '{key}': must be a finite positive"):
        load_scenario(str(cfgp))


def test_scenario_keeps_infinity_as_never(tmp_path):
    # criterion 9 sets blowup_factor to inf: no mass scan, ever
    cfgp = tmp_path / "inf.json"
    never = ("t_max", "blowup_factor", "mass_threshold", "wall_time_cap")
    write_config(cfgp, **dict.fromkeys(never, float("inf")))
    flow = load_scenario(str(cfgp)).flow
    assert all(getattr(flow, key) == float("inf") for key in never)


# a FlowConfig is checked when built, in code as from a scenario file: a
# record_every of 0 raised ZeroDivisionError after the first step, a NaN
# t_max is never met, a NaN tol_converge turned convergence off, a max_steps
# of 0 or a negative wall cap ended the run at t = 0, an infinite ball radius
# made the mass scan take cos(inf), a NaN one read every mass as 0.0, a NaN
# blow-up bound never armed the detector, and true and "no" passed as a
# cadence and a switch
@pytest.mark.parametrize("key,value", [
    ("dt_init", float("nan")), ("dt_init", float("inf")), ("dt_init", 0.0),
    ("dt_init", -0.1), ("record_every", 0), ("t_max", float("nan")),
    ("tol_converge", float("nan")), ("tol_converge", 0.0), ("max_steps", 0),
    ("wall_time_cap", -1.0), ("concentration_rho", float("inf")),
    ("concentration_rho", float("nan")), ("blowup_factor", float("nan")),
    ("mass_threshold", float("nan")), ("record_every", True),
    ("enforce_beta", "no")])
def test_flow_run_rejects_a_bad_setting(key, value):
    from crflow.flow import FlowConfig, run
    from crflow.presets import f_constant
    basis = crflow.build_basis(1, 3)
    u0 = crflow.Field.constant(basis, 1.0)
    with pytest.raises(ConfigError, match=key):
        run(u0, f_constant(basis), FlowConfig(**{key: value}, compute_shadow=False))


def test_run_invalid_json_reports_line(tmp_path):
    cfgp = tmp_path / "broken.json"
    cfgp.write_text('{\n "n": 1,\n oops\n}\n')
    proc = invoke(["run", str(cfgp)], cwd=tmp_path)
    assert proc.returncode == 64
    assert ":3" in proc.stderr


def test_run_negative_f_rejected(tmp_path):
    cfgp = tmp_path / "neg.json"
    write_config(cfgp, f_spec=[{"powers_x": [1, 0], "powers_xbar": [0, 0],
                                "coeff": 1.0}])
    proc = invoke(["run", str(cfgp)], cwd=tmp_path)
    assert proc.returncode == 64


# ---------------------------------------------------------------------------
# morse
# ---------------------------------------------------------------------------

def _morse_file(path, points, n=2, f_max=1.3, f_min=1.0):
    payload = {"n": n, "f_max": f_max, "f_min": f_min,
               "critical_points": points}
    path.write_text(json.dumps(payload))


def test_morse_two_maxima_exit_zero(tmp_path):
    p = tmp_path / "m.json"
    _morse_file(p, [{"index": 5, "laplacian_sign": -1, "f_value": 1.3},
                    {"index": 5, "laplacian_sign": -1, "f_value": 1.2}])
    proc = invoke(["morse", str(p)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout
    assert "satisfied" in proc.stdout


def test_morse_single_maximum_exit_one(tmp_path):
    p = tmp_path / "m.json"
    _morse_file(p, [{"index": 5, "laplacian_sign": -1, "f_value": 1.3}])
    proc = invoke(["morse", str(p)], cwd=tmp_path)
    assert proc.returncode == 1
    assert "not satisfied" in proc.stdout


_MAXIMUM = {"index": 5, "laplacian_sign": -1, "f_value": 1.3}


@pytest.mark.parametrize("points, header", [
    ([dict(_MAXIMUM, index=6)], {}),
    # int() would read each of these as data and print a verdict
    ([dict(_MAXIMUM, index=1.7)], {}),
    ([dict(_MAXIMUM, laplacian_sign=-1.0)], {}),
    ([_MAXIMUM], {"n": 2.9}),
    ([dict(_MAXIMUM, index=3)], {"n": True}),     # index 3 is the top at n = 1
    # the ratio test's 2^{1/n} and the count system need n >= 1
    ([], {"n": 0}),
    # a non-finite bound would make the ratio test read nan or inf
    ([], {"f_max": float("nan")}),
    ([_MAXIMUM], {"f_max": float("inf")}),
    # float() would read each of these as data and print a verdict
    ([], {"n": 1, "f_max": True}),
    ([dict(_MAXIMUM, index=3, f_value=True)], {"n": 1}),
    ([], {"f_max": "1.2"}),
    ([], {"f_min": "1.0"}),
    ([dict(_MAXIMUM, f_value="1.1")], {}),
], ids=["index-6", "index-float", "laplacian_sign-float", "n-float", "n-bool",
        "n-0", "f_max-NaN", "f_max-Infinity", "f_max-bool", "f_value-bool",
        "f_max-string", "f_min-string", "f_value-string"])
def test_morse_out_of_range_index_exit_64(tmp_path, points, header):
    p = tmp_path / "m.json"
    _morse_file(p, points, **header)
    proc = invoke(["morse", str(p)], cwd=tmp_path)
    assert proc.returncode == 64, proc.stdout
    assert "parse error:" in proc.stderr


def test_readme_json_examples_are_valid_input(tmp_path):
    # README's scenario file and morse file, so that a renamed or removed
    # key cannot leave them stale
    from crflow.cli import _load_morse_file
    from crflow.morse import theorem_gate
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                          "README.md")
    with open(readme, encoding="utf-8") as fh:
        scenario, morse = re.findall(r"```json\n(.*?)```", fh.read(), flags=re.S)
    (tmp_path / "scenario.json").write_text(scenario)
    (tmp_path / "morse.json").write_text(morse)
    load_scenario(str(tmp_path / "scenario.json"))
    theorem_gate(_load_morse_file(str(tmp_path / "morse.json")))


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def test_constants_table(tmp_path):
    proc = invoke(["constants", "--n", "2", "--json", "constants.json"],
                  cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("true") == 6
    rows = json.loads((tmp_path / "constants.json").read_text())
    assert [r["name"] for r in rows] == ["A1", "A2", "A3", "A4", "A5", "A6"]
    assert all(r["positive"] for r in rows)
    assert all(set(r) == {"name", "n", "value", "abs_error_estimate",
                          "positive", "method"} for r in rows)
    assert all(r["method"] == "closed form" for r in rows)


def test_constants_usage_error(tmp_path):
    proc = invoke(["constants", "--n", "0"], cwd=tmp_path)
    assert proc.returncode == 64


# the suite has no n = 0, and at n = 3 its basis needs a 68M-entry fiber table
@pytest.mark.parametrize("n", ["0", "3"])
def test_selftest_usage_error(tmp_path, n):
    proc = invoke(["selftest", "--n", n], cwd=tmp_path)
    assert proc.returncode == 64
    assert proc.stderr.startswith("usage error:")
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# bubble
# ---------------------------------------------------------------------------

def test_bubble_export(tmp_path):
    proc = invoke(["bubble", "--p", "0,0,1,0", "--eps", "0.5", "--J", "5",
                   "--out", "bub.csv"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "bub.csv").read_text().splitlines()
    assert lines[0] == "x_1_re,x_1_im,x_2_re,x_2_im,weight,u"
    data = np.loadtxt(lines[1:], delimiter=",")
    assert data[:, -1].min() > 0
    assert abs(data[:, -2].sum() - 39.4784176) < 1e-5


def test_bubble_bad_point(tmp_path):
    proc = invoke(["bubble", "--p", "0,0,2,0", "--eps", "0.5"], cwd=tmp_path)
    assert proc.returncode == 64


@pytest.mark.parametrize("args", [
    ["--p", "0,0,1,0", "--eps", "2"],                            # eps outside (0, 1]
    ["--p", "0,0,1,0", "--eps", "0.5", "--J", "0"],
    ["--p", "1,0", "--eps", "0.5", "--n", "0"],
    ["--p", "0,0,0,0,1,0", "--eps", "0.5", "--n", "2", "--J", "8"],   # over BUDGET
], ids=["eps-2", "J-0", "n-0", "n2-J8"])
def test_bubble_bad_input_is_a_usage_error(tmp_path, args):
    proc = invoke(["bubble"] + args, cwd=tmp_path)
    assert proc.returncode == 64, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error:")
    assert not (tmp_path / "bubble.csv").exists()


# ---------------------------------------------------------------------------
# output paths that cannot be written
# ---------------------------------------------------------------------------

def _unwritable_args(command, scenario, target):
    return {
        "run": ["run", str(scenario), "--output-dir", str(target)],
        "constants": ["constants", "--n", "1", "--json", str(target)],
        "bubble": ["bubble", "--p", "0,0,1,0", "--eps", "0.5", "--J", "5",
                   "--out", str(target)],
    }[command]


@pytest.mark.parametrize("command", ["run", "constants", "bubble"])
def test_unwritable_output_is_a_usage_error(tmp_path, command):
    # a path under a regular file cannot be created, whatever the user's
    # permissions
    (tmp_path / "F").write_text("")
    target = tmp_path / "F" / "out"
    write_config(tmp_path / "scenario.json")
    proc = invoke(_unwritable_args(command, tmp_path / "scenario.json", target),
                  cwd=tmp_path)
    assert proc.returncode == 64, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error:")
    assert str(target) in lines[0]


def test_run_checks_its_output_directory_before_the_flow(tmp_path, monkeypatch):
    import crflow.cli as cli

    (tmp_path / "F").write_text("")
    write_config(tmp_path / "scenario.json")
    monkeypatch.setattr(cli, "run_flow", lambda *args: pytest.fail("the flow ran"))
    args = _unwritable_args("run", tmp_path / "scenario.json", tmp_path / "F" / "out")
    assert cli.main(args) == 64


# ---------------------------------------------------------------------------
# selftest machinery (library level checks of the named failures)
# ---------------------------------------------------------------------------

def test_selftest_green():
    from crflow.selftest import run_all
    checks = run_all(n=1)
    assert all(ok for _, ok, _ in checks), checks
    names = [name for name, _, _ in checks]
    assert "eigen-anchor" in names and "Ef-monotonicity" in names


def test_selftest_eigen_anchor_detects_corruption():
    import crflow
    from crflow.selftest import check_eigen_anchor
    basis = crflow.build_basis(1, 3)
    x0 = crflow.Field.coordinate(basis, 0)
    hot = int(np.argmax(np.abs(x0.coeffs)))
    corrupted = basis.eigenvalues.copy()
    corrupted[hot] *= 1.5
    name, ok, detail = check_eigen_anchor(n=1, J=3, eigenvalues=corrupted)
    assert name == "eigen-anchor" and not ok


def test_selftest_group_laws_detect_a_missing_twist(monkeypatch):
    import crflow.geometry as geometry
    import crflow.selftest as selftest

    def untwisted(z, tau, qz, qtau):
        return np.asarray(z, dtype=complex) + qz, np.asarray(tau, dtype=float) + qtau

    assert selftest.check_group_laws(n=1)[1]
    monkeypatch.setattr(geometry, "translate_xy", untwisted)
    monkeypatch.setattr(selftest, "translate_xy", untwisted)
    name, ok, _ = selftest.check_group_laws(n=1)
    assert name == "group-laws" and not ok


def test_selftest_monotonicity_gate_negative_control():
    from crflow.selftest import check_ef_monotonicity
    # zero slack + a large forced step: the gate must reject, and with the
    # halving retry disabled that surfaces as the named failure
    name, ok, detail = check_ef_monotonicity(n=1, J=4, slack=0.0, dt=5.0,
                                             dt_min=5.0)
    assert name == "Ef-monotonicity" and not ok
