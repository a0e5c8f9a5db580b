"""Command-line interface: schemas, determinism, exit codes, round trips."""

import json
import os
import subprocess
import sys
import warnings

import jsonschema
import numpy as np
import pytest

import gendyne
from gendyne import ScenarioSpec, cli, run_scenario, scenarios
from gendyne.cli import main, read_sweep_csv
from gendyne.schemas import (
    BOUNDS_REPORT_SCHEMA,
    CONFIG_SCHEMA,
    SIMULATE_REPORT_SCHEMA,
    STEADY_REPORT_SCHEMA,
    SWEEP_COLUMNS,
    SWEEP_REPORT_SCHEMA,
    TIGHTNESS_REPORT_SCHEMA,
    ConfigError,
    validate_config,
    validate_report,
)


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_bounds_free_single(tmp_path):
    cfg = write_config(tmp_path, {"scenario": {"kind": "free_single", "n_th": 1.0}})
    out = tmp_path / "bounds.json"
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    validate_report(report, BOUNDS_REPORT_SCHEMA)
    assert report["bounds"]["squeezing"] == pytest.approx(1.0 / 3.0)
    assert report["library_version"]


def test_bounds_parametric_entanglement(tmp_path):
    cfg = write_config(
        tmp_path,
        {"scenario": {"kind": "parametric", "n_th": 1.0, "chi": 0.3}},
    )
    out = tmp_path / "bounds.json"
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["bounds"]["entanglement"] == pytest.approx(np.log2(7.5), abs=1e-9)


def test_unstable_scenario_exits_3(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"scenario": {"kind": "parametric", "n_th": 1.0, "chi": 0.45, "eta": 1.0}},
    )
    cfg_bad = write_config(
        tmp_path,
        {"scenario": {"kind": "parametric", "n_th": 1.0, "chi": 0.6}},
        name="bad.json",
    )
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "ok.json")]) == 0
    code = main(["bounds", "--config", cfg_bad, "--out", str(tmp_path / "bad_out.json")])
    assert code == 3
    err = capsys.readouterr().err
    assert "stability" in err


def test_config_errors_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["bounds", "--config", missing]) == 2
    bad_key = write_config(
        tmp_path, {"scenario": {"kind": "free_single", "n_th": 1.0, "kappa": 2.0}}
    )
    assert main(["bounds", "--config", bad_key]) == 2
    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{not json")
    assert main(["bounds", "--config", str(bad_json)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "config",
    [
        {"scenario": {"kind": "free_single", "n_th": 1.0, "kappa": 2.0}},
        {"scenario": {"kind": "free_quad", "n_th": 1.0}},
        {"scenario": {"kind": "free_unequal_baths", "n_th": [1.0, -1.0]}},
        {"scenario": {"kind": "free_single", "n_th": 1.0}, "trajectories": {"dt": 0.1}},
    ],
)
def test_config_error_messages_match_jsonschema(config):
    # the cached validator reports the error jsonschema.validate picks, every time
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(config, CONFIG_SCHEMA)
    for _ in range(2):
        with pytest.raises(ConfigError) as raised:
            validate_config(config)
        assert str(raised.value) == f"invalid configuration: {expected.value.message}"


@pytest.mark.parametrize(
    "scenario",
    [
        {"kind": "free_single", "n_th": float("nan")},
        {"kind": "free_single", "n_th": float("inf")},
        {"kind": "free_unequal_baths", "n_th": [1.0, float("nan")]},
        {"kind": "parametric", "n_th": 1.0, "chi": float("nan")},
        {"kind": "free_single", "n_th": 1.0, "eta": float("nan")},
        {"kind": "free_single", "n_th": 1.0, "phi": float("inf")},
    ],
)
def test_non_finite_values_exit_2(tmp_path, capsys, scenario):
    # JSON's NaN/Infinity extensions pass the schema's number type
    cfg = write_config(tmp_path, {"scenario": scenario})
    assert main(["steady", "--config", cfg, "--out", str(tmp_path / "s.json")]) == 2
    assert "finite" in capsys.readouterr().err


def test_report_beating_its_bound_exits_3(tmp_path, capsys):
    # at N = 1e4 the steady state is not resolved to the accuracy its bound needs
    cfg = write_config(tmp_path, {"scenario": {"kind": "free_two_mode", "n_th": 10000}})
    out = tmp_path / "steady.json"
    assert main(["steady", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "beats" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_limits_need_no_steady_state(tmp_path, capsys):
    # the limits of (A, D) are well defined where the steady state fails
    cfg = write_config(tmp_path, {"scenario": {"kind": "free_two_mode", "n_th": 10000}})
    unmonitored = run_scenario(ScenarioSpec("free_two_mode", 10000, "none")).to_dict()
    for command, blocks in (("bounds", ("bounds", "tightness")), ("check-tightness", ("tightness",))):
        out = tmp_path / f"{command}.json"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["config"]["scenario"]["strategy"] == "optimal"
        for block in ("spectral", *blocks):
            assert report[block] == unmonitored[block]
    assert main(["steady", "--config", cfg, "--out", str(tmp_path / "steady.json")]) == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "scenario",
    [{"kind": "free_single", "n_th": 1.0}, {"kind": "parametric", "n_th": 1.0, "chi": 0.3}],
)
def test_limit_commands_build_no_monitoring(tmp_path, capsys, monkeypatch, scenario):
    cfg = write_config(tmp_path, {"scenario": scenario})
    unmonitored = run_scenario(ScenarioSpec(**scenario, strategy="none")).to_dict()

    def refuse(*args, **kwargs):
        raise AssertionError("the limits need no monitoring or steady state")

    for name in ("measurement_matrices", "solve_riccati", "lyapunov_steady_state"):
        monkeypatch.setattr(scenarios, name, refuse)
    for command, blocks in (("bounds", ("bounds", "tightness")), ("check-tightness", ("tightness",))):
        assert main([command, "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"library_version", "config", "stable", "spectral", *blocks}
        for block in ("stable", "spectral", *blocks):
            assert report[block] == unmonitored[block]


def test_only_steady_bisects_the_efficiency_threshold(tmp_path):
    # reports and sweeps carry closed-form thresholds only
    scenario = {"kind": "parametric", "n_th": 1.0, "chi": 0.3}
    assert run_scenario(ScenarioSpec(**scenario)).threshold_eta is None
    cfg = write_config(
        tmp_path, {"scenario": scenario, "sweep": {"parameter": "eta", "grid": [0.9, 1.0]}}
    )
    table = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(table)]) == 0
    assert [row["threshold_eta"] for row in read_sweep_csv(table.read_text())] == [None, None]
    out = tmp_path / "steady.json"
    assert main(["steady", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["thresholds"]["eta"] == pytest.approx(0.80, abs=0.01)


def test_steady_reports(tmp_path):
    cfg = write_config(
        tmp_path,
        {"scenario": {"kind": "free_single", "n_th": 2.0, "strategy": "homodyne"}},
    )
    out = tmp_path / "steady.json"
    assert main(["steady", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    validate_report(report, STEADY_REPORT_SCHEMA)
    assert np.allclose(report["sigma_c"], (5.0 * np.eye(2)).tolist(), atol=1e-9)

    cfg2 = write_config(
        tmp_path,
        {"scenario": {"kind": "free_single", "n_th": 1.0, "strategy": "optimal"}},
        name="c2.json",
    )
    out2 = tmp_path / "steady2.json"
    assert main(["steady", "--config", cfg2, "--out", str(out2)]) == 0
    report2 = json.loads(out2.read_text())
    assert report2["achieved"]["min_eigenvalue"] == pytest.approx(1.0 / 3.0, abs=1e-8)
    assert report2["achieved"]["pure"] is True

    cfg3 = write_config(
        tmp_path,
        {
            "scenario": {
                "kind": "free_two_mode",
                "n_th": 1.0,
                "strategy": "optimal",
                "eta": 0.7,
            }
        },
        name="c3.json",
    )
    out3 = tmp_path / "steady3.json"
    assert main(["steady", "--config", cfg3, "--out", str(out3)]) == 0
    report3 = json.loads(out3.read_text())
    assert report3["achieved"]["log_negativity"] == 0.0  # below the 0.75 threshold


def test_check_tightness(tmp_path):
    cfg = write_config(
        tmp_path,
        {"scenario": {"kind": "free_unequal_baths", "n_th": [2.0, 1.0]}},
    )
    out = tmp_path / "tight.json"
    assert main(["check-tightness", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    validate_report(report, TIGHTNESS_REPORT_SCHEMA)
    assert report["tightness"]["squeezing"] is True
    assert report["tightness"]["entanglement"] is False


def test_sweep_csv_round_trip(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "scenario": {"kind": "free_two_mode", "n_th": 1.0, "strategy": "optimal"},
            "sweep": {"parameter": "eta", "grid": {"start": 0.5, "stop": 1.0, "count": 11}},
        },
    )
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    text = out.read_text()
    rows = read_sweep_csv(text)
    assert len(rows) == 11
    assert list(rows[0].keys()) == SWEEP_COLUMNS
    # zero crossing at the 0.75 threshold, within one grid step
    for row in rows:
        positive = row["achieved_log_negativity"] > 1e-10
        assert positive == (row["value"] > 0.75 + 1e-9)
    # 12 significant digits survive the round trip
    header, first = text.splitlines()[0], text.splitlines()[1]
    assert header == ",".join(SWEEP_COLUMNS)
    assert "e" in first.split(",")[1]


def test_sweep_empty_grid_exits_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "scenario": {"kind": "free_two_mode", "n_th": 1.0},
            "sweep": {"parameter": "N", "grid": []},
        },
    )
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 2
    capsys.readouterr()


def test_sweep_json_format(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "scenario": {"kind": "free_two_mode", "n_th": 0.0, "strategy": "optimal"},
            "sweep": {"parameter": "N", "grid": [0.0, 1.0, 2.0]},
        },
    )
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["rows"]) == 3
    assert payload["rows"][1]["achieved"]["log_negativity"] == pytest.approx(
        np.log2(3.0), abs=1e-8
    )


def test_sweep_json_is_schema_validated(tmp_path, monkeypatch):
    cfg = write_config(
        tmp_path,
        {
            "scenario": {"kind": "free_single", "n_th": 1.0, "strategy": "optimal"},
            "sweep": {"parameter": "eta", "grid": [0.5, 1.0]},
        },
    )
    schemas = []

    def recording_validate(obj, schema):
        schemas.append(schema)
        return validate_report(obj, schema)

    monkeypatch.setattr(cli, "validate_report", recording_validate)
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    assert schemas == [SWEEP_REPORT_SCHEMA]
    payload = json.loads(out.read_text())
    del payload["rows"][1]["unique_solution"]
    with pytest.raises(jsonschema.ValidationError):
        validate_report(payload, SWEEP_REPORT_SCHEMA)


UNSTABLE_POINT_SWEEP = {
    "scenario": {"kind": "parametric", "n_th": 1.0, "chi": 0.1},
    "sweep": {"parameter": "chi", "grid": [0.1, 0.3, 0.5]},
}


def test_sweep_reports_unstable_point(tmp_path, capsys):
    cfg = write_config(tmp_path, UNSTABLE_POINT_SWEEP)
    table = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(table)]) == 0
    rows = read_sweep_csv(table.read_text())
    assert [row["stable"] for row in rows] == [True, True, False]
    assert rows[2] == dict.fromkeys(SWEEP_COLUMNS) | {
        "parameter": "chi",
        "value": 0.5,
        "stable": False,
    }
    assert all(v is not None for k, v in rows[1].items() if k != "threshold_eta")

    out = tmp_path / "sweep.json"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    payload = json.loads(out.read_text())
    validate_report(payload, SWEEP_REPORT_SCHEMA)
    spec = ScenarioSpec("parametric", 1.0, chi=0.5)
    assert payload["rows"][2] == {"scenario": spec.to_dict(), "stable": False}
    assert payload["rows"][1]["stable"] is True
    # an unstable row carries nothing beyond its scenario
    payload["rows"][2]["sigma_c"] = [[1.0]]
    with pytest.raises(jsonschema.ValidationError):
        validate_report(payload, SWEEP_REPORT_SCHEMA)
    assert capsys.readouterr().err == ""


def test_sweep_row_failure_still_aborts(tmp_path, capsys, monkeypatch):
    # only an unstable system is a data point; a numerical failure is not
    def fail(*args, **kwargs):
        raise gendyne.ConvergenceError("no convergence")

    monkeypatch.setattr(scenarios, "solve_riccati", fail)
    cfg = write_config(tmp_path, UNSTABLE_POINT_SWEEP)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 3
    assert "numerical failure: no convergence" in capsys.readouterr().err


def test_stable_sweep_output_unchanged(tmp_path, capsys):
    # every number here is exact; the table is the one printed before unstable
    # points became rows
    cfg = write_config(
        tmp_path,
        {
            "scenario": {"kind": "free_two_mode", "n_th": 1.0, "strategy": "none"},
            "sweep": {"parameter": "N", "grid": [0.5, 1.0, 2.0]},
        },
    )
    assert main(["sweep", "--config", cfg]) == 0
    assert capsys.readouterr().out == (
        ",".join(SWEEP_COLUMNS) + "\n"
        "N,5.00000000000e-01,true,5.00000000000e-01,2.00000000000e+00,1.00000000000e+00,"
        "0.00000000000e+00,true,true,false,2.50000000000e-01,0.00000000000e+00,"
        "0.00000000000e+00,,\n"
        "N,1.00000000000e+00,true,3.33333333333e-01,3.00000000000e+00,1.58496250072e+00,"
        "0.00000000000e+00,true,true,false,1.11111111111e-01,0.00000000000e+00,"
        "0.00000000000e+00,,\n"
        "N,2.00000000000e+00,true,2.00000000000e-01,5.00000000000e+00,2.32192809489e+00,"
        "0.00000000000e+00,true,true,false,4.00000000000e-02,0.00000000000e+00,"
        "0.00000000000e+00,,\n"
    )


def simulate_config(seed=12345):
    return {
        "scenario": {"kind": "free_single", "n_th": 1.0, "strategy": "optimal"},
        "trajectories": {
            "dt": 2e-3,
            "horizon": 12.0,
            "n_traj": 300,
            "seed": seed,
            "record_stride": 50,
        },
    }


def test_simulate_deterministic_and_valid(tmp_path):
    cfg = write_config(tmp_path, simulate_config())
    out1, out2 = tmp_path / "sim1.json", tmp_path / "sim2.json"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    validate_report(report, SIMULATE_REPORT_SCHEMA)
    assert report["within_three_se"] is True
    assert report["reconstructed_sigma"][0][0] == pytest.approx(1.0 / 3.0, abs=5e-3)

    out3 = tmp_path / "sim3.json"
    assert main(["simulate", "--config", cfg, "--out", str(out3), "--seed", "777"]) == 0
    assert out1.read_bytes() != out3.read_bytes()


def test_simulate_solves_the_conditional_steady_state_once(tmp_path, monkeypatch):
    # the prediction's steady state is the one the simulated CM path relaxes to
    from gendyne import trajectories

    calls = []
    solve = cli.solve_riccati

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    for module in (cli, scenarios, trajectories):
        monkeypatch.setattr(module, "solve_riccati", counting)
    obj = simulate_config()
    obj["trajectories"].update(horizon=1.0, n_traj=4, dt=0.01, record_stride=10)
    cfg = write_config(tmp_path, obj)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "s.json")]) == 0
    assert len(calls) == 1


def test_parser_built_once_and_stateless(tmp_path, monkeypatch, capsys):
    cli._parser.cache_clear()
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    try:
        obj = simulate_config(seed=5)
        obj["trajectories"].update(horizon=1.0, n_traj=4, dt=0.01, record_stride=10)
        cfg = write_config(tmp_path, obj)
        for command in ("bounds", "check-tightness"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0
        for argv in (["nonsense", "--config", cfg], ["steady"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == gendyne.__version__

        seeds = []
        for extra in (["--seed", "777"], []):
            out = tmp_path / "sim.json"
            assert main(["simulate", "--config", cfg, "--out", str(out), *extra]) == 0
            seeds.append(json.loads(out.read_text())["config"]["trajectories"]["seed"])
        assert seeds == [777, 5]
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()


def test_simulate_bad_dt_exits_2(tmp_path, capsys):
    obj = simulate_config()
    obj["trajectories"]["dt"] = -1.0
    cfg = write_config(tmp_path, obj)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.json")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "trajectories, window",
    [
        ({"burn_in": 10, "horizon": 4}, "[10, 4]"),
        ({"record_stride": 1000, "dt": 0.01, "horizon": 4}, "[2, 4]"),  # one record, at t = 0
    ],
)
def test_simulate_empty_window_exits_2(tmp_path, capsys, trajectories, window):
    obj = simulate_config()
    obj["trajectories"].update(trajectories)
    cfg = write_config(tmp_path, obj)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and f"window {window}" in err


def test_simulate_rejects_record_currents(tmp_path, capsys):
    # simulate emits no currents, so the key is unknown to the config schema
    obj = simulate_config()
    obj["trajectories"]["record_currents"] = True
    cfg = write_config(tmp_path, obj)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.json")]) == 2
    assert "record_currents" in capsys.readouterr().err


def test_simulate_large_occupation(tmp_path, capsys):
    # At N = 1e3 the CM collapses from the thermal state at a rate of order
    # N^2; the CM path is exact, so a failure may only come from the means.
    obj = {
        "scenario": {"kind": "free_single", "n_th": 1000.0, "strategy": "optimal"},
        "trajectories": {"dt": 1e-3, "horizon": 5.0, "n_traj": 4, "seed": 7, "record_stride": 10},
    }
    cfg = write_config(tmp_path, obj)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no overflow anywhere
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim.json")])
    assert code in (0, 3)
    if code == 3:
        assert "trajectory means diverged" in capsys.readouterr().err
    else:
        report = json.loads((tmp_path / "sim.json").read_text())
        assert np.all(np.isfinite(report["reconstructed_sigma"]))


@pytest.mark.parametrize(
    "scenario, expected",
    [
        ({"kind": "parametric", "n_th": 0.0, "chi": 0.3}, lambda eta: eta == 0.0),
        ({"kind": "parametric", "n_th": 0.2, "chi": 0.1}, lambda eta: 0.25 < eta < 0.5),
        ({"kind": "free_unequal_baths", "n_th": [0, 1]}, lambda eta: eta is None),
    ],
)
def test_threshold_outside_upper_half(tmp_path, scenario, expected):
    # entangled at eta = 1/2 already (the first two), or never (a vacuum
    # mode beside a thermal one)
    cfg = write_config(tmp_path, {"scenario": scenario})
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "bounds.json")]) == 0
    out = tmp_path / "steady.json"
    assert main(["steady", "--config", cfg, "--out", str(out)]) == 0
    assert expected(json.loads(out.read_text())["thresholds"]["eta"])


def run_child(*args):
    """Run a fresh interpreter that imports the same gendyne as this process."""
    package_root = os.path.dirname(os.path.dirname(gendyne.__file__))
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )


def test_console_entry_point(tmp_path):
    cfg = write_config(tmp_path, {"scenario": {"kind": "free_single", "n_th": 1.0}})
    proc = run_child("-m", "gendyne.cli", "bounds", "--config", cfg)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["stable"] is True


_IMPORT_PATH_SCRIPT = """
import contextlib, io, json, sys

import gendyne
import gendyne.cli as cli

def run(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(args))
    assert code == 0, (args, code)
    return out.getvalue()

limits, eta_sweep, simulate = sys.argv[1:]
assert "scipy.optimize" not in sys.modules, "import"
for args in (
    ("bounds", "--config", limits),
    ("check-tightness", "--config", limits),
    ("sweep", "--config", eta_sweep),
    ("simulate", "--config", simulate),
):
    run(*args)
    assert "scipy.optimize" not in sys.modules, args[0]
print(json.loads(run("steady", "--config", limits))["thresholds"]["eta"])
"""


def test_only_the_threshold_search_loads_scipy_optimize(tmp_path):
    # scipy.optimize costs every process that imports it; only steady's
    # Brent search on an entangling optimal kind needs it
    scenario = {"kind": "parametric", "n_th": 1.0, "chi": 0.3, "strategy": "optimal"}
    limits = write_config(tmp_path, {"scenario": scenario}, "limits.json")
    eta_sweep = write_config(
        tmp_path,
        {"scenario": scenario, "sweep": {"parameter": "eta", "grid": [0.9, 1.0]}},
        "sweep.json",
    )
    trajectories = {"dt": 1e-2, "horizon": 1.0, "n_traj": 4, "seed": 3}
    simulate = write_config(
        tmp_path, {"scenario": scenario, "trajectories": trajectories}, "simulate.json"
    )
    proc = run_child("-c", _IMPORT_PATH_SCRIPT, limits, eta_sweep, simulate)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) == pytest.approx(0.80, abs=0.01)
