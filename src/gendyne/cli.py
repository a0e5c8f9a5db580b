"""Command-line front end.

Subcommands::

    gendyne bounds          --config cfg.json [--out report.json]
    gendyne steady          --config cfg.json [--out report.json]
    gendyne check-tightness --config cfg.json [--out report.json]
    gendyne sweep           --config cfg.json --out table.csv [--format json|csv]
    gendyne simulate        --config cfg.json [--out summary.json] [--seed S]

Exit codes: 0 success, 2 configuration error, 3 numerical failure. Outputs
are deterministic functions of (config, seed); JSON is emitted with sorted
keys, CSV numbers carry 12 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .dynamics import lyapunov_steady_state
from .errors import GendyneError
from .scenarios import (
    Limits,
    Report,
    ScenarioSpec,
    UnstablePoint,
    monitored_loop,
    run_scenario,
    stable_system,
    sweep,
    threshold_efficiency,
)
from .schemas import (
    BOUNDS_REPORT_SCHEMA,
    ConfigError,
    SIMULATE_REPORT_SCHEMA,
    STEADY_REPORT_SCHEMA,
    SWEEP_COLUMNS,
    SWEEP_REPORT_SCHEMA,
    TIGHTNESS_REPORT_SCHEMA,
    load_config,
    validate_report,
)
from .trajectories import (
    TrajectoryConfig,
    default_burn_in,
    ensemble_statistics,
    simulate_closed_loop,
)

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _resolve_config(config: dict, seed: Optional[int] = None) -> dict:
    """Materialize defaults, grid and seed: commands and reports read the exact parameters."""
    resolved = json.loads(json.dumps(config))
    sc = resolved["scenario"]
    sc.setdefault("strategy", "optimal")
    sc.setdefault("eta", 1.0)
    sc.setdefault("phi", 0.0)
    if "trajectories" in resolved:
        tr = resolved["trajectories"]
        tr.setdefault("record_stride", 1)
        if seed is not None:
            tr["seed"] = seed
    if "sweep" in resolved and isinstance(resolved["sweep"]["grid"], dict):
        g = resolved["sweep"]["grid"]
        # The schema's integers include integral floats such as 3.0.
        resolved["sweep"]["grid"] = np.linspace(g["start"], g["stop"], int(g["count"])).tolist()
    return resolved


def _scenario_from_config(config: dict) -> ScenarioSpec:
    sc = config["scenario"]
    n_th = sc["n_th"]
    if isinstance(n_th, list):
        n_th = tuple(n_th)
    try:
        return ScenarioSpec(
            kind=sc["kind"],
            n_th=n_th,
            strategy=sc["strategy"],
            chi=sc.get("chi"),
            eta=sc["eta"],
            phi=sc["phi"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _trajectory_config(config: dict) -> TrajectoryConfig:
    if "trajectories" not in config:
        raise ConfigError("simulate needs a 'trajectories' section")
    tr = config["trajectories"]
    try:
        return TrajectoryConfig(
            dt=tr["dt"],
            horizon=tr["horizon"],
            n_traj=int(tr["n_traj"]),
            seed=tr["seed"],
            record_stride=int(tr["record_stride"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _sweep_grid(config: dict) -> tuple[str, list[float]]:
    if "sweep" not in config:
        raise ConfigError("sweep needs a 'sweep' section")
    sw = config["sweep"]
    return sw["parameter"], [float(g) for g in sw["grid"]]


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _json_text(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _with_provenance(config: dict, body: dict) -> dict:
    return {"library_version": __version__, "config": config, **body}


def cmd_limits(command: str, config: dict, out: Optional[str]) -> None:
    """`bounds`, or `check-tightness`: the same report without its bounds block."""
    # The limits depend on (A, D) only, which the monitoring does not change.
    body = Limits.of(stable_system(_scenario_from_config(config))[0]).to_dict()
    schema = BOUNDS_REPORT_SCHEMA
    if command == "check-tightness":
        del body["bounds"]
        schema = TIGHTNESS_REPORT_SCHEMA
    obj = _with_provenance(config, body)
    validate_report(obj, schema)
    _emit(_json_text(obj), out)


def cmd_steady(config: dict, out: Optional[str]) -> None:
    spec = _scenario_from_config(config)
    report = run_scenario(spec)
    if spec.strategy == "optimal" and spec.n_modes == 2:
        report = replace(report, threshold_eta=threshold_efficiency(spec))
    obj = _with_provenance(config, report.to_dict())
    validate_report(obj, STEADY_REPORT_SCHEMA)
    _emit(_json_text(obj), out)


def _format_number(x: float) -> str:
    return f"{x:.11e}"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float, np.floating)):
        return _format_number(float(value))
    return str(value)


def sweep_rows(
    parameter: str, grid: list[float], reports: list[Report | UnstablePoint]
) -> list[dict]:
    # An UnstablePoint has only `stable` (false); its other cells stay empty.
    return [
        {"parameter": parameter, "value": value}
        | {col: getattr(report, col, None) for col in SWEEP_COLUMNS[2:]}
        for value, report in zip(grid, reports)
    ]


def write_sweep_csv(rows: list[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for row in rows:
        writer.writerow([_csv_cell(row[col]) for col in SWEEP_COLUMNS])
    return buffer.getvalue()


def read_sweep_csv(text: str) -> list[dict]:
    """Parse a sweep table back into typed rows (round-trip helper)."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != SWEEP_COLUMNS:
        raise ValueError("unexpected sweep CSV header")
    rows = []
    for raw in reader:
        row: dict = {}
        for col, cell in zip(header, raw):
            if cell == "":
                row[col] = None
            elif cell in ("true", "false"):
                row[col] = cell == "true"
            elif col == "parameter":
                row[col] = cell
            else:
                row[col] = float(cell)
        rows.append(row)
    return rows


def cmd_sweep(config: dict, out: Optional[str], fmt: str) -> None:
    spec = _scenario_from_config(config)
    parameter, grid = _sweep_grid(config)
    try:
        reports = sweep(spec, parameter, grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = sweep_rows(parameter, grid, reports)
    if fmt == "csv":
        _emit(write_sweep_csv(rows), out)
    else:
        obj = _with_provenance(config, {"rows": [r.to_dict() for r in reports]})
        validate_report(obj, SWEEP_REPORT_SCHEMA)
        _emit(_json_text(obj), out)


def cmd_simulate(config: dict, out: Optional[str]) -> None:
    spec = _scenario_from_config(config)
    cfg = _trajectory_config(config)
    dd, couplings, bath = stable_system(spec)
    burn_in = config["trajectories"].get("burn_in")
    if burn_in is None:
        burn_in = min(default_burn_in(dd), 0.5 * cfg.horizon)
    # The grid of the records the ensemble returns (TrajectoryRecord.times).
    times = np.arange(0, cfg.n_steps + 1, cfg.record_stride) * cfg.dt
    if not np.any((times >= burn_in) & (times <= cfg.horizon)):
        raise ConfigError(
            f"no record time lies in the stationary window [{burn_in:g}, {cfg.horizon:g}]"
            f" (dt {cfg.dt:g}, record_stride {cfg.record_stride})"
        )
    # Unmonitored, the gain is zero and sigma_c is the Lyapunov state.
    m, sol, fb = monitored_loop(spec, dd, couplings, bath)
    predicted = sol.sigma
    sigma_lyap = lyapunov_steady_state(dd).matrix
    record = simulate_closed_loop(dd, m, fb, cfg, sigma_c0=sigma_lyap, sigma_inf=predicted)
    stats = ensemble_statistics(record, (burn_in, cfg.horizon))

    deviation = np.abs(stats.sigma - predicted)
    # The sampled mean spread is compared against its exact discrete model,
    # which the record carries, so the 3-sigma test sees Monte-Carlo error
    # only; the remaining window truncation (deterministic CM/spread
    # relaxation) is reported separately.
    tau_mask = (record.times >= burn_in) & (record.times <= cfg.horizon)
    tau_model = record.tau_path[tau_mask].mean(axis=0)
    det_gap = np.abs(stats.sigma_c + tau_model - predicted)
    with_se = np.all(
        np.abs(stats.tau - tau_model) <= 3.0 * np.maximum(stats.se_sigma, 1e-12)
    )
    obj = _with_provenance(
        config,
        {
            "window": [float(burn_in), float(cfg.horizon)],
            "mean": stats.mean.tolist(),
            "mean_standard_error": stats.se_mean.tolist(),
            "tau": stats.tau.tolist(),
            "reconstructed_sigma": stats.sigma.tolist(),
            "sigma_standard_error": stats.se_sigma.tolist(),
            "predicted_sigma": predicted.tolist(),
            "max_abs_deviation": float(np.max(deviation)),
            "deterministic_window_gap": float(np.max(det_gap)),
            "within_three_se": bool(with_se),
            "n_samples": int(stats.n_samples),
        },
    )
    validate_report(obj, SIMULATE_REPORT_SCHEMA)
    _emit(_json_text(obj), out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gendyne",
        description="Steady-state squeezing/entanglement limits and feedback "
        "synthesis for continuously monitored Gaussian systems.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("bounds", "steady", "check-tightness", "sweep", "simulate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=None, help="output path (stdout if omitted)")
        if name == "sweep":
            p.add_argument("--format", choices=("json", "csv"), default="csv")
        if name == "simulate":
            p.add_argument("--seed", type=int, default=None, help="override config seed")
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first call, not at import; parse_args keeps no state.
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = _resolve_config(load_config(args.config), getattr(args, "seed", None))
        if args.command in ("bounds", "check-tightness"):
            cmd_limits(args.command, config, args.out)
        elif args.command == "steady":
            cmd_steady(config, args.out)
        elif args.command == "sweep":
            cmd_sweep(config, args.out, args.format)
        elif args.command == "simulate":
            cmd_simulate(config, args.out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (GendyneError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return 0


if __name__ == "__main__":
    sys.exit(main())
