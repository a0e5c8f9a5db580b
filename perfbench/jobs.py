"""Seeded job lists for the four workloads, and the code that runs one job.

A job list is built once per run from ``--seed`` and is the same list in
every round of the timed phase. Jobs call gendyne only through attribute
lookups on its modules at call time (``cli.main``, ``G.solve_riccati``), so
the traced run sees every call through its wrappers.

Parameter domains are limited to where every job succeeds at this commit:
see README.md, "Job mixes".
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import gendyne as G
from gendyne import cli

# Parametric jobs keep N >= 0.75: below it the optimal loop is entangled at
# eta = 1/2 and threshold_efficiency raises (see README.md).
PARAMETRIC_N = (0.75, 10.0)
CHI = (0.05, 0.45)
FREE_N = (0.1, 10.0)
UNEQUAL_N = (0.2, 10.0)
ETA = (0.55, 1.0)

LADDER_SIZES = (1, 2, 5, 10, 20)

# (kind, strategy) pairs the CLI accepts; unequal baths have no homodyne scheme.
REPORT_COMBOS = (
    ("free_single", "optimal"),
    ("free_single", "homodyne"),
    ("free_single", "none"),
    ("free_two_mode", "optimal"),
    ("free_two_mode", "homodyne"),
    ("free_two_mode", "none"),
    ("free_unequal_baths", "optimal"),
    ("free_unequal_baths", "none"),
    ("parametric", "optimal"),
    ("parametric", "homodyne"),
    ("parametric", "none"),
)
REPORT_COMMANDS = ("steady", "bounds", "check-tightness")


class JobFailed(Exception):
    """A CLI call returned a nonzero exit code."""


@dataclass
class Job:
    """One operation of a workload.

    ``run(round_index)`` performs it and returns its output (a file path or
    an in-memory result); ``spec`` holds what the checks need to rebuild the
    expected result independently.
    """

    name: str
    run: Callable[[int], Any]
    spec: dict


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _stratum(rng: random.Random, lo: float, hi: float, k: int, n: int, log: bool = False) -> float:
    """A uniform draw from the k-th of n equal strata of [lo, hi] (of log N if ``log``).

    Jobs that share a stratum design cover every range alike on every seed,
    so the cost of a round hardly depends on the seed (Latin-square design).
    """
    if log:
        return math.exp(_stratum(rng, math.log(lo), math.log(hi), k, n))
    width = (hi - lo) / n
    return lo + width * (k % n + rng.random())


def _scenario(rng: random.Random, kind: str, strategy: str, eta: float, strata: tuple[int, int, int]) -> dict:
    """A scenario with N, the second N of unequal baths and chi in the given strata of 3."""
    s_n, s_n2, s_chi = strata
    if kind == "free_unequal_baths":
        n_th: Any = [_stratum(rng, *UNEQUAL_N, s_n, 3, log=True), _stratum(rng, *UNEQUAL_N, s_n2, 3, log=True)]
    elif kind == "parametric":
        n_th = _stratum(rng, *PARAMETRIC_N, s_n, 3, log=True)
    else:
        n_th = _stratum(rng, *FREE_N, s_n, 3, log=True)
    sc = {"kind": kind, "n_th": n_th, "strategy": strategy, "eta": eta}
    if kind == "parametric":
        sc["chi"] = _stratum(rng, *CHI, s_chi, 3)
    return sc


def _cli_job(outdir: Path, name: str, argv: list[str], config: dict, suffix: str, **spec) -> Job:
    """A CLI call on its own config file, writing one output file per round."""
    cfg = outdir / f"{name}.json"
    cfg.write_text(json.dumps(config, indent=1), encoding="utf-8")

    def run(round_index: int) -> str:
        out = str(outdir / f"{name}.r{round_index}.out.{suffix}")
        code = cli.main([*argv, "--config", str(cfg), "--out", out])
        if code != 0:
            raise JobFailed(f"{name}: exit code {code}")
        return out

    return Job(name, run, {"config": config, **spec})


def reports_jobs(seed: int, outdir: Path) -> list[Job]:
    """Every (kind, strategy) pair under every report command: 33 jobs.

    Each parameter range is cut into three strata. Command k of pair c draws
    N from stratum k + c, eta from 2k + c, chi from k + 2c and the second N
    of unequal baths from 2k + 2c (mod 3): every pair and every command
    covers every stratum of every parameter. Optimal free systems run
    `steady` at eta = 1, where closed forms exist.
    """
    rng = random.Random(f"reports-{seed}")
    jobs = []
    for k, command in enumerate(REPORT_COMMANDS):
        for c, (kind, strategy) in enumerate(REPORT_COMBOS):
            closed_form = command == "steady" and strategy == "optimal" and kind.startswith("free_")
            eta = 1.0 if closed_form else _stratum(rng, *ETA, 2 * k + c, 3)
            config = {"scenario": _scenario(rng, kind, strategy, eta, (k + c, 2 * k + 2 * c, k + 2 * c))}
            jobs.append(_cli_job(outdir, f"{command}-{kind}-{strategy}", [command], config, "json", command=command))
    return jobs


def sweeps_jobs(seed: int, outdir: Path) -> list[Job]:
    """CSV sweeps along the paper's trends, two of each kind: 6 jobs.

    eta sweeps of the parametric optimal loop, and N sweeps of the free
    two-mode system under optimal monitoring (eta = 1) and under homodyne.
    Sweep k draws the parametric N and chi and the homodyne eta from
    stratum k of two; an N grid takes one point from each of six strata.
    """
    rng = random.Random(f"sweeps-{seed}")
    jobs = []
    for k in range(2):
        variants = [
            (
                "eta-parametric",
                {"kind": "parametric", "n_th": _stratum(rng, *PARAMETRIC_N, k, 2, log=True),
                 "chi": _stratum(rng, *CHI, 1 - k, 2), "strategy": "optimal"},
                {"parameter": "eta", "grid": {"start": 0.5, "stop": 1.0, "count": 6}},
            ),
            (
                "N-free-optimal",
                {"kind": "free_two_mode", "n_th": 1.0, "strategy": "optimal", "eta": 1.0},
                {"parameter": "N", "grid": [_stratum(rng, *FREE_N, i, 6, log=True) for i in range(6)]},
            ),
            (
                "N-free-homodyne",
                {"kind": "free_two_mode", "n_th": 1.0, "strategy": "homodyne",
                 "eta": _stratum(rng, *ETA, k, 2)},
                {"parameter": "N", "grid": [_stratum(rng, *FREE_N, i, 6, log=True) for i in range(6)]},
            ),
        ]
        for label, scenario, sweep in variants:
            config = {"scenario": scenario, "sweep": sweep}
            jobs.append(_cli_job(outdir, f"sweep-{label}-{k}", ["sweep", "--format", "csv"], config, "csv"))
    return jobs


# Monte-Carlo grid: 2000 Euler-Maruyama steps, 200 recorded samples.
MC_DT = 0.01
MC_HORIZON = 20.0
MC_STRIDE = 10
MC_TRAJ = 512
MC_TRAJ_CURRENTS = 256


def _currents_job(name: str, scenario: dict, traj_seed: int) -> Job:
    """Library path: closed loop with every per-step current recorded.

    The ensemble starts at the conditional steady state, so the whole record
    is stationary.
    """

    def run(round_index: int):
        spec = G.ScenarioSpec(
            kind=scenario["kind"], n_th=scenario["n_th"], strategy=scenario["strategy"],
            chi=scenario.get("chi"), eta=scenario["eta"],
        )
        dd, couplings, bath = G.scenarios.build_system(spec)
        m = G.measurement_matrices(couplings, G.scenarios.build_unravelling(spec, bath), dd)
        sigma_c = G.solve_riccati(dd, m, probe_uniqueness=False).sigma
        fb = G.feedback_gain(sigma_c, m)
        cfg = G.TrajectoryConfig(
            dt=MC_DT, horizon=MC_HORIZON, n_traj=MC_TRAJ_CURRENTS, seed=traj_seed,
            record_stride=MC_STRIDE, record_currents=True,
        )
        record = G.simulate_closed_loop(dd, m, fb, cfg, sigma_c0=sigma_c)
        stats = G.ensemble_statistics(record, (0.0, MC_HORIZON))
        return record, stats

    return Job(name, run, {"scenario": scenario, "dt": MC_DT})


def monte_carlo_jobs(seed: int, outdir: Path) -> list[Job]:
    """Four `simulate` CLI calls and two library calls recording currents: 6 jobs."""
    rng = random.Random(f"monte-carlo-{seed}")
    jobs = []
    cli_scenarios = [
        ("closed-single", {"kind": "free_single", "n_th": _log_uniform(rng, 0.2, 3.0),
                           "strategy": "optimal", "eta": rng.uniform(0.7, 1.0)}),
        ("closed-two-mode", {"kind": "free_two_mode", "n_th": _log_uniform(rng, 0.2, 3.0),
                             "strategy": "optimal", "eta": 1.0}),
        ("closed-parametric", {"kind": "parametric", "n_th": _log_uniform(rng, 0.75, 3.0),
                               "chi": rng.uniform(0.05, 0.2), "strategy": "optimal", "eta": 1.0}),
        ("open-single", {"kind": "free_single", "n_th": _log_uniform(rng, 0.2, 3.0),
                         "strategy": "none", "eta": 1.0}),
    ]
    for label, scenario in cli_scenarios:
        config = {
            "scenario": scenario,
            "trajectories": {"dt": MC_DT, "horizon": MC_HORIZON, "n_traj": MC_TRAJ,
                             "seed": rng.randrange(2**32), "record_stride": MC_STRIDE},
        }
        jobs.append(_cli_job(outdir, f"simulate-{label}", ["simulate"], config, "json"))
    jobs.append(_currents_job(
        "currents-single",
        {"kind": "free_single", "n_th": _log_uniform(rng, 0.2, 3.0), "strategy": "optimal", "eta": 1.0},
        rng.randrange(2**32),
    ))
    jobs.append(_currents_job(
        "currents-two-mode",
        {"kind": "free_two_mode", "n_th": _log_uniform(rng, 0.2, 3.0), "strategy": "optimal",
         "eta": rng.uniform(0.7, 1.0)},
        rng.randrange(2**32),
    ))
    return jobs


@dataclass(frozen=True)
class LadderSystem:
    """A random stable n-mode system with every bath channel monitored."""

    h: np.ndarray
    occupations: tuple[float, ...]
    upsilon: np.ndarray  # diagonal r_k exp(i theta_k), |r_k| <= 1 keeps U >= 0


def _ladder_system(rng: np.random.Generator, n: int) -> LadderSystem:
    h = rng.standard_normal((2 * n, 2 * n))
    h = (h + h.T) / 2.0
    omega = np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    # -(A + A^T) = 1 - (Omega H - H Omega): scale H so its eigenvalues lie in [0.6, 1.4].
    h *= 0.4 / np.max(np.abs(np.linalg.eigvalsh(omega @ h - h @ omega)))
    occupations = tuple(float(x) for x in rng.uniform(0.1, 2.0, n))
    channels = 2 * n
    upsilon = np.diag(rng.uniform(0.5, 1.0, channels) * np.exp(2j * np.pi * rng.uniform(size=channels)))
    return LadderSystem(h, occupations, upsilon)


def ladder_pass(systems: list[LadderSystem]) -> list[dict]:
    """One pass up the ladder through the public layer functions."""
    results = []
    for system in systems:
        dd, couplings = G.thermal_drift_diffusion(system.h, G.ThermalBath(system.occupations))
        u = G.UnravellingMatrix(np.eye(system.upsilon.shape[0]), system.upsilon)
        m = G.measurement_matrices(couplings, u)
        sol = G.solve_riccati(dd, m)
        loop = G.closed_loop(dd, m, G.feedback_gain(sol.sigma, m))
        sigma_loop = G.lyapunov_steady_state(loop.as_drift_diffusion()).matrix
        results.append({
            "sigma_c": sol.sigma,
            "sigma_loop": sigma_loop,
            "squeezing_bound": G.squeezing_bound(dd),
            "eig_product_bound": G.eig_product_bound(dd),
            "entanglement_bound": G.entanglement_bound(dd),
        })
    return results


def mode_ladder_jobs(seed: int, outdir: Path) -> list[Job]:
    """One job: one pass up the ladder n = 1, 2, 5, 10, 20."""
    rng = np.random.default_rng([seed, 20])
    systems = [_ladder_system(rng, n) for n in LADDER_SIZES]
    return [Job("ladder", lambda r: ladder_pass(systems), {"systems": systems})]


WORKLOADS = {
    "reports": reports_jobs,
    "sweeps": sweeps_jobs,
    "mode-ladder": mode_ladder_jobs,
    "monte-carlo": monte_carlo_jobs,
}
