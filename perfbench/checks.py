"""Output checks, made apart from the program wherever that is possible.

Drift and diffusion matrices, spectra, bounds, symplectic quantities and log
negativities are computed here from their definitions. The steady states
come from scipy: the Schur CARE solver (Arnold & Laub 1984) and
Bartels-Stewart (1972). Only the measurement matrices C and Gamma are
rebuilt through gendyne's ``measurement_matrices``, as the model of the
monitoring and of the detector efficiency lives there.

Every check raises ``CheckFailed`` with a message naming the quantity.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np
from scipy.linalg import solve_continuous_are, solve_continuous_lyapunov

import gendyne as G

# Relative agreement demanded of sigma_c against the CARE solution and of
# the closed-loop sigma against the Lyapunov solution (measured: <= 1e-14).
SIGMA_RTOL = 1e-8
# Rounding slack for inequalities the method guarantees (bounds, physicality).
INEQ_RTOL = 1e-9
# Monte-Carlo: |reconstructed - sigma_c| <= MC_SE * SE + MC_DT_ALLOWANCE * dt * max|sigma_c|.
# SE comes from 16 batch means, so the statistic has 15 degrees of freedom:
# P(|t_15| > 8) < 1e-6 per element.
MC_SE = 8.0
MC_DT_ALLOWANCE = 0.1
# Per-step current variance: |var/dt - 1| <= CURRENT_SE * sqrt(2/n) + dt E[(C r)^2].
CURRENT_SE = 6.0
# Half-width around a bisected efficiency threshold where the sign is tested.
THRESHOLD_PROBE = 1e-3


class CheckFailed(Exception):
    """A job's output disagrees with the independent computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(x: float, ref: float, rtol: float, name: str, atol: float = 0.0) -> None:
    require(
        x is not None and abs(x - ref) <= rtol * abs(ref) + atol,
        f"{name}: got {x!r}, expected {ref!r}",
    )


def omega(n: int) -> np.ndarray:
    return np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def parametric_h(chi: float) -> np.ndarray:
    h = np.zeros((4, 4))
    h[0, 3] = h[3, 0] = h[1, 2] = h[2, 1] = chi
    return h


def occupations(scenario: dict) -> list[float]:
    n_th = scenario["n_th"]
    if scenario["kind"] == "free_single":
        return [n_th]
    if scenario["kind"] == "free_unequal_baths":
        return list(n_th)
    return [n_th, n_th]


def drift_diffusion(h: np.ndarray | None, occ) -> tuple[np.ndarray, np.ndarray]:
    """A = Omega H - 1/2, D = (+)_j (1 + 2 N_j) 1_2, in units of the loss rate."""
    n = len(occ)
    a = -0.5 * np.eye(2 * n) if h is None else omega(n) @ h - 0.5 * np.eye(2 * n)
    return a, np.diag(np.repeat(1.0 + 2.0 * np.asarray(occ, dtype=float), 2))


def scenario_drift_diffusion(scenario: dict) -> tuple[np.ndarray, np.ndarray]:
    h = parametric_h(scenario["chi"]) if scenario["kind"] == "parametric" else None
    return drift_diffusion(h, occupations(scenario))


def spectral_bounds(a: np.ndarray, d: np.ndarray) -> dict:
    alphas = np.linalg.eigvalsh(-(a + a.T))
    deltas = np.linalg.eigvalsh(d)[::-1]
    pt_nu = 2.0 * math.sqrt(alphas[0] * alphas[1]) / (deltas[0] + deltas[1])
    return {
        "alphas": alphas,
        "deltas": deltas,
        "squeezing": alphas[0] / deltas[0],
        "eig_product": (deltas[0] + deltas[1]) ** 2 / (4.0 * alphas[0] * alphas[1]),
        "pt_nu_lower": pt_nu,
        "entanglement": max(0.0, -math.log2(pt_nu)),
    }


def squeezing_saturable(a: np.ndarray, d: np.ndarray) -> bool | None:
    """Do the extremal eigenspaces of -(A + A^T) and D share a direction?

    None when the largest cosine between them is too close to 1 to decide.
    """

    def extremal(values, vectors, target):
        tol = 1e-8 * max(1.0, float(np.max(np.abs(values))))
        return vectors[:, np.abs(values - target) <= tol]

    av, ae = np.linalg.eigh(-(a + a.T))
    dv, de = np.linalg.eigh(d)
    cos = np.linalg.svd(extremal(av, ae, av[0]).T @ extremal(dv, de, dv[-1]), compute_uv=False)[0]
    if cos >= 1.0 - 1e-9:
        return True
    if cos <= 1.0 - 1e-6:
        return False
    return None


def physical_margin(sigma: np.ndarray) -> float:
    """Smallest eigenvalue of sigma + i Omega (>= 0 for a physical state)."""
    return float(np.linalg.eigvalsh(sigma + 1j * omega(sigma.shape[0] // 2))[0])


def pt_nu(sigma: np.ndarray) -> float:
    """Smallest symplectic eigenvalue of the two-mode CM with mode 2 transposed."""
    t = np.diag([1.0, 1.0, 1.0, -1.0])
    return float(np.min(np.abs(np.linalg.eigvals(1j * t @ omega(2) @ t @ sigma))))


def log_negativity(sigma: np.ndarray) -> float:
    nu = pt_nu(sigma)
    return 0.0 if nu >= 1.0 - 1e-12 else -math.log2(nu)


def steady_sigma(a: np.ndarray, d: np.ndarray, c: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Stabilising solution of the conditional Riccati equation.

    CARE with A -> (A - Gamma^T C)^T, B -> C^T, Q = D - Gamma^T Gamma, R = 1;
    the Lyapunov equation when nothing is monitored.
    """
    if not np.any(c) and not np.any(gamma):
        return solve_continuous_lyapunov(a, -d)
    return solve_continuous_are(
        (a - gamma.T @ c).T, c.T, d - gamma.T @ gamma, np.eye(c.shape[0])
    )


def scenario_measurement(scenario: dict, eta: float | None = None):
    """(C, Gamma) of a scenario, built through gendyne, plus gendyne's (A, D)."""
    spec = G.ScenarioSpec(
        kind=scenario["kind"],
        n_th=tuple(scenario["n_th"]) if isinstance(scenario["n_th"], list) else scenario["n_th"],
        strategy=scenario.get("strategy", "optimal"),
        chi=scenario.get("chi"),
        eta=scenario.get("eta", 1.0) if eta is None else eta,
    )
    dd, couplings, bath = G.scenarios.build_system(spec)
    m = G.measurement_matrices(couplings, G.scenarios.build_unravelling(spec, bath), dd)
    return m.c, m.gamma, dd


def max_rel(x: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(np.asarray(x) - ref)) / np.max(np.abs(ref)))


def scenario_reference(scenario: dict) -> dict:
    """Everything a report of this scenario must agree with."""
    a, d = scenario_drift_diffusion(scenario)
    c, gamma, dd = scenario_measurement(scenario)
    require(
        np.allclose(dd.a, a, rtol=0, atol=1e-14) and np.allclose(dd.d, d, rtol=0, atol=1e-14),
        "gendyne (A, D) differs from the closed form",
    )
    sigma = steady_sigma(a, d, c, gamma)
    ref = {"a": a, "d": d, "sigma": sigma, "bounds": spectral_bounds(a, d)}
    ref["saturable"] = squeezing_saturable(a, d)
    require(physical_margin(sigma) >= -INEQ_RTOL * np.max(np.abs(sigma)), "CARE sigma unphysical")
    return ref


def check_spectral(obj: dict, ref: dict) -> None:
    b = ref["bounds"]
    scale = max(1.0, float(np.max(b["deltas"])))
    require(obj["stable"] is True, "stable flag is not true")
    require(np.allclose(obj["spectral"]["alphas"], b["alphas"], rtol=0, atol=1e-12 * scale), "alphas")
    require(np.allclose(obj["spectral"]["deltas"], b["deltas"], rtol=0, atol=1e-12 * scale), "deltas")


def check_bounds_block(bounds: dict, ref: dict, two_mode: bool) -> None:
    b = ref["bounds"]
    close(bounds["squeezing"], b["squeezing"], 1e-10, "squeezing bound")
    close(bounds["eig_product"], b["eig_product"], 1e-10, "eig_product bound")
    if two_mode:
        close(bounds["entanglement"], b["entanglement"], 1e-10, "entanglement bound", 1e-12)
        close(bounds["pt_nu_lower"], b["pt_nu_lower"], 1e-10, "pt_nu_lower bound")
    else:
        require(bounds["entanglement"] is None, "single-mode entanglement bound not null")


def check_tightness(tightness: dict, scenario: dict, ref: dict) -> None:
    if ref["saturable"] is not None:
        require(tightness["squeezing"] == ref["saturable"], "squeezing tightness flag")
    kind = scenario["kind"]
    if kind == "free_single":
        require(tightness["entanglement"] is None, "single-mode entanglement tightness not null")
    elif kind == "free_two_mode":
        # The optimal entangling monitoring reaches log2(1 + 2N), the bound.
        require(tightness["entanglement"] is True, "free two-mode entanglement must be tight")
    elif kind == "free_unequal_baths":
        # Reachable log2(1 + 2 min N) lies below the bound log2(1 + 2 max N).
        require(tightness["entanglement"] is False, "unequal baths cannot be tight")


def unclamped_log_negativity(scenario: dict, eta: float, a: np.ndarray, d: np.ndarray) -> float:
    c, gamma, _ = scenario_measurement(scenario, eta)
    return -math.log2(pt_nu(steady_sigma(a, d, c, gamma)))


def check_steady(obj: dict, scenario: dict, ref: dict) -> None:
    two_mode = scenario["kind"] != "free_single"
    check_spectral(obj, ref)
    check_bounds_block(obj["bounds"], ref, two_mode)
    check_tightness(obj["tightness"], scenario, ref)
    sigma = np.asarray(obj["sigma_c"], dtype=float)
    sigma_ref = ref["sigma"]
    require(max_rel(sigma, sigma_ref) <= SIGMA_RTOL, f"sigma_c vs CARE: rel {max_rel(sigma, sigma_ref):.2e}")
    scale = float(np.max(np.abs(sigma)))
    require(physical_margin(sigma) >= -INEQ_RTOL * scale, "sigma_c violates sigma + i Omega >= 0")
    achieved = obj["achieved"]
    min_eig = float(np.linalg.eigvalsh(sigma_ref)[0])
    close(achieved["min_eigenvalue"], min_eig, 1e-8, "achieved min eigenvalue")
    bound = ref["bounds"]["squeezing"]
    require(achieved["min_eigenvalue"] >= bound * (1.0 - INEQ_RTOL), "min eigenvalue beats its bound")
    occ = occupations(scenario)
    optimal_free = scenario["strategy"] == "optimal" and scenario["kind"].startswith("free_")
    if optimal_free and scenario["eta"] == 1.0:
        n_s = min(occ)
        close(achieved["min_eigenvalue"], 1.0 / (1.0 + 2.0 * n_s), 1e-8, "closed form 1/(1+2N)")
        if two_mode:
            close(achieved["log_negativity"], math.log2(1.0 + 2.0 * n_s), 0.0, "closed form log2(1+2N)", 1e-8)
    thresholds = obj["thresholds"]
    if two_mode:
        close(achieved["log_negativity"], log_negativity(sigma_ref), 0.0, "achieved E_N", 1e-8)
        require(
            achieved["log_negativity"] <= obj["bounds"]["entanglement"] + INEQ_RTOL,
            "E_N beats its bound",
        )
        if scenario["strategy"] == "optimal":
            if scenario["kind"] == "free_two_mode":
                n = occ[0]
                close(thresholds["eta"], (1.0 + 2.0 * n) / (2.0 * (1.0 + n)), 1e-12, "threshold eta")
            else:
                eta = thresholds["eta"]
                require(eta is not None and 0.5 <= eta <= 1.0, f"threshold eta {eta!r}")
                a, d = ref["a"], ref["d"]
                below = unclamped_log_negativity(scenario, max(0.0, eta - THRESHOLD_PROBE), a, d)
                above = unclamped_log_negativity(scenario, min(1.0, eta + THRESHOLD_PROBE), a, d)
                require(below < 0.0 < above, f"no sign change of E_N around threshold eta {eta}")
        else:
            require(thresholds["eta"] is None, "threshold eta for a non-optimal strategy")
    if scenario["kind"] == "parametric":
        close(thresholds["chi"], occ[0] / (1.0 + 2.0 * occ[0]), 1e-12, "threshold chi")
    else:
        require(thresholds["chi"] is None, "threshold chi outside the parametric scenario")


def check_report(command: str, obj: dict, scenario: dict, ref: dict) -> None:
    if command == "steady":
        check_steady(obj, scenario, ref)
        return
    check_spectral(obj, ref)
    check_tightness(obj["tightness"], scenario, ref)
    if command == "bounds":
        check_bounds_block(obj["bounds"], ref, scenario["kind"] != "free_single")


def sweep_reference(config: dict) -> list[dict]:
    """Expected quantities for each row of a sweep, from the CARE solution."""
    scenario, sweep = config["scenario"], config["sweep"]
    grid = sweep["grid"]
    if isinstance(grid, dict):
        grid = np.linspace(grid["start"], grid["stop"], grid["count"]).tolist()
    key = {"N": "n_th", "eta": "eta", "chi": "chi"}[sweep["parameter"]]
    rows = []
    for value in grid:
        row_scenario = {**scenario, key: value}
        ref = scenario_reference(row_scenario)
        sigma = ref["sigma"]
        ref["scenario"] = row_scenario
        ref["value"] = value
        ref["min_eig"] = float(np.linalg.eigvalsh(sigma)[0])
        ref["log_negativity"] = log_negativity(sigma)
        ref["purity"] = 1.0 / math.sqrt(np.linalg.det(sigma))
        rows.append(ref)
    return rows


def _cell(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    return float(text)


def check_sweep_csv(text: str, config: dict, refs: list[dict]) -> None:
    rows = list(csv.DictReader(text.splitlines()))
    require(len(rows) == len(refs), f"sweep has {len(rows)} rows, expected {len(refs)}")
    scenario = config["scenario"]
    optimal = scenario["strategy"] == "optimal"
    previous = -math.inf
    for raw, ref in zip(rows, refs):
        row = {k: (v if k == "parameter" else _cell(v)) for k, v in raw.items()}
        sc = ref["scenario"]
        where = f"row {config['sweep']['parameter']}={ref['value']:.6g}"
        require(row["parameter"] == config["sweep"]["parameter"], f"{where}: parameter column")
        close(row["value"], ref["value"], 1e-11, f"{where}: value")
        require(row["stable"] is True, f"{where}: stable flag")
        b = ref["bounds"]
        close(row["squeezing_bound"], b["squeezing"], 1e-10, f"{where}: squeezing bound")
        close(row["entanglement_bound"], b["entanglement"], 1e-10, f"{where}: entanglement bound", 1e-12)
        close(row["achieved_min_eigenvalue"], ref["min_eig"], 1e-8, f"{where}: min eigenvalue vs CARE")
        close(row["achieved_log_negativity"], ref["log_negativity"], 0.0, f"{where}: E_N vs CARE", 1e-8)
        close(row["purity"], ref["purity"], 1e-8, f"{where}: purity vs CARE")
        require(row["achieved_min_eigenvalue"] >= b["squeezing"] * (1.0 - INEQ_RTOL), f"{where}: beats squeezing bound")
        require(row["achieved_log_negativity"] <= b["entanglement"] + INEQ_RTOL, f"{where}: beats entanglement bound")
        n = sc["n_th"]
        if sc["kind"] == "free_two_mode":
            if optimal:
                close(row["threshold_eta"], (1.0 + 2.0 * n) / (2.0 * (1.0 + n)), 1e-10, f"{where}: threshold eta")
                if sc["eta"] == 1.0:
                    close(row["achieved_min_eigenvalue"], 1.0 / (1.0 + 2.0 * n), 1e-8, f"{where}: 1/(1+2N)")
                    close(row["achieved_log_negativity"], math.log2(1.0 + 2.0 * n), 0.0, f"{where}: log2(1+2N)", 1e-8)
            else:
                require(row["achieved_log_negativity"] == 0.0, f"{where}: homodyne E_N must be 0")
        if sc["kind"] == "parametric":
            close(row["threshold_chi"], n / (1.0 + 2.0 * n), 1e-10, f"{where}: threshold chi")
        if optimal:
            require(row["achieved_log_negativity"] >= previous - INEQ_RTOL, f"{where}: optimal E_N decreased")
            previous = row["achieved_log_negativity"]


def check_reconstruction(rec: np.ndarray, se: np.ndarray, sigma_ref: np.ndarray, dt: float, what: str) -> None:
    allowance = MC_DT_ALLOWANCE * dt * float(np.max(np.abs(sigma_ref)))
    excess = np.abs(rec - sigma_ref) - (MC_SE * se + allowance)
    require(
        np.all(excess <= 0.0),
        f"{what}: reconstructed sigma off by {np.max(np.abs(rec - sigma_ref)):.3e} "
        f"(allowed {MC_SE} SE + {allowance:.3e})",
    )


def check_simulate(path: str, config: dict, sigma_ref: np.ndarray) -> None:
    with open(path, encoding="utf-8") as handle:
        obj = json.load(handle)
    predicted = np.asarray(obj["predicted_sigma"])
    require(max_rel(predicted, sigma_ref) <= SIGMA_RTOL, "predicted sigma vs CARE")
    rec = np.asarray(obj["reconstructed_sigma"])
    se = np.asarray(obj["sigma_standard_error"])
    require(np.all(np.isfinite(se)) and np.all(se >= 0), "standard errors not finite")
    check_reconstruction(rec, se, sigma_ref, config["trajectories"]["dt"], "simulate")


def batch_reconstruction(record, window: tuple[float, float], n_batches: int = 16):
    """Window-mean sigma_c path plus the spread of the means, with batch SEs."""
    mask = (record.times >= window[0]) & (record.times <= window[1])
    sigma_c = record.sigma_c_path[mask].mean(axis=0)
    means = record.means[:, mask, :]

    def spread(block):
        flat = block.reshape(-1, block.shape[-1])
        centred = flat - flat.mean(axis=0)
        return centred.T @ centred / (flat.shape[0] - 1)

    batches = np.array([sigma_c + spread(b) for b in np.array_split(means, n_batches)])
    se = batches.std(axis=0, ddof=1) / math.sqrt(n_batches)
    return sigma_c + spread(means), se


def check_currents(record, stats, scenario: dict, dt: float, sigma_ref: np.ndarray) -> None:
    currents = record.currents
    require(currents is not None, "no currents recorded")
    n_traj, n_steps, n_out = currents.shape
    require(n_traj > 0 and n_steps == round(record.times[-1] / dt), "current record shape")
    flat = currents.reshape(-1, n_out)
    var = flat.var(axis=0)
    c, _, _ = scenario_measurement(scenario)
    drift = record.means.reshape(-1, record.means.shape[-1]) @ c.T
    offset = dt * float(np.max(np.mean(drift**2, axis=0)))
    tol = CURRENT_SE * math.sqrt(2.0 / flat.shape[0]) + offset
    worst = float(np.max(np.abs(var / dt - 1.0)))
    require(worst <= tol, f"per-step current variance off dt by {worst:.3e} (allowed {tol:.3e})")
    window = (0.5 * record.times[-1], record.times[-1])
    rec, se = batch_reconstruction(record, window)
    check_reconstruction(rec, se, sigma_ref, dt, "currents job")
    full, _ = batch_reconstruction(record, (record.times[0], record.times[-1]))
    require(np.allclose(stats.sigma, full, rtol=1e-10, atol=1e-14), "ensemble_statistics sigma vs own reconstruction")


def check_ladder_system(system, out: dict) -> None:
    n = len(system.occupations)
    a, d = drift_diffusion(system.h, system.occupations)
    dd, couplings = G.thermal_drift_diffusion(system.h, G.ThermalBath(system.occupations))
    m = G.measurement_matrices(couplings, G.UnravellingMatrix(np.eye(2 * n), system.upsilon))
    c, gamma = m.c, m.gamma
    sigma_ref = steady_sigma(a, d, c, gamma)
    where = f"n={n}"
    require(max_rel(out["sigma_c"], sigma_ref) <= SIGMA_RTOL, f"{where}: sigma_c vs CARE rel {max_rel(out['sigma_c'], sigma_ref):.2e}")
    b_gain = -(sigma_ref @ c.T + gamma.T)
    a_loop = a + b_gain @ c
    d_loop = d + b_gain @ gamma + gamma.T @ b_gain.T + b_gain @ b_gain.T
    loop_ref = solve_continuous_lyapunov(a_loop, -d_loop)
    require(max_rel(out["sigma_loop"], loop_ref) <= SIGMA_RTOL, f"{where}: closed-loop sigma vs Lyapunov")
    require(max_rel(loop_ref, sigma_ref) <= SIGMA_RTOL, f"{where}: closed loop does not reproduce sigma_c")
    b = spectral_bounds(a, d)
    close(out["squeezing_bound"], b["squeezing"], 1e-10, f"{where}: squeezing bound")
    close(out["eig_product_bound"], b["eig_product"], 1e-10, f"{where}: eig_product bound")
    close(out["entanglement_bound"], b["entanglement"], 1e-10, f"{where}: entanglement bound", 1e-12)
    sigma = out["sigma_c"]
    require(np.linalg.eigvalsh(sigma)[0] >= b["squeezing"] * (1.0 - INEQ_RTOL), f"{where}: beats squeezing bound")
    require(physical_margin(sigma) >= -INEQ_RTOL * np.max(np.abs(sigma)), f"{where}: sigma_c unphysical")
