"""Canned physical scenarios and comparison reports.

Four system families are covered: a single damped mode, two damped modes
with equal or unequal thermal baths, and two modes coupled by a two-mode
squeezing interaction H = chi (x1 p2 + p1 x2) (stable for chi < 1/2).
The spectral limits and saturation flags depend on (A, D) alone (Limits).
A monitoring strategy (optimal, homodyne, or none) extends them to a full
report: the achieved conditional steady state, the cancelling feedback gain
with its closed-loop verification, and threshold values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .bounds import (
    eig_product_bound,
    entanglement_bound,
    pt_nu_lower_bound,
    squeezing_bound,
    tightness_entanglement,
    tightness_squeezing,
)
from .conditioning import (
    MeasurementSetup,
    RiccatiSolution,
    UnravellingMatrix,
    apply_efficiency,
    measurement_matrices,
    named_unravelling,
    solve_riccati,
    stabilising_check,
)
from .dynamics import (
    CouplingOperators,
    DriftDiffusion,
    ThermalBath,
    lyapunov_steady_state,
    stability_check,
    thermal_drift_diffusion,
)
from .errors import ConvergenceError, UnstableSystemError
from .feedback import FeedbackLaw, closed_loop, feedback_gain
from .linalg import max_abs
from .symplectic import (
    Bipartition,
    log_negativity,
    physicality_check,
    pt_min_symplectic_eigenvalue,
    purity,
    symplectic_eigenvalues,
)

SCENARIO_KINDS = ("free_single", "free_two_mode", "free_unequal_baths", "parametric")
STRATEGIES = ("optimal", "homodyne", "none")

# Entanglement of every two-mode scenario is taken across this cut.
TWO_MODE_CUT = Bipartition.last_modes(2)


def parametric_hamiltonian(chi: float) -> np.ndarray:
    """Two-mode squeezing interaction chi (x1 p2 + p1 x2)."""
    h = np.zeros((4, 4))
    h[0, 3] = h[3, 0] = chi
    h[1, 2] = h[2, 1] = chi
    return h


@dataclass(frozen=True)
class ScenarioSpec:
    """A named system plus monitoring strategy.

    n_th is a single occupation except for free_unequal_baths, which takes
    the pair (N1, N2). chi is required (and < 1/2) for the parametric kind.
    Every number must be finite.
    """

    kind: str
    n_th: float | tuple[float, float]
    strategy: str = "optimal"
    chi: Optional[float] = None
    eta: float = 1.0
    phi: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        values = [self.eta, self.phi, *np.atleast_1d(self.n_th)]
        if self.chi is not None:
            values.append(self.chi)
        if not np.all(np.isfinite(np.asarray(values, dtype=float))):
            raise ValueError("n_th, chi, eta and phi must be finite")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("efficiency must lie in [0, 1]")
        if self.kind == "free_unequal_baths":
            if np.ndim(self.n_th) != 1 or len(self.n_th) != 2:
                raise ValueError("free_unequal_baths takes an occupation pair")
            object.__setattr__(self, "n_th", (float(self.n_th[0]), float(self.n_th[1])))
        else:
            if np.ndim(self.n_th) != 0:
                raise ValueError(f"{self.kind} takes a single occupation")
            object.__setattr__(self, "n_th", float(self.n_th))
        occs = self.occupations
        if any(x < 0 for x in occs):
            raise ValueError("thermal occupations must be non-negative")
        if self.kind == "parametric":
            if self.chi is None:
                raise ValueError("parametric scenario needs chi")
            if self.chi < 0.0:
                raise ValueError("parametric coupling must be non-negative")
            # chi >= 1/2 destabilizes the dynamics; the stability gate in
            # run_scenario reports it as a numerical condition, not a typo.
        elif self.chi is not None:
            raise ValueError("chi only applies to the parametric scenario")
        if self.kind == "free_unequal_baths" and self.strategy == "homodyne":
            raise ValueError("the nonlocal homodyne scheme assumes equal baths")

    @property
    def occupations(self) -> tuple[float, ...]:
        if self.kind == "free_single":
            return (self.n_th,)
        if self.kind == "free_unequal_baths":
            return self.n_th
        return (self.n_th, self.n_th)

    @property
    def n_modes(self) -> int:
        return len(self.occupations)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n_th": list(self.n_th) if self.kind == "free_unequal_baths" else self.n_th,
            "strategy": self.strategy,
            "chi": self.chi,
            "eta": self.eta,
            "phi": self.phi,
        }


def build_system(spec: ScenarioSpec) -> tuple[DriftDiffusion, CouplingOperators, ThermalBath]:
    bath = ThermalBath(spec.occupations)
    h = parametric_hamiltonian(spec.chi) if spec.kind == "parametric" else None
    dd, couplings = thermal_drift_diffusion(h, bath)
    return dd, couplings, bath


def stable_system(spec: ScenarioSpec) -> tuple[DriftDiffusion, CouplingOperators, ThermalBath]:
    """build_system, refusing a drift without a steady state."""
    dd, couplings, bath = build_system(spec)
    if not stability_check(dd).stable:
        raise UnstableSystemError(
            f"scenario {spec.kind} is unstable (stability check failed)"
        )
    return dd, couplings, bath


def build_unravelling(spec: ScenarioSpec, bath: ThermalBath) -> UnravellingMatrix:
    if spec.strategy == "none":
        return UnravellingMatrix.zero(2 * bath.n)
    if spec.n_modes == 1:
        kind = "optimal_squeeze" if spec.strategy == "optimal" else "homodyne_single"
        u = named_unravelling(kind, bath, spec.phi)
    else:
        kind = "optimal_entangle" if spec.strategy == "optimal" else "homodyne_nonlocal"
        u = named_unravelling(kind, bath)
    return apply_efficiency(u, spec.eta)


def monitored_loop(
    spec: ScenarioSpec, dd: DriftDiffusion, couplings: CouplingOperators, bath: ThermalBath
) -> tuple[MeasurementSetup, RiccatiSolution, FeedbackLaw]:
    """The strategy's measurement, its conditional steady state and the cancelling gain."""
    m = measurement_matrices(couplings, build_unravelling(spec, bath), dd)
    sol = solve_riccati(dd, m)
    return m, sol, feedback_gain(sol.sigma, m)


@dataclass(frozen=True)
class Limits:
    """Spectral limits and saturation flags of one stable (A, D).

    No monitoring enters: every strategy on the same system shares them. The
    entanglement fields are None for a single mode. The bounds refuse an
    unstable drift, so every Limits is stable.
    """

    stable = True
    alphas: np.ndarray
    deltas: np.ndarray
    squeezing_bound: float
    eig_product_bound: float
    entanglement_bound: Optional[float]
    pt_nu_lower_bound: Optional[float]
    tightness_squeezing: bool
    tightness_entanglement: Optional[bool]

    @classmethod
    def of(cls, dd: DriftDiffusion) -> Limits:
        two_mode = dd.a.shape[0] == 4
        return cls(
            alphas=dd.spectrum.alphas,
            deltas=dd.spectrum.deltas,
            squeezing_bound=squeezing_bound(dd),
            eig_product_bound=eig_product_bound(dd),
            entanglement_bound=entanglement_bound(dd) if two_mode else None,
            pt_nu_lower_bound=pt_nu_lower_bound(dd) if two_mode else None,
            tightness_squeezing=tightness_squeezing(dd),
            tightness_entanglement=(
                tightness_entanglement(dd, TWO_MODE_CUT) if two_mode else None
            ),
        )

    def to_dict(self) -> dict:
        return {
            "stable": self.stable,
            "spectral": {"alphas": self.alphas.tolist(), "deltas": self.deltas.tolist()},
            "bounds": {
                "squeezing": self.squeezing_bound,
                "eig_product": self.eig_product_bound,
                "entanglement": self.entanglement_bound,
                "pt_nu_lower": self.pt_nu_lower_bound,
            },
            "tightness": {
                "squeezing": self.tightness_squeezing,
                "entanglement": self.tightness_entanglement,
            },
        }


@dataclass(frozen=True)
class Report(Limits):
    """Everything a scenario run produces, bounds next to achieved values."""

    spec: ScenarioSpec
    sigma_c: np.ndarray
    achieved_min_eigenvalue: float
    achieved_log_negativity: Optional[float]
    achieved_pt_nu: Optional[float]
    symplectic_eigenvalues: np.ndarray
    pure: bool
    purity: float
    physicality_margin: float
    stabilising_margin: float
    riccati_residual: float
    closed_loop_residual: float
    unique_solution: Optional[bool]
    threshold_eta: Optional[float]
    threshold_chi: Optional[float]

    def to_dict(self) -> dict:
        def arr(x):
            return np.asarray(x).tolist()

        return {
            "scenario": self.spec.to_dict(),
            **super().to_dict(),
            "sigma_c": arr(self.sigma_c),
            "achieved": {
                "min_eigenvalue": self.achieved_min_eigenvalue,
                "log_negativity": self.achieved_log_negativity,
                "pt_nu": self.achieved_pt_nu,
                "symplectic_eigenvalues": arr(self.symplectic_eigenvalues),
                "pure": self.pure,
                "purity": self.purity,
            },
            "margins": {
                "physicality": self.physicality_margin,
                "stabilising": self.stabilising_margin,
            },
            "residuals": {
                "riccati": self.riccati_residual,
                "closed_loop": self.closed_loop_residual,
            },
            "unique_solution": self.unique_solution,
            "thresholds": {"eta": self.threshold_eta, "chi": self.threshold_chi},
        }


def run_scenario(spec: ScenarioSpec) -> Report:
    """Assemble system, monitoring, bounds, steady state and verification.

    The efficiency threshold is filled in only where it has a closed form
    (free two-mode system, optimal strategy); threshold_efficiency searches
    for it in the other entangling scenarios.
    """
    return _report(spec, *_system_limits(spec))


def _system_limits(
    spec: ScenarioSpec,
) -> tuple[DriftDiffusion, CouplingOperators, ThermalBath, Limits]:
    dd, couplings, bath = stable_system(spec)
    return dd, couplings, bath, Limits.of(dd)


def _report(
    spec: ScenarioSpec,
    dd: DriftDiffusion,
    couplings: CouplingOperators,
    bath: ThermalBath,
    limits: Limits,
) -> Report:
    """run_scenario on a stable system whose limits are already known."""
    two_mode = spec.n_modes == 2

    m, sol, fb = monitored_loop(spec, dd, couplings, bath)
    sigma_c = sol.sigma

    # A report never shows a value that beats its own bound: past these
    # margins the steady state is wrong, not better than possible.
    eigs = np.linalg.eigvalsh(sigma_c)
    sq_bound = limits.squeezing_bound
    if eigs[0] < sq_bound * (1.0 - 1e-8):
        raise ConvergenceError(
            f"achieved minimum eigenvalue {eigs[0]:.9e} beats the squeezing bound {sq_bound:.9e}"
        )
    ent_bound = limits.entanglement_bound
    log_neg = log_negativity(sigma_c, TWO_MODE_CUT) if two_mode else None
    if two_mode and log_neg > ent_bound + 1e-8:
        raise ConvergenceError(
            f"achieved log-negativity {log_neg:.9f} beats the entanglement bound {ent_bound:.9f}"
        )
    nus = symplectic_eigenvalues(sigma_c)
    phys = physicality_check(sigma_c)
    stab = stabilising_check(sigma_c, dd)

    loop = closed_loop(dd, m, fb)
    sigma_loop = lyapunov_steady_state(loop.as_drift_diffusion()).matrix
    loop_residual = max_abs(sigma_loop - sigma_c)

    threshold_eta = (
        threshold_efficiency(spec)
        if spec.kind == "free_two_mode" and spec.strategy == "optimal"
        else None
    )
    threshold_chi = (
        threshold_coupling(spec.n_th) if spec.kind == "parametric" else None
    )

    return Report(
        **vars(limits),
        spec=spec,
        sigma_c=sigma_c,
        achieved_min_eigenvalue=float(eigs[0]),
        achieved_log_negativity=log_neg,
        achieved_pt_nu=(
            pt_min_symplectic_eigenvalue(sigma_c, TWO_MODE_CUT) if two_mode else None
        ),
        symplectic_eigenvalues=nus,
        pure=bool(np.max(np.abs(nus - 1.0)) <= 1e-8),
        purity=purity(sigma_c),
        physicality_margin=phys.margin,
        stabilising_margin=stab.margin,
        riccati_residual=sol.residual,
        closed_loop_residual=loop_residual,
        unique_solution=sol.unique,
        threshold_eta=threshold_eta,
        threshold_chi=threshold_chi,
    )


# Unclamped log-negativity that is rounding noise: a vacuum mode next to a
# thermal one, never entangled at any efficiency, reads about 6e-16.
_SEPARABLE_ROUNDING = 1e-12
# The same cut on nu_pt, so that the bracket tests and the root agree in sign.
_SEPARABLE_NU = 2.0 ** -_SEPARABLE_ROUNDING
# Absolute tolerance on eta at which Brent's method stops.
_THRESHOLD_XTOL = 1e-5


def threshold_efficiency(spec: ScenarioSpec) -> Optional[float]:
    """Efficiency below which the optimal strategy entangles nothing.

    Closed form (1 + 2N)/(2(1 + N)) for the free two-mode system with equal
    baths; otherwise the zero of the unclamped log-negativity -log2 nu_pt(eta),
    located by Brent's method on the smooth linear margin 1 - nu_pt(eta) on
    [1/2, 1], or on [0, 1/2] when the loop is already entangled at eta = 1/2
    (low occupations). Returns 0.0 when even the unmonitored state
    (eta = 0) is entangled, and None when not even perfect detection
    (eta = 1) entangles.
    """
    if spec.strategy != "optimal" or spec.n_modes != 2:
        raise ValueError("efficiency threshold applies to optimal entangling scenarios")
    if spec.kind == "free_two_mode":
        occ = spec.n_th
        return (1.0 + 2.0 * occ) / (2.0 * (1.0 + occ))
    # Imported here, on first use: only this search needs scipy.optimize,
    # and loading it at import would cost every process that never gets here.
    from scipy.optimize import brentq

    dd, couplings, bath = build_system(spec)
    base = build_unravelling(replace(spec, eta=1.0), bath)
    margins: dict[float, float] = {}

    def margin(eta: float) -> float:
        # Positive exactly where the loop is entangled beyond rounding noise;
        # memoised so that Brent's method does not solve the bracket again.
        if eta not in margins:
            m = measurement_matrices(couplings, apply_efficiency(base, eta), dd)
            sigma = solve_riccati(dd, m, probe_uniqueness=False).sigma
            margins[eta] = _SEPARABLE_NU - pt_min_symplectic_eigenvalue(sigma, TWO_MODE_CUT)
        return margins[eta]

    if margin(0.5) <= 0.0:
        if margin(1.0) <= 0.0:
            return None
        lo, hi = 0.5, 1.0
    elif margin(0.0) > 0.0:
        return 0.0
    else:
        lo, hi = 0.0, 0.5
    return float(brentq(margin, lo, hi, xtol=_THRESHOLD_XTOL))


def threshold_coupling(occupation: float) -> float:
    """Coupling above which homodyne-based driving entangles: N/(1 + 2N)."""
    if occupation < 0:
        raise ValueError("occupation must be non-negative")
    return occupation / (1.0 + 2.0 * occupation)


@dataclass(frozen=True)
class UnstablePoint:
    """A sweep point whose drift admits no steady state: a row with no results."""

    stable = False
    spec: ScenarioSpec

    def to_dict(self) -> dict:
        return {"scenario": self.spec.to_dict(), "stable": self.stable}


def sweep(spec: ScenarioSpec, parameter: str, grid) -> list[Report | UnstablePoint]:
    """One report per grid value of `parameter` (N, eta or chi), in order.

    A point where the system is unstable gives an UnstablePoint rather than
    ending the sweep; every other failure of a row still raises.
    """
    grid = [float(g) for g in grid]
    if not grid:
        raise ValueError("empty sweep grid")
    reports = []
    # (A, D) depend on N and chi only: an eta sweep builds one system and one
    # Limits for all its rows.
    systems = {}
    for value in grid:
        if parameter == "N":
            row_spec = replace(spec, n_th=value)
        elif parameter == "eta":
            row_spec = replace(spec, eta=value)
        elif parameter == "chi":
            row_spec = replace(spec, chi=value)
        else:
            raise ValueError(f"unknown sweep parameter {parameter!r}")
        key = (row_spec.n_th, row_spec.chi)
        if key not in systems:
            try:
                systems[key] = _system_limits(row_spec)
            except UnstableSystemError:
                systems[key] = None
        system = systems[key]
        reports.append(UnstablePoint(row_spec) if system is None else _report(row_spec, *system))
    return reports
