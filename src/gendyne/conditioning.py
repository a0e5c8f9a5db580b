"""Continuous Gaussian measurements and the conditional steady state.

Diffusive monitoring of the bath channels is parameterized by the pair
(Theta, Upsilon): the measurement record enters the conditional dynamics
through L complex Wiener increments dz with correlations

    dz dz^dag = Theta dt,     dz dz^T = Upsilon dt,

Theta Hermitian and Upsilon (complex) symmetric. Splitting dz into real and
imaginary parts gives the real 2L x 2L noise-correlation matrix

    U = 1/2 [[Re Theta + Re Upsilon,  Im Upsilon - Im Theta],
             [Im Upsilon + Im Theta,  Re Theta - Re Upsilon]]

which must be positive semidefinite. (For real Theta this reduces to the
familiar [[Theta + Re Upsilon, Im Upsilon], [Im Upsilon, Theta - Re Upsilon]]/2
form; the Im Theta terms matter once phases rotate the monitored channels.)

Given couplings with real stacking C_bar and pair form S, a monitoring
choice U yields the measurement matrices

    C     = (2 U)^(1/2) C_bar          (current sensitivity)
    Gamma = (2 U)^(1/2) S C_bar Omega  (back-action cross term)

and the conditional covariance matrix obeys the deterministic Riccati flow

    d sigma/dt = A sigma + sigma A^T + D
                 - (sigma C^T + Gamma^T)(C sigma + Gamma).

Detector efficiency eta in [0, 1] models a beam splitter with vacuum on the
idle port in front of each detector. The signal carried by the record lives
on the squeezed output band, whose scale is the best reachable conditional
variance lam* = alpha_1 / delta_1 (bounds.squeezing_bound: smallest
eigenvalue of -(A + A^T) over largest of D), so admixing (1 - eta) of vacuum
rescales the extracted information by

    s(eta) = eta lam* / (eta lam* + 1 - eta),

implemented as U -> s U. eta = 1 leaves U untouched, eta = 0 recovers the
unmonitored (Lyapunov) dynamics, and the zero crossings of the achievable
log-negativity land at (1 + 2N)/(2(1 + N)) for the free system. Because
lam* depends on the dynamics, building measurement matrices at eta < 1
requires the drift/diffusion pair.

Translation rule used by the named constructors below: a measurement term
sqrt(k) H[o exp(i phi)] dw acting through jump operator c = sqrt(k') o
contributes sqrt(k / k') exp(-i phi) dw to the increment dz of that channel;
the (Theta, Upsilon) entries then follow from the dw correlations. Channels
whose jump operator vanishes are left unmonitored (their correlation entries
are set to zero), which makes the constructors continuous in the bath
occupation. Correctness is enforced behaviourally by the fixed-point and
log-negativity tests rather than symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np
from scipy.linalg import solve_continuous_are

from .bounds import squeezing_bound
from .dynamics import (
    CouplingOperators,
    DriftDiffusion,
    ThermalBath,
    lyapunov_steady_state,
    stability_check,
)
from .errors import ConvergenceError, NotStabilisingError, PhysicalityError, UnstableSystemError
from .linalg import (
    lyapunov_solve,
    max_abs,
    min_eigenvalue,
    psd_sqrt,
    psd_tolerance,
    symmetrize,
)
from .symplectic import CovarianceMatrix, as_matrix, physicality_check, symplectic_form

UNRAVELLING_KINDS = (
    "optimal_squeeze",
    "optimal_entangle",
    "homodyne_single",
    "homodyne_nonlocal",
)


@dataclass(frozen=True)
class UnravellingMatrix:
    """Noise-correlation blocks (Theta, Upsilon) plus detector efficiency."""

    theta: np.ndarray = field(repr=False)
    upsilon: np.ndarray = field(repr=False)
    eta: float = 1.0

    def __post_init__(self) -> None:
        theta = np.asarray(self.theta, dtype=complex)
        upsilon = np.asarray(self.upsilon, dtype=complex)
        if theta.shape != upsilon.shape or theta.ndim != 2 or theta.shape[0] != theta.shape[1]:
            raise ValueError("Theta and Upsilon must be square with equal shape")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("efficiency must lie in [0, 1]")
        theta.setflags(write=False)
        upsilon.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "upsilon", upsilon)

    @property
    def num_ops(self) -> int:
        return self.theta.shape[0]

    @property
    def u_matrix(self) -> np.ndarray:
        """The real 2L x 2L correlation matrix at unit efficiency."""
        re_t, im_t = self.theta.real, self.theta.imag
        re_u, im_u = self.upsilon.real, self.upsilon.imag
        return 0.5 * np.block(
            [[re_t + re_u, im_u - im_t], [im_u + im_t, re_t - re_u]]
        )

    @classmethod
    def zero(cls, num_ops: int) -> "UnravellingMatrix":
        """No monitoring: all correlations vanish."""
        z = np.zeros((num_ops, num_ops))
        return cls(z, z)

    @classmethod
    def from_u_matrix(cls, u: np.ndarray, eta: float = 1.0) -> "UnravellingMatrix":
        """Recover (Theta, Upsilon) from a real symmetric 2L x 2L matrix."""
        u = np.asarray(u, dtype=float)
        ell = u.shape[0] // 2
        u11, u12 = u[:ell, :ell], u[:ell, ell:]
        u21, u22 = u[ell:, :ell], u[ell:, ell:]
        theta = (u11 + u22) + 1j * (u21 - u12)
        upsilon = (u11 - u22) + 1j * (u12 + u21)
        return cls(theta, upsilon, eta)


class UnravellingDiagnostics(NamedTuple):
    valid: bool
    u_min_eigenvalue: float
    theta_hermitian: bool
    upsilon_symmetric: bool
    eta_in_range: bool


def validate_unravelling(u: UnravellingMatrix) -> UnravellingDiagnostics:
    """Check U >= 0, Theta Hermitian, Upsilon symmetric and eta in [0, 1]."""
    theta_ok = max_abs(u.theta - u.theta.conj().T) <= 1e-10 * max(1.0, max_abs(u.theta))
    upsilon_ok = max_abs(u.upsilon - u.upsilon.T) <= 1e-10 * max(1.0, max_abs(u.upsilon))
    eta_ok = 0.0 <= u.eta <= 1.0
    umat = u.u_matrix
    min_eig = min_eigenvalue(symmetrize(umat)) if theta_ok and upsilon_ok else -np.inf
    valid = theta_ok and upsilon_ok and eta_ok and min_eig >= -psd_tolerance(umat)
    return UnravellingDiagnostics(valid, float(min_eig), theta_ok, upsilon_ok, eta_ok)


def apply_efficiency(u: UnravellingMatrix, eta: float) -> UnravellingMatrix:
    """Place a lossy channel (transmittivity eta) before the detectors."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("efficiency must lie in [0, 1]")
    return replace(u, eta=u.eta * eta)


@dataclass(frozen=True)
class MeasurementSetup:
    """Current sensitivity C and back-action cross term Gamma (2L x 2n)."""

    c: np.ndarray = field(repr=False)
    gamma: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        c = np.asarray(self.c, dtype=float)
        gamma = np.asarray(self.gamma, dtype=float)
        if c.shape != gamma.shape or c.ndim != 2:
            raise ValueError("C and Gamma must share a 2L x 2n shape")
        c.setflags(write=False)
        gamma.setflags(write=False)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "gamma", gamma)

    @property
    def is_trivial(self) -> bool:
        return max_abs(self.c) == 0.0 and max_abs(self.gamma) == 0.0


def measurement_matrices(
    couplings: CouplingOperators,
    unravelling: UnravellingMatrix,
    dd: Optional[DriftDiffusion] = None,
) -> MeasurementSetup:
    """Build (C, Gamma) for a monitored system.

    C = (2 U_eta)^(1/2) C_bar and Gamma = (2 U_eta)^(1/2) S C_bar Omega, with
    U_eta = s(eta) U and the square root taken by symmetric eigendecomposition
    (eigenvalues in [-1e-12, 0) clipped to zero; anything lower is rejected).
    The drift/diffusion pair is only needed when eta < 1: its squeezing limit
    sets the squeezed output scale lam* of the efficiency model (a stable
    pair is required).
    """
    diag = validate_unravelling(unravelling)
    if not diag.valid:
        raise ValueError(f"invalid unravelling matrix: {diag}")
    if unravelling.num_ops != couplings.num_ops:
        raise ValueError("unravelling and couplings disagree on channel count")
    if unravelling.eta < 1.0:
        if dd is None:
            raise ValueError("eta < 1 requires the drift/diffusion pair")
        eta, lam_star = unravelling.eta, squeezing_bound(dd)
        scale = eta * lam_star / (eta * lam_star + 1.0 - eta)
    else:
        scale = 1.0
    root = psd_sqrt(2.0 * scale * unravelling.u_matrix)
    c_bar = couplings.c_bar
    omega = symplectic_form(couplings.n)
    c = root @ c_bar
    gamma = root @ couplings.s_matrix @ c_bar @ omega
    return MeasurementSetup(c, gamma)


def riccati_rhs(sigma, dd: DriftDiffusion, m: MeasurementSetup) -> np.ndarray:
    """Right-hand side of the conditional covariance flow, symmetrized."""
    s = as_matrix(sigma)
    if s.shape != dd.a.shape:
        raise ValueError("covariance and drift dimensions disagree")
    if m.c.shape[1] != s.shape[0]:
        raise ValueError("measurement and covariance dimensions disagree")
    k = m.c @ s + m.gamma
    return symmetrize(dd.a @ s + s @ dd.a.T + dd.d - k.T @ k)


class StabilisingResult(NamedTuple):
    stabilising: bool
    margin: float


def stabilising_check(sigma, dd: DriftDiffusion) -> StabilisingResult:
    """Test A sigma + sigma A^T + D >= 0.

    This is the reachability condition: exactly the CMs satisfying it (and
    the uncertainty relation) arise as conditional steady states of some
    valid monitoring.
    """
    s = as_matrix(sigma)
    w = symmetrize(dd.a @ s + s @ dd.a.T + dd.d)
    margin = min_eigenvalue(w)
    return StabilisingResult(margin >= -psd_tolerance(w), float(margin))


@dataclass(frozen=True)
class RiccatiSolution:
    """Output of solve_riccati; residual is ||rhs||_max at sigma."""

    sigma: np.ndarray
    residual: float
    flow_steps: int
    newton_steps: int
    unique: Optional[bool]


def solve_riccati(
    dd: DriftDiffusion,
    m: MeasurementSetup,
    *,
    probe_uniqueness: bool = True,
) -> RiccatiSolution:
    """Steady state of the conditional covariance flow.

    The steady state is the stabilising solution of the continuous algebraic
    Riccati equation (CARE)

        A~ sigma + sigma A~^T + (D - Gamma^T Gamma) - sigma C^T C sigma = 0,

    A~ = A - Gamma^T C, found by Laub's Schur method (scipy's
    `solve_continuous_are` with A -> A~^T, B -> C^T, Q = D - Gamma^T Gamma,
    R = 1). When its residual exceeds 1e-12 * ||D||_max, one Newton step
    F dX + dX F^T = -R(sigma) with F = A~ - sigma C^T C (Bartels-Stewart) is
    tried and kept only if it lowers the residual; `newton_steps` counts it.
    `flow_steps` is always 0 (the field remains for callers that read it).

    The result must have ||rhs||_max <= 1e-10 * ||D||_max and be physical
    and stabilising, or an error is raised; a scipy failure is reported as
    ConvergenceError. With `probe_uniqueness`, `unique` reports whether F
    is Hurwitz at the solution: the CARE has at most one stabilising
    solution, so True certifies that sigma is it. Without the probe `unique`
    is None. Unmonitored systems return the Lyapunov steady state with
    `unique=True`.
    """
    if not stability_check(dd).stable:
        raise UnstableSystemError("drift matrix admits no steady state")

    if m.is_trivial:
        # No information gained: conditional and unconditional states agree.
        sigma = lyapunov_steady_state(dd).matrix
        res = max_abs(riccati_rhs(sigma, dd, m))
        return RiccatiSolution(sigma, res, 0, 0, True)

    atol = 1e-10 * max_abs(dd.d)
    a_tilde = dd.a - m.gamma.T @ m.c
    ctc = m.c.T @ m.c
    try:
        sigma = symmetrize(
            solve_continuous_are(
                a_tilde.T, m.c.T, dd.d - m.gamma.T @ m.gamma, np.eye(m.c.shape[0])
            )
        )
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise ConvergenceError(f"Schur CARE solve failed: {exc}") from exc
    res = riccati_rhs(sigma, dd, m)
    res_norm = max_abs(res)

    newton_steps = 0
    if not res_norm <= 0.01 * atol:
        newton_steps = 1
        try:
            trial = sigma + lyapunov_solve(a_tilde - sigma @ ctc, res)
            trial_norm = max_abs(riccati_rhs(trial, dd, m))
        except (np.linalg.LinAlgError, ValueError):
            trial_norm = np.inf
        if trial_norm < res_norm:
            sigma, res_norm = trial, trial_norm

    if not res_norm <= atol:
        raise ConvergenceError(
            f"conditional steady state residual {res_norm:.3e} exceeds {atol:.3e}"
        )

    phys = physicality_check(sigma)
    if not phys.physical:
        raise PhysicalityError(
            f"converged conditional CM violates the uncertainty relation "
            f"(margin {phys.margin:.3e})"
        )
    stab = stabilising_check(sigma, dd)
    if not stab.stabilising:
        raise NotStabilisingError(
            f"converged conditional CM is not stabilising (margin {stab.margin:.3e})"
        )

    unique: Optional[bool] = None
    if probe_uniqueness:
        unique = bool(np.max(np.linalg.eigvals(a_tilde - sigma @ ctc).real) < 0.0)
    return RiccatiSolution(sigma, float(res_norm), 0, newton_steps, unique)


def riccati_steady_state(dd: DriftDiffusion, m: MeasurementSetup, **kwargs) -> CovarianceMatrix:
    """Conditional steady-state CM (see solve_riccati for the contract)."""
    return CovarianceMatrix(solve_riccati(dd, m, **kwargs).sigma)


def optimal_squeezing_unravelling(bath: ThermalBath, phi: float = 0.0) -> UnravellingMatrix:
    """Single-mode monitoring that squeezes the quadrature at angle phi.

    Both the loss and the gain channel are monitored along a fixed phase:
    dz_1 = exp(-i phi) dw_1, dz_2 = exp(+i phi) dw_2 with independent real
    increments. At steady state the monitored quadrature variance reaches
    1/(1 + 2N) while the conjugate one stays at the thermal value, so the
    state is pure.
    """
    if bath.n != 1:
        raise ValueError("optimal_squeeze is a single-mode unravelling")
    occ = bath.occupations[0]
    gain_on = 1.0 if occ > 0 else 0.0
    theta = np.diag([1.0, gain_on]).astype(complex)
    upsilon = np.diag([np.exp(-2j * phi), gain_on * np.exp(2j * phi)])
    return UnravellingMatrix(theta, upsilon)


def homodyne_single_unravelling(bath: ThermalBath, phi: float = 0.0) -> UnravellingMatrix:
    """Single-current homodyne monitoring of the bath at angle phi.

    One real increment drives both channels:
    dz_1 = c1 exp(-i phi) dw, dz_2 = -c2 exp(+i phi) dw with
    c1^2 = (N+1)/(2N+1), c2^2 = N/(2N+1). The conditional steady state is
    the thermal CM itself, so this strategy produces no squeezing; at N = 0
    it coincides with the optimal single-mode unravelling.
    """
    if bath.n != 1:
        raise ValueError("homodyne_single is a single-mode unravelling")
    occ = bath.occupations[0]
    c1s = (occ + 1.0) / (2.0 * occ + 1.0)
    c2s = occ / (2.0 * occ + 1.0)
    c12 = np.sqrt(c1s * c2s)
    theta = np.array(
        [
            [c1s, -c12 * np.exp(-2j * phi)],
            [-c12 * np.exp(2j * phi), c2s],
        ]
    )
    upsilon = np.array(
        [
            [c1s * np.exp(-2j * phi), -c12],
            [-c12, c2s * np.exp(2j * phi)],
        ]
    )
    return UnravellingMatrix(theta, upsilon)


def _pure_tms_cm(n_small: float) -> np.ndarray:
    """Pure two-mode squeezed CM, squeezed in (x1 - x2, p1 + p2), with
    smallest partially transposed symplectic eigenvalue 1/(1 + 2 n_small)."""
    r = 0.5 * np.log(1.0 + 2.0 * n_small)
    ch, sh = np.cosh(2.0 * r), np.sinh(2.0 * r)
    sigma = np.diag([ch, ch, ch, ch])
    sigma[0, 2] = sigma[2, 0] = sh
    sigma[1, 3] = sigma[3, 1] = -sh
    return sigma


def optimal_entangling_unravelling(bath: ThermalBath) -> UnravellingMatrix:
    """Nonlocal two-mode monitoring whose steady state is a pure two-mode
    squeezed state.

    Four real currents track the joint quadratures x_1 - x_2 and p_1 + p_2
    (the pair conjugate to the amplified one when a two-mode squeezing
    Hamiltonian is present, which is what lets the monitoring reach the
    spectral entanglement limit). For equal baths the achieved
    log-negativity is log2(1 + 2N); for unequal occupations the reachable
    target is the pure two-mode squeezed state set by N_s = min(N_1, N_2)
    and the correlations are synthesized from that target. Channel ordering
    is (loss_1, gain_1, loss_2, gain_2).
    """
    if bath.n != 2:
        raise ValueError("optimal_entangle is a two-mode unravelling")
    n1, n2 = bath.occupations
    if abs(n1 - n2) <= 1e-12:
        gain_on = 1.0 if n1 > 0 else 0.0
        theta = np.diag([1.0, gain_on, 1.0, gain_on]).astype(complex)
        upsilon = np.zeros((4, 4), dtype=complex)
        upsilon[0, 2] = upsilon[2, 0] = -1.0
        upsilon[1, 3] = upsilon[3, 1] = -gain_on
        return UnravellingMatrix(theta, upsilon)

    # Unequal baths: no simple closed form; build the correlations that make
    # the reachable pure two-mode squeezed state the conditional fixed point.
    from .dynamics import thermal_drift_diffusion
    from .feedback import unravelling_for_target

    dd, couplings = thermal_drift_diffusion(None, bath)
    target = _pure_tms_cm(min(n1, n2))
    return unravelling_for_target(target, dd, couplings)


def nonlocal_homodyne_unravelling(bath: ThermalBath) -> UnravellingMatrix:
    """Two-current homodyne monitoring of x_1 - x_2 and p_1 + p_2.

    Defined for equal baths; the conditional steady state of the free system
    is the thermal CM, so no entanglement is produced. Coincides with the
    optimal entangling unravelling at N = 0.
    """
    if bath.n != 2:
        raise ValueError("homodyne_nonlocal is a two-mode unravelling")
    n1, n2 = bath.occupations
    if abs(n1 - n2) > 1e-12:
        raise ValueError("homodyne_nonlocal requires equal bath occupations")
    occ = n1
    a2 = (occ + 1.0) / (2.0 * (2.0 * occ + 1.0))
    b2 = occ / (2.0 * (2.0 * occ + 1.0))
    ab = np.sqrt(a2 * b2)
    theta = np.zeros((4, 4), dtype=complex)
    theta[0, 0] = theta[2, 2] = 2.0 * a2
    theta[1, 1] = theta[3, 3] = 2.0 * b2
    theta[0, 3] = theta[3, 0] = 2.0 * ab
    theta[1, 2] = theta[2, 1] = 2.0 * ab
    upsilon = np.zeros((4, 4), dtype=complex)
    upsilon[0, 2] = upsilon[2, 0] = -2.0 * a2
    upsilon[1, 3] = upsilon[3, 1] = -2.0 * b2
    upsilon[0, 1] = upsilon[1, 0] = -2.0 * ab
    upsilon[2, 3] = upsilon[3, 2] = -2.0 * ab
    return UnravellingMatrix(theta, upsilon)


def named_unravelling(kind: str, bath: ThermalBath, phi: float = 0.0) -> UnravellingMatrix:
    """Dispatch to one of the standard monitoring schemes by name."""
    if kind == "optimal_squeeze":
        return optimal_squeezing_unravelling(bath, phi)
    if kind == "homodyne_single":
        return homodyne_single_unravelling(bath, phi)
    if kind == "optimal_entangle":
        return optimal_entangling_unravelling(bath)
    if kind == "homodyne_nonlocal":
        return nonlocal_homodyne_unravelling(bath)
    raise ValueError(f"unknown unravelling kind {kind!r}; choose from {UNRAVELLING_KINDS}")
