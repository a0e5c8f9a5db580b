"""Drift/diffusion construction and unconditional (average) evolution.

A quadratic Hamiltonian (1/2) R^T H R together with jump operators
c = C_tilde R that are linear in the quadratures generates linear moment
dynamics:

    d<R>/dt     = A <R>
    d sigma/dt  = A sigma + sigma A^T + D

with drift A = Omega (H + Im[C~^dag C~]) and diffusion
D = 2 Omega Re[C~^dag C~] Omega^T. A steady state exists when A + A^T < 0.

All rates are expressed in units of the loss rate kappa (kappa = 1), so the
thermal-bath builders carry no explicit rate argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .errors import UnstableSystemError
from .linalg import check_symmetric, lyapunov_solve, max_abs, symmetrize
from .symplectic import CovarianceMatrix, as_matrix, symplectic_form


@dataclass(frozen=True)
class CouplingOperators:
    """Complex L x 2n matrix defining the jump operators c = C_tilde R.

    `c_bar` is the real 2L x 2n stacking (Re C_tilde; Im C_tilde) in that
    order; `s_matrix` is the 2L x 2L block form [[0, 1], [-1, 0]] pairing
    the real and imaginary halves.
    """

    c_tilde: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        c = np.asarray(self.c_tilde, dtype=complex)
        if c.ndim != 2 or c.shape[1] % 2 != 0:
            raise ValueError("coupling matrix must be L x 2n")
        c.setflags(write=False)
        object.__setattr__(self, "c_tilde", c)

    @property
    def num_ops(self) -> int:
        return self.c_tilde.shape[0]

    @property
    def n(self) -> int:
        return self.c_tilde.shape[1] // 2

    @property
    def c_bar(self) -> np.ndarray:
        return np.vstack([self.c_tilde.real, self.c_tilde.imag])

    @property
    def s_matrix(self) -> np.ndarray:
        ell = self.num_ops
        z = np.zeros((ell, ell))
        eye = np.eye(ell)
        return np.block([[z, eye], [-eye, z]])


@dataclass(frozen=True)
class ThermalBath:
    """Independent thermal baths, one mean occupation N_j >= 0 per mode."""

    occupations: tuple[float, ...]

    def __post_init__(self) -> None:
        occ = tuple(float(x) for x in np.atleast_1d(self.occupations))
        if any(x < 0 for x in occ):
            raise ValueError("thermal occupations must be non-negative")
        object.__setattr__(self, "occupations", occ)

    @property
    def n(self) -> int:
        return len(self.occupations)

    @property
    def diffusion(self) -> np.ndarray:
        return np.diag(np.repeat(1.0 + 2.0 * np.asarray(self.occupations), 2))


@dataclass(frozen=True)
class DriftDiffusion:
    """Drift matrix A and symmetric PSD diffusion matrix D (1/time units)."""

    a: np.ndarray = field(repr=False)
    d: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=float)
        d = check_symmetric(np.asarray(self.d, dtype=float), "diffusion matrix")
        if a.shape != d.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("drift and diffusion must be square with equal shape")
        d = symmetrize(d)
        a.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "d", d)

    @property
    def n(self) -> int:
        return self.a.shape[0] // 2

    @cached_property
    def spectrum(self) -> SpectralData:
        """Eigen-decompositions of -(A + A^T) and D, computed once and shared read-only."""
        a_vals, a_vecs = np.linalg.eigh(-(self.a + self.a.T))
        d_vals, d_vecs = np.linalg.eigh(self.d)
        return SpectralData(a_vals, a_vecs, d_vals[::-1].copy(), d_vecs[:, ::-1].copy())


@dataclass(frozen=True)
class SpectralData:
    """Eigen-decompositions of -(A + A^T) (increasing) and D (decreasing)."""

    alphas: np.ndarray = field(repr=False)
    alpha_vectors: np.ndarray = field(repr=False)
    deltas: np.ndarray = field(repr=False)
    delta_vectors: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        for x in (self.alphas, self.alpha_vectors, self.deltas, self.delta_vectors):
            x.setflags(write=False)


class StabilityResult(NamedTuple):
    stable: bool
    alphas: np.ndarray  # increasing eigenvalues of -(A + A^T)


def build_drift_diffusion(h: Optional[np.ndarray], couplings: CouplingOperators) -> DriftDiffusion:
    """Assemble (A, D) from a Hamiltonian matrix and jump operators.

    A = Omega (H + Im[C~^dag C~]),  D = 2 Omega Re[C~^dag C~] Omega^T.
    Pass h=None for a free system.
    """
    n = couplings.n
    omega = symplectic_form(n)
    if h is None:
        h = np.zeros((2 * n, 2 * n))
    h = check_symmetric(np.asarray(h, dtype=float), "Hamiltonian matrix")
    if h.shape[0] != 2 * n:
        raise ValueError("Hamiltonian and coupling dimensions disagree")
    gram = couplings.c_tilde.conj().T @ couplings.c_tilde
    a = omega @ (h + gram.imag)
    d = 2.0 * omega @ gram.real @ omega.T
    return DriftDiffusion(a, symmetrize(d))


def thermal_couplings(bath: ThermalBath) -> CouplingOperators:
    """Canonical loss/gain jump operators for independent thermal baths.

    Mode j contributes sqrt(N_j + 1) * a_j (loss) and sqrt(N_j) * a_j^dag
    (gain), with a_j = (x_j + i p_j)/sqrt(2). Operators are ordered
    (loss_1, gain_1, loss_2, gain_2, ...).
    """
    n = bath.n
    c = np.zeros((2 * n, 2 * n), dtype=complex)
    for j, occ in enumerate(bath.occupations):
        loss = np.sqrt((occ + 1.0) / 2.0)
        gain = np.sqrt(occ / 2.0)
        c[2 * j, 2 * j] = loss
        c[2 * j, 2 * j + 1] = 1j * loss
        c[2 * j + 1, 2 * j] = gain
        c[2 * j + 1, 2 * j + 1] = -1j * gain
    return CouplingOperators(c)


def thermal_drift_diffusion(
    h: Optional[np.ndarray], bath: ThermalBath
) -> tuple[DriftDiffusion, CouplingOperators]:
    """Closed-form (A, D) for a quadratic system damped by thermal baths.

    A = Omega H - 1/2,  D = (+) (1 + 2 N_j) * 1_2 per mode, in units of the
    loss rate. Also returns the canonical coupling operators so downstream
    monitoring code can build measurement matrices. Agrees exactly with
    build_drift_diffusion on the same couplings.
    """
    n = bath.n
    if h is None:
        h = np.zeros((2 * n, 2 * n))
    h = check_symmetric(np.asarray(h, dtype=float), "Hamiltonian matrix")
    if h.shape[0] != 2 * n:
        raise ValueError("Hamiltonian and bath dimensions disagree")
    a = symplectic_form(n) @ h - 0.5 * np.eye(2 * n)
    dd = DriftDiffusion(a, bath.diffusion)
    return dd, thermal_couplings(bath)


def stability_check(dd: DriftDiffusion) -> StabilityResult:
    """A steady state exists iff all eigenvalues of -(A + A^T) are positive."""
    alphas = dd.spectrum.alphas
    return StabilityResult(bool(alphas[0] > 0.0), alphas)


def lyapunov_steady_state(dd: DriftDiffusion) -> CovarianceMatrix:
    """Unique steady-state CM solving A sigma + sigma A^T + D = 0.

    Solved by Bartels-Stewart (scipy); the residual satisfies
    ||A sigma + sigma A^T + D||_max <= 1e-10 * ||D||_max.
    """
    if not stability_check(dd).stable:
        raise UnstableSystemError("drift matrix admits no steady state")
    sigma = lyapunov_solve(dd.a, dd.d)
    residual = max_abs(dd.a @ sigma + sigma @ dd.a.T + dd.d)
    if residual > 1e-10 * max(max_abs(dd.d), 1e-300):
        raise UnstableSystemError(
            f"Lyapunov solve residual {residual:.3e} exceeds tolerance"
        )
    return CovarianceMatrix(sigma)


def evolve_covariance(
    dd: DriftDiffusion, sigma0, t_final: float, steps: int = 2000
) -> np.ndarray:
    """Integrate d sigma/dt = A sigma + sigma A^T + D from sigma0 (RK4).

    Used as an independent cross-check of the direct Lyapunov solve.
    """
    sigma = as_matrix(sigma0).copy()
    h = t_final / steps

    def rhs(s):
        return dd.a @ s + s @ dd.a.T + dd.d

    for _ in range(steps):
        k1 = rhs(sigma)
        k2 = rhs(sigma + 0.5 * h * k1)
        k3 = rhs(sigma + 0.5 * h * k2)
        k4 = rhs(sigma + h * k3)
        sigma = symmetrize(sigma + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
    return sigma

