"""Synthesis of monitoring for a target conditional state, the driving gain
that cancels conditional-mean fluctuations, and the resulting average
closed-loop dynamics.

Given a physical and stabilising target CM sigma_c, a noise-correlation
matrix U with

    2 E^T U E = D + A sigma_c + sigma_c A^T,   E = C_bar sigma_c + S C_bar Omega,

makes sigma_c the conditional steady state. The linear drive proportional to
the measurement record with gain B_opt = -sigma_c C^T - Gamma^T removes the
stochastic motion of the conditional means entirely, so the average state
coincides with the conditional one. For a general gain B the average CM obeys
d sigma/dt = A' sigma + sigma A'^T + D' with

    A' = A + B C,
    D' = D + B Gamma + Gamma^T B^T + B B^T,

(derived by adding the drive B y(t) to the conditional-mean equation and
averaging; with B = B_opt the noise gain vanishes and the Lyapunov steady
state of (A', D') is exactly sigma_c).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conditioning import MeasurementSetup, UnravellingMatrix
from .dynamics import CouplingOperators, DriftDiffusion
from .errors import ConvergenceError, NotStabilisingError, PhysicalityError
from .linalg import max_abs, symmetrize
from .symplectic import as_matrix, physicality_check, symplectic_form

# Relative residual of 2 E^T U E = W that `unravelling_for_target` accepts.
_TARGET_RESIDUAL_RTOL = 1e-8


@dataclass(frozen=True)
class FeedbackLaw:
    """Drive gain mapping the 2L-component record into linear driving."""

    b: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        b = np.asarray(self.b, dtype=float)
        if b.ndim != 2 or not np.all(np.isfinite(b)):
            raise ValueError("feedback gain must be a finite 2n x 2L matrix")
        b.setflags(write=False)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class ClosedLoop:
    """Average dynamics (A', D') under record-proportional driving."""

    a: np.ndarray = field(repr=False)
    d: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=float)
        d = symmetrize(np.asarray(self.d, dtype=float))
        a.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "d", d)

    def as_drift_diffusion(self) -> DriftDiffusion:
        return DriftDiffusion(self.a, self.d)


def unravelling_for_target(
    sigma_c, dd: DriftDiffusion, couplings: CouplingOperators
) -> UnravellingMatrix:
    """Construct a monitoring choice whose conditional steady state is sigma_c.

    Solves 2 E^T U E = D + A sigma_c + sigma_c A^T by the minimum-norm
    least-squares solution U = E^+T (RHS/2) E^+, projects onto the PSD cone
    (eigenvalue clipping at zero) and re-checks the residual. The solution is
    generally not unique; this returns one representative.
    """
    sigma = as_matrix(sigma_c)
    phys = physicality_check(sigma)
    if not phys.physical:
        raise PhysicalityError(
            f"target CM violates the uncertainty relation (margin {phys.margin:.3e})"
        )
    w = symmetrize(dd.d + dd.a @ sigma + sigma @ dd.a.T)
    w_eigs = np.linalg.eigvalsh(w)
    tol = 1e-8 * max(1.0, max_abs(w))
    if w_eigs[0] < -tol:
        raise NotStabilisingError(
            f"target CM is not stabilising (margin {w_eigs[0]:.3e})"
        )

    c_bar = couplings.c_bar
    omega = symplectic_form(couplings.n)
    e = c_bar @ sigma + couplings.s_matrix @ c_bar @ omega
    e_pinv = np.linalg.pinv(e)
    u = symmetrize(e_pinv.T @ (w / 2.0) @ e_pinv)

    # PSD projection: clip rounding-level negative eigenvalues.
    vals, vecs = np.linalg.eigh(u)
    u = (vecs * np.clip(vals, 0.0, None)) @ vecs.T

    residual = max_abs(2.0 * e.T @ u @ e - w)
    if residual > _TARGET_RESIDUAL_RTOL * max(1.0, max_abs(w)):
        raise ConvergenceError(
            f"no PSD monitoring solution within residual tolerance "
            f"(residual {residual:.3e})"
        )
    return UnravellingMatrix.from_u_matrix(u)


def feedback_gain(sigma_c, m: MeasurementSetup) -> FeedbackLaw:
    """Record gain B_opt = -sigma_c C^T - Gamma^T cancelling the conditional means."""
    sigma = as_matrix(sigma_c)
    if m.c.shape[1] != sigma.shape[0]:
        raise ValueError("measurement and covariance dimensions disagree")
    return FeedbackLaw(-sigma @ m.c.T - m.gamma.T)


def closed_loop(dd: DriftDiffusion, m: MeasurementSetup, fb: FeedbackLaw) -> ClosedLoop:
    """Average dynamics under the drive B y(t)."""
    b = fb.b
    if b.shape != (dd.a.shape[0], m.c.shape[0]):
        raise ValueError("feedback gain dimensions disagree with system/measurement")
    a_prime = dd.a + b @ m.c
    d_prime = dd.d + b @ m.gamma + m.gamma.T @ b.T + b @ b.T
    return ClosedLoop(a_prime, symmetrize(d_prime))
