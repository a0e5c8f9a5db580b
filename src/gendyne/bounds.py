"""Spectral limits on steady-state squeezing and entanglement.

Everything here depends only on the eigenvalues/eigenvectors of
A_tilde = -(A + A^T) (increasing, alpha_1 <= alpha_2 <= ...) and of the
diffusion matrix D (decreasing, delta_1 >= delta_2 >= ...):

* smallest reachable CM eigenvalue:   lambda_1 >= alpha_1 / delta_1
* largest-pair product:               lambda'_1 lambda'_2 <= (delta_1 + delta_2)^2 / (4 alpha_1 alpha_2)
* log-negativity:                     E_N <= max[0, log2((delta_1 + delta_2)/(2 sqrt(alpha_1 alpha_2)))]

The limits hold for any conditional steady state of a continuously
monitored Gaussian system with those (A, D), hence for any average state
reachable with record-proportional driving. The tightness predicates decide
whether eigenvectors exist that allow saturation; they are evaluated as
subspace problems so that degenerate spectra (the generic thermal case) are
handled exactly, with no numerical search.
"""

from __future__ import annotations

import numpy as np

from .dynamics import DriftDiffusion, SpectralData, stability_check
from .errors import UnstableSystemError
from .symplectic import Bipartition, symplectic_form

minimize = None  # perfbench/tracing.py wraps this name; nothing here calls an optimizer

# Residual below which the saturation conditions count as satisfied.
TIGHTNESS_TOL = 1e-6


def _require_stable(dd: DriftDiffusion) -> SpectralData:
    if not stability_check(dd).stable:
        raise UnstableSystemError("bounds are defined for stable drift only")
    return dd.spectrum


def squeezing_bound(dd: DriftDiffusion) -> float:
    """Lower limit alpha_1/delta_1 on the smallest steady-state CM eigenvalue."""
    spec = _require_stable(dd)
    return float(spec.alphas[0] / spec.deltas[0])


def eig_product_bound(dd: DriftDiffusion) -> float:
    """Upper limit on the product of the two largest CM eigenvalues."""
    spec = _require_stable(dd)
    return float(
        (spec.deltas[0] + spec.deltas[1]) ** 2 / (4.0 * spec.alphas[0] * spec.alphas[1])
    )


def pt_nu_lower_bound(dd: DriftDiffusion) -> float:
    """Lower limit on the smallest partially transposed symplectic eigenvalue."""
    spec = _require_stable(dd)
    return float(
        2.0
        * np.sqrt(spec.alphas[0] * spec.alphas[1])
        / (spec.deltas[0] + spec.deltas[1])
    )


def entanglement_bound(dd: DriftDiffusion) -> float:
    """Upper limit on the steady-state logarithmic negativity, in bits."""
    return max(0.0, -float(np.log2(pt_nu_lower_bound(dd))))


def _eigenspace(values: np.ndarray, vectors: np.ndarray, index: int) -> np.ndarray:
    """Orthonormal basis of the eigenspace containing eigenvalue `index`.

    Eigenvalues within 1e-8 * max(1, |values|_max) are treated as degenerate.
    """
    tol = 1e-8 * max(1.0, float(np.max(np.abs(values))))
    mask = np.abs(values - values[index]) <= tol
    return vectors[:, mask]


def tightness_squeezing(dd: DriftDiffusion) -> bool:
    """Can the squeezing limit be reached?

    True when the extremal eigenspaces of -(A + A^T) and D intersect, i.e.
    a common direction carries both the weakest damping and the strongest
    noise (principal angle below 1e-6). The singular values of the part of
    E_delta orthogonal to E_alpha are the sines of the principal angles.
    """
    spec = _require_stable(dd)
    e_alpha = _eigenspace(spec.alphas, spec.alpha_vectors, 0)
    e_delta = _eigenspace(spec.deltas[::-1], spec.delta_vectors[:, ::-1], len(spec.deltas) - 1)
    sines = np.linalg.svd(e_delta - e_alpha @ (e_alpha.T @ e_delta), compute_uv=False)
    return bool(sines[-1] < TIGHTNESS_TOL)


def tightness_entanglement(dd: DriftDiffusion, bipartition: Bipartition) -> bool:
    """Can the entanglement limit be reached across this bipartition?

    Decides whether the (possibly degenerate) extremal eigenspaces hold
    vectors satisfying the saturation conditions: alpha_1 and alpha_2 are the
    Hadamard combinations (delta_1 -+ delta_2)/sqrt(2) of extremal noise
    directions, alpha_2 = Omega^T Omega_pt Omega alpha_1, the partial
    transposition expectation <alpha_1|T|alpha_1> vanishes, and the
    underlying orthogonality constraints <alpha_1|alpha_2> = 0 and
    <alpha_2|Omega|alpha_1> = 0 hold. Both Hadamard sign choices reduce to
    the same subspace-membership conditions. These reduce to linear ones plus
    one +-1 form, so the answer is exact (tolerance 1e-6), with no search.
    """
    spec = _require_stable(dd)
    dim = dd.a.shape[0]
    if dim < 4:
        raise ValueError("entanglement tightness needs at least two modes")
    if 2 * bipartition.n != dim:
        raise ValueError("bipartition does not match system size")

    e1 = _eigenspace(spec.alphas, spec.alpha_vectors, 0)
    # alpha_2-eigenspace: the one containing the second-smallest eigenvalue.
    e2 = _eigenspace(spec.alphas, spec.alpha_vectors, 1)
    d_asc = spec.deltas[::-1]
    d_vecs_asc = spec.delta_vectors[:, ::-1]
    ed1 = _eigenspace(d_asc, d_vecs_asc, dim - 1)
    ed2 = _eigenspace(d_asc, d_vecs_asc, dim - 2)

    omega = symplectic_form(bipartition.n)
    w = omega.T @ bipartition.pt_form @ omega
    eye = np.eye(dim)

    def proj_out(basis: np.ndarray) -> np.ndarray:
        return eye - basis @ basis.T

    # W is antisymmetric, so <a1|W|a1> = 0; <W a1|Omega|a1> is a +-1 form G and
    # (T - G)/2 projects onto the transposed x quadratures: one more linear map.
    g = (w.T @ omega + omega.T @ w) / 2.0
    # Linear conditions on alpha_1 (alpha_2 = W alpha_1 is built in).
    linear_maps = [
        proj_out(e2) @ w,
        proj_out(ed1) @ (eye + w) / np.sqrt(2.0),
        proj_out(ed2) @ (eye - w) / np.sqrt(2.0),
        (bipartition.t_matrix - g) / 2.0,
    ]

    # Restrict to the nullspace of the stacked linear conditions within e1.
    stacked = np.vstack([lm @ e1 for lm in linear_maps])
    _, svals, vt = np.linalg.svd(stacked, full_matrices=True)
    q1 = e1 @ vt[svals <= TIGHTNESS_TOL].T
    if q1.shape[1] == 0:
        return False

    # On unit v = q1 x, <v|G|v> = 1 - 2|Q_- x|^2 with Q_- the rows of q1 where
    # G = -1; it spans 1 - 2 [s_max^2, s_min^2], s^2 the spectrum of Q_-^T Q_-.
    minus = q1[np.diag(g) < 0.0]
    s2 = np.linalg.svd(minus.T @ minus, compute_uv=False)
    return bool(1.0 - 2.0 * s2[0] <= TIGHTNESS_TOL and 1.0 - 2.0 * s2[-1] >= -TIGHTNESS_TOL)
