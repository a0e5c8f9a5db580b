"""Small dense linear-algebra helpers used throughout the package.

Everything here operates on plain numpy arrays; the matrices are small
(2n <= 40), so direct dense methods are always the right tool. Linear
matrix equations go through scipy's Schur-based solvers: Bartels-Stewart
for the Lyapunov equation here, Laub's Schur method for the conditional
Riccati equation in `conditioning.solve_riccati`. Both cost O(d^3) in the
matrix size d.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_continuous_lyapunov

from .errors import PhysicalityError

# Relative tolerance for symmetry checks on inputs.
SYMMETRY_RTOL = 1e-10
# Negative eigenvalues down to this size count as rounding in `psd_sqrt`.
PSD_SQRT_CLIP = 1e-12


def max_abs(m: np.ndarray) -> float:
    """Max-norm of a matrix (0 for empty input)."""
    return float(np.max(np.abs(m))) if m.size else 0.0


def symmetrize(m: np.ndarray) -> np.ndarray:
    """(M + M^T)/2, suppressing rounding asymmetry."""
    return (m + m.T) / 2.0


def psd_tolerance(m: np.ndarray) -> float:
    """Eigenvalue tolerance for semidefiniteness tests, scaled to the matrix."""
    return 1e-8 * max(1.0, max_abs(m))


def check_square(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def check_symmetric(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate symmetry within SYMMETRY_RTOL * max|m| and return the array."""
    m = check_square(m, name)
    if max_abs(m - m.T) > SYMMETRY_RTOL * max(1.0, max_abs(m)):
        raise ValueError(f"{name} is not symmetric within tolerance")
    return m


def min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric (or Hermitian) matrix."""
    return float(np.linalg.eigvalsh(m)[0])


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Symmetric square root of a PSD matrix.

    Eigenvalues in [-PSD_SQRT_CLIP, 0) are treated as rounding noise and
    clipped to zero; anything more negative raises PhysicalityError.
    """
    m = symmetrize(np.asarray(m, dtype=float))
    vals, vecs = np.linalg.eigh(m)
    if vals[0] < -PSD_SQRT_CLIP:
        raise PhysicalityError(
            f"matrix is not positive semidefinite (min eigenvalue {vals[0]:.3e})"
        )
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def lyapunov_solve(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Solve A X + X A^T + D = 0 for symmetric X (Bartels-Stewart, via scipy).

    Well-posed when no two eigenvalues of A sum to zero, e.g. A Hurwitz.
    """
    return symmetrize(solve_continuous_lyapunov(a, -np.asarray(d, dtype=float)))
