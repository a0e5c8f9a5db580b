"""Phase-space linear algebra for Gaussian states.

Conventions used everywhere in this package:

* quadrature ordering (x1, p1, ..., xn, pn),
* hbar = 1, vacuum covariance matrix = identity,
* logarithms in base 2 for all entanglement quantities.

A covariance matrix (CM) collects the symmetrized second moments of the
quadratures; it describes a physical Gaussian state exactly when
sigma + i*Omega >= 0 with Omega the symplectic form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .linalg import check_symmetric, min_eigenvalue, psd_tolerance, symmetrize


def symplectic_form(n: int) -> np.ndarray:
    """The 2n x 2n symplectic form: block diagonal [[0, 1], [-1, 0]] per mode."""
    if n < 1:
        raise ValueError("mode count must be >= 1")
    omega = np.zeros((2 * n, 2 * n))
    for j in range(n):
        omega[2 * j, 2 * j + 1] = 1.0
        omega[2 * j + 1, 2 * j] = -1.0
    return omega


@dataclass(frozen=True)
class CovarianceMatrix:
    """A validated 2n x 2n covariance matrix in (x1, p1, ..., xn, pn) ordering.

    Construction enforces symmetry (within 1e-10 relative) and strict
    positive definiteness. Physicality (the uncertainty relation) is a
    separate, tolerance-based test, see :func:`physicality_check`.
    """

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        m = check_symmetric(np.asarray(self.matrix, dtype=float), "covariance matrix")
        if m.shape[0] % 2 != 0:
            raise ValueError("covariance matrix must have even dimension")
        m = symmetrize(m)
        if min_eigenvalue(m) <= 0.0:
            raise ValueError("covariance matrix must be positive definite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0] // 2

    @classmethod
    def vacuum(cls, n: int) -> "CovarianceMatrix":
        return cls(np.eye(2 * n))

    @classmethod
    def thermal(cls, occupations) -> "CovarianceMatrix":
        """Product thermal state, (1 + 2*N_j) * identity on each mode."""
        occupations = np.atleast_1d(np.asarray(occupations, dtype=float))
        diag = np.repeat(1.0 + 2.0 * occupations, 2)
        return cls(np.diag(diag))


def as_matrix(sigma) -> np.ndarray:
    """Accept a CovarianceMatrix or a raw array and return the ndarray."""
    if isinstance(sigma, CovarianceMatrix):
        return sigma.matrix
    return np.asarray(sigma, dtype=float)


@dataclass(frozen=True)
class Bipartition:
    """A split of n modes into an untouched side and a transposed side.

    `transposed` holds the indices (0-based) of the modes whose momenta are
    sign-flipped under partial transposition.
    """

    n: int
    transposed: frozenset[int]

    def __post_init__(self) -> None:
        transposed = frozenset(int(k) for k in self.transposed)
        if not transposed or len(transposed) >= self.n:
            raise ValueError("bipartition must leave modes on both sides")
        if any(k < 0 or k >= self.n for k in transposed):
            raise ValueError("transposed mode index out of range")
        object.__setattr__(self, "transposed", transposed)

    @classmethod
    def last_modes(cls, n: int, m: int = 1) -> "Bipartition":
        """Transpose the last m of n modes."""
        return cls(n, frozenset(range(n - m, n)))

    @property
    def t_matrix(self) -> np.ndarray:
        """Diagonal +/-1 matrix flipping momenta on the transposed side."""
        d = np.ones(2 * self.n)
        for k in self.transposed:
            d[2 * k + 1] = -1.0
        return np.diag(d)

    @property
    def pt_form(self) -> np.ndarray:
        """Partially transposed symplectic form T Omega T."""
        t = self.t_matrix
        return t @ symplectic_form(self.n) @ t


class PhysicalityResult(NamedTuple):
    physical: bool
    margin: float


def physicality_check(sigma) -> PhysicalityResult:
    """Test the uncertainty relation sigma + i*Omega >= 0.

    Returns the verdict together with the smallest eigenvalue of the
    Hermitian matrix sigma + i*Omega (the margin; 0 for pure states).
    """
    m = as_matrix(sigma)
    m = check_symmetric(m, "covariance matrix")
    n = m.shape[0] // 2
    if m.shape[0] % 2 != 0:
        raise ValueError("covariance matrix must have even dimension")
    herm = m.astype(complex) + 1j * symplectic_form(n)
    margin = float(np.linalg.eigvalsh(herm)[0])
    return PhysicalityResult(margin >= -psd_tolerance(m), margin)


def symplectic_eigenvalues(sigma) -> np.ndarray:
    """Symplectic spectrum of a positive definite CM, sorted increasingly.

    Computed as the moduli of the eigenvalues of i*Omega*sigma, which come
    in pairs (+nu, -nu); physical states have all nu >= 1, pure states
    all nu = 1.
    """
    m = as_matrix(sigma)
    n = m.shape[0] // 2
    if min_eigenvalue(m) <= 0.0:
        raise ValueError("covariance matrix must be positive definite")
    vals = np.abs(np.linalg.eigvals(1j * symplectic_form(n) @ m))
    return np.sort(vals)[::2][:n]


def pt_min_symplectic_eigenvalue(sigma, bipartition: Bipartition) -> float:
    """Smallest symplectic eigenvalue of the partially transposed CM."""
    m = as_matrix(sigma)
    if m.shape[0] != 2 * bipartition.n:
        raise ValueError("bipartition does not match covariance matrix size")
    vals = np.abs(np.linalg.eigvals(1j * bipartition.pt_form @ m))
    return float(np.min(vals))


def log_negativity(sigma, bipartition: Bipartition) -> float:
    """Logarithmic negativity max(0, -log2(nu_min)) across the bipartition.

    Eigenvalues within 1e-12 of 1 count as separable, so product states
    report exactly zero despite eigensolver rounding.
    """
    nu = pt_min_symplectic_eigenvalue(sigma, bipartition)
    if nu >= 1.0 - 1e-12:
        return 0.0
    return -float(np.log2(nu))


def purity(sigma) -> float:
    """Gaussian purity 1/sqrt(det sigma); equals 1 for pure states."""
    return float(1.0 / np.sqrt(np.linalg.det(as_matrix(sigma))))
