"""Basic state constructors and density-matrix validation."""

from __future__ import annotations

import numpy as np

from .exceptions import DimensionMismatch
from .linalg import check_hermitian

DENSITY_ATOL = 1e-10


def ket(i: int, d: int = 2) -> np.ndarray:
    if not 0 <= i < d:
        raise DimensionMismatch(f"basis index {i} out of range for dimension {d}")
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return v


def ketbra(i: int, j: int, d: int = 2) -> np.ndarray:
    """Matrix unit |i><j|."""
    return np.outer(ket(i, d), ket(j, d).conj())


def projector(psi) -> np.ndarray:
    """|psi><psi| from a (not necessarily normalized) vector."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1:
        raise DimensionMismatch(f"projector needs a 1-D vector, got shape {psi.shape}")
    norm = np.linalg.norm(psi)
    if norm == 0:
        raise ValueError("cannot project onto the zero vector")
    psi = psi / norm
    return np.outer(psi, psi.conj())


def maximally_mixed(d: int) -> np.ndarray:
    return np.eye(d, dtype=complex) / d


def plus_state() -> np.ndarray:
    return np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def check_density_matrix(rho) -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity within DENSITY_ATOL; returns the matrix as complex."""
    rho = check_hermitian(rho, atol=DENSITY_ATOL)
    tr = float(rho.trace().real)
    if abs(tr - 1.0) > DENSITY_ATOL:
        raise ValueError(f"density matrix must have unit trace, got {tr!r}")
    lo = float(np.linalg.eigvalsh(rho)[0])
    if lo < -DENSITY_ATOL:
        raise ValueError(f"density matrix must be positive semidefinite, min eigenvalue {lo:.3e}")
    return rho

