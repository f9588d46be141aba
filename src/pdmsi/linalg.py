"""Dense complex linear-algebra kernel for small Hermitian problems.

Everything here is a pure function over numpy arrays; dimensions in this
package stay at or below a few qubits, so all paths are dense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatch, NonHermitian

HERMITICITY_ATOL = 1e-12
DEFAULT_RANK_TOL = 1e-10


def as_complex_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def hermiticity_defect(m) -> float:
    m = np.asarray(m, dtype=complex)
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def check_hermitian(m, atol: float = HERMITICITY_ATOL) -> np.ndarray:
    """Return ``m`` as a complex array, raising NonHermitian beyond ``atol``."""
    m = as_complex_matrix(m)
    defect = hermiticity_defect(m)
    if defect > atol:
        raise NonHermitian(f"matrix is not Hermitian: max|m - m^dag| = {defect:.3e}")
    return m


@dataclass
class EigenDecomposition:
    """Spectral data of a Hermitian matrix.

    ``eigenvalues`` ascend; ``eigenvectors`` holds the matching orthonormal
    columns with a deterministic phase (first nonzero entry real positive)
    and a lexicographic column order within degenerate groups.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def _fix_phase(column: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    for entry in column:
        if abs(entry) > tol:
            return column * (entry.conjugate() / abs(entry))
    return column


def eig_hermitian(m, atol: float = HERMITICITY_ATOL) -> EigenDecomposition:
    """Eigendecomposition with deterministic ordering and phases."""
    m = check_hermitian(m, atol=atol)
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    v = np.column_stack([_fix_phase(v[:, k]) for k in range(v.shape[1])])

    # Within a numerically degenerate group, order columns lexicographically
    # by (real, imag) entries so repeated runs produce identical vectors.
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 1.0)
    tie = 1e-12 * scale
    order = np.arange(len(w))
    start = 0
    while start < len(w):
        stop = start + 1
        while stop < len(w) and abs(w[stop] - w[start]) <= tie:
            stop += 1
        if stop - start > 1:
            group = sorted(
                range(start, stop),
                key=lambda k: tuple((float(x.real), float(x.imag)) for x in v[:, k]),
            )
            order[start:stop] = group
        start = stop
    v = v[:, order]
    w = w[order]
    return EigenDecomposition(np.asarray(w, dtype=float), v)


def kron(a, b) -> np.ndarray:
    """Kronecker product."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def anticommutator(a, b) -> np.ndarray:
    """{A, B} = AB + BA."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimensionMismatch(f"anticommutator requires equal shapes, got {a.shape} and {b.shape}")
    return a @ b + b @ a


def pseudo_inverse(m, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a Hermitian matrix.

    Eigenvalues with ``|lam| <= rank_tol * max|lam|`` are treated as exact
    zeros and excluded, so the zero matrix maps to the zero matrix.
    """
    eig = eig_hermitian(m)
    w = eig.eigenvalues
    top = float(np.max(np.abs(w))) if w.size else 0.0
    if top == 0.0:
        return np.zeros_like(eig.eigenvectors)
    mask = np.abs(w) > rank_tol * top
    inv = np.zeros_like(w)
    inv[mask] = 1.0 / w[mask]
    v = eig.eigenvectors
    out = (v * inv) @ v.conj().T
    return (out + out.conj().T) / 2.0


def project_simplex(v) -> np.ndarray:
    """Euclidean projection onto {q >= 0, sum(q) = 1}.

    Sort-and-threshold construction; non-iterative and exact up to
    floating-point rounding.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch("project_simplex expects a 1-D vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("project_simplex requires finite entries")
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, len(v) + 1)
    feasible = u + (1.0 - css) / ks > 0
    rho = int(np.nonzero(feasible)[0][-1])
    shift = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + shift, 0.0)


def superop_exp(generator, t: float) -> np.ndarray:
    """Matrix exponential exp(generator * t) of a superoperator matrix."""
    import scipy.linalg

    g = as_complex_matrix(generator)
    return scipy.linalg.expm(g * float(t))


def trace_norm(m) -> float:
    """Schatten-1 norm of a Hermitian matrix as sum |eigenvalues|."""
    return float(np.sum(np.abs(np.linalg.eigvalsh(check_hermitian(m, atol=1e-9)))))


def schatten_norm(m, p: float) -> float:
    """Schatten-p norm via singular values (no symmetry assumption)."""
    s = np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)
    if np.isinf(p):
        return float(np.max(s)) if s.size else 0.0
    return float(np.sum(s**p) ** (1.0 / p))


def partial_trace(m, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one factor of a bipartite operator on C^{d1} x C^{d2}."""
    d1, d2 = dims
    m = as_complex_matrix(m)
    if m.shape[0] != d1 * d2:
        raise DimensionMismatch(f"operator of dim {m.shape[0]} does not match dims {dims}")
    t = m.reshape(d1, d2, d1, d2)
    if keep == 0:
        return np.trace(t, axis1=1, axis2=3)
    if keep == 1:
        return np.trace(t, axis1=0, axis2=2)
    raise ValueError("keep must be 0 or 1")
