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


def as_complex_matrix(m, stacked: bool = False) -> np.ndarray:
    """``m`` as one complex square matrix, or as a ``(..., d, d)`` stack when ``stacked``."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or (m.ndim > 2 and not stacked) or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def hermiticity_defect(m) -> float:
    m = np.asarray(m, dtype=complex)
    return float(abs(m - m.conj().swapaxes(-1, -2)).max()) if m.size else 0.0


def check_hermitian(m, atol: float = HERMITICITY_ATOL, stacked: bool = False) -> np.ndarray:
    """Return ``m`` as a complex array, raising NonHermitian beyond ``atol`` or for a non-finite entry."""
    m = as_complex_matrix(m, stacked)
    if not np.isfinite(m).all():
        raise NonHermitian("matrix has non-finite entries")
    defect = hermiticity_defect(m)
    if defect > atol:
        raise NonHermitian(f"matrix is not Hermitian: max|m - m^dag| = {defect:.3e}")
    return m


@dataclass
class EigenDecomposition:
    """Ascending eigenvalues ``(..., d)`` and matching orthonormal eigenvector
    columns ``(..., d, d)``, as ``np.linalg.eigh`` returns them."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eig_hermitian(m, atol: float = HERMITICITY_ATOL) -> EigenDecomposition:
    """``np.linalg.eigh`` of the Hermitian part of ``m``, one matrix or a ``(..., d, d)`` stack,
    after ``check_hermitian`` within ``atol``.

    No phase or tie-order convention is imposed: every reader (T_p, its
    minimizer, the projector witnesses, ``pseudo_inverse``) depends on the
    eigenspaces only, not on the basis chosen within them.
    """
    return _eigh_hermitian_part(check_hermitian(m, atol=atol, stacked=True))


def _eigh_hermitian_part(m: np.ndarray) -> EigenDecomposition:
    """``np.linalg.eigh((m + m^dag) / 2)`` of a complex matrix or ``(..., d, d)`` stack, unchecked:
    for ``eig_hermitian`` after its check, and for a ``pdm.Pdm``, whose matrix its own check covers."""
    w, v = np.linalg.eigh((m + m.conj().swapaxes(-1, -2)) / 2.0)
    return EigenDecomposition(w, v)


def kron(a, b) -> np.ndarray:
    """Kronecker product of the last two axes, broadcast over any leading ones."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])


def pseudo_inverse(m) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a Hermitian matrix, or of each in a ``(..., d, d)`` stack.

    Eigenvalues with ``|lam| <= DEFAULT_RANK_TOL * max|lam|`` are treated as exact
    zeros and excluded, so the zero matrix maps to the zero matrix.
    """
    eig = eig_hermitian(m)
    w, v = eig.eigenvalues, eig.eigenvectors
    keep = np.abs(w) > DEFAULT_RANK_TOL * np.max(np.abs(w), axis=-1, keepdims=True)
    inv = np.divide(1.0, w, out=np.zeros_like(w), where=keep)
    out = (v * inv[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return (out + out.conj().swapaxes(-1, -2)) / 2.0


def project_simplex(v) -> np.ndarray:
    """Euclidean projection onto {q >= 0, sum(q) = 1}, of a vector or of each row.

    Sort-and-threshold construction; non-iterative and exact up to
    floating-point rounding.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim < 1:
        raise DimensionMismatch("project_simplex expects a vector or rows of vectors")
    if not np.isfinite(v).all():
        raise ValueError("project_simplex requires finite entries")
    u = np.sort(v, axis=-1)[..., ::-1]
    shifts = (1.0 - np.cumsum(u, axis=-1)) / np.arange(1, v.shape[-1] + 1)
    # The last k with u_k + shift_k > 0 fixes the shift.
    last = v.shape[-1] - 1 - np.argmax((u + shifts > 0)[..., ::-1], axis=-1)
    return np.maximum(v + np.take_along_axis(shifts, last[..., None], axis=-1), 0.0)


def superop_exp(generator, t) -> np.ndarray:
    """Matrix exponential exp(generator * t) of a superoperator matrix.

    An array of times ``(...)`` gives the ``(..., d^2, d^2)`` stack from one
    ``scipy.linalg.expm`` call, each slice bit-identical to its own call.
    """
    import scipy.linalg

    g = as_complex_matrix(generator)
    return scipy.linalg.expm(g * np.asarray(t, dtype=float)[..., None, None])
