"""Reference routines that only the tests use, kept beside them as oracles."""

import numpy as np

from pdmsi.exceptions import DimensionMismatch


def anticommutator(a, b) -> np.ndarray:
    """{A, B} = AB + BA."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimensionMismatch(f"anticommutator requires equal shapes, got {a.shape} and {b.shape}")
    return a @ b + b @ a


def trace_norm(m) -> float:
    """Schatten-1 norm of a Hermitian matrix as sum |eigenvalues|."""
    return float(np.sum(np.abs(np.linalg.eigvalsh(np.asarray(m, dtype=complex)))))


def schatten_norm(m, p: float) -> float:
    """Schatten-p norm via singular values (no symmetry assumption)."""
    s = np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)
    if np.isinf(p):
        return float(np.max(s)) if s.size else 0.0
    return float(np.sum(s**p) ** (1.0 / p))


def partial_trace(m, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one factor of a bipartite operator on C^{d1} x C^{d2}."""
    d1, d2 = dims
    t = np.asarray(m, dtype=complex).reshape(d1, d2, d1, d2)
    return np.trace(t, axis1=1, axis2=3) if keep == 0 else np.trace(t, axis1=0, axis2=2)


def channels_equal(a, b, atol: float = 1e-9) -> bool:
    """Action equality (Kraus lists are gauge dependent, so compare Jamiolkowski forms)."""
    if (a.in_dim, a.out_dim) != (b.in_dim, b.out_dim):
        return False
    return float(np.max(np.abs(a.jamiolkowski() - b.jamiolkowski()))) <= atol


def dephase(m) -> np.ndarray:
    """Delete all off-diagonal entries in the computational basis."""
    return np.diag(np.diag(np.asarray(m, dtype=complex)))
