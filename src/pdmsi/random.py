"""Seeded random generators for property tests and sweeps.

Every function takes an explicit ``numpy.random.Generator``; nothing here
touches global RNG state.
"""

from __future__ import annotations

import numpy as np

from .channels import KrausChannel


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a Ginibre matrix."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def haar_isometry(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    if rows < cols:
        raise ValueError("isometry needs rows >= cols")
    return haar_unitary(rows, rng)[:, :cols]


def pure_state(d: int, rng: np.random.Generator) -> np.ndarray:
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return psi / np.linalg.norm(psi)


def density_matrix(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def incoherent_state(d: int, rng: np.random.Generator) -> np.ndarray:
    return np.diag(rng.dirichlet(np.ones(d)).astype(complex))


def hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (h + h.conj().T) / 2.0


def unit_trace_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random Hermitian shifted to unit trace; negative eigenvalues allowed."""
    h = hermitian(d, rng)
    return h + (1.0 - np.trace(h).real) / d * np.eye(d)


def channel(in_dim: int, out_dim: int | None = None, env_dim: int = 4, *, rng: np.random.Generator) -> KrausChannel:
    """Random CPTP map from a Haar-random Stinespring isometry."""
    out_dim = in_dim if out_dim is None else out_dim
    v = haar_isometry(out_dim * env_dim, in_dim, rng)
    blocks = v.reshape(out_dim, env_dim, in_dim)
    return KrausChannel([blocks[:, e, :] for e in range(env_dim)])


def oi_channel(d: int, rng: np.random.Generator) -> KrausChannel:
    """Random off-diagonal-independent map: m -> sum_i m_ii sigma_i, with Kraus set
    {sqrt(w_ia) |v_ia><i| : w_ia > 1e-12} over the eigenpairs of the d random states sigma_i."""
    w, v = np.linalg.eigh(np.array([density_matrix(d, rng) for _ in range(d)]))
    i, a = np.nonzero(w > 1e-12)  # row-major: the Kraus operators in (i, a) order
    # The conjugated complex unit row |i><i| gives outer(v, <i|) its signed zeros.
    units = np.eye(d, dtype=complex)[i].conj()
    return KrausChannel(np.sqrt(w[i, a])[:, None, None] * (v[i, :, a][:, :, None] * units[:, None, :]))


def stochastic_matrix(d: int, rng: np.random.Generator) -> np.ndarray:
    """Column-stochastic nonnegative matrix."""
    return rng.dirichlet(np.ones(d), size=d).T


def dichotomic_observable(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random Hermitian with spectrum in {+1, -1}, both signs present."""
    signs = np.ones(d)
    n_minus = int(rng.integers(1, d))
    signs[rng.choice(d, size=n_minus, replace=False)] = -1.0
    u = haar_unitary(d, rng)
    return (u * signs) @ u.conj().T
