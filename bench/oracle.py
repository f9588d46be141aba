"""Input generators and reference maths that the benchmark owns.

Inputs come from a numpy Generator that the benchmark seeds itself, never
from ``pdmsi.random``, so a change to the program cannot change a workload.
The reference functions recompute results with plain numpy so the checks do
not trust the code they check.
"""

from __future__ import annotations

import numpy as np

# Thresholds the checks compare against; see bench/README.md.
NEG_ATOL = 1e-10
# Standard errors a sampled correlator may stray from its exact value.
NSIGMA = 6.0


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def pure_state(d: int, rng: np.random.Generator) -> np.ndarray:
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def density_matrix(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def kraus_ops(in_dim: int, out_dim: int, env_dim: int, rng: np.random.Generator) -> list:
    """Kraus operators of a random channel from a Haar Stinespring isometry."""
    v = haar_unitary(out_dim * env_dim, rng)[:, :in_dim]
    blocks = v.reshape(out_dim, env_dim, in_dim)
    return [np.ascontiguousarray(blocks[:, e, :]) for e in range(env_dim)]


def dichotomic(d: int, rng: np.random.Generator) -> np.ndarray:
    """Hermitian observable with spectrum {+1, -1}, both signs present."""
    signs = np.ones(d)
    signs[: int(rng.integers(1, d))] = -1.0
    u = haar_unitary(d, rng)
    return (u * signs) @ u.conj().T


def unit_trace_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-trace Hermitian matrix with at least one eigenvalue <= -0.5/n."""
    lam = rng.standard_normal(n) / n
    lam[0] = -abs(lam[0]) - 0.5 / n
    lam[1:] += (1.0 - lam.sum()) / (n - 1)
    u = haar_unitary(n, rng)
    mat = (u * lam) @ u.conj().T
    return (mat + mat.conj().T) / 2.0


def jamiolkowski(ops) -> np.ndarray:
    """sum_ij |i><j| (x) E(|j><i|) = sum_k [K_k[a, j] conj(K_k[b, i])]_(ia),(jb)."""
    ops = np.asarray(ops)
    _, n, d = ops.shape
    m = np.einsum("kaj,kbi->iajb", ops, ops.conj())
    return m.reshape(d * n, d * n)


def pdm_matrix(rho, ops) -> np.ndarray:
    """(1/2){rho (x) I, M} for the channel with Kraus operators ``ops``."""
    m = jamiolkowski(ops)
    out_dim = np.asarray(ops).shape[1]
    a = np.kron(rho, np.eye(out_dim))
    return 0.5 * (a @ m + m @ a)


def eigenvalues(mat) -> np.ndarray:
    mat = np.asarray(mat)
    return np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)


def t1(mat) -> float:
    lam = eigenvalues(mat)
    return float(2.0 * np.sum(np.abs(lam[lam < -NEG_ATOL])))


def t2(mat) -> float:
    """min ||lam - q||_2 over the probability simplex (sort-and-threshold)."""
    lam = eigenvalues(mat)
    u = np.sort(lam)[::-1]
    css = np.cumsum(u)
    k = np.arange(1, len(u) + 1)
    rho = np.nonzero(u + (1.0 - css) / k > 0)[0][-1]
    q = np.maximum(lam + (1.0 - css[rho]) / (rho + 1.0), 0.0)
    return float(np.linalg.norm(lam - q)) if np.any(lam < -NEG_ATOL) else 0.0


def reference_t1(d: int) -> float:
    """T_1 of a pure basis state sent through the identity channel."""
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    return t1(pdm_matrix(rho, [np.eye(d, dtype=complex)]))


def correlators(mat, mats1, mats2) -> np.ndarray:
    """Tr[R (A (x) B)] for every pair of the stacked observables."""
    d1, d2 = mats1.shape[1], mats2.shape[1]
    r = np.asarray(mat).reshape(d1, d2, d1, d2)
    return np.einsum("ikjl,aji,blk->ab", r, mats1, mats2).real


def sampled_within(values, exact, lams, shots: int) -> bool:
    """Each sampled mean lies within NSIGMA standard errors of its exact value.

    A shot's product outcome is +/-lam1*lam2, so its variance is
    (lam1 lam2)^2 - exact^2; the 1e-9 floor covers deterministic entries.
    """
    var = np.maximum(lams**2 - exact**2, 0.0)
    tol = NSIGMA * np.sqrt(var / shots) + 1e-9
    return bool(np.all(np.abs(values - exact) <= tol))
