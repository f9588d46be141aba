"""CPTP maps as Kraus-operator lists, entering every kernel as their cached Jamiolkowski matrices."""

from __future__ import annotations

import math

import numpy as np

from .exceptions import DimensionMismatch

TRACE_PRESERVING_ATOL = 1e-10
# Max entry of |u^dag u - I| that unitary_channel accepts.
UNITARITY_ATOL = 1e-10


class KrausChannel:
    """Trace-preserving completely positive map given by Kraus operators.

    Kraus operators are finite ``out_dim x in_dim`` complex matrices
    satisfying ``sum_l K_l^dag K_l = I`` on the input space, entrywise within
    TRACE_PRESERVING_ATOL.  ``kraus`` is a read-only ``(K, out_dim, in_dim)``
    copy of them, made once, and ``kraus_ops`` the tuple of its rows.
    ``jamiolkowski()`` is the channel inside every kernel: its Jamiolkowski
    matrix J, computed from the Kraus operators on the first call and kept
    read-only, so every later call returns the same array.  Past that, only
    ``__call__`` and ``compose`` compute with the Kraus operators.
    ``_closed_form_memo`` is the one ``(key, Pdm)`` entry that
    ``pdm.pdm_closed_form`` keeps for the last state it checked against this
    channel (None until then), read by every later call on that state.
    """

    def __init__(self, kraus_ops):
        ops = [np.asarray(k, dtype=complex) for k in kraus_ops]
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        shape = ops[0].shape
        if len(shape) != 2 or any(k.shape != shape for k in ops):
            raise DimensionMismatch("all Kraus operators must share one 2-D shape")
        if 0 in shape:
            raise DimensionMismatch(f"Kraus operators must not have a zero dimension, got shape {shape}")
        kraus = np.array(ops)
        if not np.isfinite(kraus).all():
            raise ValueError("Kraus operators have non-finite entries")
        self.out_dim, self.in_dim = shape
        # sum_l K_l^dag K_l as one product V^dag V of the operators stacked row-wise.
        v = kraus.reshape(-1, self.in_dim)
        defect = float(abs(v.conj().T @ v - np.eye(self.in_dim)).max())
        if defect > TRACE_PRESERVING_ATOL:
            raise ValueError(f"Kraus operators are not trace preserving: defect {defect:.3e}")
        kraus.flags.writeable = False
        self.kraus = kraus
        self.kraus_ops = tuple(kraus)
        self._jamiolkowski = None
        self._closed_form_memo = None

    def __call__(self, m) -> np.ndarray:
        """Apply the channel to one operator or to a stack of shape (..., in_dim, in_dim)."""
        m = np.asarray(m, dtype=complex)
        if m.shape[-2:] != (self.in_dim, self.in_dim):
            raise DimensionMismatch(
                f"channel expects {self.in_dim}x{self.in_dim} operands, got {m.shape}"
            )
        return _apply(self.kraus, m)

    def jamiolkowski(self) -> np.ndarray:
        """M[i a, j b] = sum_l K_l[a, j] conj(K_l[b, i]), so block (i, j) is channel(|j><i|):
        Hermitian with trace in_dim.  Computed on the first call as one product
        ``vec(K)^T conj(vec(K))`` over the ``(a j)`` flattening of each operator, then a
        transpose to ``(i, a, j, b)``; read-only, and the same array on every later call."""
        if self._jamiolkowski is None:
            n, d = self.out_dim, self.in_dim
            v = self.kraus.reshape(-1, n * d)
            m = (v.T @ v.conj()).reshape(n, d, n, d).transpose(3, 0, 1, 2).reshape(d * n, d * n)
            m.flags.writeable = False
            self._jamiolkowski = m
        return self._jamiolkowski

    def superoperator(self) -> np.ndarray:
        """sum_l K_l (x) conj(K_l) on row-major vectorized operators: the realigned Jamiolkowski matrix."""
        return _superoperator(self.jamiolkowski(), self.in_dim)

    def compose(self, inner: "KrausChannel") -> "KrausChannel":
        """self after inner: (self . inner)(m) = self(inner(m)), with every product of one Kraus
        operator from each, outer-major; the one place Kraus operators are multiplied together."""
        if inner.out_dim != self.in_dim:
            raise DimensionMismatch(
                f"cannot compose: inner produces dim {inner.out_dim}, outer expects {self.in_dim}"
            )
        k = self.kraus[:, None] @ inner.kraus[None]
        return KrausChannel(k.reshape(-1, self.out_dim, inner.in_dim))

    def __repr__(self):
        return f"KrausChannel({len(self.kraus_ops)} ops, {self.in_dim}->{self.out_dim})"


def _apply(kraus, m) -> np.ndarray:
    """``sum_l K_l m K_l^dag`` for Kraus stacks ``(..., K, out, in)`` and operands ``(..., in, in)``."""
    return np.sum(kraus @ np.expand_dims(m, -3) @ kraus.conj().swapaxes(-1, -2), axis=-3)


def _superoperator(m, d_in: int) -> np.ndarray:
    """Superoperators of Jamiolkowski matrices ``(..., d_in d_out, d_in d_out)``, realigned:
    ``S[a b, j i] = M[i a, j b]``, so ``vec(ch(rho)) = S vec(rho)`` on row-major vectors."""
    lead, n = np.shape(m)[:-2], np.shape(m)[-1] // d_in
    m = np.reshape(m, (*lead, d_in, n, d_in, n))  # axes (..., i, a, j, b)
    return np.moveaxis(m, (-4, -3, -1), (-1, -4, -3)).reshape(*lead, n * n, d_in * d_in)


def _from_superoperator(s, d_in: int) -> np.ndarray:
    """Jamiolkowski matrices of superoperators ``(..., d_out^2, d_in^2)``: ``M[i a, j b] = S[a b, j i]``,
    the inverse of ``_superoperator``.  The product of two superoperators is the composed channel's,
    so a composition from Jamiolkowski matrices is one d^2 x d^2 product whatever the Kraus counts."""
    lead, n = np.shape(s)[:-2], math.isqrt(np.shape(s)[-2])
    s = np.reshape(s, (*lead, n, n, d_in, d_in))  # axes (..., a, b, j, i)
    return np.moveaxis(s, (-1, -4, -2), (-4, -3, -2)).reshape(*lead, d_in * n, d_in * n)


def identity_channel(d: int = 2) -> KrausChannel:
    return KrausChannel([np.eye(d, dtype=complex)])


def dephasing_channel(d: int = 2) -> KrausChannel:
    """The fully decohering map Delta, Kraus set {|i><i|}."""
    eye = np.eye(d, dtype=complex)
    return KrausChannel(eye[:, :, None] * eye[:, None, :])  # unit k: eye[k, i] eye[k, j] at (i, j)


def unitary_channel(u) -> KrausChannel:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionMismatch("unitary must be square")
    if float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))) > UNITARITY_ATOL:
        raise ValueError("matrix is not unitary")
    return KrausChannel([u])


def amplitude_damping_channel(gamma: float) -> KrausChannel:
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return KrausChannel([k0, k1])


def depolarizing_channel(p: float, d: int = 2) -> KrausChannel:
    """rho -> (1 - p) rho + p I/d for any dimension d."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    ops = [np.sqrt(1.0 - p) * np.eye(d, dtype=complex)]
    if p > 0.0:
        # The d^2 matrix units |i><j|, in row i d + j, as one scaled stack.
        ops.extend(np.sqrt(p / d) * np.eye(d * d).reshape(d * d, d, d))
    return KrausChannel(ops)
