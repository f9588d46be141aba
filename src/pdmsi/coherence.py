"""Channel classification in the coherence hierarchy and block-positivity tests.

Classes are defined by exact composition identities with the fully
decohering map Delta, checked on all matrix units:

    OI (off-diagonal independent):  ch = ch . Delta
    CE (coherence erasing):         ch = Delta . ch
    CI (creation incoherent):       ch . Delta = Delta . ch . Delta
    DI (detection incoherent):      Delta . ch = Delta . ch . Delta

NCGD (non-coherence-generating-and-detecting; Smirne, Egloff, Diaz, Plenio
& Huelga, Quantum Sci. Technol. 4, 01LT01 (2019)) is a statement about a
whole dynamics family.  For a Liouvillian it is decided exactly from powers
of the generator; without one, the channel itself stands in for the family.
The report carries the mode alongside the boolean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel
from .exceptions import DimensionMismatch, NoAsymmetricColumn
from .linalg import pseudo_inverse

CLASS_ATOL = 1e-9
# Absolute tolerance of a probability (or stochastic-matrix) entry's sign and of each sum's distance from 1.
PROB_ATOL = 1e-12
# adversarial_coherent_state: two stochastic-matrix entries within it are equal, and so are two columns
# whose entries all are.
ASYMMETRY_ATOL = 1e-12


@dataclass
class CoherenceClassReport:
    is_oi: bool
    is_ce: bool
    is_ci: bool
    is_di: bool
    is_ncgd: bool
    residuals: dict
    ncgd_mode: str


def _max_unit_deviation(s: np.ndarray) -> np.ndarray:
    """Max Frobenius norm of a map's outputs over the matrix units given (0 over none), per stacked
    map: superoperator columns are the vectorized outputs on matrix units, so the max column 2-norm."""
    return np.max(np.linalg.norm(s, axis=-2), axis=-1, initial=0.0)


def _populations_coherences(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major indices of the d populations |i><i| (the range of P = Delta) and of the
    d^2 - d coherences |i><j|, i != j (the range of Q = I - P)."""
    return np.arange(d) * (d + 1), np.flatnonzero(np.eye(d).ravel() == 0.0)


def _class_residuals(s: np.ndarray, d: int) -> dict:
    """OI, CE, CI and DI residuals and the single-channel NCGD surrogate of superoperators
    ``(..., d^2, d^2)``: the blocks ch.Q, Q.ch, Q.ch.P, P.ch.Q and P.ch.Q.ch.P, with P = Delta and
    Q = I - P.  The last is Delta.ch.ch.Delta - Delta.ch.Delta.ch.Delta, the k = 0 term D K of the
    generator test with the channel in place of L.

    The four column norms are row sums of one ``|S|^2`` array, formed as ``np.linalg.norm`` forms
    it, over all rows, the coherence rows or the population rows; each sum adds its own rows in
    order (never a total less another block), and no coherence block of S is copied."""
    pop, coh = _populations_coherences(d)
    sq = np.conj(s)
    sq *= s
    sq = sq.real
    coh_rows = np.zeros((d * d, 1), dtype=bool)
    coh_rows[coh] = True
    to_coh = sq.sum(axis=-2, where=coh_rows)
    to_pop = sq[..., pop, :].sum(axis=-2)

    def worst(sums):
        return np.sqrt(np.max(sums, axis=-1, initial=0.0))

    return {
        "oi": worst(sq.sum(axis=-2)[..., coh]),
        "ce": worst(to_coh),
        "ci": worst(to_coh[..., pop]),
        "di": worst(to_pop[..., coh]),
        "ncgd": _max_unit_deviation(s[..., pop, :][..., coh] @ s[..., pop][..., coh, :]),
    }


def _exact_ncgd_residual(gen: np.ndarray, d: int) -> float:
    """Max over k = 0 ... d^2 - d - 1 of the max column norm of D M^k K, each factor in
    units that the populations' own couplings set (0 when K = 0, as when d = 1).

    With P = Delta, Q = I - P, D = PLQ, K = QLP and M = QLQ, NCGD holds iff
    P e^{Lt} P = e^{PLP t} P, i.e. iff P L^n P = (PLP)^n P for every n.  A path from the
    populations back to them either stays in them or leaves through K, runs in the
    coherences and returns through D, so the identity holds iff D M^k K = 0 for every k,
    and by Cayley-Hamilton on M (order d^2 - d) for k < d^2 - d.  D and K are divided by
    s, the Frobenius norm of L's population rows and columns, and each power of M by the
    larger of s and M's gain on the current iterate: rescaling L leaves the residual
    unchanged, and a fast block of M that the populations never reach cannot shrink it.
    """
    pop, coh = _populations_coherences(d)
    k = gen[coh][:, pop]
    if not k.any():
        return 0.0
    scale = np.hypot(np.linalg.norm(gen[pop]), np.linalg.norm(k))
    detect, m, x = gen[pop][:, coh] / scale, gen[coh][:, coh], k / scale
    size, products = np.linalg.norm(x), []
    for _ in range(d * d - d):
        products.append(detect @ x)
        y = m @ x
        gain = np.linalg.norm(y)
        if gain == 0.0:
            break
        step = max(scale, gain / size)
        x, size = y / step, gain / step
    return float(np.max(_max_unit_deviation(np.stack(products))))


def classify_channel(ch: KrausChannel, ncgd_probe=None) -> CoherenceClassReport:
    """Test the defining identity of each coherence class on all matrix units, within CLASS_ATOL.

    ``ncgd_probe`` is a Liouvillian generator matrix (d^2 x d^2, the dynamics is
    exp(L t)), decided exactly from powers of the generator (``_exact_ncgd_residual``,
    unchanged when L is rescaled).  Without a probe the channel itself doubles as both
    legs (single-channel surrogate, the k = 0 term of the same test).
    """
    if ch.in_dim != ch.out_dim:
        raise DimensionMismatch("coherence classification needs equal input and output dims")
    d = ch.in_dim
    residuals = {name: float(r) for name, r in _class_residuals(ch.superoperator(), d).items()}

    if ncgd_probe is None:
        mode = "single-channel surrogate"
    elif callable(ncgd_probe):
        raise TypeError("ncgd_probe must be a d^2 x d^2 Liouvillian generator matrix, not a callable")
    else:
        mode = "liouvillian (exact)"
        gen = np.asarray(ncgd_probe, dtype=complex)
        if gen.shape != (d * d, d * d):
            raise DimensionMismatch("Liouvillian generator must be d^2 x d^2")
        if not np.isfinite(gen).all():
            raise ValueError("Liouvillian generator has non-finite entries")
        residuals["ncgd"] = _exact_ncgd_residual(gen, d)

    return CoherenceClassReport(
        is_oi=residuals["oi"] <= CLASS_ATOL,
        is_ce=residuals["ce"] <= CLASS_ATOL,
        is_ci=residuals["ci"] <= CLASS_ATOL,
        is_di=residuals["di"] <= CLASS_ATOL,
        is_ncgd=residuals["ncgd"] <= CLASS_ATOL,
        residuals=residuals,
        ncgd_mode=mode,
    )


def check_probability_vector(probs, d: int) -> np.ndarray:
    """Validate a finite probability vector of length ``d`` (entries >= 0, sum 1, within PROB_ATOL)."""
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or not np.isfinite(probs).all():
        raise ValueError("probs must be a probability vector of finite entries")
    if np.any(probs < -PROB_ATOL) or abs(probs.sum() - 1.0) > PROB_ATOL:
        raise ValueError("probs must be a probability vector")
    if len(probs) != d:
        raise DimensionMismatch("probability vector length must match channel input dim")
    return np.clip(probs, 0.0, None)


def _blocks(probs, m) -> np.ndarray:
    """R_ij = ((p_i + p_j)/2) ch(|j><i|) at ``[..., i, j, :, :]``, over stacks of
    probabilities ``(..., d)`` and Jamiolkowski matrices ``(..., d n, d n)``, whose
    ``(i, j)`` block is ch(|j><i|)."""
    d = probs.shape[-1]
    n = np.shape(m)[-1] // d
    units = np.reshape(m, (*np.shape(m)[:-2], d, n, d, n)).swapaxes(-3, -2)
    return ((probs[..., :, None] + probs[..., None, :]) / 2.0)[..., None, None] * units


def _block_failures(probs, m) -> tuple[np.ndarray, np.ndarray]:
    """Which block pairs (i, j), i != j, fail the support and the Schur test within CLASS_ATOL,
    as ``(..., d, d)``, over the stacks ``_blocks`` takes."""
    r = _blocks(probs, m)
    d = r.shape[-3]
    diag = r[..., np.arange(d), np.arange(d), :, :]
    a, c = diag[..., :, None, :, :], diag[..., None, :, :, :]
    a_pinv = pseudo_inverse(diag)[..., :, None, :, :]
    support = np.linalg.norm((np.eye(r.shape[-1]) - a @ a_pinv) @ r, axis=(-2, -1)) > CLASS_ATOL
    schur = c - r.conj().swapaxes(-1, -2) @ a_pinv @ r
    schur = np.linalg.eigvalsh((schur + schur.conj().swapaxes(-1, -2)) / 2.0)[..., 0] < -CLASS_ATOL
    off_diagonal = ~np.eye(d, dtype=bool)
    return support & off_diagonal, schur & off_diagonal


@dataclass
class BlockPositivityResult:
    compatible: bool
    failing_pair: tuple[int, int] | None
    failure_kind: str | None


def block_positivity_test(probs, ch: KrausChannel) -> BlockPositivityResult:
    """Schur-complement test for positivity of the PDM of (diag(probs), ch).

    The PDM is positive semidefinite iff for every pair i != j the block
    R_ij lies in the support of R_ii and R_jj - R_ji R_ii^+ R_ij >= 0.
    """
    probs = check_probability_vector(probs, ch.in_dim)
    support, schur = _block_failures(probs, ch.jamiolkowski())
    failing = np.argwhere(support | schur)
    if not len(failing):
        return BlockPositivityResult(True, None, None)
    i, j = (int(k) for k in failing[0])
    return BlockPositivityResult(False, (i, j), "support" if support[i, j] else "schur")


def check_stochastic_matrix(a) -> np.ndarray:
    """Validate a finite column-stochastic matrix (a_ki >= 0, columns sum to 1, within PROB_ATOL)."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("stochastic matrix must be square")
    if not np.isfinite(a).all():
        raise ValueError("stochastic matrix entries must be finite")
    if np.any(a < -PROB_ATOL):
        raise ValueError("stochastic matrix entries must be nonnegative")
    sums = a.sum(axis=0)
    if np.any(np.abs(sums - 1.0) > PROB_ATOL):
        raise ValueError(f"columns must sum to 1, got {sums}")
    return np.clip(a, 0.0, None)


def build_ce_oi_channel(a) -> KrausChannel:
    """Channel with Kraus set {sqrt(a_ki) |k><i|}: erases coherence and
    ignores off-diagonals, acting on populations by the stochastic matrix."""
    a = check_stochastic_matrix(a)
    d = a.shape[0]
    k, i = np.nonzero(a > 0)  # row-major: the Kraus operators in (k, i) order
    ops = np.zeros((len(k), d, d), dtype=complex)
    ops[np.arange(len(k)), k, i] = np.sqrt(a[k, i])
    return KrausChannel(ops)


@dataclass
class AdversarialState:
    state: np.ndarray
    block_det: float


def adversarial_coherent_state(a, i: int, j: int, k: int, p: float) -> AdversarialState:
    """Coherent input exposing SI of the CE+OI channel built from ``a``.

    Returns |psi><psi| with psi = sqrt(p)|i> + sqrt(1-p)|j> and the analytic
    determinant of the k-th 2x2 PDM block restricted to span{|i>, |j>},
    -p(1-p)(a_ki - a_kj)^2 / 4, which is negative whenever a_ki != a_kj.
    """
    a = check_stochastic_matrix(a)
    d = a.shape[0]
    if not (0 <= i < d and 0 <= j < d and 0 <= k < d) or i == j:
        raise ValueError("need distinct valid indices i, j and a valid k")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    if float(np.max(np.abs(a[:, i] - a[:, j]))) <= ASYMMETRY_ATOL:
        raise NoAsymmetricColumn(
            f"columns {i} and {j} coincide; the PDM stays positive semidefinite for every state"
        )
    if abs(a[k, i] - a[k, j]) <= ASYMMETRY_ATOL:
        raise ValueError(f"rows with a_ki != a_kj exist, but not k={k}; pick another k")
    psi = np.zeros(d, dtype=complex)
    psi[i] = np.sqrt(p)
    psi[j] = np.sqrt(1.0 - p)
    block_det = -p * (1.0 - p) * (a[k, i] - a[k, j]) ** 2 / 4.0
    return AdversarialState(state=np.outer(psi, psi.conj()), block_det=float(block_det))
