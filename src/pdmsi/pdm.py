"""Pseudo-density matrices for two-time processes and their spatial incompatibility.

A PDM is the unit-trace Hermitian operator on ``H_1 (x) H_2`` reconstructed
from two-time correlators; unlike a density matrix it may carry negative
eigenvalues.  The distance from the density-matrix set (in Schatten-p norm)
quantifies how far the recorded statistics are from anything a bipartite
quantum state could produce, and any negative eigenvalue yields a positive
semidefinite witness observable whose two-time expectation goes negative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import KrausChannel, _jamiolkowski
from .exceptions import (
    DimensionMismatch,
    IncompleteTable,
    InvalidP,
    NotSpatiallyIncompatible,
)
from .linalg import check_hermitian, eig_hermitian, kron, project_simplex
from .observables import ObservableBasis
from .states import check_density_matrix

NEGATIVITY_ATOL = 1e-10
BOUND_SLACK = 1e-9


class Pdm:
    """Unit-trace Hermitian operator over two time-labelled factors."""

    def __init__(self, mat, dims: tuple[int, int], atol: float = 1e-10):
        mat = check_hermitian(mat, atol=atol)
        d1, d2 = dims
        if mat.shape[0] != d1 * d2:
            raise DimensionMismatch(f"matrix of dim {mat.shape[0]} does not factor as {d1}x{d2}")
        self.mat = _check_unit_trace(mat, atol)
        self.dims = (int(d1), int(d2))

    def eigenvalues(self) -> np.ndarray:
        """Ascending spectrum, from the ``eig_hermitian`` path that T_p reads."""
        return eig_hermitian(self.mat, atol=1e-9).eigenvalues

    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues()[0])

    def __repr__(self):
        return f"Pdm(dims={self.dims}, min_eig={self.min_eigenvalue():.4g})"


def _check_unit_trace(mats, atol: float = 1e-10) -> np.ndarray:
    """Return a PDM matrix or ``(..., n, n)`` stack, raising unless each has unit trace within ``atol``."""
    tr = np.trace(mats, axis1=-2, axis2=-1).real
    bad = np.abs(tr - 1.0) > atol
    if bad.any():
        raise ValueError(f"PDM must have unit trace, got {float(tr[bad][0])!r}")
    return mats


def _closed_form(rho, kraus) -> np.ndarray:
    """(1/2){rho (x) I, M} over broadcast stacks of states ``(..., d_in, d_in)``
    and Kraus operators ``(..., K, d_out, d_in)``, padded with zero operators."""
    m = _jamiolkowski(kraus)
    a = kron(rho, np.eye(np.shape(kraus)[-2]))
    return 0.5 * (a @ m + m @ a)


def pdm_closed_form(rho, ch: KrausChannel) -> Pdm:
    """PDM of a state evolving through a channel: (1/2){rho (x) I, M_channel}.

    Valid for the projective measurement scheme that projects each observable
    onto its +/-lambda eigenspaces at both times.
    """
    rho = check_density_matrix(rho)
    if rho.shape[0] != ch.in_dim:
        raise DimensionMismatch(
            f"state dim {rho.shape[0]} does not match channel input dim {ch.in_dim}"
        )
    return Pdm(_closed_form(rho, np.array(ch.kraus_ops)), (ch.in_dim, ch.out_dim))


class CorrelatorTable:
    """Two-time expectation values keyed by observable-label pairs."""

    def __init__(self, basis1: ObservableBasis, basis2: ObservableBasis,
                 entries: dict, shot_counts: dict | None = None):
        self.basis1 = basis1
        self.basis2 = basis2
        self.entries = {k: float(v) for k, v in entries.items()}
        self.shot_counts = None if shot_counts is None else dict(shot_counts)
        for l1, l2 in self.entries:
            if l1 not in basis1 or l2 not in basis2:
                raise KeyError(f"entry ({l1},{l2}) not in the declared bases")

    def value(self, label1: str, label2: str) -> float:
        return self.entries[(label1, label2)]

    def missing_pairs(self) -> list[tuple[str, str]]:
        return [
            (a, b)
            for a in self.basis1.labels
            for b in self.basis2.labels
            if (a, b) not in self.entries
        ]

    def to_csv(self) -> str:
        lines = ["label1,label2,value,shots"]
        for a in self.basis1.labels:
            for b in self.basis2.labels:
                if (a, b) not in self.entries:
                    continue
                shots = "" if self.shot_counts is None else str(self.shot_counts.get((a, b), ""))
                lines.append(f"{a},{b},{format(self.entries[(a, b)], '.17g')},{shots}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str, basis1: ObservableBasis,
                 basis2: ObservableBasis | None = None) -> "CorrelatorTable":
        basis2 = basis1 if basis2 is None else basis2
        entries, shots = {}, {}
        rows = [line for line in text.strip().splitlines() if line.strip()]
        if not rows or rows[0].strip() != "label1,label2,value,shots":
            raise ValueError("expected CSV header 'label1,label2,value,shots'")
        for line in rows[1:]:
            a, b, value, n = (cell.strip() for cell in line.split(","))
            entries[(a, b)] = float(value)
            if n:
                shots[(a, b)] = int(n)
        return cls(basis1, basis2, entries, shots or None)

    def __repr__(self):
        return (
            f"CorrelatorTable({self.basis1.descriptor}/{self.basis2.descriptor}, "
            f"{len(self.entries)} entries)"
        )


def _overlaps(m, basis1: ObservableBasis, basis2: ObservableBasis) -> np.ndarray:
    """Complex ``Tr[M (A_k (x) B_l)]`` for every label pair, as ``(..., n1, n2)``.

    The contractions ``iajb,kji->kab`` then ``kab,lba->kl`` over the
    ``(d1, d2, d1, d2)`` view of each ``M`` in a ``(..., d1 d2, d1 d2)``
    stack, each as one matrix product; no ``d1 d2 x d1 d2`` pair operator is
    ever built.
    """
    n1, n2, d1, d2 = len(basis1), len(basis2), basis1.dim, basis2.dim
    m = np.asarray(m, dtype=complex)
    lead = m.shape[:-2]
    t = m.reshape(*lead, d1, d2, d1, d2).transpose(*range(len(lead)), -2, -4, -3, -1)
    partial = basis1.matrices.reshape(n1, d1 * d1) @ t.reshape(*lead, d1 * d1, d2 * d2)
    return partial @ basis2.matrices.transpose(0, 2, 1).reshape(n2, d2 * d2).T


def _expand(coeffs: np.ndarray, basis1: ObservableBasis, basis2: ObservableBasis) -> np.ndarray:
    """``sum_kl C_kl A_k (x) B_l`` for ``(..., n1, n2)`` coefficient arrays.

    The contractions ``kl,lcd->kcd`` then ``kab,kcd->acbd``, each as one
    matrix product.
    """
    n1, n2, d1, d2 = len(basis1), len(basis2), basis1.dim, basis2.dim
    partial = coeffs @ basis2.matrices.reshape(n2, d2 * d2)
    out = basis1.matrices.reshape(n1, d1 * d1).T @ partial
    out = out.reshape(*out.shape[:-2], d1, d1, d2, d2).swapaxes(-3, -2)
    return out.reshape(*out.shape[:-4], d1 * d2, d1 * d2)


def _factored_gram_solve(overlaps: np.ndarray, basis1: ObservableBasis,
                         basis2: ObservableBasis) -> np.ndarray:
    """Coefficients C with ``Tr[(A_k (x) B_l) sum C A (x) B] = overlaps_kl``, per ``(n1, n2)`` slice.

    The Gram matrix of the product family is ``G1 (x) G2``, so ``C`` is
    ``G1^-1 O G2^-1``, solved per factor (``G = d I`` for Pauli strings).
    """
    left = np.linalg.solve(basis1.gram, overlaps)
    return np.linalg.solve(basis2.gram, left.swapaxes(-1, -2)).swapaxes(-1, -2)


def _by_label_pair(values: np.ndarray, basis1: ObservableBasis, basis2: ObservableBasis) -> dict:
    """``{(label1, label2): float}`` from a real ``(n1, n2)`` array."""
    return {
        (a, b): v
        for a, row in zip(basis1.labels, values.tolist())
        for b, v in zip(basis2.labels, row)
    }


def _resolve_bases(basis, dims) -> tuple[ObservableBasis, ObservableBasis]:
    if basis is None:
        return (ObservableBasis.default_for_dim(dims[0]), ObservableBasis.default_for_dim(dims[1]))
    if isinstance(basis, str):
        b = ObservableBasis.from_descriptor(basis)
        return (b, b)
    if isinstance(basis, ObservableBasis):
        return (basis, basis)
    b1, b2 = basis
    return (b1, b2)


def exact_correlators(r: Pdm, basis=None) -> CorrelatorTable:
    """Analytic table entry(a, b) = Tr[R (A (x) B)] over the full basis grid."""
    b1, b2 = _resolve_bases(basis, r.dims)
    if b1.dim != r.dims[0] or b2.dim != r.dims[1]:
        raise DimensionMismatch("basis dimensions do not match the PDM factors")
    values = _overlaps(r.mat, b1, b2)
    bad = np.argwhere(np.abs(values.imag) > 1e-10)
    if len(bad):
        k, l = bad[0]
        raise ValueError(
            f"correlator ({b1.labels[k]},{b2.labels[l]}) has imaginary part {values[k, l].imag:.3e}"
        )
    return CorrelatorTable(b1, b2, _by_label_pair(values.real, b1, b2))


def pdm_from_correlators(table: CorrelatorTable) -> Pdm:
    """Reconstruct the PDM from a complete correlator table.

    Solves ``Tr[R (A_k (x) B_l)] = <{A_k, B_l}>`` through the Kronecker
    factors of the pair family's Gram matrix; for Pauli bases this is the
    direct expansion ``R = sum <{A,B}> A (x) B / (d1 d2)``.
    """
    b1, b2 = table.basis1, table.basis2
    missing = table.missing_pairs()
    if missing:
        raise IncompleteTable(missing)
    values = np.array([[table.entries[(a, b)] for b in b2.labels] for a in b1.labels])
    r = _expand(_factored_gram_solve(values, b1, b2), b1, b2)
    r = (r + r.conj().T) / 2.0
    return Pdm(r, (b1.dim, b2.dim))


@dataclass
class SiReport:
    """Result of minimizing ||R - rho||_p over density matrices."""

    p: float
    value: float
    minimizer: np.ndarray
    eigenvalues: np.ndarray  # the ascending spectrum of R that value is computed from; not in to_dict
    negative_eigenpairs: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "value": self.value,
            "minimizer": _matrix_to_pairs(self.minimizer),
            "negative_eigenvalues": [lam for lam, _ in self.negative_eigenpairs],
        }


def _matrix_to_pairs(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _t1_closed_form(lam: np.ndarray) -> np.ndarray:
    """2 sum|negative eigs| for spectra ``(..., n)``."""
    return 2.0 * np.sum(np.where(lam < -NEGATIVITY_ATOL, np.abs(lam), 0.0), axis=-1)


def _t_p(lam: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """T_p and a minimizing q for ascending spectra ``(..., n)``: min ||lam - q||_p over the simplex.

    At p = 1 this is 2 sum|negative eigs|, attained by the normalized positive
    part of lam; for p > 1 the Euclidean simplex projection of lam is the
    exact minimizer.  A spectrum with no eigenvalue below -NEGATIVITY_ATOL
    gives exactly 0.
    """
    if p == 1.0:
        value, q = _t1_closed_form(lam), np.clip(lam, 0.0, None)
        q = q / np.sum(q, axis=-1, keepdims=True)
    else:
        q = project_simplex(lam)
        value = np.linalg.norm(lam - q, ord=p, axis=-1)
    return np.where((lam < -NEGATIVITY_ATOL).any(axis=-1), np.maximum(value, 0.0), 0.0), q


def _si_values(mats, p: float = 1.0) -> np.ndarray:
    """T_p of every matrix in a Hermitian stack ``(..., n, n)``."""
    return _t_p(eig_hermitian(mats, atol=1e-9).eigenvalues, p)[0]


def _t1_simplex_lp(lam: np.ndarray) -> tuple[float, np.ndarray]:
    """min ||lam - q||_1 over the simplex via an LP (independent of the closed form)."""
    import scipy.optimize

    n = len(lam)
    c = np.concatenate([np.zeros(n), np.ones(n)])
    a_ub = np.block([[np.eye(n), -np.eye(n)], [-np.eye(n), -np.eye(n)]])
    b_ub = np.concatenate([lam, -lam])
    a_eq = np.concatenate([np.ones(n), np.zeros(n)])[None, :]
    res = scipy.optimize.linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
        bounds=[(0, None)] * n + [(None, None)] * n, method="highs",
    )
    if not res.success:
        raise RuntimeError(f"simplex LP failed: {res.message}")
    return float(res.fun), res.x[:n]


def si_measure(r, p: float = 1.0, method: str = "auto") -> SiReport:
    """Degree of spatial incompatibility T_p(R) with the achieving density matrix.

    Unitary invariance of the Schatten norms (Mirsky) reduces the problem to
    the spectrum: T_p(R) = min ||lam - q||_p over the probability simplex.
    At p = 1 ``method="auto"`` (or ``"closed"``) uses the closed form
    2*sum|negative eigs| and ``method="numeric"`` solves the LP instead, as an
    independent cross-check.  For every p > 1 the KKT conditions make the
    Euclidean simplex projection of lam the exact minimizer.
    """
    if method not in ("auto", "closed", "numeric"):
        raise ValueError(f"unknown method {method!r}; use 'auto', 'closed' or 'numeric'")
    if not (np.isreal(p) and np.isfinite(p) and p >= 1.0):
        raise InvalidP(f"norm order must be a finite real >= 1, got {p!r}")
    p = float(p)
    mat = r.mat if isinstance(r, Pdm) else check_hermitian(r, atol=1e-9)
    eig = eig_hermitian(mat, atol=1e-9)
    lam, v = eig.eigenvalues, eig.eigenvectors
    negatives = [
        (float(lam[k]), v[:, k]) for k in range(len(lam)) if lam[k] < -NEGATIVITY_ATOL
    ]

    value, q = _t_p(lam, p)
    if p == 1.0 and method == "numeric" and negatives:
        value, q = _t1_simplex_lp(lam)
    minimizer = (v * q) @ v.conj().T
    minimizer = (minimizer + minimizer.conj().T) / 2.0
    return SiReport(p=p, value=max(float(value), 0.0), minimizer=minimizer, eigenvalues=lam,
                    negative_eigenpairs=negatives)


class Witness:
    """Positive semidefinite observable with a local-in-time decomposition.

    The expectation over any density matrix is nonnegative, so a negative
    two-time expectation certifies that the statistics cannot come from a
    bipartite quantum state.
    """

    def __init__(self, mat, coeffs: dict, basis1: ObservableBasis, basis2: ObservableBasis):
        mat = check_hermitian(mat, atol=1e-10)
        lo = float(np.linalg.eigvalsh(mat)[0])
        if lo < -NEGATIVITY_ATOL:
            raise ValueError(f"witness must be positive semidefinite, min eigenvalue {lo:.3e}")
        self.mat = mat
        self.coeffs = {k: float(c) for k, c in coeffs.items()}
        self.basis1 = basis1
        self.basis2 = basis2

    def expectation(self, r: Pdm) -> float:
        return float(np.trace(self.mat @ r.mat).real)

    def to_dict(self) -> dict:
        return {
            "matrix": _matrix_to_pairs(self.mat),
            "coefficients": {f"{a}|{b}": c for (a, b), c in sorted(self.coeffs.items())},
            "basis": [self.basis1.descriptor, self.basis2.descriptor],
        }

    def __repr__(self):
        return f"Witness(dim={self.mat.shape[0]}, {len(self.coeffs)} coefficients)"


def _pair_coefficients(mat, b1: ObservableBasis, b2: ObservableBasis) -> dict:
    return _by_label_pair(_factored_gram_solve(_overlaps(mat, b1, b2).real, b1, b2), b1, b2)


def synthesize_witness(r: Pdm, policy: str = "negative_eigenspace", custom=None) -> Witness:
    """Build an SI witness for a PDM with at least one negative eigenvalue.

    Policies: ``negative_eigenspace`` projects onto the span of all
    negative-eigenvalue eigenvectors (default), ``most_negative`` onto the
    single most negative one, and ``custom`` validates a user-supplied PSD
    matrix against the defining conditions.
    """
    eig = eig_hermitian(r.mat, atol=1e-9)
    lam, v = eig.eigenvalues, eig.eigenvectors
    neg = np.nonzero(lam < -NEGATIVITY_ATOL)[0]
    if len(neg) == 0:
        raise NotSpatiallyIncompatible(
            f"min eigenvalue {lam[0]:.3e} >= -{NEGATIVITY_ATOL}; no witness exists"
        )

    if policy == "negative_eigenspace":
        w = sum(np.outer(v[:, k], v[:, k].conj()) for k in neg)
    elif policy == "most_negative":
        k = int(np.argmin(lam))
        w = np.outer(v[:, k], v[:, k].conj())
    elif policy == "custom":
        if custom is None:
            raise ValueError("policy 'custom' requires a matrix")
        w = check_hermitian(custom, atol=1e-10)
        if float(np.linalg.eigvalsh(w)[0]) < -NEGATIVITY_ATOL:
            raise ValueError("custom witness must be positive semidefinite")
        if float(np.trace(w @ r.mat).real) >= 0.0:
            raise ValueError("custom witness has nonnegative expectation on this PDM")
    else:
        raise ValueError(f"unknown witness policy {policy!r}")

    b1 = ObservableBasis.default_for_dim(r.dims[0])
    b2 = ObservableBasis.default_for_dim(r.dims[1])
    return Witness(w, _pair_coefficients(w, b1, b2), b1, b2)


def evaluate_witness(w: Witness, table: CorrelatorTable, coeff_atol: float = 1e-12) -> float:
    """Two-time expectation <W>_t = sum a_ab <{A, B}> from a correlator table."""
    needed = {k: c for k, c in w.coeffs.items() if abs(c) > coeff_atol}
    missing = [k for k in needed if k not in table.entries]
    if missing:
        raise IncompleteTable(missing)
    return float(sum(c * table.entries[k] for k, c in needed.items()))


@dataclass
class BoundCheck:
    t1: float
    reference: float
    bound_ok: bool

    def to_dict(self) -> dict:
        return {"t1": self.t1, "reference": self.reference, "bound_ok": self.bound_ok}


def _bound_check(t1, d: int, slack: float = BOUND_SLACK) -> BoundCheck:
    """T_1 of d-dimensional channels against the SI bound d - 1, for a float ``t1`` or an array
    (whose ``bound_ok`` is then a list).

    The reference is T_1 of the extremal PDM, that of a pure basis state
    through the identity channel, R = (1/2){|0><0| (x) I, SWAP}.  It maps |00>
    to itself, swaps |0i> and |i0> with weight 1/2 for each i != 0, and sends
    every |ij> with i, j != 0 to zero.  Its spectrum is therefore
    {1, 1/2 x (d-1), -1/2 x (d-1), 0 x (d-1)^2}, and T_1 = 2 sum|negative eigs|
    = d - 1 (1 for qubits, the paper's bound).
    """
    reference = float(d - 1)
    return BoundCheck(t1=t1, reference=reference, bound_ok=(np.asarray(t1) <= reference + slack).tolist())


def check_bound(rho, ch: KrausChannel, slack: float = BOUND_SLACK) -> BoundCheck:
    """Check T_1(R(rho, ch)) against the bound of ``_bound_check``."""
    if ch.in_dim != ch.out_dim:
        raise DimensionMismatch("the SI bound is stated for equal input and output dimensions")
    return _bound_check(float(_si_values(pdm_closed_form(rho, ch).mat)), ch.in_dim, slack)
