"""Measurement-observable bases: Pauli strings and light-touch sets.

A light-touch observable is Hermitian with spectrum {lam} or {+lam, -lam};
a Pauli string is the lam = 1 case whose spectrum its letters give.  Each
basis is a tomographically complete family, checked as it is built, used
both to define correlator tables and to reconstruct operators from them.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .exceptions import DimensionMismatch
from .linalg import check_hermitian, kron

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
for _pauli in PAULI_1Q.values():  # a one-letter PauliString hands out these arrays themselves
    _pauli.flags.writeable = False
PAULI_LETTERS = "IXYZ"
# Absolute tolerance of a light-touch observable's Hermiticity and of each eigenvalue's distance from +/-lam.
LIGHT_TOUCH_ATOL = 1e-10
# A basis is complete when its Gram matrix's smallest eigenvalue exceeds this fraction of its largest.
COMPLETENESS_RTOL = 1e-10


class LightTouchObservable:
    """Hermitian observable whose spectrum is {lam} or {+lam, -lam}."""

    def __init__(self, matrix, label: str):
        matrix = check_hermitian(matrix, atol=LIGHT_TOUCH_ATOL)
        w = np.linalg.eigvalsh(matrix)
        lam = float(np.max(np.abs(w)))
        if lam <= LIGHT_TOUCH_ATOL:
            raise ValueError("light-touch observable must be nonzero")
        onlyplus = np.all(np.abs(w - lam) <= LIGHT_TOUCH_ATOL)
        plusminus = np.all(np.minimum(np.abs(w - lam), np.abs(w + lam)) <= LIGHT_TOUCH_ATOL)
        if onlyplus:
            kind = "single"
        elif plusminus:
            kind = "pm"
        else:
            raise ValueError(f"spectrum {w} is neither {{lam}} nor {{+/-lam}}")
        self.matrix = matrix
        self.label = label
        self.lam = lam
        self.kind = kind

    @property
    def is_identity(self) -> bool:
        return self.kind == "single" and self.lam == 1.0

    def __repr__(self):
        return f"LightTouchObservable({self.label!r}, lam={self.lam}, kind={self.kind!r})"


class PauliString(LightTouchObservable):
    """Tensor product of single-qubit Paulis, e.g. "XZ"; a lam = 1 light-touch observable, kind read off its letters."""

    def __init__(self, letters):
        letters = tuple(letters)
        if not letters or any(c not in PAULI_LETTERS for c in letters):
            raise ValueError(f"invalid Pauli letters {letters!r}")
        self.letters = letters
        self.label = "".join(letters)
        self.n_qubits = len(letters)
        mat = PAULI_1Q[letters[0]]
        for c in letters[1:]:
            mat = kron(mat, PAULI_1Q[c])
        self.matrix = mat
        self.lam = 1.0
        self.kind = "single" if set(letters) == {"I"} else "pm"

    def __repr__(self):
        return f"PauliString({self.label!r})"


def pauli_basis(n: int) -> list[PauliString]:
    """All 4**n Pauli strings in lexicographic order (I < X < Y < Z per site)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [PauliString(p) for p in product(PAULI_LETTERS, repeat=n)]


def _sign_rows(d: int) -> np.ndarray:
    """Full-rank d x d matrix with +/-1 entries, first row all ones."""
    if d & (d - 1) == 0:  # power of two: Sylvester-Hadamard
        h = np.array([[1.0]])
        while h.shape[0] < d:
            h = np.block([[h, h], [h, -h]])
        return h
    rows = np.ones((d, d))
    np.fill_diagonal(rows[1:, 1:], -1.0)
    return rows


def light_touch_basis(d: int) -> list[LightTouchObservable]:
    """Tomographically complete set of d**2 light-touch observables.

    For d = 2 these are the Pauli strings {I, X, Y, Z}.  For larger d they
    combine d diagonal +/-1 observables (rows of a full-rank sign matrix) with
    X- and Y-type pair observables completed by the projector onto the
    untouched subspace, each of which has spectrum {+/-1}.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if d == 2:
        return pauli_basis(1)

    signs = _sign_rows(d)
    obs = [LightTouchObservable(np.diag(signs[k].astype(complex)), f"D{k}") for k in range(d)]
    # Members 2p (X) and 2p + 1 (Y) of pair p = (i[p], j[p]): the identity less |i><i| + |j><j|, plus the pair.
    i, j = np.triu_indices(d, 1)
    p = np.arange(len(i))
    pairs = np.broadcast_to(np.eye(d, dtype=complex), (len(p), 2, d, d)).copy()
    pairs[p, :, i, i] = pairs[p, :, j, j] = 0.0
    pairs[p, 0, i, j] = pairs[p, 0, j, i] = 1.0
    pairs[p, 1, i, j], pairs[p, 1, j, i] = -1j, 1j
    labels = [f"{axis}{a}.{b}" for a, b in zip(i.tolist(), j.tolist()) for axis in "XY"]
    return obs + [LightTouchObservable(m, label) for m, label in zip(pairs.reshape(-1, d, d), labels)]


_SHARED_BASES: dict[str, "ObservableBasis"] = {}


def _shared_basis(kind: str, n: int) -> "ObservableBasis":
    """The one ObservableBasis per descriptor, built on first use."""
    descriptor = f"{kind}:{n}"
    if descriptor not in _SHARED_BASES:
        family = pauli_basis(n) if kind == "pauli" else light_touch_basis(n)
        _SHARED_BASES[descriptor] = ObservableBasis(family, descriptor)
    return _SHARED_BASES[descriptor]


class ObservableBasis:
    """Labelled, tomographically complete observable family for one time slot of a correlator table.

    ``matrices`` stacks the d**2 observables as an ``(n, d, d)`` array in label
    order, ``gram`` holds ``Tr[A_k A_l]`` (real for Hermitian members),
    ``gram_inv`` its inverse and ``index`` maps each label to its position;
    all are built once and read-only.  The named constructors return one
    shared instance per descriptor.
    """

    def __init__(self, observables, descriptor: str):
        self.observables = list(observables)
        if not self.observables:
            raise ValueError(f"observable basis {descriptor!r} is empty")
        self.descriptor = descriptor
        self.labels = [o.label for o in self.observables]
        for label in self.labels:  # each must survive a table CSV row and a witness's "label1|label2" key
            if not isinstance(label, str):
                raise TypeError(f"observable label {label!r} is not a string")
            if label != label.strip() or not label.isprintable() or "," in label or "|" in label:
                raise ValueError(f"observable label {label!r} cannot be written to a table: use printable "
                                 "text without ',', '|' or surrounding whitespace")
        self.index = {label: k for k, label in enumerate(self.labels)}
        if len(self.index) != len(self.labels):
            raise ValueError("observable labels must be unique")
        self.dim = int(self.observables[0].matrix.shape[0])
        for o in self.observables:
            if o.matrix.shape != (self.dim, self.dim):
                raise DimensionMismatch("all observables in a basis must share one dimension")
        self.matrices = np.array([o.matrix for o in self.observables], dtype=complex)
        flat = self.matrices.reshape(len(self.observables), -1)
        self.gram = np.real(flat.conj() @ flat.T)
        # The squared singular values of ``flat``, rounded by ~1e-16 of the largest: read the smallest relative to it.
        w = np.linalg.eigvalsh(self.gram)
        if len(self) != self.dim**2 or w[0] <= COMPLETENESS_RTOL * w[-1]:
            raise ValueError(f"observable basis {descriptor!r} is not tomographically complete: {len(self)} "
                             f"members for d = {self.dim}, Gram eigenvalues {w[0]:.3g} to {w[-1]:.3g}")
        self.gram_inv = np.linalg.inv(self.gram)
        self.matrices.flags.writeable = False
        self.gram.flags.writeable = self.gram_inv.flags.writeable = False

    @classmethod
    def pauli(cls, n: int) -> "ObservableBasis":
        return _shared_basis("pauli", n)

    @classmethod
    def light_touch(cls, d: int) -> "ObservableBasis":
        return _shared_basis("light_touch", d)

    @classmethod
    def from_descriptor(cls, descriptor: str) -> "ObservableBasis":
        kind, _, arg = descriptor.partition(":")
        if kind == "pauli":
            return cls.pauli(int(arg))
        if kind == "light_touch":
            return cls.light_touch(int(arg))
        raise ValueError(f"unknown basis descriptor {descriptor!r}")

    @classmethod
    def default_for_dim(cls, d: int) -> "ObservableBasis":
        if d >= 2 and d & (d - 1) == 0:
            return cls.pauli(d.bit_length() - 1)
        return cls.light_touch(d)

    def observable(self, label: str):
        return self.observables[self.index[label]]

    def matrix(self, label: str) -> np.ndarray:
        return self.observable(label).matrix

    @property
    def identity_label(self) -> str:
        for o in self.observables:
            if o.is_identity:
                return o.label
        raise ValueError("basis has no identity observable")

    def __contains__(self, label: str) -> bool:
        return label in self.index

    def __len__(self):
        return len(self.observables)

    def __repr__(self):
        return f"ObservableBasis({self.descriptor!r}, {len(self)} observables)"
