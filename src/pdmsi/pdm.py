"""Pseudo-density matrices for two-time processes and their spatial incompatibility.

A PDM is the unit-trace Hermitian operator on ``H_1 (x) H_2`` reconstructed
from two-time correlators; unlike a density matrix it may carry negative
eigenvalues.  The distance from the density-matrix set (in Schatten-p norm)
quantifies how far the recorded statistics are from anything a bipartite
quantum state could produce, and any negative eigenvalue yields a positive
semidefinite witness observable whose two-time expectation goes negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from numbers import Real

import numpy as np

from .channels import KrausChannel
from .exceptions import (
    DimensionMismatch,
    IncompleteTable,
    InvalidP,
    NotSpatiallyIncompatible,
)
from .linalg import EigenDecomposition, _eigh_hermitian_part, check_hermitian, kron, project_simplex
from .observables import ObservableBasis
from .states import check_density_matrix

NEGATIVITY_ATOL = 1e-10
BOUND_SLACK = 1e-9
# Hermiticity and unit-trace tolerance of a PDM.
PDM_ATOL = 1e-10
# Hermiticity tolerance of a witness matrix.
WITNESS_ATOL = 1e-10
# A witness coefficient at or below it in magnitude needs no table entry.
WITNESS_COEFF_ATOL = 1e-12
# Eigenvalues within it of the minimum, relative to max(1, max|lam|), are tied with it for ``most_negative``.
MIN_EIGENVALUE_TIE_RTOL = 1e-12

WITNESS_POLICIES = ("negative_eigenspace", "most_negative")

_CSV_HEADER = "label1,label2,value,shots"
# The largest shot count a table stores, the int64 maximum 2**63 - 1.
_SHOTS_MAX = int(np.iinfo(np.int64).max)


class Pdm:
    """Unit-trace Hermitian operator over two time-labelled factors.

    ``mat`` is a read-only copy of the matrix given, and ``eig`` the
    decomposition of its Hermitian part (read-only too), computed on first access
    and shared by ``min_eigenvalue``, ``si_measure``, ``synthesize_witness``, ``check_bound``.
    """

    def __init__(self, mat, dims: tuple[int, int]):
        self.mat, self.dims = _check_pdm(mat, dims)

    @cached_property
    def eig(self) -> EigenDecomposition:
        """Ascending eigenvalues and the eigenvectors ``eigh`` returns; within a degenerate
        eigenspace the basis is ``eigh``'s choice, and no reader depends on it.  The bits of
        ``eig_hermitian(mat, atol=PDM_ATOL)``, without its check: ``mat`` was checked when built."""
        eig = _eigh_hermitian_part(self.mat)
        eig.eigenvalues.flags.writeable = eig.eigenvectors.flags.writeable = False
        return eig

    @classmethod
    def _member(cls, mat: np.ndarray, dims: tuple[int, int]) -> "Pdm":
        """A member of a checked ``_PdmStack``, stored unchecked (as ``Witness._projector``)."""
        r = cls.__new__(cls)
        r.mat, r.dims = mat, dims
        return r

    def min_eigenvalue(self) -> float:
        return float(self.eig.eigenvalues[0])

    def __repr__(self):
        return f"Pdm(dims={self.dims}, min_eig={self.min_eigenvalue():.4g})"


def _check_pdm(m, dims, stacked: bool = False) -> tuple[np.ndarray, tuple[int, int]]:
    """A read-only complex copy of ``m``, one matrix or an ``(..., n, n)`` stack when ``stacked``, and
    ``dims`` as ints, raising unless each matrix is a PDM over ``dims``: finite, Hermitian and of unit
    trace, each within PDM_ATOL, and of dim d1 * d2."""
    m = check_hermitian(m, atol=PDM_ATOL, stacked=stacked).copy("K")
    tr = m.trace(axis1=-2, axis2=-1).real
    ok = abs(tr - 1.0) <= PDM_ATOL
    if not ok.all():
        raise ValueError(f"PDM must have unit trace, got {float(tr[~ok][0])!r}")
    d1, d2 = (_check_int(d, "dims", 1) for d in dims)
    if m.shape[-1] != d1 * d2:
        raise DimensionMismatch(f"matrix of dim {m.shape[-1]} does not factor as {d1}x{d2}")
    m.flags.writeable = False
    return m, (d1, d2)


def _closed_form(rho, m) -> np.ndarray:
    """(1/2){rho (x) I, M} over broadcast stacks of states ``(..., d_in, d_in)`` and Jamiolkowski
    matrices ``(..., d_in d_out, d_in d_out)``, with d_out read from their shapes."""
    a = kron(rho, np.eye(m.shape[-1] // rho.shape[-1]))
    return 0.5 * (a @ m + m @ a)


class _PdmStack:
    """Read-only ``(..., n, n)`` stack of PDMs over ``dims``, checked once when built: the route for
    stacks (the sweep, ``lg_vs_si``, ``verify``), as ``Pdm`` is for one pair.

    ``mats`` is a read-only copy of the stack given, ``spectra`` its ascending
    ``eigvalsh`` spectra ``(..., n)``, computed on first access, and
    ``stack[k]`` member ``k`` as a ``Pdm`` over a view of ``mats``, not checked again.
    """

    def __init__(self, mats, dims: tuple[int, int]):
        self.mats, self.dims = _check_pdm(mats, dims, stacked=True)

    @classmethod
    def closed_form(cls, rho, m) -> "_PdmStack":
        """The stack of ``_closed_form(rho, m)``, over the dims its shapes give."""
        d_in = np.shape(rho)[-1]
        return cls(_closed_form(rho, m), (d_in, np.shape(m)[-1] // d_in))

    @cached_property
    def spectra(self) -> np.ndarray:
        lam = np.linalg.eigvalsh(self.mats)
        lam.flags.writeable = False
        return lam

    def t_p(self, p: float) -> np.ndarray:
        """T_p of every member, from its spectrum alone."""
        return _t_p(self.spectra, p)

    def __getitem__(self, k) -> Pdm:
        return Pdm._member(self.mats[k], self.dims)


def pdm_closed_form(rho, ch: KrausChannel) -> Pdm:
    """PDM of a state evolving through a channel: (1/2){rho (x) I, M}, with M the channel's cached
    Jamiolkowski matrix.

    Valid for the projective measurement scheme that projects each observable
    onto its +/-lambda eigenspaces at both times.  The channel keeps the last
    ``Pdm`` it gave, keyed by the shape and bytes of the state cast to complex:
    a repeat call on the same pair returns that ``Pdm``, checked once.  A
    state changed in place has a new key; a failed check stores nothing.
    """
    rho = np.asarray(rho, dtype=complex)
    key, memo = (rho.shape, rho.tobytes()), ch._closed_form_memo
    if memo is not None and memo[0] == key:
        return memo[1]
    rho = check_density_matrix(rho)
    if rho.shape[0] != ch.in_dim:
        raise DimensionMismatch(
            f"state dim {rho.shape[0]} does not match channel input dim {ch.in_dim}"
        )
    r = Pdm(_closed_form(rho, ch.jamiolkowski()), (ch.in_dim, ch.out_dim))
    ch._closed_form_memo = (key, r)
    return r


def _check_int(x, name: str, low: int | None = None, error=ValueError) -> int:
    """``x`` as an int: a Python or numpy integer (not a bool) of at least ``low`` (when given),
    else ``error``."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {x!r}")
    if low is not None and x < low:
        raise error(f"{name} must be >= {low}, got {x}")
    return int(x)


class CorrelatorTable:
    """Two-time expectation values over the label grid of two observable bases.

    ``values`` is an ``(n1, n2)`` float array in basis-label order, NaN where
    a pair was not recorded; ``shots`` is an int64 array of the same shape
    (-1 where a pair has no count) or None.  Both are read-only copies of the
    arrays given.  ``entries`` is the one label view: ``{(label1, label2): value}``
    of the recorded pairs in label-grid order, built on first access and the
    same dict on every later one.
    """

    def __init__(self, basis1: ObservableBasis, basis2: ObservableBasis, values, shots=None):
        """Raises DimensionMismatch unless each array has shape ``(len(basis1), len(basis2))``,
        TypeError for values that are not real numbers (bool, complex or object dtype) and for shot
        counts that are not of an integer dtype (bool included), and ValueError, naming the first such
        pair, for an infinite value and for a count below -1 or above 2**63 - 1."""
        self.basis1, self.basis2 = basis1, basis2
        shape = (len(basis1), len(basis2))
        values = np.array(_grid(values, shape, "values", "iuf"), dtype=float)
        inf = np.isinf(values)
        if inf.any():
            a, b = _label_pairs(basis1, basis2, inf)[0]
            raise ValueError(f"entry ({a},{b}): value {float(values[inf][0])!r} is not finite")
        values.flags.writeable = False
        self.values = values
        self.shots = None
        if shots is not None:
            shots = _grid(shots, shape, "shots", "iu")
            # Compared as uint64 when unsigned: numpy 1.x compares uint64 with int64 through float64.
            unsigned = shots.dtype.kind == "u"
            bad = shots > np.uint64(_SHOTS_MAX) if unsigned else shots < -1
            if bad.any():
                a, b = _label_pairs(basis1, basis2, bad)[0]
                problem = f"is above {_SHOTS_MAX}" if unsigned else "is below -1"
                raise ValueError(f"shot count of ({a},{b}): shot count {shots[bad][0]} {problem}")
            self.shots = np.array(shots, dtype=np.int64)
            self.shots.flags.writeable = False

    @cached_property
    def entries(self) -> dict:
        keep = ~np.isnan(self.values)
        return dict(zip(_label_pairs(self.basis1, self.basis2, keep), self.values[keep].tolist()))

    def missing_pairs(self) -> list[tuple[str, str]]:
        return _label_pairs(self.basis1, self.basis2, np.isnan(self.values))

    def to_csv(self) -> str:
        """``label1,label2,value,shots`` and one row per recorded pair in label-grid order: the
        value at ``.17g``, the shot count or a blank.

        One ``%`` template holds every row, its labels escaped and its counts
        inlined, and one ``%`` fills all the values (``%.17g`` is
        ``format(v, '.17g')``).  A label-1 block of the template is one
        ``str.join`` of its kept label-2 cells, so no row is built on its own.
        """
        keep = ~np.isnan(self.values)
        cells2 = [b.replace("%", "%%") + ",%.17g," for b in self.basis2.labels]
        rows = repeat(cells2) if self.shots is None else (
            [c + ("" if n < 0 else str(n)) for c, n in zip(cells2, counts)] for counts in self.shots.tolist()
        )
        blocks = [_CSV_HEADER + "\n"]
        for a, row, kept in zip(self.basis1.labels, rows, keep.tolist()):
            a = a.replace("%", "%%") + ","
            if any(kept):
                blocks.append(a + ("\n" + a).join(compress(row, kept)) + "\n")
        return "".join(blocks) % tuple(self.values[keep].tolist())

    @classmethod
    def from_csv(cls, text: str, basis1: ObservableBasis,
                 basis2: ObservableBasis | None = None) -> "CorrelatorTable":
        """Parse ``to_csv`` output; blank lines are skipped and cells stripped.

        The text is parsed by column: one split into cells, then one pass
        per column, and the columns are put on the label grid in one ``np.put``
        each.  A pair not listed is NaN in ``values`` and -1 in ``shots``, and
        so is a blank count.  Raises KeyError for a label outside the bases,
        and ValueError for a row without four cells and, naming the row, a
        value or count that does not parse, a non-finite value, a negative
        count, a count above 2**63 - 1 (plain digits are read at any length),
        a repeated pair, and a cell that ``float`` or ``int`` reads but no
        writer produces: a value holding anything but ASCII digits, ``.``,
        ``e`` and ``-`` besides an exponent's ``e+`` (so ``1_0``, ``+1`` and
        non-ASCII digits), or a count holding anything but ASCII digits.
        Spaces and tabs may pad either.
        """
        basis2 = basis1 if basis2 is None else basis2
        rows = list(filter(str.strip, text.strip().splitlines()))
        if not rows or rows[0].strip() != _CSV_HEADER:
            raise ValueError(f"expected CSV header {_CSV_HEADER!r}")
        # One flat list of cells with a "\n" cell between rows (no row holds a line break), columns
        # taken by stride: every row has four cells exactly when the "\n" cells fall on every fifth.
        n = len(rows) - 1
        cells = ",\n,".join(rows[1:]).split(",") if n else []
        if n and (len(cells) != 5 * n - 1 or cells[4::5].count("\n") != n - 1):
            k = next(k for k, row in enumerate(rows) if row.count(",") != 3)
            raise ValueError(f"CSV row {k} has {rows[k].count(',') + 1} cells, expected 4: {rows[k]!r}")
        labels1, labels2 = list(map(str.strip, cells[0::5])), list(map(str.strip, cells[1::5]))
        value_cells, count_cells = cells[2::5], list(map(str.strip, cells[3::5]))

        def where(k):
            return f"CSV row {k + 1} ({labels1[k]},{labels2[k]})"

        def bad_value(k):
            return ValueError(f"{where(k)}: value {value_cells[k].strip()!r} is not a plain decimal number")

        def bad_count(k):
            return ValueError(f"{where(k)}: shot count {count_cells[k]!r} is not plain decimal digits")

        # list.extend keeps the cells read before one that raises, so their number indexes that cell.
        values = []
        try:
            values.extend(map(float, value_cells))  # float() strips the same whitespace str.strip() does
        except ValueError:
            raise bad_value(len(values)) from None
        i = np.fromiter(map(basis1.index.get, labels1, repeat(-1)), np.intp, n)
        j = np.fromiter(map(basis2.index.get, labels2, repeat(-1)), np.intp, n)
        unknown = np.flatnonzero((i < 0) | (j < 0))
        if unknown.size:
            k = unknown[0]
            raise KeyError(f"entry ({labels1[k]},{labels2[k]}) not in the declared bases")

        shape = (len(basis1), len(basis2))
        flat = i * shape[1] + j
        grid = np.full(shape, np.nan)
        np.put(grid, flat, values)
        if np.count_nonzero(np.isfinite(grid)) < n:  # a non-finite value or a repeated pair
            seen = set()
            for k, (v, cell) in enumerate(zip(values, flat.tolist())):
                if not math.isfinite(v):
                    raise ValueError(f"{where(k)}: value {v!r} is not finite")
                if cell in seen:
                    raise ValueError(f"{where(k)}: pair listed twice")
                seen.add(cell)
        k = _first_not_plain(value_cells, _VALUE_CHARS)
        if k is not None:
            raise bad_value(k)
        shots = None
        if any(count_cells):
            counts = []
            try:
                counts.extend(_read_count(c) if c else None for c in count_cells)
            except ValueError:
                raise bad_count(len(counts)) from None
            given = list(filter(None, counts))  # filter drops blanks (and zeros)
            if min(given, default=0) < 0 or max(given, default=0) > _SHOTS_MAX:
                k = next(k for k, c in enumerate(counts) if c is not None and not 0 <= c <= _SHOTS_MAX)
                problem = "is negative" if counts[k] < 0 else f"is above {_SHOTS_MAX}"
                shown = count_cells[k].lstrip("0") if _is_digits(count_cells[k]) else counts[k]
                raise ValueError(f"{where(k)}: shot count {shown} {problem}")
            k = _first_not_plain(count_cells, _COUNT_CHARS)
            if k is not None:
                raise bad_count(k)
            shots = np.full(shape, -1)
            np.put(shots, flat, [-1 if c is None else c for c in counts])
        return cls(basis1, basis2, grid, shots)

    def __repr__(self):
        return (
            f"CorrelatorTable({self.basis1.descriptor}/{self.basis2.descriptor}, "
            f"{int(np.count_nonzero(~np.isnan(self.values)))} entries)"
        )


# What a CSV value and a CSV count may hold besides an exponent's "e+": the characters of ``.17g``
# and of ``str(int)``, and spaces and tabs as padding.
_VALUE_CHARS, _COUNT_CHARS = b"0123456789.e- \t", b"0123456789 \t"


def _is_digits(cell: str) -> bool:
    return cell.isascii() and cell.isdigit()


def _read_count(cell: str) -> int:
    """``int(cell)``, but at any length for a cell of plain digits, where ``int`` refuses more than 4,300
    digits, leading zeros included.  With its leading zeros dropped, such a cell of more than 19 digits
    is above ``_SHOTS_MAX`` and reads as ``_SHOTS_MAX + 1``; the range message shows its digits."""
    if len(cell) <= 19 or not _is_digits(cell):
        return int(cell)
    digits = cell.lstrip("0")
    return int(digits or "0") if len(digits) <= 19 else _SHOTS_MAX + 1


def _first_not_plain(cells: list[str], chars: bytes) -> int | None:
    """The index of the first cell holding a character outside ``chars`` or a ``+`` outside an ``e+``,
    or None.  All cells are first scanned as one joined string, one ``bytes.translate`` pass."""

    def off(text):
        return not text.isascii() or bool(text.encode().replace(b"e+", b"e").translate(None, chars))

    if not off(" ".join(cells)):
        return None
    return next(k for k, cell in enumerate(cells) if off(cell))


def _grid(array, shape: tuple[int, int], name: str, kinds: str) -> np.ndarray:
    """``array`` as an ndarray (not copied), raising TypeError unless its dtype kind is one of
    ``kinds`` and DimensionMismatch unless its shape is ``shape``."""
    array = np.asarray(array)
    if array.dtype.kind not in kinds:
        raise TypeError(f"{name} must be {'real numbers' if 'f' in kinds else 'integers'}, "
                        f"got dtype {array.dtype}")
    if array.shape != shape:
        raise DimensionMismatch(f"{name} of shape {array.shape} do not match the bases' grid {shape}")
    return array


def _label_pairs(basis1: ObservableBasis, basis2: ObservableBasis, mask: np.ndarray) -> list[tuple[str, str]]:
    """The ``(label1, label2)`` pairs of the cells where an ``(n1, n2)`` mask holds, in label-grid order."""
    return [(basis1.labels[k], basis2.labels[l]) for k, l in np.argwhere(mask).tolist()]


def _overlaps(m, mats1: np.ndarray, mats2: np.ndarray) -> np.ndarray:
    """Complex ``Tr[M (A_k (x) B_l)]`` for every pair of the observable stacks
    ``(n1, d1, d1)`` and ``(n2, d2, d2)`` (a basis's ``matrices``), as ``(..., n1, n2)``.

    The contractions ``iajb,kji->kab`` then ``kab,lba->kl`` over the
    ``(d1, d2, d1, d2)`` view of each ``M`` in a ``(..., d1 d2, d1 d2)``
    stack, each as one matrix product; no ``d1 d2 x d1 d2`` pair operator is
    ever built.
    """
    (n1, d1, _), (n2, d2, _) = mats1.shape, mats2.shape
    m = np.asarray(m, dtype=complex)
    lead = m.shape[:-2]
    t = m.reshape(*lead, d1, d2, d1, d2).transpose(*range(len(lead)), -2, -4, -3, -1)
    partial = mats1.reshape(n1, d1 * d1) @ t.reshape(*lead, d1 * d1, d2 * d2)
    return partial @ mats2.transpose(0, 2, 1).reshape(n2, d2 * d2).T


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
    ``G1^-1 O G2^-T``: two products with each basis's stored inverse (for
    Pauli strings ``G = d I``, so they scale exactly by ``1/d``).
    """
    return basis1.gram_inv @ overlaps @ basis2.gram_inv.T


def _resolve_basis(basis) -> ObservableBasis:
    if isinstance(basis, str):
        return ObservableBasis.from_descriptor(basis)
    if isinstance(basis, ObservableBasis):
        return basis
    raise TypeError(f"basis must be a descriptor, an ObservableBasis or a pair of them, got {basis!r}")


def _resolve_bases(basis, dims) -> tuple[ObservableBasis, ObservableBasis]:
    """The bases of both factors: each factor's default for None, a pair read member by member, and
    one descriptor or ``ObservableBasis`` for both; TypeError naming ``basis`` otherwise."""
    if basis is None:
        return (ObservableBasis.default_for_dim(dims[0]), ObservableBasis.default_for_dim(dims[1]))
    if isinstance(basis, (tuple, list)) and len(basis) == 2:
        return (_resolve_basis(basis[0]), _resolve_basis(basis[1]))
    b = _resolve_basis(basis)
    return (b, b)


def exact_correlators(r: Pdm, basis=None) -> CorrelatorTable:
    """Analytic table entry(a, b) = Re Tr[R (A (x) B)] over the full basis grid: the correlators of
    R's Hermitian part (R + R^dag)/2, the matrix that ``r.eig`` diagonalises."""
    b1, b2 = _resolve_bases(basis, r.dims)
    if b1.dim != r.dims[0] or b2.dim != r.dims[1]:
        raise DimensionMismatch("basis dimensions do not match the PDM factors")
    return CorrelatorTable(b1, b2, _overlaps(r.mat, b1.matrices, b2.matrices).real)


def pdm_from_correlators(table: CorrelatorTable) -> Pdm:
    """Reconstruct the PDM from a complete correlator table.

    Solves ``Tr[R (A_k (x) B_l)] = <{A_k, B_l}>`` through the Kronecker
    factors of the pair family's Gram matrix; for Pauli bases this is the
    direct expansion ``R = sum <{A,B}> A (x) B / (d1 d2)``.
    """
    b1, b2 = table.basis1, table.basis2
    if np.isnan(table.values).any():
        raise IncompleteTable(table.missing_pairs())
    r = _expand(_factored_gram_solve(table.values, b1, b2), b1, b2)
    r = (r + r.conj().T) / 2.0
    return Pdm(r, (b1.dim, b2.dim))


class SiReport:
    """Result of minimizing ||R - rho||_p over density matrices.  ``minimizer`` (read-only), the minimizing
    q on R's eigenvectors (the normalized positive part of lam at p = 1), is computed from the measured
    ``Pdm``'s ``eig`` on first access and is the same array on every later one."""

    def __init__(self, r: Pdm, p: float, value: float, negative_eigenvalues: list):
        self._pdm, self.p, self.value, self.negative_eigenvalues = r, p, value, negative_eigenvalues

    @cached_property
    def minimizer(self) -> np.ndarray:
        lam, v = self._pdm.eig.eigenvalues, self._pdm.eig.eigenvectors
        if self.p == 1.0:
            q = np.maximum(lam, 0.0)
            q = q / q.sum(axis=-1, keepdims=True)
        else:
            q = project_simplex(lam)
        minimizer = (v * q) @ v.conj().T
        minimizer = (minimizer + minimizer.conj().T) / 2.0
        minimizer.flags.writeable = False
        return minimizer

    def to_dict(self) -> dict:
        return {"p": self.p, "value": self.value, "minimizer": self.minimizer,
                "negative_eigenvalues": self.negative_eigenvalues}


def _t1_closed_form(lam: np.ndarray) -> np.ndarray:
    """2 sum|negative eigs| for spectra ``(..., n)``."""
    return 2.0 * np.where(lam < -NEGATIVITY_ATOL, -lam, 0.0).sum(axis=-1)


def _t_p(lam: np.ndarray, p: float) -> np.ndarray:
    """T_p for ascending spectra ``(..., n)``: min ||lam - q||_p over the simplex, q not built at p = 1.

    At p = 1 this is 2 sum|negative eigs|; for p > 1 the Euclidean simplex
    projection of lam is the exact minimizer.  The gap ``lam - q`` is divided by
    its largest entry before the norm is taken, so its p-th powers do not all
    underflow at large p.  A spectrum whose least eigenvalue is not below -NEGATIVITY_ATOL gives exactly 0.
    """
    if p == 1.0:
        return _t1_closed_form(lam)
    gap = np.abs(lam - project_simplex(lam))
    top = np.max(gap, axis=-1)
    value = top * np.linalg.norm(gap / np.where(top > 0, top, 1.0)[..., None], ord=p, axis=-1)
    return np.where(lam[..., 0] < -NEGATIVITY_ATOL, value, 0.0)


def _t1_simplex_lps(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """min ||lam_i - q_i||_1 over the simplex for every row of an ``(N, n)`` spectrum stack, as one
    LP with sparse constraints, scipy's default HiGHS (independent of the closed form).

    The variables are every ``q`` then every ``t``, with ``|lam - q| <= t``
    and each row of ``q`` summing to 1.  Both objective and constraints split
    by row, so the optimum of ``sum t`` holds each row's optimum, read as the
    sum of that row's ``t``.  Returns the ``(N,)`` values and ``(N, n)`` minimizers.
    """
    import scipy.optimize
    import scipy.sparse

    lam = np.asarray(lam, dtype=float)
    rows, n = lam.shape
    size = rows * n
    eye = scipy.sparse.identity(size, format="csr")
    a_ub = scipy.sparse.bmat([[eye, -eye], [-eye, -eye]], format="csr")
    a_eq = scipy.sparse.csr_matrix((np.ones(size), (np.repeat(np.arange(rows), n), np.arange(size))),
                                   shape=(rows, 2 * size))
    res = scipy.optimize.linprog(
        np.concatenate([np.zeros(size), np.ones(size)]), A_ub=a_ub,
        b_ub=np.concatenate([lam.ravel(), -lam.ravel()]), A_eq=a_eq, b_eq=np.ones(rows),
        bounds=[(0, None)] * size + [(None, None)] * size,
    )
    if not res.success:
        raise RuntimeError(f"simplex LP failed: {res.message}")
    return res.x[size:].reshape(rows, n).sum(axis=1), res.x[:size].reshape(rows, n)


def si_measure(r: Pdm, p: float = 1.0) -> SiReport:
    """Degree of spatial incompatibility T_p(R) with the achieving density matrix.

    Unitary invariance of the Schatten norms (Mirsky) reduces the problem to
    the spectrum of ``r.eig``: T_p(R) = min ||lam - q||_p over the probability
    simplex.  At p = 1 this is the closed form 2*sum|negative eigs|; for every
    p > 1 the KKT conditions make the Euclidean simplex projection of lam the
    exact minimizer.  ``_t1_simplex_lps`` solves the p = 1 problem
    independently, for ``verify`` and the tests.
    """
    if not isinstance(r, Pdm):
        raise TypeError(f"si_measure takes a Pdm, got {type(r).__name__}")
    if isinstance(p, bool) or not isinstance(p, Real) or not (math.isfinite(p) and p >= 1.0):
        raise InvalidP(f"norm order must be a finite real >= 1, got {p!r}")
    p = float(p)
    lam = r.eig.eigenvalues
    return SiReport(r, p, max(float(_t_p(lam, p)), 0.0), lam[lam < -NEGATIVITY_ATOL].tolist())


class Witness:
    """Positive semidefinite observable with a local-in-time decomposition.

    The expectation over any density matrix is nonnegative, so a negative
    two-time expectation certifies that the statistics cannot come from a
    bipartite quantum state.

    ``coefficients`` is the ``(n1, n2)`` array of the ``a_kl`` of
    ``mat = sum a_kl A_k (x) B_l`` in basis-label order (read-only), computed
    from ``mat`` on first access and the same array on every later one.
    """

    def __init__(self, mat, basis1: ObservableBasis, basis2: ObservableBasis):
        mat = check_hermitian(mat, atol=WITNESS_ATOL)
        lo = float(np.linalg.eigvalsh(mat)[0])
        if lo < -NEGATIVITY_ATOL:
            raise ValueError(f"witness must be positive semidefinite, min eigenvalue {lo:.3e}")
        if mat.shape[0] != basis1.dim * basis2.dim:
            raise DimensionMismatch(f"witness of dim {mat.shape[0]} does not match bases of dims "
                                    f"{basis1.dim}x{basis2.dim}")
        self.mat, self.basis1, self.basis2 = mat, basis1, basis2

    @classmethod
    def _projector(cls, mat, basis1: ObservableBasis, basis2: ObservableBasis) -> "Witness":
        """The witness of a projector onto a checked ``Pdm``'s eigenvectors, over bases of its dims:
        Hermitian, positive semidefinite and of the bases' size by construction, so stored unchecked."""
        w = cls.__new__(cls)
        w.mat, w.basis1, w.basis2 = mat, basis1, basis2
        return w

    @cached_property
    def coefficients(self) -> np.ndarray:
        coefficients = np.ascontiguousarray(_pair_coefficients(self.mat, self.basis1, self.basis2))
        coefficients.flags.writeable = False
        return coefficients

    def expectation(self, r: Pdm) -> float:
        if r.dims != (self.basis1.dim, self.basis2.dim):
            raise DimensionMismatch(f"PDM of dims {r.dims} does not match bases of dims "
                                    f"{self.basis1.dim}x{self.basis2.dim}")
        return float((self.mat @ r.mat).trace().real)

    def to_dict(self) -> dict:
        """The matrix, the ``"label1|label2"``-keyed coefficients sorted by label pair, and the bases."""
        c = self.coefficients
        pairs = _label_pairs(self.basis1, self.basis2, np.ones(c.shape, bool))
        return {
            "matrix": self.mat,
            "coefficients": {f"{a}|{b}": v for (a, b), v in sorted(zip(pairs, c.ravel().tolist()))},
            "basis": [self.basis1.descriptor, self.basis2.descriptor],
        }

    def __repr__(self):
        return f"Witness(dim={self.mat.shape[0]}, {len(self.basis1) * len(self.basis2)} coefficients)"


def _pair_coefficients(mat, b1: ObservableBasis, b2: ObservableBasis) -> np.ndarray:
    """The ``(n1, n2)`` coefficients ``a_kl`` of ``mat = sum a_kl A_k (x) B_l``."""
    return _factored_gram_solve(_overlaps(mat, b1.matrices, b2.matrices).real, b1, b2)


def synthesize_witness(r: Pdm, policy: str = "negative_eigenspace") -> Witness:
    """Build an SI witness for a PDM with at least one negative eigenvalue.

    Policies (``WITNESS_POLICIES``): ``negative_eigenspace`` projects onto
    the span of all negative-eigenvalue eigenvectors of ``r.eig`` (default),
    ``most_negative`` onto the eigenspace of the minimum eigenvalue: every
    eigenvalue within ``MIN_EIGENVALUE_TIE_RTOL * max(1, max|lam|)`` of it, so a
    degenerate minimum gives the same projector whichever basis ``eigh``
    picks within it.  A matrix of one's own becomes a witness through
    ``Witness(mat, basis1, basis2)``.
    """
    if policy not in WITNESS_POLICIES:
        raise ValueError(f"unknown witness policy {policy!r}; use one of {', '.join(WITNESS_POLICIES)}")
    lam, v = r.eig.eigenvalues, r.eig.eigenvectors
    if lam[0] >= -NEGATIVITY_ATOL:
        raise NotSpatiallyIncompatible(
            f"min eigenvalue {lam[0]:.3e} >= -{NEGATIVITY_ATOL}; no witness exists"
        )
    if policy == "negative_eigenspace":
        sel = lam < -NEGATIVITY_ATOL
    else:
        sel = lam - lam[0] <= MIN_EIGENVALUE_TIE_RTOL * max(1.0, -lam[0], lam[-1])
    v = v[:, sel]
    w = v @ v.conj().T
    b1 = ObservableBasis.default_for_dim(r.dims[0])
    b2 = ObservableBasis.default_for_dim(r.dims[1])
    return Witness._projector(w, b1, b2)


def evaluate_witness(w: Witness, table: CorrelatorTable) -> float:
    """Two-time expectation <W>_t = sum a_ab <{A, B}> from a correlator table over the witness's bases.

    Each table basis must be the witness's: the same object, or the same
    labels over equal matrices; otherwise DimensionMismatch.  Raises
    IncompleteTable, listing the pairs in label order, when a pair with
    ``|a_ab| > WITNESS_COEFF_ATOL`` was not recorded.
    """
    if not all(a is b or (a.labels == b.labels and np.array_equal(a.matrices, b.matrices))
               for a, b in ((w.basis1, table.basis1), (w.basis2, table.basis2))):
        raise DimensionMismatch("witness and table are over different bases")
    c, values = w.coefficients, table.values
    needed = np.abs(c) > WITNESS_COEFF_ATOL
    missing = needed & np.isnan(values)
    if missing.any():
        raise IncompleteTable(_label_pairs(w.basis1, w.basis2, missing))
    # Summed left to right over Python floats in row-major order, as a label-keyed sum would be.
    return float(sum((c[needed] * values[needed]).tolist()))


@dataclass
class BoundCheck:
    t1: float
    reference: float
    bound_ok: bool


def _bound_check(t1, d: int) -> BoundCheck:
    """T_1 of d-dimensional channels against the SI bound d - 1, for a float ``t1`` or an array
    (whose ``bound_ok`` is then a list).

    The reference is T_1 of the extremal PDM, that of a pure basis state
    through the identity channel, R = (1/2){|0><0| (x) I, SWAP}.  It maps |00>
    to itself, swaps |0i> and |i0> with weight 1/2 for each i != 0, and sends
    every |ij> with i, j != 0 to zero.  Its spectrum is therefore
    {1, 1/2 x (d-1), -1/2 x (d-1), 0 x (d-1)^2}, and T_1 = 2 sum|negative eigs|
    = d - 1 (1 for qubits, the paper's bound).  ``bound_ok`` allows BOUND_SLACK.
    """
    reference = float(d - 1)
    ok = t1 <= reference + BOUND_SLACK
    return BoundCheck(t1=t1, reference=reference, bound_ok=ok if type(ok) is bool else ok.tolist())


def check_bound(rho, ch: KrausChannel) -> BoundCheck:
    """Check T_1(R(rho, ch)) against the bound of ``_bound_check``, from the spectrum of the pair's
    ``Pdm`` (the channel's memo entry): after ``pdm_closed_form`` and ``si_measure`` on the same
    pair, nothing is checked or diagonalised again."""
    if ch.in_dim != ch.out_dim:
        raise DimensionMismatch("the SI bound is stated for equal input and output dimensions")
    return _bound_check(float(_t1_closed_form(pdm_closed_form(rho, ch).eig.eigenvalues)), ch.in_dim)
