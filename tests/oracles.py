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


# Label-keyed correlator tables as ``{(label1, label2): float}`` dicts, the
# storage the array-backed CorrelatorTable and Witness replaced; the array
# code must match these exactly, byte for byte and bit for bit.

def dict_table_to_csv(basis1, basis2, entries: dict, shot_counts: dict | None) -> str:
    lines = ["label1,label2,value,shots"]
    for a in basis1.labels:
        for b in basis2.labels:
            if (a, b) not in entries:
                continue
            shots = "" if shot_counts is None else str(shot_counts.get((a, b), ""))
            lines.append(f"{a},{b},{format(entries[(a, b)], '.17g')},{shots}")
    return "\n".join(lines) + "\n"


def dict_table_from_csv(text: str, basis1, basis2) -> tuple[dict, dict | None]:
    """``(entries, shot_counts)`` of a table CSV, with the same ValueError and KeyError."""
    entries, shots = {}, {}
    rows = [line for line in text.strip().splitlines() if line.strip()]
    if not rows or rows[0].strip() != "label1,label2,value,shots":
        raise ValueError("expected CSV header 'label1,label2,value,shots'")
    for line in rows[1:]:
        a, b, value, n = (cell.strip() for cell in line.split(","))
        entries[(a, b)] = float(value)
        if n:
            shots[(a, b)] = int(n)
    for l1, l2 in entries:
        if l1 not in basis1 or l2 not in basis2:
            raise KeyError(f"entry ({l1},{l2}) not in the declared bases")
    return entries, shots or None


def dict_missing_pairs(basis1, basis2, entries: dict) -> list:
    return [(a, b) for a in basis1.labels for b in basis2.labels if (a, b) not in entries]


def dict_evaluate_witness(coeffs: dict, entries: dict, coeff_atol: float = 1e-12):
    """``<W>`` from label-keyed coefficients, or the list of missing pairs."""
    needed = {k: c for k, c in coeffs.items() if abs(c) > coeff_atol}
    missing = [k for k in needed if k not in entries]
    if missing:
        return missing
    return float(sum(c * entries[k] for k, c in needed.items()))


def dict_witness_coefficients(coeffs: dict) -> dict:
    """``Witness.to_dict()["coefficients"]``: ``"a|b"`` keys sorted by label pair."""
    return {f"{a}|{b}": c for (a, b), c in sorted(coeffs.items())}


def dephasing_superoperator(d: int) -> np.ndarray:
    """Superoperator of Delta in the row-major vectorization."""
    diag = np.zeros(d * d)
    diag[:: d + 1] = 1.0
    return np.diag(diag)


def delta_class_residuals(s) -> dict:
    """The OI, CE, CI and DI residuals and the single-channel NCGD surrogate of superoperators
    ``(..., d^2, d^2)``, each the max column norm of the gap between its identity's two sides,
    formed as dense products with Delta."""
    delta = dephasing_superoperator(int(round(np.sqrt(s.shape[-1]))))

    def gap(left, right):
        return np.max(np.linalg.norm(left - right, axis=-2), axis=-1)

    return {
        "oi": gap(s, s @ delta),
        "ce": gap(s, delta @ s),
        "ci": gap(s @ delta, delta @ s @ delta),
        "di": gap(delta @ s, delta @ s @ delta),
        "ncgd": gap(delta @ s @ delta @ s @ delta, delta @ s @ s @ delta),
    }


# The (t, tau) grid on which a dynamics family t -> F_t is probed for NCGD.
NCGD_GRID = np.logspace(-2.0, 1.0, 10)


def loop_ncgd_residual(family, delta) -> float:
    """Max deviation of Delta F_t Delta F_tau Delta from Delta F_{t+tau} Delta over the 10 x 10
    (t, tau) grid, with three single-time ``family(t)`` calls per pair.  On a semigroup a pass
    means only "not refuted on the grid"; the exact generator test is checked against it."""
    worst = 0.0
    for t in NCGD_GRID:
        for tau in NCGD_GRID:
            lhs = delta @ family(t) @ delta @ family(tau) @ delta
            rhs = delta @ family(t + tau) @ delta
            worst = max(worst, float(np.max(np.linalg.norm(lhs - rhs, axis=-2))))
    return worst


def gram_solve(overlaps, basis1, basis2) -> np.ndarray:
    """Coefficients ``G1^-1 O G2^-T`` per ``(n1, n2)`` slice by two ``np.linalg.solve`` calls against
    the bases' Gram matrices, the route each basis's stored inverse replaced."""
    left = np.linalg.solve(basis1.gram, overlaps)
    return np.linalg.solve(basis2.gram, left.swapaxes(-1, -2)).swapaxes(-1, -2)
