"""Each named tolerance is the threshold its verdict reads.

Every row builds an input whose defect is a given multiple of one constant and
reports whether the verdict treats it as within tolerance: at 0.5x it must, at
2x it must not.  The defects are far above rounding (at least 5e-13 against
errors near 1e-16), so each row pins the constant, not the arithmetic.
"""

import numpy as np
import pytest
import scipy.linalg

from pdmsi.channels import (
    TRACE_PRESERVING_ATOL,
    UNITARITY_ATOL,
    KrausChannel,
    depolarizing_channel,
    identity_channel,
    unitary_channel,
)
from pdmsi.coherence import (
    ASYMMETRY_ATOL,
    CLASS_ATOL,
    PROB_ATOL,
    adversarial_coherent_state,
    block_positivity_test,
    check_probability_vector,
    check_stochastic_matrix,
    classify_channel,
)
from pdmsi.exceptions import IncompleteTable, NoAsymmetricColumn, NotSpatiallyIncompatible
from pdmsi.leggett_garg import DICHOTOMIC_ATOL, LG_SLACK, SI_DETECT_ATOL, check_dichotomic, lg_vs_si
from pdmsi.observables import COMPLETENESS_RTOL, LIGHT_TOUCH_ATOL, PAULI_1Q, LightTouchObservable
from pdmsi.observables import ObservableBasis
from pdmsi.pdm import (
    BOUND_SLACK,
    MIN_EIGENVALUE_TIE_RTOL,
    NEGATIVITY_ATOL,
    PDM_ATOL,
    WITNESS_COEFF_ATOL,
    CorrelatorTable,
    Pdm,
    Witness,
    _bound_check,
    _PdmStack,
    evaluate_witness,
    pdm_closed_form,
    si_measure,
    synthesize_witness,
)
from pdmsi.states import DENSITY_ATOL, check_density_matrix, ket, ketbra, projector


def accepted(build, error=ValueError) -> bool:
    """Whether ``build()`` returns rather than raising ``error``."""
    try:
        build()
    except error:
        return False
    return True


def unitary_accepted(e):
    """diag(sqrt(1 + e), 1), whose max|u^dag u - I| is e, judged by the unitarity check; the
    trace-preservation check after it reads the same defect, so its message is not accepted here."""
    try:
        unitary_channel(np.diag([np.sqrt(1.0 + e), 1.0]))
    except ValueError as exc:
        if str(exc) != "matrix is not unitary":
            raise
        return False
    return True


def near_singular_basis(e):
    """I, X, Z and c Y + s X (c^2 + s^2 = 1): Gram eigenvalues 2(1 - s), 2, 2, 2(1 + s), so with
    s = (1 - e) / (1 + e) the smallest is e times the largest."""
    s = (1.0 - e) / (1.0 + e)
    tilted = np.sqrt(1.0 - s * s) * PAULI_1Q["Y"] + s * PAULI_1Q["X"]
    members = [LightTouchObservable(PAULI_1Q[k], k) for k in "IXZ"] + [LightTouchObservable(tilted, "T")]
    return ObservableBasis(members, "near-singular")


def spectrum_route_accepts(defect):
    """Whether ``_PdmStack`` takes a stack of two PDMs, the second of which is ``I / 4 + defect``."""
    return accepted(lambda: _PdmStack(np.stack([np.eye(4) / 4.0, np.eye(4) / 4.0 + defect]), (2, 2)))


def negative_eigenvalue_ignored(e):
    """A PDM whose one negative eigenvalue is -e: within NEGATIVITY_ATOL no witness exists."""
    r = Pdm(np.diag([1.0 + e, 0.0, 0.0, -e]), (2, 2))
    return not accepted(lambda: synthesize_witness(r), NotSpatiallyIncompatible)


def minimum_tie_joined(e):
    """A PDM with eigenvalues -1/2 and -1/2 + e (and max|lam| = 1): within the tie rule the
    ``most_negative`` witness projects onto both."""
    r = Pdm(np.diag([-0.5, -0.5 + e, 1.0, 1.0 - e]), (2, 2))
    rank = round(float(np.trace(synthesize_witness(r, policy="most_negative").mat).real))
    assert rank in (1, 2)
    return rank == 2


def missing_coefficient_ignored(e):
    """``I (x) I / 4 + e X (x) X``, whose (X, X) coefficient is e, on a table without (X, X)."""
    b = ObservableBasis.pauli(1)
    w = Witness(np.eye(4) / 4.0 + e * np.kron(PAULI_1Q["X"], PAULI_1Q["X"]), b, b)
    assert w.coefficients[1, 1] == pytest.approx(e, rel=1e-6)
    values = np.zeros((4, 4))
    values[1, 1] = np.nan  # (X, X) not recorded
    table = CorrelatorTable(b, b, values)
    return accepted(lambda: evaluate_witness(w, table), IncompleteTable)


def oi_holds(e):
    """``(1 - e) Delta + e id``, whose OI residual ``||ch(|0><1|)||_F`` is e."""
    ops = [np.sqrt(1.0 - e) * ketbra(0, 0), np.sqrt(1.0 - e) * ketbra(1, 1), np.sqrt(e) * np.eye(2)]
    report = classify_channel(KrausChannel(ops))
    assert report.residuals["oi"] == pytest.approx(e, rel=1e-6)
    return report.is_oi


def ncgd_holds(e):
    """The nilpotent qubit generator population -> coherence -> population, L[1, 0] = 1 and
    L[3, 1] = e in row-major vec, whose normalised NCGD residual ||DK|| / s^2 is e / (1 + e^2)
    (s^2 = 1 + e^2, the squared Frobenius norm of L's population rows and columns)."""
    gen = np.zeros((4, 4))
    gen[1, 0], gen[3, 1] = 1.0, e
    report = classify_channel(identity_channel(2), ncgd_probe=gen)
    assert report.residuals["ncgd"] == pytest.approx(e / (1.0 + e * e), rel=1e-6)
    return report.is_ncgd


def leaky_dephasing(e):
    """``(1 - 2e) Delta + 2e id``: from probs (1, 0) its PDM has the block R_01 = e |1><0| outside the
    support of R_00 = |0><0| (support residual e), and min eigenvalue -e."""
    ops = [np.sqrt(1.0 - 2.0 * e) * ketbra(0, 0), np.sqrt(1.0 - 2.0 * e) * ketbra(1, 1), np.sqrt(2.0 * e) * np.eye(2)]
    return KrausChannel(ops)


def block_test_compatible(e):
    res = block_positivity_test([1.0, 0.0], leaky_dephasing(e))
    assert res.compatible or (res.failing_pair, res.failure_kind) == ((0, 1), "support")
    return res.compatible


def lg_holds(e):
    """Z at three times around two X rotations by theta, where
    K = 2 cos(theta) - cos(2 theta) = 1 + theta^2 + O(theta^4)."""
    theta = np.sqrt(e)
    ch = unitary_channel(scipy.linalg.expm(-0.5j * theta * PAULI_1Q["X"]))
    res = lg_vs_si(ch, [projector(ket(0))])
    assert res.max_k == pytest.approx(1.0 + e, abs=1e-3 * e)
    return not res.lg_violated


def si_undetected(e):
    """|0><0| through the depolarizing channel of strength 1 - eps, whose T_1 is
    sqrt(a^2 + eps^2) - a with a = (1 - eps)/2; eps is solved for T_1 = e."""
    eps = (-e + np.sqrt(e * e + 4.0 * (e + e * e))) / 2.0
    res = lg_vs_si(depolarizing_channel(1.0 - eps), [projector(ket(0))])
    assert res.best_negativity == pytest.approx(e, rel=1e-3)
    return not res.si_detected


# (constant name, value, within(defect) -> whether the verdict treats the defect as tolerated)
THRESHOLDS = [
    ("TRACE_PRESERVING_ATOL", TRACE_PRESERVING_ATOL,
     lambda e: accepted(lambda: KrausChannel([np.sqrt(1.0 + e) * np.eye(2)]))),
    ("UNITARITY_ATOL", UNITARITY_ATOL, unitary_accepted),
    ("DENSITY_ATOL", DENSITY_ATOL, lambda e: accepted(lambda: check_density_matrix(np.diag([1.0 + e, -e])))),
    ("PDM_ATOL", PDM_ATOL, lambda e: accepted(lambda: Pdm(np.eye(4) * (1.0 + e) / 4.0, (2, 2)))),
    ("PDM_ATOL spectrum Hermiticity", PDM_ATOL, lambda e: spectrum_route_accepts(e * np.eye(4, k=1))),
    ("PDM_ATOL spectrum trace", PDM_ATOL, lambda e: spectrum_route_accepts(e * np.eye(4) / 4.0)),
    ("NEGATIVITY_ATOL", NEGATIVITY_ATOL, negative_eigenvalue_ignored),
    ("WITNESS_COEFF_ATOL", WITNESS_COEFF_ATOL, missing_coefficient_ignored),
    ("MIN_EIGENVALUE_TIE_RTOL", MIN_EIGENVALUE_TIE_RTOL, minimum_tie_joined),
    ("CLASS_ATOL", CLASS_ATOL, oi_holds),
    ("CLASS_ATOL Liouvillian NCGD", CLASS_ATOL, ncgd_holds),
    ("CLASS_ATOL block test", CLASS_ATOL, block_test_compatible),
    ("BOUND_SLACK", BOUND_SLACK, lambda e: _bound_check(1.0 + e, 2).bound_ok),
    ("PROB_ATOL probability vector", PROB_ATOL,
     lambda e: accepted(lambda: check_probability_vector([0.5, 0.5 + e], 2))),
    ("PROB_ATOL stochastic matrix", PROB_ATOL,
     lambda e: accepted(lambda: check_stochastic_matrix([[0.5, 0.0], [0.5 + e, 1.0]]))),
    ("DICHOTOMIC_ATOL", DICHOTOMIC_ATOL,
     lambda e: accepted(lambda: check_dichotomic(np.diag([np.sqrt(1.0 + e), -1.0])))),
    ("LIGHT_TOUCH_ATOL", LIGHT_TOUCH_ATOL,
     lambda e: accepted(lambda: LightTouchObservable(np.diag([1.0, -1.0 - e]), "L"))),
    # Within the ratio the basis is read as incomplete.
    ("COMPLETENESS_RTOL", COMPLETENESS_RTOL, lambda e: not accepted(lambda: near_singular_basis(e))),
    # Columns 0 and 1 that differ by e in each entry coincide; so do entries a_00 and a_01 that differ by e.
    ("ASYMMETRY_ATOL columns", ASYMMETRY_ATOL, lambda e: not accepted(
        lambda: adversarial_coherent_state([[0.5, 0.5 + e], [0.5, 0.5 - e]], 0, 1, 0, 0.5), NoAsymmetricColumn)),
    ("ASYMMETRY_ATOL entries", ASYMMETRY_ATOL, lambda e: not accepted(
        lambda: adversarial_coherent_state([[0.2, 0.2 + e, 0.2], [0.5, 0.3 - e, 0.5], [0.3, 0.5, 0.3]], 0, 1, 0, 0.5))),
    ("LG_SLACK", LG_SLACK, lg_holds),
    ("SI_DETECT_ATOL", SI_DETECT_ATOL, si_undetected),
]


@pytest.mark.parametrize("factor", [0.5, 2.0])
@pytest.mark.parametrize("name, tol, within", THRESHOLDS, ids=[row[0] for row in THRESHOLDS])
def test_threshold_is_the_constant(name, tol, within, factor):
    assert within(factor * tol) is (factor < 1.0)


def test_block_test_tolerates_what_the_spectrum_reads_as_si():
    """Between NEGATIVITY_ATOL and CLASS_ATOL the two verdicts disagree: the block test calls the
    PDM compatible while T_1 = 2e, read from the spectrum, is positive."""
    e = 0.5 * CLASS_ATOL
    ch = leaky_dephasing(e)
    assert block_positivity_test([1.0, 0.0], ch).compatible
    r = pdm_closed_form(np.diag([1.0, 0.0]), ch)
    assert r.min_eigenvalue() == pytest.approx(-e, rel=1e-6)
    assert si_measure(r, 1.0).value == pytest.approx(2.0 * e, rel=1e-6)
