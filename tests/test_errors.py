"""Library error branches: each bad input raises its own type with its own message."""

import numpy as np
import pytest

from pdmsi import random as prandom
from pdmsi.channels import KrausChannel, identity_channel, unitary_channel
from pdmsi.coherence import adversarial_coherent_state, block_positivity_test, build_ce_oi_channel, classify_channel
from pdmsi.exceptions import DimensionMismatch
from pdmsi.leggett_garg import lg_vs_si
from pdmsi.linalg import project_simplex
from pdmsi.observables import LightTouchObservable, ObservableBasis, light_touch_basis, pauli_basis
from pdmsi.pdm import CorrelatorTable, Witness, exact_correlators, pdm_closed_form
from pdmsi.sampling import sample_table
from pdmsi.serialize import dumps
from pdmsi.states import ket, projector
from pdmsi.verify import run_suites

PAULI1 = ObservableBasis.pauli(1)
PAULI2 = ObservableBasis.pauli(2)
I2, X, Y, Z = pauli_basis(1)


def qubit_to_qutrit():
    return prandom.channel(2, 3, env_dim=2, rng=np.random.default_rng(0))


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: KrausChannel([np.eye(2), np.eye(3)]), DimensionMismatch,
                 "all Kraus operators must share one 2-D shape", id="kraus-shapes-differ"),
    pytest.param(lambda: unitary_channel(np.ones((2, 3))), DimensionMismatch, "unitary must be square",
                 id="unitary-not-square"),
    pytest.param(lambda: classify_channel(qubit_to_qutrit()), DimensionMismatch,
                 "coherence classification needs equal input and output dims", id="classify-2-to-3"),
    pytest.param(lambda: lg_vs_si(qubit_to_qutrit(), [np.eye(2) / 2]), DimensionMismatch,
                 "LG legs must map the system dimension to itself", id="lg-vs-si-2-to-3"),
    pytest.param(lambda: block_positivity_test([1.0], identity_channel(2)), DimensionMismatch,
                 "probability vector length must match channel input dim", id="block-test-short-probs"),
    pytest.param(lambda: build_ce_oi_channel(np.ones((2, 3)) / 2), DimensionMismatch,
                 "stochastic matrix must be square", id="ce-oi-not-square"),
    pytest.param(lambda: adversarial_coherent_state(np.eye(2), 0, 0, 0, 0.5), ValueError,
                 "need distinct valid indices i, j and a valid k", id="adversarial-i-equals-j"),
    pytest.param(lambda: adversarial_coherent_state(np.eye(2), 0, 2, 0, 0.5), ValueError,
                 "need distinct valid indices i, j and a valid k", id="adversarial-index-out-of-range"),
    pytest.param(lambda: project_simplex(1.0), DimensionMismatch,
                 "project_simplex expects a vector or rows of vectors", id="simplex-scalar"),
    pytest.param(lambda: project_simplex([np.nan, 1]), ValueError, "project_simplex requires finite entries",
                 id="simplex-nan"),
    pytest.param(lambda: LightTouchObservable(np.zeros((2, 2)), "O"), ValueError,
                 "light-touch observable must be nonzero", id="light-touch-zero"),
    pytest.param(lambda: light_touch_basis(1), ValueError, "d must be >= 2", id="light-touch-basis-d1"),
    pytest.param(lambda: ObservableBasis([I2, LightTouchObservable(Z.matrix, "I")], "repeat"), ValueError,
                 "observable labels must be unique", id="basis-repeated-label"),
    pytest.param(lambda: ObservableBasis([I2, LightTouchObservable(np.diag([1.0, -1.0, 1.0]), "D")], "mixed"),
                 DimensionMismatch, "all observables in a basis must share one dimension", id="basis-mixed-dims"),
    pytest.param(lambda: ObservableBasis([LightTouchObservable(2 * np.eye(2), "J"), X, Y, Z], "no I").identity_label,
                 ValueError, "basis has no identity observable", id="basis-without-identity"),
    pytest.param(lambda: CorrelatorTable.from_csv("x,y,z\n", PAULI1, PAULI1), ValueError,
                 "expected CSV header 'label1,label2,value,shots'", id="from-csv-bad-header"),
    pytest.param(lambda: exact_correlators(pdm_closed_form(projector(ket(0)), identity_channel(2)), "pauli:2"),
                 DimensionMismatch, "basis dimensions do not match the PDM factors", id="exact-correlators-pauli2"),
    pytest.param(lambda: Witness(np.eye(8) / 8, PAULI1, PAULI1), DimensionMismatch,
                 "witness of dim 8 does not match bases of dims 2x2", id="witness-dim"),
    pytest.param(lambda: sample_table(projector(ket(0)), identity_channel(2), (PAULI2, PAULI2), 10, 1),
                 DimensionMismatch, "observable dimensions do not match the channel", id="sample-table-pauli2"),
    pytest.param(lambda: ket(2, 2), DimensionMismatch, "basis index 2 out of range for dimension 2", id="ket-index"),
    pytest.param(lambda: projector([0, 0]), ValueError, "cannot project onto the zero vector", id="projector-zero"),
    pytest.param(lambda: run_suites("nope"), ValueError, "unknown suite 'nope'; choose from all, pdm, coherence, lg",
                 id="run-suites-unknown"),
])
def test_error_type_and_message(call, error, message):
    with pytest.raises(error) as got:
        call()
    assert type(got.value) is error and str(got.value) == message


def test_empty_containers_serialize_bare():
    assert dumps([]) == "[]"
    assert dumps({}) == "{}"
