import re

import numpy as np
import pytest

from pdmsi.exceptions import NonHermitian
from pdmsi.observables import (
    PAULI_1Q,
    LightTouchObservable,
    ObservableBasis,
    PauliString,
    light_touch_basis,
    pauli_basis,
)


class TestPauliBasis:
    def test_single_qubit(self):
        basis = pauli_basis(1)
        assert [p.label for p in basis] == ["I", "X", "Y", "Z"]
        assert np.allclose(basis[0].matrix, np.eye(2))
        assert np.allclose(basis[3].matrix, np.diag([1, -1]))

    def test_two_qubit_order(self):
        basis = pauli_basis(2)
        assert len(basis) == 16
        assert basis[0].label == "II"
        assert basis[-1].label == "ZZ"

    def test_trace_orthogonality(self):
        basis = pauli_basis(2)
        mats = {p.label: p.matrix for p in basis}
        assert abs(np.trace(mats["XZ"] @ mats["XZ"]) - 4.0) < 1e-12
        assert abs(np.trace(mats["XZ"] @ mats["YI"])) < 1e-12
        for a in basis:
            for b in basis:
                expected = 4.0 if a.label == b.label else 0.0
                assert abs(np.trace(a.matrix @ b.matrix) - expected) < 1e-12

    def test_expansion_reconstructs_hermitian(self):
        rng = np.random.default_rng(5)
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = (h + h.conj().T) / 2
        recon = sum(
            np.trace(h @ p.matrix) / 4.0 * p.matrix for p in pauli_basis(2)
        )
        assert np.linalg.norm(recon - h) < 1e-10

    def test_spectrum_and_hermiticity(self):
        for p in pauli_basis(2):
            assert np.linalg.norm(p.matrix - p.matrix.conj().T) < 1e-14
            w = np.linalg.eigvalsh(p.matrix)
            assert np.all(np.isin(np.round(w, 10), [-1.0, 1.0]))
            if not p.is_identity:
                assert abs(np.trace(p.matrix)) < 1e-12

    def test_pauli_string_is_light_touch_without_eigensolve(self, monkeypatch):
        def no_eigensolve(*args, **kwargs):
            raise AssertionError("a Pauli string's spectrum is read off its letters")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
        basis = pauli_basis(3)
        assert len(basis) == 64 and all(isinstance(p, LightTouchObservable) for p in basis)
        assert (PauliString("II").kind, PauliString("XZ").kind) == ("single", "pm")
        assert {p.lam for p in basis} == {1.0}
        assert [p.label for p in basis if p.kind == "single"] == ["III"]

    def test_invalid(self):
        with pytest.raises(ValueError):
            PauliString("A")
        with pytest.raises(ValueError):
            pauli_basis(0)

    def test_constants_cannot_be_scaled_in_place(self):
        # A one-letter string's matrix is the constant itself, so an in-place write
        # would change every later Pauli string and basis.
        for handed_out in (PauliString("X").matrix, ObservableBasis.pauli(1).matrix("X"), PAULI_1Q["Z"]):
            with pytest.raises(ValueError, match="read-only"):
                handed_out *= 2.0
        assert np.array_equal(PauliString("X").matrix, [[0, 1], [1, 0]])
        assert np.array_equal(PAULI_1Q["Z"], np.diag([1, -1]))


class TestLightTouch:
    def test_qubit_case_is_pauli(self):
        lt = light_touch_basis(2)
        pb = pauli_basis(1)
        assert [o.label for o in lt] == [p.label for p in pb]
        for o, p in zip(lt, pb):
            assert np.allclose(o.matrix, p.matrix)
            assert isinstance(o, PauliString)
            assert (o.lam, o.kind) == (p.lam, p.kind)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_complete_and_light_touch(self, d):
        obs = light_touch_basis(d)
        assert len(obs) == d * d
        vecs = np.stack([o.matrix.reshape(-1) for o in obs])
        assert np.linalg.matrix_rank(vecs, tol=1e-10) == d * d
        assert len(ObservableBasis(obs, f"family:{d}")) == d * d
        assert {o.lam for o in obs} == {1.0}
        for o in obs:
            w = np.linalg.eigvalsh(o.matrix)
            lam = o.lam
            if o.kind == "single":
                assert np.all(np.abs(w - lam) < 1e-10)
            else:
                assert np.all(np.minimum(np.abs(w - lam), np.abs(w + lam)) < 1e-10)

    def test_rejects_bad_spectrum(self):
        with pytest.raises(ValueError):
            LightTouchObservable(np.diag([1.0, 2.0]), "bad")

    def test_rejects_non_hermitian(self):
        # eigvalsh reads one triangle only, so the spectrum test alone would pass this.
        with pytest.raises(NonHermitian):
            LightTouchObservable([[1, 5], [0, -1]], "N")


class TestObservableBasis:
    def test_descriptor_round_trip(self):
        for desc in ["pauli:1", "pauli:2", "light_touch:3"]:
            basis = ObservableBasis.from_descriptor(desc)
            assert basis.descriptor == desc
            assert len(basis) == basis.dim**2

    def test_identity_label(self):
        assert ObservableBasis.pauli(1).identity_label == "I"
        assert ObservableBasis.pauli(2).identity_label == "II"
        assert ObservableBasis.light_touch(3).identity_label == "D0"

    def test_default_for_dim(self):
        assert ObservableBasis.default_for_dim(2).descriptor == "pauli:1"
        assert ObservableBasis.default_for_dim(4).descriptor == "pauli:2"
        assert ObservableBasis.default_for_dim(3).descriptor == "light_touch:3"

    @pytest.mark.parametrize("mats", [
        [],
        [PAULI_1Q[c] for c in "IXZ"],
        [PAULI_1Q[c] for c in "IXXZ"],
        # cos(0.2) X + sin(0.2) Z has spectrum {+1, -1}; the Gram's smallest eigenvalue rounds to +1.2e-16.
        [PAULI_1Q["I"], PAULI_1Q["X"], PAULI_1Q["Z"], np.cos(0.2) * PAULI_1Q["X"] + np.sin(0.2) * PAULI_1Q["Z"]],
    ])
    def test_incomplete_family_rejected(self, mats):
        with pytest.raises(ValueError, match="empty|not tomographically complete"):
            ObservableBasis([LightTouchObservable(m, f"A{k}") for k, m in enumerate(mats)], "incomplete")

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_completeness_is_scale_free(self, scale):
        basis = ObservableBasis([LightTouchObservable(scale * PAULI_1Q[c], c) for c in "IXYZ"], "scaled")
        assert np.allclose(2 * scale**2 * basis.gram_inv, np.eye(4))

    @pytest.mark.parametrize("label", ["X,1", " Y", "Y ", "A|B", "a\nb", "a\rb", "a\x0bb", "a\u2028b"])
    def test_rejects_label_a_table_or_witness_cannot_carry(self, label):
        """A ',' or line break splits a CSV row, surrounding whitespace is stripped on reading, and a
        '|' lets two label pairs share a ``"label1|label2"`` key (("A|B", "C") and ("A", "B|C"))."""
        observables = [LightTouchObservable(PAULI_1Q[c], c) for c in "IXZ"]
        with pytest.raises(ValueError, match=re.escape(f"observable label {label!r} cannot be written")):
            ObservableBasis(observables + [LightTouchObservable(PAULI_1Q["Y"], label)], "bad")

    def test_rejects_label_that_is_not_a_string(self):
        observables = [LightTouchObservable(PAULI_1Q[c], c) for c in "IXY"]
        with pytest.raises(TypeError, match="observable label 3 is not a string"):
            ObservableBasis(observables + [LightTouchObservable(PAULI_1Q["Z"], 3)], "bad")

    def test_unknown_descriptor(self):
        with pytest.raises(ValueError):
            ObservableBasis.from_descriptor("fourier:3")
