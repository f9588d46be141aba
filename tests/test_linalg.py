import numpy as np
import scipy.linalg
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import anticommutator, partial_trace, schatten_norm, trace_norm
from pdmsi.channels import identity_channel
from pdmsi.exceptions import DimensionMismatch, NonHermitian
from pdmsi.linalg import (
    eig_hermitian,
    kron,
    project_simplex,
    pseudo_inverse,
    superop_exp,
)
from pdmsi.pdm import pdm_closed_form
from pdmsi.random import haar_unitary
from pdmsi.states import ket, projector

PAULI_Z = np.diag([1.0, -1.0]).astype(complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
# Two-time matrix of a pure basis state through the identity channel.
R_BASIS_IDENTITY = np.array(
    [[1, 0, 0, 0], [0, 0, 0.5, 0], [0, 0.5, 0, 0], [0, 0, 0, 0]], dtype=complex
)


def rand_hermitian(d, rng):
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (h + h.conj().T) / 2


class TestEigHermitian:
    def test_identity(self):
        eig = eig_hermitian(np.eye(2))
        assert np.allclose(eig.eigenvalues, [1.0, 1.0])

    def test_pauli_z(self):
        eig = eig_hermitian(PAULI_Z)
        assert np.allclose(eig.eigenvalues, [-1.0, 1.0])

    def test_identity_channel_pdm_spectrum(self):
        eig = eig_hermitian(R_BASIS_IDENTITY)
        assert np.allclose(eig.eigenvalues, [-0.5, 0.0, 0.5, 1.0], atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(7)
        for d in [2, 3, 4, 6, 9]:
            m = rand_hermitian(d, rng)
            eig = eig_hermitian(m)
            assert np.all(np.diff(eig.eigenvalues) >= -1e-12)
            v = eig.eigenvectors
            assert np.linalg.norm((v * eig.eigenvalues) @ v.conj().T - m) < 1e-10
            assert np.linalg.norm(v.conj().T @ v - np.eye(d)) < 1e-10

    def test_deterministic_output(self):
        rng = np.random.default_rng(11)
        m = rand_hermitian(5, rng)
        a = eig_hermitian(m)
        b = eig_hermitian(m.copy())
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitian):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


# Levels 0.5 apart: repeats are exact degeneracies, distinct levels are never near-ties.
LEVELS = [-1.0, -0.5, 0.0, 0.5, 1.0, 2.0]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    d=st.sampled_from([2, 3, 4, 6]),
    spectra=st.lists(st.lists(st.sampled_from(LEVELS), min_size=6, max_size=6), min_size=1, max_size=4),
    rotate=st.lists(st.booleans(), min_size=4, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_eig_hermitian_on_degenerate_spectra(d, spectra, rotate, seed):
    """A stack equals its items bit for bit, and each item reproduces its matrix from orthonormal
    eigenvectors and the spectrum it was built with, degenerate levels included."""
    rng = np.random.default_rng(seed)
    mats, levels = [np.eye(d, dtype=complex)], [np.ones(d)]
    for lam, turn in zip(spectra, rotate):
        u = haar_unitary(d, rng) if turn else np.eye(d)
        mats.append((u * np.asarray(lam[:d])) @ u.conj().T)
        levels.append(np.sort(lam[:d]))
    extremal = pdm_closed_form(projector(ket(0, d)), identity_channel(d)).mat
    # The extremal PDM's spectrum (pdm._bound_check): {1, 1/2 x (d-1), -1/2 x (d-1), 0 x (d-1)^2}.
    ext_levels = np.repeat([-0.5, 0.0, 0.5, 1.0], [d - 1, (d - 1) ** 2, d - 1, 1])
    u = haar_unitary(d * d, rng)
    stacks = ((np.array(mats), levels), (np.array([extremal, u @ extremal @ u.conj().T]), [ext_levels] * 2))
    for stack, spectra_in in stacks:
        batch = eig_hermitian(stack)
        for m, lam, w, v in zip(stack, spectra_in, batch.eigenvalues, batch.eigenvectors):
            item = eig_hermitian(m)
            assert np.array_equal(w, item.eigenvalues)
            assert np.array_equal(v, item.eigenvectors)
            assert np.allclose(w, lam, atol=1e-12)
            assert np.linalg.norm((v * w) @ v.conj().T - m) < 1e-12 * len(m)
            assert np.linalg.norm(v.conj().T @ v - np.eye(len(m))) < 1e-12 * len(m)
        rows = batch.eigenvalues * 3.0 - 0.5
        assert np.array_equal(project_simplex(rows), np.array([project_simplex(r) for r in rows]))


class TestKronAnticommutator:
    def test_kron_identities(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))
        assert np.allclose(kron(PAULI_Z, np.eye(2)), np.diag([1, 1, -1, -1]))

    def test_kron_xx(self):
        expected = np.zeros((4, 4))
        expected[0, 3] = expected[1, 2] = expected[2, 1] = expected[3, 0] = 1.0
        assert np.allclose(kron(PAULI_X, PAULI_X), expected)

    def test_anticommutator_identity(self):
        rng = np.random.default_rng(3)
        m = rand_hermitian(3, rng)
        assert np.allclose(anticommutator(np.eye(3), m), 2 * m)

    def test_anticommuting_paulis(self):
        assert np.allclose(anticommutator(PAULI_Z, PAULI_X), np.zeros((2, 2)))

    def test_projector_swap_anticommutator(self):
        proj = kron(np.diag([1.0, 0.0]), np.eye(2))
        assert np.allclose(anticommutator(proj, SWAP), 2 * R_BASIS_IDENTITY)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            anticommutator(np.eye(2), np.eye(3))


@pytest.mark.parametrize("psi", [np.eye(2), np.ones((2, 1)), np.array(1.0)], ids=["matrix", "column", "scalar"])
def test_projector_rejects_anything_but_a_vector(psi):
    with pytest.raises(DimensionMismatch, match="1-D vector"):
        projector(psi)


class TestPseudoInverse:
    def test_diagonal(self):
        assert np.allclose(pseudo_inverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))

    def test_identity(self):
        assert np.allclose(pseudo_inverse(np.eye(3)), np.eye(3))

    def test_rank_one_projector(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        pinv = pseudo_inverse(plus)
        assert np.allclose(pinv, plus, atol=1e-12)
        assert np.linalg.norm(plus @ pinv @ plus - plus) < 1e-9

    def test_moore_penrose_identities(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            rank = int(rng.integers(1, d))
            v = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
            lam = np.concatenate([rng.standard_normal(rank), np.zeros(d - rank)])
            m = (v * lam) @ v.conj().T
            p = pseudo_inverse(m)
            assert np.linalg.norm(m @ p @ m - m) < 1e-9
            assert np.linalg.norm(p @ m @ p - p) < 1e-9
            assert np.linalg.norm((m @ p).conj().T - m @ p) < 1e-9
            assert np.linalg.norm((p @ m).conj().T - p @ m) < 1e-9

    def test_zero_matrix(self):
        assert np.allclose(pseudo_inverse(np.zeros((3, 3))), np.zeros((3, 3)))


def simplex_projection_oracle(v):
    """Exact projection by enumerating active sets (small n only)."""
    from itertools import combinations

    v = np.asarray(v, dtype=float)
    n = len(v)
    best, best_dist = None, np.inf
    for r in range(1, n + 1):
        for support in combinations(range(n), r):
            q = np.zeros(n)
            idx = list(support)
            q[idx] = v[idx] + (1.0 - v[idx].sum()) / r
            if np.any(q[idx] < -1e-12):
                continue
            dist = np.linalg.norm(v - q)
            if dist < best_dist:
                best, best_dist = q, dist
    return best


class TestProjectSimplex:
    def test_fixed_point(self):
        assert np.allclose(project_simplex([0.3, 0.7]), [0.3, 0.7])

    def test_clipping(self):
        assert np.allclose(project_simplex([2.0, 0.0]), [1.0, 0.0])

    def test_mixed_signs(self):
        out = project_simplex([1.0, 0.5, 0.0, -0.5])
        assert np.allclose(out, [0.75, 0.25, 0.0, 0.0])
        assert abs(out.sum() - 1.0) < 1e-12

    def test_against_enumeration_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            v = rng.standard_normal(int(rng.integers(2, 7))) * 2
            assert np.allclose(project_simplex(v), simplex_projection_oracle(v), atol=1e-9)

    def test_idempotent_and_lipschitz(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            v = rng.standard_normal(5) * 3
            w = rng.standard_normal(5) * 3
            pv, pw = project_simplex(v), project_simplex(w)
            assert np.allclose(project_simplex(pv), pv, atol=1e-12)
            assert np.linalg.norm(pv - pw) <= np.linalg.norm(v - w) + 1e-12


def dephasing_liouvillian(gamma):
    z = np.diag([1.0, -1.0])
    eye = np.eye(2)
    return gamma * (np.kron(z, z) - np.kron(eye, eye))


def expm_repeated_squaring(m, order=30, splits=20):
    """Taylor series on m / 2**splits, then square back up."""
    small = m / (2.0**splits)
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, order + 1):
        term = term @ small / k
        out = out + term
    for _ in range(splits):
        out = out @ out
    return out


class TestSuperopExp:
    def test_zero_time(self):
        gen = dephasing_liouvillian(0.7)
        assert np.allclose(superop_exp(gen, 0.0), np.eye(4))

    def test_dephasing_limit(self):
        out = superop_exp(dephasing_liouvillian(1.0), 50.0)
        assert np.allclose(out, np.diag([1.0, 0.0, 0.0, 1.0]), atol=1e-12)

    def test_semigroup(self):
        rng = np.random.default_rng(31)
        gen = rand_hermitian(4, rng) * 1j
        a = superop_exp(gen, 0.3) @ superop_exp(gen, 0.5)
        b = superop_exp(gen, 0.8)
        assert np.linalg.norm(a - b) < 1e-9

    def test_against_repeated_squaring(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            gen = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            t = float(rng.uniform(0.1, 2.0))
            fast = superop_exp(gen, t)
            slow = expm_repeated_squaring(gen * t)
            assert np.linalg.norm(fast - slow) / np.linalg.norm(slow) < 1e-10


    def test_array_of_times_matches_single_calls(self):
        rng = np.random.default_rng(43)
        for n in (4, 9, 16):
            gen = 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            times = rng.uniform(0.0, 5.0, (2, 3))
            stack = superop_exp(gen, times)
            assert stack.shape == (2, 3, n, n)
            for idx in np.ndindex(times.shape):
                single = superop_exp(gen, times[idx])
                assert single.shape == (n, n)
                assert np.array_equal(stack[idx], single)
                assert np.array_equal(single, scipy.linalg.expm(gen * float(times[idx])))


class TestNorms:
    def test_trace_norm_matches_singular_values(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            m = rand_hermitian(int(rng.integers(2, 6)), rng)
            sv = np.linalg.svd(m, compute_uv=False)
            assert abs(trace_norm(m) - sv.sum()) < 1e-10
            assert abs(schatten_norm(m, 1.0) - sv.sum()) < 1e-10

    def test_partial_trace(self):
        rng = np.random.default_rng(43)
        a = rand_hermitian(2, rng)
        b = rand_hermitian(3, rng)
        joint = np.kron(a, b)
        assert np.allclose(partial_trace(joint, (2, 3), 0), a * np.trace(b))
        assert np.allclose(partial_trace(joint, (2, 3), 1), b * np.trace(a))
