import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdmsi.random as prandom
from oracles import channels_equal, dephase, loop_compose, loop_jamiolkowski
from pdmsi.channels import (
    KrausChannel,
    _apply,
    _from_superoperator,
    _superoperator,
    amplitude_damping_channel,
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    unitary_channel,
)
from pdmsi.exceptions import DimensionMismatch
from pdmsi.states import ket, ketbra, plus_state, projector

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
# Kraus operators (2->2, 2->3 and 3->3), operand stacks, and the action, Jamiolkowski matrix and
# superoperator computed from them when the channel kept only a list of operators and stacked it
# on every call.  Every entry is a multiple of 1/16, so each product and sum is exact and the bits
# do not depend on the BLAS build.
with np.load(Path(__file__).resolve().parent / "data" / "kraus_list_form.npz") as _saved:
    LIST_FORM = dict(_saved)


def sm_kraus_pair():
    """|+><0| and |-><1|: erases off-diagonals yet creates coherence."""
    k0 = np.outer([1, 1], [1, 0]) / np.sqrt(2)
    k1 = np.outer([1, -1], [0, 1]) / np.sqrt(2)
    return KrausChannel([k0, k1])


class TestKrausChannel:
    def test_rejects_non_trace_preserving(self):
        with pytest.raises(ValueError):
            KrausChannel([np.eye(2) * 0.5])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            KrausChannel([])

    @pytest.mark.parametrize("shape", [(1, 0), (0, 2), (0, 0)])
    def test_rejects_a_zero_size_operator_naming_its_shape(self, shape):
        with pytest.raises(DimensionMismatch, match=re.escape(f"zero dimension, got shape {shape}")):
            KrausChannel([np.zeros(shape)])

    def test_identity_action(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert np.allclose(identity_channel(2)(m), m)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            identity_channel(2)(np.eye(3))
        with pytest.raises(DimensionMismatch):
            identity_channel(2)(np.ones(2))

    def test_stack_matches_each_operand(self):
        rng = np.random.default_rng(4)
        ch = prandom.channel(3, 2, env_dim=2, rng=rng)
        stack = rng.standard_normal((4, 2, 3, 3)) + 1j * rng.standard_normal((4, 2, 3, 3))
        out = ch(stack)
        assert out.shape == (4, 2, 2, 2)
        for idx in np.ndindex(4, 2):
            assert np.array_equal(out[idx], ch(stack[idx]))

    def test_dephasing_kills_off_diagonals(self):
        assert np.allclose(dephasing_channel(2)(ketbra(0, 1)), np.zeros((2, 2)))

    def test_sm_pair_creates_coherence(self):
        ch = sm_kraus_pair()
        assert np.allclose(ch(projector(ket(0))), plus_state())
        assert np.allclose(ch(ketbra(0, 1)), np.zeros((2, 2)))

    def test_trace_and_positivity_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            d_in = int(rng.integers(2, 4))
            d_out = int(rng.integers(2, 4))
            ch = prandom.channel(d_in, d_out, env_dim=3, rng=rng)
            rho = prandom.density_matrix(d_in, rng)
            out = ch(rho)
            assert abs(np.trace(out).real - 1.0) < 1e-10
            assert np.linalg.eigvalsh(out)[0] > -1e-10


class TestKrausStack:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite_entries(self, bad):
        k = np.eye(2, dtype=complex)
        k[0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            KrausChannel([k])

    def test_operators_are_read_only(self):
        ch = amplitude_damping_channel(0.3)
        assert ch.kraus.shape == (2, 2, 2) and not ch.kraus.flags.writeable
        for k, row in zip(ch.kraus_ops, ch.kraus):
            assert not k.flags.writeable and np.shares_memory(k, ch.kraus)
            assert np.array_equal(k, row)
            with pytest.raises(ValueError):
                k[0, 0] = 2.0

    @pytest.mark.parametrize("as_stack", [False, True])
    def test_caller_mutation_does_not_reach_the_channel(self, as_stack):
        ops = [np.eye(2, dtype=complex)]
        given_ops = np.array(ops) if as_stack else ops
        ch = KrausChannel(given_ops)
        rho = plus_state()
        before = ch(rho)
        (given_ops[0] if as_stack else ops[0])[:] = HADAMARD
        assert np.array_equal(ch.kraus_ops[0], np.eye(2)) and np.array_equal(ch(rho), before)

    @pytest.mark.parametrize("name", ["q2", "q2to3", "q3"])
    def test_outputs_match_the_list_form_bit_for_bit(self, name):
        ch = KrausChannel(list(LIST_FORM[f"{name}_kraus"]))
        assert np.array_equal(ch(LIST_FORM[f"{name}_operands"]), LIST_FORM[f"{name}_apply"])
        assert np.array_equal(ch.jamiolkowski(), LIST_FORM[f"{name}_jamiolkowski"])
        assert np.array_equal(ch.superoperator(), LIST_FORM[f"{name}_superoperator"])

    def test_stack_gives_the_bits_of_stacking_the_operators_per_call(self):
        rng = np.random.default_rng(13)
        chs = [prandom.channel(3, 3, env_dim=k, rng=rng) for k in (1, 2, 4)]
        m = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
        for ch in chs:
            per_call = np.array([np.array(k) for k in ch.kraus_ops])
            assert np.array_equal(ch(m), _apply(per_call, m))
            assert np.array_equal(ch.jamiolkowski(), KrausChannel(list(per_call)).jamiolkowski())
            assert np.array_equal(ch.superoperator(), _superoperator(ch.jamiolkowski(), 3))
        # 1, 2 and 4 Kraus operators: one (N, d^2, d^2) stack of the kernels' input, with no padding.
        stack = np.array([ch.jamiolkowski() for ch in chs])
        assert stack.shape == (3, 9, 9) and stack.flags.writeable
        for row, s, ch in zip(stack, _superoperator(stack, 3), chs):
            assert np.array_equal(row, ch.jamiolkowski()) and np.array_equal(s, ch.superoperator())

    def test_jamiolkowski_is_computed_once_and_read_only(self):
        ch = prandom.channel(2, 3, env_dim=2, rng=np.random.default_rng(17))
        m = ch.jamiolkowski()
        assert ch.jamiolkowski() is m and not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 2.0
        assert np.array_equal(ch.superoperator(), _superoperator(m, 2)) and ch.superoperator().flags.writeable
        assert np.array_equal(_from_superoperator(ch.superoperator(), 2), m)


class TestJamiolkowski:
    def test_identity_is_swap(self):
        expected = sum(
            np.kron(ketbra(i, j), ketbra(j, i)) for i in range(2) for j in range(2)
        )
        m = identity_channel(2).jamiolkowski()
        assert np.allclose(m, expected)
        assert np.allclose(m, np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
        ))

    def test_dephasing_matrix(self):
        assert np.allclose(dephasing_channel(2).jamiolkowski(), np.diag([1.0, 0, 0, 1.0]))

    def test_trace_equals_input_dim(self):
        rng = np.random.default_rng(5)
        for d in [2, 3]:
            ch = prandom.channel(d, d, env_dim=3, rng=rng)
            assert abs(np.trace(ch.jamiolkowski()).real - d) < 1e-10

    def test_round_trip_reconstruction(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            d_in, d_out = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            ch = prandom.channel(d_in, d_out, env_dim=3, rng=rng)
            m = ch.jamiolkowski()
            for i in range(d_in):
                for j in range(d_in):
                    block = m[i * d_out : (i + 1) * d_out, j * d_out : (j + 1) * d_out]
                    assert np.allclose(block, ch(ketbra(j, i, d_in)), atol=1e-10)

    def test_depolarizing_round_trip(self):
        ch = depolarizing_channel(1.0)
        for i in range(2):
            for j in range(2):
                expected = np.trace(ketbra(j, i)) * np.eye(2) / 2
                assert np.allclose(ch(ketbra(j, i)), expected, atol=1e-12)
        assert np.allclose(ch.jamiolkowski(), np.eye(4) / 2, atol=1e-12)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(dims=st.sampled_from([(2, 3), (3, 2), (2, 4), (4, 3), (3, 5), (1, 2)]),
       env=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_jamiolkowski_matches_loop(dims, env, seed):
    ch = prandom.channel(dims[0], dims[1], env_dim=env, rng=np.random.default_rng(seed))
    assert np.max(np.abs(ch.jamiolkowski() - loop_jamiolkowski(ch.kraus_ops, ch.in_dim))) <= 1e-14


@settings(derandomize=True, deadline=None, max_examples=60)
@given(dims=st.sampled_from([(2, 3), (3, 2), (2, 4), (4, 3), (1, 2), (3, 1)]),
       env=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_jamiolkowski_superoperator_round_trip(dims, env, seed):
    # M[(i, a), (j, b)] = S[(a, b), (j, i)]: each is the other with its index pairs regrouped.
    d_in, d_out = dims
    ch = prandom.channel(d_in, d_out, env_dim=max(env, -(-d_in // d_out)), rng=np.random.default_rng(seed))
    m, s = ch.jamiolkowski(), ch.superoperator()
    assert s.shape == (d_out**2, d_in**2) and m.shape == (d_in * d_out, d_in * d_out)
    m_to_s = m.reshape(d_in, d_out, d_in, d_out).transpose(1, 3, 2, 0).reshape(d_out**2, d_in**2)
    s_to_m = s.reshape(d_out, d_out, d_in, d_in).transpose(3, 0, 2, 1).reshape(d_in * d_out, d_in * d_out)
    assert np.max(np.abs(m_to_s - s)) <= 1e-14
    assert np.max(np.abs(s_to_m - m)) <= 1e-14


class TestSuperoperator:
    def test_action_agreement(self):
        rng = np.random.default_rng(11)
        ch = prandom.channel(3, 3, env_dim=2, rng=rng)
        s = ch.superoperator()
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.allclose(s @ m.reshape(-1), ch(m).reshape(-1))


class TestDephase:
    def test_diagonal_fixed_point(self):
        m = np.diag([1.0, 2.0, 3.0]).astype(complex)
        assert np.allclose(dephase(m), m)

    def test_plus_state(self):
        assert np.allclose(dephase(plus_state()), np.eye(2) / 2)

    def test_idempotent(self):
        rng = np.random.default_rng(13)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.allclose(dephase(dephase(m)), dephase(m))

    def test_matches_channel(self):
        rng = np.random.default_rng(17)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.allclose(dephase(m), dephasing_channel(3)(m))


class TestCompose:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(dims=st.sampled_from([(2, 2, 2), (3, 3, 3), (4, 4, 4), (2, 3, 4), (3, 2, 1), (1, 3, 2)]),
           k_inner=st.integers(1, 6), k_outer=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_jamiolkowski_of_superoperator_product_matches_kraus_products(self, dims, k_inner, k_outer, seed):
        """J of ``outer . inner`` from the d^2 x d^2 superoperator product, against the oracle's
        Jamiolkowski loop over the composed Kraus operators (every product of one from each)."""
        d_in, d_mid, d_out = dims
        rng = np.random.default_rng(seed)
        inner = prandom.channel(d_in, d_mid, env_dim=max(k_inner, -(-d_in // d_mid)), rng=rng)
        outer = prandom.channel(d_mid, d_out, env_dim=max(k_outer, -(-d_mid // d_out)), rng=rng)
        got = _from_superoperator(_superoperator(outer.jamiolkowski(), d_mid) @ inner.superoperator(), d_in)
        assert got.shape == (d_in * d_out, d_in * d_out)
        want = loop_jamiolkowski(loop_compose(outer.kraus_ops, inner.kraus_ops), d_in)
        assert np.max(np.abs(got - want)) <= 1e-14
        assert np.max(np.abs(outer.compose(inner).jamiolkowski() - want)) <= 1e-14

    def test_identity_neutral(self):
        rng = np.random.default_rng(19)
        ch = prandom.channel(2, 2, env_dim=3, rng=rng)
        assert channels_equal(ch.compose(identity_channel(2)), ch)
        assert channels_equal(identity_channel(2).compose(ch), ch)

    def test_dephasing_idempotent(self):
        delta = dephasing_channel(2)
        assert channels_equal(delta.compose(delta), delta)

    def test_order_matters_with_hadamard(self):
        delta = dephasing_channel(2)
        had = unitary_channel(HADAMARD)
        rho0 = projector(ket(0))
        after_delta_h = delta.compose(had)(rho0)
        after_h_delta = had.compose(delta)(rho0)
        assert np.allclose(after_delta_h, np.eye(2) / 2)
        assert np.allclose(after_h_delta, plus_state())
        assert not channels_equal(delta.compose(had), had.compose(delta))

    def test_dimension_check(self):
        rng = np.random.default_rng(23)
        a = prandom.channel(3, 2, env_dim=2, rng=rng)
        with pytest.raises(DimensionMismatch):
            a.compose(a)


class TestBuiltins:
    def test_amplitude_damping_kraus(self):
        ch = amplitude_damping_channel(0.3)
        excited = projector(ket(1))
        out = ch(excited)
        assert abs(out[0, 0].real - 0.3) < 1e-12
        assert abs(out[1, 1].real - 0.7) < 1e-12

    def test_depolarizing_mixes(self):
        for d in [2, 3]:
            ch = depolarizing_channel(0.5, d)
            rho = projector(ket(0, d))
            expected = 0.5 * rho + 0.5 * np.eye(d) / d
            assert np.allclose(ch(rho), expected, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_depolarizing_matches_the_matrix_unit_loop(self, p, d):
        """Kraus stack and J bit for bit those of sqrt(1 - p) I and sqrt(p / d) |i><j|, one
        ``np.outer`` per unit in row-major (i, j) order; p = 0 keeps the one operator."""
        ops = [np.sqrt(1.0 - p) * np.eye(d, dtype=complex)]
        if p > 0.0:
            ops += [np.sqrt(p / d) * np.outer(ket(i, d), ket(j, d).conj()) for i in range(d) for j in range(d)]
        want, ch = KrausChannel(ops), depolarizing_channel(p, d)
        assert len(ch.kraus_ops) == (1 if p == 0.0 else 1 + d * d)
        assert ch.kraus.tobytes() == want.kraus.tobytes() and ch.kraus.shape == want.kraus.shape
        assert ch.jamiolkowski().tobytes() == want.jamiolkowski().tobytes()

    def test_unitary_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            unitary_channel(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            amplitude_damping_channel(1.5)
        with pytest.raises(ValueError):
            depolarizing_channel(-0.1)
