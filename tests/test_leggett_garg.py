import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdmsi.random as prandom
from oracles import loop_closed_form, loop_compose
from pdmsi.channels import (
    KrausChannel,
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    unitary_channel,
)
from pdmsi.exceptions import DimensionMismatch
from pdmsi.leggett_garg import (
    LgScenario,
    _lg_pdms,
    check_dichotomic,
    lg_evaluate,
    lg_operator,
    lg_vs_si,
    spatial_lg_bound,
)
from pdmsi.observables import PAULI_1Q
from pdmsi.pdm import pdm_closed_form, si_measure
from pdmsi.states import check_density_matrix, ket, maximally_mixed, projector

Z = PAULI_1Q["Z"]


def y_rotation(theta):
    return unitary_channel(np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]], dtype=complex
    ))


def sm_kraus_pair():
    k0 = np.outer([1, 1], [1, 0]) / np.sqrt(2)
    k1 = np.outer([1, -1], [0, 1]) / np.sqrt(2)
    return KrausChannel([k0, k1])


class TestScenarioValidation:
    def test_dichotomic_check(self):
        check_dichotomic(Z)
        with pytest.raises(ValueError):
            check_dichotomic(np.diag([1.0, 2.0]))
        with pytest.raises(DimensionMismatch):
            check_dichotomic(np.ones((2, 3)))

    def test_scenario_dims(self):
        with pytest.raises(DimensionMismatch):
            LgScenario(maximally_mixed(3), identity_channel(2), identity_channel(2), Z)

    @pytest.mark.parametrize("state, ch23, q", [
        (maximally_mixed(3), identity_channel(2), Z),
        (maximally_mixed(2), identity_channel(3), Z),
        (maximally_mixed(2), identity_channel(2), np.eye(3)),
        (maximally_mixed(2), identity_channel(2), np.diag([1.0, 2.0])),
    ], ids=["state dim", "ch23 dim", "q dim", "q not +/-1"])
    def test_lg_vs_si_rejects_as_scenario(self, state, ch23, q):
        with pytest.raises(ValueError) as want:
            LgScenario(state, identity_channel(2), ch23, q)
        with pytest.raises(type(want.value), match=re.escape(str(want.value))):
            lg_vs_si(identity_channel(2), [maximally_mixed(2), state], [Z, q], ch23=ch23)

    BAD_STATES = {
        "non-finite": np.array([[np.nan, 0.0], [0.0, 1.0]]),
        "non-Hermitian": np.array([[0.5, 0.1], [0.0, 0.5]]),
        "trace": np.diag([0.5, 0.6]),
        "not PSD": np.diag([1.2, -0.2]),
    }

    @pytest.mark.parametrize("kind", list(BAD_STATES))
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_lg_vs_si_names_the_first_bad_state(self, kind, at):
        """The states are checked as one stack; a failure is the first bad state's own error, as
        check_density_matrix raises it, whatever bad states follow."""
        with pytest.raises(ValueError) as want:
            check_density_matrix(self.BAD_STATES[kind])
        states = [projector(ket(0)), maximally_mixed(2), projector(ket(1))]
        states[at] = self.BAD_STATES[kind]
        states += [np.diag([2.0, -1.0]), np.ones((2, 2))]  # not PSD, then not of unit trace
        with pytest.raises(type(want.value)) as got:
            lg_vs_si(identity_channel(2), states, [Z])
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


class TestLgEvaluate:
    def test_static_pure_state(self):
        res = lg_evaluate(LgScenario(projector(ket(0)), identity_channel(2),
                                     identity_channel(2), Z))
        assert res.c12 == pytest.approx(1.0)
        assert res.c23 == pytest.approx(1.0)
        assert res.c13 == pytest.approx(1.0)
        assert res.k == pytest.approx(1.0)

    def test_precession_closed_form(self):
        for theta in np.linspace(0.05, 1.5, 12):
            leg = y_rotation(theta)
            res = lg_evaluate(LgScenario(projector(ket(0)), leg, leg, Z))
            assert res.c12 == pytest.approx(np.cos(2 * theta), abs=1e-10)
            assert res.c23 == pytest.approx(np.cos(2 * theta), abs=1e-10)
            assert res.c13 == pytest.approx(np.cos(4 * theta), abs=1e-10)
            assert res.k == pytest.approx(2 * np.cos(2 * theta) - np.cos(4 * theta), abs=1e-10)

    def test_maximal_violation_at_pi_over_six(self):
        leg = y_rotation(np.pi / 6)
        res = lg_evaluate(LgScenario(projector(ket(0)), leg, leg, Z))
        assert res.k == pytest.approx(1.5, abs=1e-10)

    def test_mixed_state_dephasing_legs(self):
        # Z outcomes repeat perfectly through dephasing: every correlator is 1.
        res = lg_evaluate(LgScenario(maximally_mixed(2), dephasing_channel(2),
                                     dephasing_channel(2), Z))
        assert res.c12 == pytest.approx(1.0, abs=1e-12)
        assert res.c23 == pytest.approx(1.0, abs=1e-12)
        assert res.c13 == pytest.approx(1.0, abs=1e-12)
        assert res.k == pytest.approx(1.0, abs=1e-12)
        # X correlators vanish against the diagonal process: K collapses to 0.
        res_x = lg_evaluate(LgScenario(maximally_mixed(2), dephasing_channel(2),
                                       dephasing_channel(2), PAULI_1Q["X"]))
        assert res_x.c12 == pytest.approx(0.0, abs=1e-12)
        assert res_x.c23 == pytest.approx(0.0, abs=1e-12)
        assert res_x.c13 == pytest.approx(0.0, abs=1e-12)
        assert res_x.k == pytest.approx(0.0, abs=1e-12)

    def test_k_consistency(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            scenario = LgScenario(
                prandom.density_matrix(2, rng),
                prandom.channel(2, 2, env_dim=3, rng=rng),
                prandom.channel(2, 2, env_dim=3, rng=rng),
                prandom.dichotomic_observable(2, rng),
            )
            res = lg_evaluate(scenario)
            assert abs(res.k - (res.c12 + res.c23 - res.c13)) < 1e-12

    def test_monte_carlo_matches_exact(self):
        rng = np.random.default_rng(5)
        for trial in range(5):
            scenario = LgScenario(
                prandom.density_matrix(2, rng),
                prandom.channel(2, 2, env_dim=3, rng=rng),
                prandom.channel(2, 2, env_dim=3, rng=rng),
                Z,
            )
            exact = lg_evaluate(scenario)
            sampled = lg_evaluate(scenario, shots=100_000, seed=trial)
            sigma = 1.0 / np.sqrt(100_000)
            for a, b in [(exact.c12, sampled.c12), (exact.c23, sampled.c23),
                         (exact.c13, sampled.c13)]:
                assert abs(a - b) < 5 * max(sigma, 1e-12)

    @pytest.mark.parametrize("bad, error", [
        (True, TypeError), (np.True_, TypeError), (1.5, TypeError), ("1", TypeError),
        (-1, ValueError), (np.int64(-1), ValueError), (None, ValueError),
    ])
    def test_monte_carlo_rejects_bad_seed(self, bad, error, monkeypatch):
        monkeypatch.setattr("pdmsi.leggett_garg._sample_pair",
                            lambda *a, **k: pytest.fail("drew before the seed check"))
        scenario = LgScenario(projector(ket(0)), identity_channel(2), identity_channel(2), Z)
        with pytest.raises(error, match="seed"):
            lg_evaluate(scenario, shots=10, seed=bad)

    def test_monte_carlo_numpy_integer_is_the_same_seed(self):
        scenario = LgScenario(maximally_mixed(2), dephasing_channel(2), identity_channel(2), Z)
        assert lg_evaluate(scenario, shots=200, seed=np.int64(3)) == lg_evaluate(scenario, shots=200, seed=3)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(d=st.integers(1, 4), k12=st.integers(1, 5), k23=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_lg_pdms_match_the_kraus_route(d, k12, k23, seed):
    """Leg 1, leg 2 on the unmeasured leg-1 output and leg 1->3 from J13 = realigned S23 S12, against
    the oracle's closed forms from the Kraus operators, leg 1->3 from every product K23 K12."""
    rng = np.random.default_rng(seed)
    ch12, ch23 = (prandom.channel(d, d, env_dim=k, rng=rng) for k in (k12, k23))
    rhos = np.array([prandom.density_matrix(d, rng) for _ in range(2)])
    got = _lg_pdms(rhos, ch12.jamiolkowski(), ch23.jamiolkowski())
    for rho, r12, r23, r13 in zip(rhos, *got):
        assert np.max(np.abs(r12 - loop_closed_form(rho, ch12.kraus_ops))) <= 1e-13
        assert np.max(np.abs(r23 - loop_closed_form(ch12(rho), ch23.kraus_ops))) <= 1e-13
        assert np.max(np.abs(r13 - loop_closed_form(rho, loop_compose(ch23.kraus_ops, ch12.kraus_ops)))) <= 1e-13


def test_no_lg_route_composes_kraus_operators(monkeypatch):
    """Exact and sampled LG, and lg_vs_si, read each leg's J: a depolarizing leg at d = 8 has 65
    Kraus operators, which composition would multiply out to 4,225."""
    monkeypatch.setattr(KrausChannel, "compose", lambda *a: pytest.fail("composed Kraus operators"))
    ch = depolarizing_channel(0.3, 8)
    q = np.diag([1.0] * 4 + [-1.0] * 4)
    scenario = LgScenario(projector(ket(0, 8)), ch, ch, q)
    exact = lg_evaluate(scenario)
    sampled = lg_evaluate(scenario, shots=100_000, seed=1)
    for a, b in [(exact.c12, sampled.c12), (exact.c23, sampled.c23), (exact.c13, sampled.c13)]:
        assert abs(a - b) < 5 / np.sqrt(100_000)
    assert lg_vs_si(ch, [projector(ket(0, 8))], q_list=[q]).results[0] == exact


class TestSpatialBound:
    def test_all_z(self):
        bound = spatial_lg_bound(Z, Z, Z)
        assert bound.max_k == pytest.approx(1.0, abs=1e-12)
        assert bound.min_k == pytest.approx(-3.0, abs=1e-12)

    def test_mixed_paulis(self):
        bound = spatial_lg_bound(PAULI_1Q["X"], PAULI_1Q["Y"], Z)
        assert bound.max_k == pytest.approx(1.0, abs=1e-12)
        assert bound.min_k == pytest.approx(-3.0, abs=1e-12)

    def test_random_observables(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            dims = [int(rng.choice([2, 3])) for _ in range(3)]
            qs = [prandom.dichotomic_observable(d, rng) for d in dims]
            bound = spatial_lg_bound(*qs)
            assert abs(bound.max_k - 1.0) < 1e-9
            assert abs(bound.min_k + 3.0) < 1e-9

    def test_summands_commute(self):
        rng = np.random.default_rng(11)
        q1, q2, q3 = (prandom.dichotomic_observable(2, rng) for _ in range(3))
        eye = np.eye(2)
        terms = [
            np.kron(np.kron(q1, q2), eye),
            np.kron(np.kron(eye, q2), q3),
            -np.kron(np.kron(q1, eye), q3),
        ]
        for a in terms:
            for b in terms:
                assert np.max(np.abs(a @ b - b @ a)) < 1e-12
        total = terms[0] + terms[1] + terms[2]
        assert np.allclose(total, lg_operator(q1, q2, q3))

    def test_tripartite_states_bounded(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            qs = [prandom.dichotomic_observable(2, rng) for _ in range(3)]
            rho = prandom.density_matrix(8, rng)
            k = float(np.trace(rho @ lg_operator(*qs)).real)
            assert -3.0 - 1e-9 <= k <= 1.0 + 1e-9


class TestLgVsSi:
    INCOHERENT = [projector(ket(0)), projector(ket(1)), maximally_mixed(2)]

    def test_identity_channel_case(self):
        res = lg_vs_si(identity_channel(2), self.INCOHERENT, [Z])
        assert not res.lg_violated
        assert res.si_detected
        assert res.best_negativity == pytest.approx(1.0, abs=1e-9)
        assert res.witness is not None
        assert res.max_k <= 1.0 + 1e-9

    def test_dephasing_channel_case(self):
        res = lg_vs_si(dephasing_channel(2), self.INCOHERENT, [Z])
        assert not res.lg_violated
        assert not res.si_detected
        assert res.best_negativity == pytest.approx(0.0, abs=1e-12)
        assert res.witness is None

    def test_oi_channel_not_detected(self):
        res = lg_vs_si(sm_kraus_pair(), self.INCOHERENT, [Z])
        assert not res.si_detected
        assert not res.lg_violated

    def test_default_q_list(self):
        res = lg_vs_si(identity_channel(2), self.INCOHERENT)
        assert res.si_detected and not res.lg_violated

    def test_independent_second_leg(self):
        res = lg_vs_si(identity_channel(2), self.INCOHERENT, [Z],
                       ch23=dephasing_channel(2))
        assert not res.lg_violated
        assert res.si_detected

    def test_oi_legs_never_violate(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            ch = prandom.oi_channel(2, rng)
            rho = prandom.incoherent_state(2, rng)
            res = lg_evaluate(LgScenario(rho, ch, ch, Z))
            assert res.k <= 1.0 + 1e-9

    def test_incoherent_preserving_legs_never_violate(self):
        # Amplitude damping and depolarizing keep incoherent states incoherent,
        # so the three-time statistics stay classically consistent.
        from pdmsi.channels import amplitude_damping_channel, depolarizing_channel

        rng = np.random.default_rng(19)
        for _ in range(50):
            gamma = float(rng.random())
            ch = amplitude_damping_channel(gamma) if rng.random() < 0.5 \
                else depolarizing_channel(float(rng.random()))
            rho = prandom.incoherent_state(2, rng)
            res = lg_evaluate(LgScenario(rho, ch, ch, Z))
            assert res.k <= 1.0 + 1e-9

    def test_batch_matches_per_state_calls(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            ch = prandom.channel(2, 2, env_dim=int(rng.integers(1, 4)), rng=rng)
            states = [prandom.density_matrix(2, rng) for _ in range(4)]
            qs = [prandom.dichotomic_observable(2, rng) for _ in range(2)]
            res = lg_vs_si(ch, states, qs)
            per_pair = [lg_evaluate(LgScenario(rho, ch, ch, q)) for q in qs for rho in states]
            values = [si_measure(pdm_closed_form(rho, ch), 1.0).value for rho in states]
            assert len(res.results) == len(per_pair)
            for got, want in zip(res.results, per_pair):
                assert np.allclose(dataclasses.astuple(got), dataclasses.astuple(want), rtol=0, atol=1e-12)
            assert abs(res.max_k - max(r.k for r in per_pair)) <= 1e-12
            assert abs(res.best_negativity - max(values)) <= 1e-12

    def test_empty_states_rejected(self):
        with pytest.raises(ValueError, match="at least one state"):
            lg_vs_si(identity_channel(2), [])

    def test_empty_q_list_rejected(self):
        # With no observable there is no K to report: max_k would be -inf, which dumps rejects.
        with pytest.raises(ValueError, match="at least one observable"):
            lg_vs_si(identity_channel(2), self.INCOHERENT, q_list=[])

    def test_qutrit_needs_explicit_observables(self):
        states = [projector(ket(0, 3)), maximally_mixed(3)]
        with pytest.raises(ValueError):
            lg_vs_si(identity_channel(3), states)
        q = np.diag([1.0, 1.0, -1.0]).astype(complex)
        res = lg_vs_si(identity_channel(3), states, q_list=[q])
        assert not res.lg_violated
        assert res.si_detected
        assert res.best_negativity == pytest.approx(2.0, abs=1e-9)
