"""Acceptance suite: one test per criterion, full trial counts, stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to stream one line per
criterion.
"""

import json
import time

import numpy as np

import pdmsi.random as prandom
from pdmsi.channels import (
    amplitude_damping_channel,
    dephasing_channel,
    identity_channel,
    unitary_channel,
)
from pdmsi.cli import main
from pdmsi.coherence import (
    adversarial_coherent_state,
    block_positivity_test,
    build_ce_oi_channel,
    classify_channel,
)
from pdmsi.leggett_garg import lg_operator, lg_vs_si, spatial_lg_bound
from pdmsi.observables import ObservableBasis
from pdmsi.pdm import (
    Pdm,
    _t1_simplex_lps,
    exact_correlators,
    pdm_closed_form,
    pdm_from_correlators,
    si_measure,
    synthesize_witness,
)
from pdmsi.sampling import sample_table
from pdmsi.states import ket, maximally_mixed, plus_state, projector

R_BASIS_IDENTITY = np.array(
    [[1, 0, 0, 0], [0, 0, 0.5, 0], [0, 0.5, 0, 0], [0, 0, 0, 0]], dtype=complex
)
R_PLUS_DEPHASE = np.array(
    [[0.5, 0, 0.25, 0], [0, 0, 0, 0.25], [0.25, 0, 0, 0], [0, 0.25, 0, 0.5]],
    dtype=complex,
)


def report(n, text):
    print(f"criterion {n}: PASS - {text}")


def random_pdm(rng):
    if rng.random() < 0.5:
        return pdm_closed_form(prandom.density_matrix(2, rng),
                               prandom.channel(2, 2, env_dim=3, rng=rng))
    return Pdm(prandom.unit_trace_hermitian(4, rng), (2, 2))


def test_criterion_1_identity_channel_worked_example():
    start = time.perf_counter()
    r = pdm_closed_form(projector(ket(0)), identity_channel(2))
    assert np.array_equal(r.mat, R_BASIS_IDENTITY), "matrix must match entrywise"
    assert np.allclose(np.sort(r.eig.eigenvalues), [-0.5, 0.0, 0.5, 1.0], atol=1e-10)
    t1 = si_measure(r, 1.0).value
    assert abs(t1 - 1.0) <= 1e-9
    w = synthesize_witness(r)
    expectation = w.expectation(r)
    assert abs(expectation + 0.5) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"matrix exact, spectrum {{1,0,+/-1/2}}, T1={t1:.12f}, <W>={expectation:.12f}, "
              f"{elapsed * 1000:.0f} ms")


def test_criterion_2_coherent_state_dephasing_example():
    r = pdm_closed_form(plus_state(), dephasing_channel(2))
    assert np.array_equal(r.mat, R_PLUS_DEPHASE), "matrix must match entrywise"
    negativity = si_measure(r, 1.0).value
    assert abs(negativity - (np.sqrt(2) - 1.0)) <= 1e-9
    adv = adversarial_coherent_state(np.eye(2), 0, 1, 0, 0.5)
    assert adv.block_det == -1.0 / 16.0
    assert np.allclose(adv.state, plus_state(), atol=1e-15)
    report(2, f"matrix exact, negativity={negativity:.12f}, det B0={adv.block_det}")


def test_criterion_3_qubit_bound_sweep():
    start = time.perf_counter()
    rng = np.random.default_rng(301)
    worst = -np.inf
    saturated = False
    for trial in range(10_000):
        if trial % 10 == 0:
            rho = projector(prandom.pure_state(2, rng))
            ch = unitary_channel(prandom.haar_unitary(2, rng))
        else:
            rho = prandom.density_matrix(2, rng)
            ch = prandom.channel(2, 2, env_dim=4, rng=rng)
        t1 = si_measure(pdm_closed_form(rho, ch), 1.0).value
        worst = max(worst, t1)
        saturated |= t1 > 0.999
        assert t1 <= 1.0 + 1e-9
    elapsed = time.perf_counter() - start
    assert saturated, "no pure-state/unitary pair saturated the bound"
    assert elapsed < 60.0
    report(3, f"10^4 pairs, max T1={worst:.12f}, saturation seen, {elapsed:.1f} s")


def test_criterion_4_block_test_oracle_equivalence():
    rng = np.random.default_rng(401)
    disagreements = 0
    per_dim = {}
    for d in (2, 3, 4):
        for trial in range(1000):
            probs = rng.dirichlet(np.ones(d))
            if trial % 4 == 0:
                probs = np.zeros(d)
                probs[rng.integers(d)] = 1.0
            ch = prandom.channel(d, d, env_dim=3, rng=rng)
            block_ok = block_positivity_test(probs, ch).compatible
            full_ok = pdm_closed_form(np.diag(probs.astype(complex)), ch).min_eigenvalue() >= -1e-9
            disagreements += block_ok != full_ok
        per_dim[d] = disagreements
    assert disagreements == 0
    report(4, "3x10^3 instances (d=2,3,4), zero disagreements with the spectral oracle")


def test_criterion_5_oi_characterization_both_directions():
    rng = np.random.default_rng(501)

    worst = 0.0
    oi_channels = [dephasing_channel(2), dephasing_channel(3),
                   build_ce_oi_channel(prandom.stochastic_matrix(2, rng)),
                   build_ce_oi_channel(prandom.stochastic_matrix(3, rng))]
    oi_channels += [prandom.oi_channel(int(rng.choice([2, 3])), rng) for _ in range(8)]
    for ch in oi_channels:
        assert classify_channel(ch).is_oi
        for _ in range(100):
            rho = prandom.incoherent_state(ch.in_dim, rng)
            value = si_measure(pdm_closed_form(rho, ch), 1.0).value
            worst = max(worst, value)
            assert value < 1e-9

    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    non_oi = [identity_channel(2), identity_channel(3),
              amplitude_damping_channel(0.35), unitary_channel(hadamard)]
    while len(non_oi) < 12:
        ch = prandom.channel(int(rng.choice([2, 3])), None, env_dim=3, rng=rng)
        if not classify_channel(ch).is_oi:
            non_oi.append(ch)
    for ch in non_oi:
        d = ch.in_dim
        found = False
        for j in range(d):
            probs = np.zeros(d)
            probs[j] = 1.0
            res = block_positivity_test(probs, ch)
            negativity = si_measure(
                pdm_closed_form(np.diag(probs.astype(complex)), ch), 1.0
            ).value
            if (not res.compatible and res.failure_kind == "support") or negativity > 1e-9:
                found = True
                break
        assert found, "non-OI channel with no incoherent vertex witness"
    report(5, f"{len(oi_channels)} OI channels x100 states max negativity {worst:.1e}; "
              f"{len(non_oi)} non-OI channels all exposed by vertex scan")


def test_criterion_6_lg_operator_spectrum():
    rng = np.random.default_rng(601)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.choice([2, 2, 3]))
        qs = [prandom.dichotomic_observable(d, rng) for _ in range(3)]
        bound = spatial_lg_bound(*qs)
        worst = max(worst, abs(bound.max_k - 1.0), abs(bound.min_k + 3.0))
        assert abs(bound.max_k - 1.0) <= 1e-9
        assert abs(bound.min_k + 3.0) <= 1e-9
    for _ in range(1000):
        qs = [prandom.dichotomic_observable(2, rng) for _ in range(3)]
        rho = prandom.density_matrix(8, rng)
        k = float(np.trace(rho @ lg_operator(*qs)).real)
        assert -3.0 - 1e-9 <= k <= 1.0 + 1e-9
    report(6, f"10^3 spectra pinned to (-3, 1) within {worst:.1e}; 10^3 tripartite K in range")


def test_criterion_7_lg_vs_si_comparison():
    states = [projector(ket(0)), projector(ket(1)), maximally_mixed(2)]
    identity_case = lg_vs_si(identity_channel(2), states)
    assert identity_case.lg_violated is False
    assert identity_case.si_detected is True
    assert abs(identity_case.best_negativity - 1.0) <= 1e-9
    dephase_case = lg_vs_si(dephasing_channel(2), states)
    assert dephase_case.lg_violated is False
    assert dephase_case.si_detected is False
    report(7, f"identity: LG respected, SI detected (negativity "
              f"{identity_case.best_negativity:.9f}); dephasing: both negative")


def test_criterion_8_statistical_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(801)
    basis = ObservableBasis.pauli(1)
    for scenario in range(20):
        rho = prandom.density_matrix(2, rng)
        ch = prandom.channel(2, 2, env_dim=3, rng=rng)
        exact = exact_correlators(pdm_closed_form(rho, ch))
        table = sample_table(rho, ch, basis, 100_000, seed=9000 + scenario)
        for i, a in enumerate(basis.labels):
            for j, b in enumerate(basis.labels):
                sigma = np.sqrt(max(1.0 - exact.entries[(a, b)] ** 2, 0.0) / 100_000)
                tol = 5.0 * sigma + 1e-9
                assert abs(table.entries[(a, b)] - exact.entries[(a, b)]) <= tol, (a, b)

    r = pdm_closed_form(projector(ket(0)), identity_channel(2))
    big = sample_table(projector(ket(0)), identity_channel(2), basis, 1_000_000, seed=8100)
    frobenius = float(np.linalg.norm(pdm_from_correlators(big).mat - r.mat))
    assert frobenius < 0.01
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(8, f"20 scenarios within 5 sigma; Frobenius error {frobenius:.5f} at 10^6 shots; "
              f"{elapsed:.0f} s")


def test_criterion_9_tp_property_suite():
    rng = np.random.default_rng(901)

    for _ in range(1000):
        r1, r2 = random_pdm(rng), random_pdm(rng)
        w = float(rng.random())
        mixed = Pdm(w * r1.mat + (1 - w) * r2.mat, (2, 2))
        assert si_measure(mixed, 1.0).value <= (
            w * si_measure(r1, 1.0).value + (1 - w) * si_measure(r2, 1.0).value + 1e-9
        )

    for _ in range(1000):
        r = random_pdm(rng)
        rep = si_measure(r, 1.0)
        assert rep.value >= 0.0
        if r.min_eigenvalue() >= -1e-10:
            assert rep.value == 0.0
        u = prandom.haar_unitary(4, rng)
        rotated = Pdm(u @ r.mat @ u.conj().T, (2, 2))
        assert abs(si_measure(rotated, 1.0).value - rep.value) <= 1e-9

    for _ in range(1000):
        r = random_pdm(rng)
        ch = prandom.channel(4, 4, env_dim=2, rng=rng)
        assert si_measure(Pdm(ch(r.mat), (2, 2)), 1.0).value <= si_measure(r, 1.0).value + 1e-9

    pdms = [random_pdm(rng) for _ in range(1000)]
    closed = np.array([si_measure(r, 1.0).value for r in pdms])
    gaps = np.abs(closed - _t1_simplex_lps(np.array([r.eig.eigenvalues for r in pdms]))[0])
    worst = float(gaps.max())
    assert np.all(gaps <= 1e-7), np.flatnonzero(gaps > 1e-7)

    r0 = pdm_closed_form(projector(ket(0)), identity_channel(2))
    p2 = si_measure(r0, 2.0).value
    assert abs(p2 - np.sqrt(0.375)) <= 1e-7
    report(9, f"positivity/convexity/invariance/monotonicity at 10^3 trials; "
              f"closed-vs-optimizer gap <= {worst:.1e}; T2={p2:.9f}")


def test_criterion_10_deterministic_cli_outputs(tmp_path, capsys, monkeypatch):
    # A wall clock whose every interval is longer than the last: what each run prints must not read it.
    ticks = iter(range(10**6))
    monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks)) ** 2)
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({
        "version": 1,
        "kind": "simulate",
        "state": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
        "channel": "identity",
        "shots": 5000,
        "seed": 424242,
    }))
    stdout = {}
    for sub in ("first", "second"):
        assert main(["run", "--config", str(config), "--out", str(tmp_path / sub)]) == 0
        assert main(["run", "--config", "witness_identity.json",
                     "--out", str(tmp_path / sub)]) == 0
        stdout[sub] = capsys.readouterr().out.replace(str(tmp_path / sub), "OUT")
    assert stdout["first"] == stdout["second"], "stdout differs between runs"
    for name in ("simulate.csv", "simulate.json", "witness.json"):
        first = (tmp_path / "first" / name).read_bytes()
        second = (tmp_path / "second" / name).read_bytes()
        assert first == second, f"{name} differs between runs"
    report(10, "simulate.csv, simulate.json, witness.json and stdout byte-identical across invocations")
