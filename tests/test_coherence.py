import functools
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import pdmsi.coherence as coherence
import pdmsi.random as prandom
from oracles import (
    NCGD_GRID,
    channels_equal,
    delta_class_residuals,
    dephasing_superoperator,
    loop_ce_oi_kraus,
    loop_ncgd_residual,
    loop_superoperator,
)
from pdmsi.channels import (
    KrausChannel,
    _superoperator,
    amplitude_damping_channel,
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
)
from pdmsi.coherence import (
    CLASS_ATOL,
    _block_failures,
    _class_residuals,
    _exact_ncgd_residual,
    _max_unit_deviation,
    adversarial_coherent_state,
    block_positivity_test,
    build_ce_oi_channel,
    check_stochastic_matrix,
    classify_channel,
    pdm_blocks,
)
from pdmsi.exceptions import DimensionMismatch, NoAsymmetricColumn
from pdmsi.linalg import superop_exp
from pdmsi.pdm import pdm_closed_form, si_measure
from pdmsi.states import ket, ketbra, projector


def sm_kraus_pair():
    k0 = np.outer([1, 1], [1, 0]) / np.sqrt(2)
    k1 = np.outer([1, -1], [0, 1]) / np.sqrt(2)
    return KrausChannel([k0, k1])


def lindbladian(h, jumps) -> np.ndarray:
    """Row-major -i(H (x) I - I (x) H^T) + sum_J [J (x) J* - (J^dag J (x) I + I (x) (J^dag J)^T) / 2]."""
    h = np.asarray(h, dtype=complex)
    eye = np.eye(len(h))
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for j in jumps:
        jj = j.conj().T @ j
        gen += np.kron(j, j.conj()) - 0.5 * (np.kron(jj, eye) + np.kron(eye, jj.T))
    return gen


def rabi_liouvillian(omega=1.0):
    """Coherent drive about X: generates and detects coherence."""
    return lindbladian(omega * np.array([[0, 1], [1, 0]]), [])


def pure_dephasing_liouvillian(gamma=1.0):
    z = np.diag([1.0, -1.0])
    eye = np.eye(2)
    return gamma * (np.kron(z, z) - np.kron(eye, eye))


class TestClassify:
    def test_dephasing_in_every_class(self):
        rep = classify_channel(dephasing_channel(2))
        assert rep.is_oi and rep.is_ce and rep.is_ci and rep.is_di and rep.is_ncgd

    def test_identity_channel(self):
        rep = classify_channel(identity_channel(2))
        assert rep.is_di and rep.is_ci
        assert not rep.is_oi and not rep.is_ce
        assert rep.is_ncgd
        assert rep.residuals["oi"] > 0.1

    def test_sm_pair_oi_but_not_ci(self):
        rep = classify_channel(sm_kraus_pair())
        assert rep.is_oi and rep.is_di
        assert not rep.is_ci and not rep.is_ce

    def test_amplitude_damping(self):
        rep = classify_channel(amplitude_damping_channel(0.4))
        assert rep.is_ci and rep.is_di
        assert not rep.is_oi and not rep.is_ce

    def test_hierarchy_implications(self):
        rng = np.random.default_rng(3)
        for t in range(100):
            d = int(rng.choice([2, 3]))
            if t % 3 == 0:
                ch = prandom.oi_channel(d, rng)
            elif t % 3 == 1:
                ch = build_ce_oi_channel(prandom.stochastic_matrix(d, rng))
            else:
                ch = prandom.channel(d, d, env_dim=3, rng=rng)
            rep = classify_channel(ch)
            assert rep.is_di or not rep.is_oi
            assert rep.is_ci or not rep.is_ce

    def test_ncgd_refuted_for_rabi_dynamics(self):
        rep = classify_channel(identity_channel(2), ncgd_probe=rabi_liouvillian())
        assert not rep.is_ncgd
        assert "exact" in rep.ncgd_mode

    def test_ncgd_holds_for_pure_dephasing(self):
        rep = classify_channel(identity_channel(2), ncgd_probe=pure_dephasing_liouvillian())
        assert rep.is_ncgd

    def test_ncgd_family_callable(self):
        # For a semigroup the generator decides NCGD exactly; for any other family
        # F_t . F_tau != F_{t+tau}, so a (t, tau) grid of F_t checks no NCGD condition.
        gen = rabi_liouvillian(0.5)
        with pytest.raises(TypeError, match=r"ncgd_probe must be a d\^2 x d\^2 Liouvillian generator"):
            classify_channel(identity_channel(2), ncgd_probe=lambda t: superop_exp(gen, t))


def channel_of_kind(d: int, kind: str, rng) -> KrausChannel:
    if kind == "oi":
        return prandom.oi_channel(d, rng)
    if kind == "ce_oi":
        return build_ce_oi_channel(prandom.stochastic_matrix(d, rng))
    if kind == "dephasing":
        return dephasing_channel(d)
    if kind == "depolarizing":
        return depolarizing_channel(float(rng.uniform()), d)
    if kind == "identity":
        return identity_channel(d)
    return prandom.channel(d, d, env_dim=int(rng.integers(1, 4)), rng=rng)


CHANNEL_KINDS = ["random", "oi", "ce_oi", "dephasing", "depolarizing", "identity"]
RESIDUALS = ["oi", "ce", "ci", "di", "ncgd"]


class TestClassResiduals:
    """The residuals read off the superoperator's population and coherence blocks, against the
    dense products with Delta that define them (tests/oracles.py)."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("kind", CHANNEL_KINDS)
    def test_blocks_match_delta_products(self, d, kind):
        rng = np.random.default_rng(100 * d + CHANNEL_KINDS.index(kind))
        for _ in range(5):
            ch = channel_of_kind(d, kind, rng)
            rep = classify_channel(ch)
            want = delta_class_residuals(ch.superoperator())
            for name in RESIDUALS:
                assert abs(rep.residuals[name] - want[name]) <= 1e-15
                assert getattr(rep, f"is_{name}") == (want[name] <= CLASS_ATOL)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_stack_matches_delta_products(self, d):
        # verify's hierarchy check classifies one Jamiolkowski stack per dimension.
        rng = np.random.default_rng(d)
        chs = [channel_of_kind(d, kind, rng) for kind in CHANNEL_KINDS * 3]
        s = _superoperator(np.array([ch.jamiolkowski() for ch in chs]), d)
        got, want = _class_residuals(s, d), delta_class_residuals(s)
        for name in RESIDUALS:
            assert got[name].shape == (len(chs),)
            assert np.max(np.abs(got[name] - want[name])) <= 1e-15
            assert np.array_equal(got[name] <= CLASS_ATOL, want[name] <= CLASS_ATOL)
            assert np.array_equal(got[name], [classify_channel(ch).residuals[name] for ch in chs])

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(d=st.integers(1, 4), env=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_cached_jamiolkowski_matches_the_kraus_route(self, d, env, seed):
        """Class residuals from the realigned cached J against those of sum K (x) conj K, and each
        block R_ij against ((p_i + p_j)/2) sum K |j><i| K^dag, with the block test's verdict."""
        rng = np.random.default_rng(seed)
        ch = prandom.channel(d, d, env_dim=env, rng=rng)
        want = delta_class_residuals(loop_superoperator(ch.kraus_ops))
        got = classify_channel(ch).residuals
        for name in RESIDUALS:
            assert abs(got[name] - want[name]) <= 1e-13
        probs = rng.dirichlet(np.ones(d))
        blocks = pdm_blocks(probs, ch).blocks
        for (i, j), block in blocks.items():
            unit = ketbra(j, i, d)
            kraus = sum(k @ unit @ k.conj().T for k in ch.kraus_ops)
            assert np.max(np.abs(block - (probs[i] + probs[j]) / 2 * kraus)) <= 1e-13
        full = pdm_closed_form(np.diag(probs.astype(complex)), ch)
        assert block_positivity_test(probs, ch).compatible == (full.min_eigenvalue() >= -CLASS_ATOL)

    def test_surrogate_refutes_a_coherence_round_trip(self):
        # A Hadamard turns |0><0| into |+><+| (coherence out) and reads it back, so
        # Delta.H.H.Delta = Delta while Delta.H.Delta.H.Delta mixes the populations.
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        rep = classify_channel(KrausChannel([h]))
        assert not rep.is_ncgd and rep.residuals["ncgd"] == pytest.approx(1 / np.sqrt(2), rel=1e-12)

    def test_one_level_has_no_coherences(self):
        rep = classify_channel(identity_channel(1))
        assert all(rep.residuals[name] == 0.0 for name in RESIDUALS)
        assert rep.is_oi and rep.is_ce and rep.is_ci and rep.is_di and rep.is_ncgd

    def test_superoperator_memory_is_bounded_by_its_output(self):
        # 145 Kraus operators of size 12: a K-fold kron(K, conj K) stack would hold 145 d^4
        # complex entries (48 MB); the output has d^4 (0.3 MB), and so has J, computed here.
        ch = depolarizing_channel(0.3, 12)
        tracemalloc.start()
        try:
            ch.superoperator()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_classify_memory_is_near_the_superoperators(self):
        # At d = 32 S holds 2^20 complex entries (16 MiB), realigned from the channel's cached J.
        # Copying S's coherence rows and columns added another S; one |S|^2 array keeps what
        # classify adds to building S within a quarter more than one S.
        ch = depolarizing_channel(0.3, 32)
        size = ch.jamiolkowski().nbytes
        peaks = []
        for build in (ch.superoperator, lambda: classify_channel(ch)):
            tracemalloc.start()
            try:
                build()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 1.25 * size, peaks


def random_generator(d: int, kind: str, seed: int) -> np.ndarray:
    """A d^2 x d^2 generator: Hermitian, the unitary Liouvillian -i(H (x) I - I (x) H^T), or general."""
    rng = np.random.default_rng(seed)
    n = d * d
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "hermitian":
        return 0.05 * (g + g.conj().T)
    if kind == "unitary":
        return lindbladian(0.3 * (g[:d, :d] + g[:d, :d].conj().T), [])
    return rng.uniform(0.02, 0.2) * g


def single_time_family(gen):
    """The single-time family the loop oracle reads: scipy.linalg.expm(L t) at float t, one call
    per distinct t."""
    gen = np.asarray(gen, dtype=complex)
    return functools.cache(lambda t: scipy.linalg.expm(gen * float(t)))


NCGD_SETTINGS = settings(derandomize=True, deadline=None, max_examples=30)
DIMS = st.sampled_from([2, 3, 4])
SEEDS = st.integers(0, 2**32 - 1)


class TestStackedNcgd:
    """The NCGD grid oracle (tests/oracles.py) read from one stacked ``superop_exp`` over every
    grid time and sum, against the same grid read from one scipy.linalg.expm call per time."""

    @NCGD_SETTINGS
    @given(d=DIMS, kind=st.sampled_from(["hermitian", "unitary", "general"]), seed=SEEDS)
    def test_liouvillian_matches_loop(self, d, kind, seed):
        gen = random_generator(d, kind, seed)
        delta = dephasing_superoperator(d)
        times = np.r_[NCGD_GRID, np.add.outer(NCGD_GRID, NCGD_GRID).ravel()]
        stacked = dict(zip(times.tolist(), superop_exp(gen, times)))
        assert loop_ncgd_residual(stacked.__getitem__, delta) == loop_ncgd_residual(single_time_family(gen), delta)

    def test_non_finite_generator_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            classify_channel(identity_channel(2), ncgd_probe=np.full((4, 4), np.nan))
        gen = pure_dephasing_liouvillian()
        gen[1, 2] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            classify_channel(identity_channel(2), ncgd_probe=gen)

    def test_wrong_shape_generator_rejected(self):
        with pytest.raises(DimensionMismatch, match=r"d\^2 x d\^2"):
            classify_channel(identity_channel(2), ncgd_probe=np.eye(9))


def lindbladian_of_kind(d: int, kind: str, seed: int) -> np.ndarray:
    """``classical``: jumps |k><i| and dephasing |k><k| at rates in [0.2, 2] under a diagonal H,
    which is NCGD; ``driven``: the same plus an off-diagonal drive of strength 0.01-0.1;
    ``generic``: a random H and one random jump operator."""
    rng = np.random.default_rng(seed)
    if kind == "generic":
        g = rng.standard_normal((2, d, d)) + 1j * rng.standard_normal((2, d, d))
        return lindbladian((g[0] + g[0].conj().T) / 2.0, [g[1]])
    jumps = [np.sqrt(rng.uniform(0.2, 2.0)) * ketbra(k, i, d) for k in range(d) for i in range(d)]
    h = np.diag(rng.uniform(-1.0, 1.0, d)).astype(complex)
    if kind == "driven":
        v = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        v = v + v.conj().T
        h += rng.uniform(0.01, 0.1) * (v - np.diag(np.diag(v)))
    return lindbladian(h, jumps)


def grid_residual(gen) -> float:
    """The NCGD grid oracle's residual of exp(L t), the test a Liouvillian probe used to get."""
    return loop_ncgd_residual(single_time_family(gen), dephasing_superoperator(int(np.sqrt(len(gen)))))


L0 = lindbladian_of_kind(2, "generic", 0)


class TestExactNcgd:
    """A Liouvillian probe's exact NCGD test: D M^k K = 0 for k < d^2 - d, with D = PLQ,
    K = QLP and M = QLQ for P = Delta and Q = I - P."""

    @pytest.mark.parametrize("scale", [1e4, 1e-8])
    def test_grid_false_pass_is_refuted(self, scale):
        assert grid_residual(scale * L0) <= CLASS_ATOL
        rep = classify_channel(identity_channel(2), ncgd_probe=scale * L0)
        assert rep.ncgd_mode == "liouvillian (exact)"
        assert not rep.is_ncgd
        assert rep.residuals["ncgd"] > 0.01

    def test_scale_invariant(self):
        residuals = [_exact_ncgd_residual(c * L0, 2) for c in (1e-8, 1e-6, 1.0, 1e3, 1e4)]
        assert max(residuals) - min(residuals) <= 1e-12

    @NCGD_SETTINGS
    @given(d=st.sampled_from([2, 3]), kind=st.sampled_from(["classical", "driven", "generic"]), seed=SEEDS)
    def test_agrees_with_grid(self, d, kind, seed):
        gen = lindbladian_of_kind(d, kind, seed)
        rep = classify_channel(identity_channel(d), ncgd_probe=gen)
        assert rep.is_ncgd == (grid_residual(gen) <= CLASS_ATOL) == (kind == "classical")

    @pytest.mark.parametrize("d, kind, seed", [(2, "generic", 1), (3, "driven", 2), (3, "generic", 3),
                                               (4, "classical", 4), (4, "generic", 5)])
    def test_restriction_matches_full_form(self, d, kind, seed):
        # The same recurrence on full d^2 x d^2 matrices, with P = Delta and Q = I - P in place
        # of the population and coherence index slices.
        gen = lindbladian_of_kind(d, kind, seed)
        p = dephasing_superoperator(d)
        q = np.eye(d * d) - p
        detect, m, x = p @ gen @ q, q @ gen @ q, q @ gen @ p
        scale = np.linalg.norm(gen - m)
        full, x = [], x / scale
        for _ in range(d * d - d):
            full.append(_max_unit_deviation(detect @ x / scale))
            y = m @ x
            x = y / max(scale, np.linalg.norm(y) / np.linalg.norm(x)) if y.any() else y
        assert abs(_exact_ncgd_residual(gen, d) - max(full)) <= 1e-12

    def test_fast_block_does_not_hide_a_slow_violation(self):
        # Levels 0 and 1 are degenerate and resonantly driven; level 2 sits 1e5 above them.
        h = np.diag([0.0, 0.0, 1e5])
        h[0, 1] = h[1, 0] = 1.0
        gen = lindbladian(h, [])
        assert grid_residual(gen) > 0.1
        rep = classify_channel(identity_channel(3), ncgd_probe=gen)
        assert not rep.is_ncgd
        assert rep.residuals["ncgd"] > 0.1

    @pytest.mark.parametrize("fast", [1.0, 1e8])
    def test_second_order_violation(self, fast):
        # |0><0| -> |0><1| (K), |0><1| -> |1><0| at 1e-3 (M), |1><0| -> |2><2| (D): DK = 0 and
        # DMK != 0, so P L^n P = (PLP)^n P fails first at n = 3.  |0><2| and |2><0| rotate
        # at the rate ``fast``, which the populations never reach.
        gen = np.zeros((9, 9), dtype=complex)
        gen[1, 0], gen[3, 1], gen[8, 3] = 1.0, 1e-3, 1.0
        gen[2, 2], gen[6, 6] = -1j * fast, 1j * fast
        p = dephasing_superoperator(3)
        assert not (p @ gen @ gen @ p).any()
        third = np.zeros((9, 9))
        third[8, 0] = 1e-3
        assert np.array_equal(p @ np.linalg.matrix_power(gen, 3) @ p, third)
        assert _exact_ncgd_residual(gen, 3) == pytest.approx(1e-3 / (2.0 * np.sqrt(2.0)), rel=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_exact_zeros(self, d):
        delta = dephasing_superoperator(d)
        for gen in (np.zeros((d * d, d * d)), 0.7 * (delta - np.eye(d * d))):
            rep = classify_channel(identity_channel(d), ncgd_probe=gen)
            assert rep.residuals["ncgd"] == 0.0 and rep.is_ncgd

    def test_one_level_has_no_coherences(self):
        rep = classify_channel(identity_channel(1), ncgd_probe=np.array([[0.5]]))
        assert rep.residuals["ncgd"] == 0.0 and rep.is_ncgd


def test_liouvillian_probe_does_not_load_scipy_linalg(tmp_path):
    h = np.diag([0.0, 1.0, 2.0]) + 0.3 * (np.eye(3, k=1) + np.eye(3, k=-1))
    np.save(tmp_path / "gen.npy", lindbladian(h, [np.eye(3, k=-1)]))
    src = os.path.dirname(os.path.dirname(coherence.__file__))
    code = textwrap.dedent(f"""
        import sys
        import numpy as np
        from pdmsi.channels import identity_channel
        from pdmsi.coherence import classify_channel
        report = classify_channel(identity_channel(3), ncgd_probe=np.load({str(tmp_path / "gen.npy")!r}))
        print(report.is_ncgd, "scipy.linalg" in sys.modules)
    """)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False False"


class TestBlockPositivity:
    def test_vertex_distribution_identity_fails_support(self):
        res = block_positivity_test([1.0, 0.0], identity_channel(2))
        assert not res.compatible
        assert res.failing_pair == (0, 1)
        assert res.failure_kind == "support"

    def test_oi_channels_always_compatible(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            d = int(rng.choice([2, 3]))
            ch = prandom.oi_channel(d, rng)
            probs = rng.dirichlet(np.ones(d))
            assert block_positivity_test(probs, ch).compatible

    def test_blocks_assemble_to_closed_form(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            d = int(rng.choice([2, 3]))
            probs = rng.dirichlet(np.ones(d))
            ch = prandom.channel(d, d, env_dim=3, rng=rng)
            dec = pdm_blocks(probs, ch)
            full = np.zeros((d * ch.out_dim, d * ch.out_dim), dtype=complex)
            for (i, j), block in dec.blocks.items():
                full += np.kron(ketbra(i, j, d), block)
            r = pdm_closed_form(np.diag(probs.astype(complex)), ch)
            assert np.max(np.abs(full - r.mat)) < 1e-10
            herm_defect = max(
                np.max(np.abs(dec.blocks[(i, j)] - dec.blocks[(j, i)].conj().T))
                for i in range(d)
                for j in range(d)
            )
            assert herm_defect < 1e-10

    def test_agrees_with_full_spectrum(self):
        rng = np.random.default_rng(11)
        for t in range(150):
            d = int(rng.choice([2, 3, 4]))
            probs = rng.dirichlet(np.ones(d))
            if t % 4 == 0:
                probs = np.zeros(d)
                probs[rng.integers(d)] = 1.0
            ch = prandom.channel(d, d, env_dim=3, rng=rng)
            block_ok = block_positivity_test(probs, ch).compatible
            full = pdm_closed_form(np.diag(probs.astype(complex)), ch)
            assert block_ok == (full.min_eigenvalue() >= -1e-9)

    def test_stacked_failures_match_each_call(self):
        rng = np.random.default_rng(13)
        probs, chs = [], []
        for t in range(40):
            p = rng.dirichlet(np.ones(3))
            if t % 3 == 0:
                p = np.eye(3)[rng.integers(3)]
            probs.append(p)
            chs.append(prandom.channel(3, 3, env_dim=1 + t % 4, rng=rng))
        support, schur = _block_failures(np.array(probs), np.array([ch.jamiolkowski() for ch in chs]))
        for k, (p, ch) in enumerate(zip(probs, chs)):
            res = block_positivity_test(p, ch)
            failing = np.argwhere(support[k] | schur[k])
            assert res.compatible == (len(failing) == 0)
            if not res.compatible:
                i, j = failing[0]
                assert res.failing_pair == (i, j)
                assert res.failure_kind == ("support" if support[k, i, j] else "schur")


class TestAdversarialState:
    def test_dephasing_example(self):
        adv = adversarial_coherent_state(np.eye(2), 0, 1, 0, 0.5)
        assert abs(adv.block_det + 1.0 / 16.0) < 1e-15
        r = pdm_closed_form(adv.state, dephasing_channel(2))
        assert abs(r.min_eigenvalue() - (1 - np.sqrt(2)) / 4) < 1e-10

    def test_analytic_det_matches_numeric_block(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            d = int(rng.choice([2, 3, 4]))
            a = prandom.stochastic_matrix(d, rng)
            diffs = np.abs(a[:, :, None] - a[:, None, :])
            k, i, j = map(int, np.unravel_index(np.argmax(diffs), diffs.shape))
            if i == j or diffs[k, i, j] < 1e-6:
                continue
            p = float(rng.uniform(0.1, 0.9))
            adv = adversarial_coherent_state(a, i, j, k, p)
            ch = build_ce_oi_channel(a)
            r = pdm_closed_form(adv.state, ch)
            sub = np.array([
                [r.mat[i * d + k, i * d + k], r.mat[i * d + k, j * d + k]],
                [r.mat[j * d + k, i * d + k], r.mat[j * d + k, j * d + k]],
            ])
            assert abs(np.linalg.det(sub).real - adv.block_det) < 1e-10

    def test_exposes_si(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            d = int(rng.choice([2, 3]))
            a = prandom.stochastic_matrix(d, rng)
            diffs = np.abs(a[:, :, None] - a[:, None, :])
            k, i, j = map(int, np.unravel_index(np.argmax(diffs), diffs.shape))
            if i == j or diffs[k, i, j] < 1e-3:
                continue
            adv = adversarial_coherent_state(a, i, j, k, float(rng.uniform(0.1, 0.9)))
            value = si_measure(pdm_closed_form(adv.state, build_ce_oi_channel(a)), 1.0).value
            assert value > 1e-9

    def test_uniform_columns_rejected(self):
        a = np.full((2, 2), 0.5)
        with pytest.raises(NoAsymmetricColumn):
            adversarial_coherent_state(a, 0, 1, 0, 0.5)

    def test_bad_k_rejected(self):
        a = np.array([[1.0, 0.5, 0.0], [0.0, 0.25, 0.75], [0.0, 0.25, 0.25]])
        with pytest.raises(ValueError, match="pick another k"):
            adversarial_coherent_state(a, 1, 2, 2, 0.5)

    def test_p_range(self):
        with pytest.raises(ValueError):
            adversarial_coherent_state(np.eye(2), 0, 1, 0, 1.0)


class TestBuildCeOi:
    def test_identity_matrix_gives_dephasing(self):
        ch = build_ce_oi_channel(np.eye(2))
        assert channels_equal(ch, dephasing_channel(2))
        assert np.allclose(ch.jamiolkowski(), np.diag([1.0, 0, 0, 1.0]))

    def test_uniform_columns_classified(self):
        ch = build_ce_oi_channel(np.full((2, 2), 0.5))
        rep = classify_channel(ch)
        assert rep.is_oi and rep.is_ce

    def test_random_matrices_classified(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            d = int(rng.choice([2, 3]))
            ch = build_ce_oi_channel(prandom.stochastic_matrix(d, rng))
            rep = classify_channel(ch)
            assert rep.is_oi and rep.is_ce and rep.is_ci and rep.is_di

    def test_populations_follow_stochastic_matrix(self):
        rng = np.random.default_rng(23)
        a = prandom.stochastic_matrix(3, rng)
        ch = build_ce_oi_channel(a)
        for i in range(3):
            out = ch(projector(ket(i, 3)))
            assert np.allclose(np.diag(out).real, a[:, i], atol=1e-12)

    def test_kraus_stack_and_jamiolkowski_are_the_loop_build_byte_for_byte(self):
        rng = np.random.default_rng(29)
        with_zeros = 0
        for trial in range(200):
            d = int(rng.integers(1, 7))
            a = prandom.stochastic_matrix(d, rng)
            if trial % 2:  # zero entries, at least one nonzero per column
                a = a * (rng.random((d, d)) < 0.5)
                a[0, a.sum(axis=0) == 0.0] = 1.0
                a = a / a.sum(axis=0)
            with_zeros += bool(np.count_nonzero(a == 0.0))
            built, loop = build_ce_oi_channel(a), KrausChannel(loop_ce_oi_kraus(check_stochastic_matrix(a)))
            assert built.kraus.shape == loop.kraus.shape
            assert built.kraus.tobytes() == loop.kraus.tobytes()
            assert built.jamiolkowski().tobytes() == loop.jamiolkowski().tobytes()
        assert with_zeros > 50

    def test_stochastic_validation(self):
        with pytest.raises(ValueError):
            check_stochastic_matrix(np.array([[0.5, 0.2], [0.2, 0.8]]))
        with pytest.raises(ValueError):
            check_stochastic_matrix(np.array([[-0.1, 0.0], [1.1, 1.0]]))


NAN_COLUMN = [[np.nan, 0.0], [np.nan, 1.0]]


@pytest.mark.parametrize("call, message", [
    (lambda: pdm_blocks([np.nan, np.nan], identity_channel(2)), "probability vector of finite entries"),
    (lambda: block_positivity_test([np.inf, 0.0], identity_channel(2)), "probability vector of finite entries"),
    (lambda: build_ce_oi_channel(NAN_COLUMN), "stochastic matrix entries must be finite"),
    (lambda: adversarial_coherent_state(NAN_COLUMN, 0, 1, 0, 0.5), "stochastic matrix entries must be finite"),
], ids=["pdm_blocks", "block_positivity_test", "build_ce_oi_channel", "adversarial_coherent_state"])
def test_non_finite_probabilities_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()
