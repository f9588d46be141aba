import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    branch_probabilities,
    loop_agree_probability,
    loop_binomial_table,
    loop_probabilities,
    loop_projectors,
    pair_seed,
    pair_states,
    per_shot_agree_counts,
    products_with_agreements,
)

import pdmsi.random as prandom
from pdmsi.channels import KrausChannel, dephasing_channel, depolarizing_channel, identity_channel
from pdmsi.cli import MAX_SHOTS
from pdmsi.exceptions import DimensionMismatch, NonHermitian, ZeroShots
from pdmsi.linalg import kron
from pdmsi.observables import LightTouchObservable, ObservableBasis, pauli_basis
from pdmsi.pdm import CorrelatorTable, exact_correlators, pdm_closed_form, pdm_from_correlators
from pdmsi.sampling import (
    _agree_probabilities,
    projectors_for,
    sample_table,
    sample_two_time,
)
from pdmsi.states import ket, maximally_mixed, plus_state, projector

PAULI = {p.label: p for p in pauli_basis(1)}


def projector_stack(observables) -> np.ndarray:
    """``(n, 2, d, d)`` stack of each observable's (P+, P-) from ``loop_projectors``."""
    return np.array([loop_projectors(o)[:2] for o in observables])


def kernel(rho, ch, b1, b2):
    """The Lueders branch kernel (tests/oracles.py) over two bases' projector stacks."""
    return branch_probabilities(rho, ch, projector_stack(b1.observables), projector_stack(b2.observables))


def agree_probabilities(rho, ch, b1, b2):
    """``sample_table``'s P_agree of every pair of two bases, from the closed form."""
    lam12 = np.outer([a.lam for a in b1.observables], [b.lam for b in b2.observables])
    return _agree_probabilities(pdm_closed_form(rho, ch), b1.matrices, b2.matrices, lam12)


class TestProjectors:
    def test_pauli_z(self):
        projs = projectors_for(PAULI["Z"])
        assert np.allclose(projs.plus, np.diag([1.0, 0.0]))
        assert np.allclose(projs.minus, np.diag([0.0, 1.0]))
        assert projs.lam == 1.0

    def test_pauli_x(self):
        projs = projectors_for(PAULI["X"])
        assert np.allclose(projs.plus, plus_state())

    def test_identity_observable(self):
        projs = projectors_for(PAULI["I"])
        assert np.allclose(projs.plus, np.eye(2))
        assert np.allclose(projs.minus, np.zeros((2, 2)))

    def test_single_spectrum_pair_is_exact(self):
        # Within atol of lam * I counts as single-spectrum: the pair is exactly (I, 0).
        projs = projectors_for(np.diag([2.0, 2.0 - 5e-11]))
        assert projs.lam == 2.0
        assert np.array_equal(projs.plus, np.eye(2))
        assert np.array_equal(projs.minus, np.zeros((2, 2)))

    def test_two_qubit_string(self):
        xz = [p for p in pauli_basis(2) if p.label == "XZ"][0]
        projs = projectors_for(xz)
        for proj in (projs.plus, projs.minus):
            assert np.allclose(proj @ proj, proj, atol=1e-12)
            assert abs(np.trace(proj).real - 2.0) < 1e-12
        assert np.allclose(projs.plus + projs.minus, np.eye(4))
        assert np.allclose(projs.plus @ projs.minus, np.zeros((4, 4)), atol=1e-12)

    def test_generic_hermitian(self):
        rng = np.random.default_rng(3)
        q = prandom.dichotomic_observable(3, rng)
        projs = projectors_for(q)
        assert np.allclose(projs.plus - projs.minus, q, atol=1e-10)

    @pytest.mark.parametrize("observables", [
        pytest.param(pauli_basis(1), id="pauli-1"),
        pytest.param(pauli_basis(2), id="pauli-2"),
        pytest.param(ObservableBasis.light_touch(3).observables, id="light-touch-3"),
        pytest.param([LightTouchObservable(2.0 * np.eye(2), "2I")], id="single-spectrum-2I"),
        pytest.param([3.0 * prandom.dichotomic_observable(3, np.random.default_rng(7)),
                      np.diag([0.5, -0.5, 0.5, -0.5])], id="raw-matrices"),
    ])
    def test_pair_is_the_reference_formula_bit_for_bit(self, observables):
        # ((I + A/lam)/2, (I - A/lam)/2), or (I, 0) for a single-spectrum observable.
        for obs in observables:
            projs = projectors_for(obs)
            plus, minus, lam = loop_projectors(obs)
            assert np.array_equal(projs.plus, plus) and np.array_equal(projs.minus, minus)
            assert projs.lam == lam

    def test_rejects_generic_spectrum(self):
        with pytest.raises(ValueError):
            projectors_for(np.diag([1.0, 2.0]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitian):
            projectors_for(np.array([[1, 5], [0, -1]], dtype=complex))

    def test_branch_post_states_valid(self):
        # A Lueders post-state of A_i lies in the eigenspace it was projected
        # onto, so through the identity channel A_i repeats the outcome; a
        # dead branch (I's minus branch) has q = 0.
        basis = ObservableBasis.pauli(1)
        rng = np.random.default_rng(5)
        for _ in range(20):
            rho = prandom.density_matrix(2, rng)
            p, q = kernel(rho, identity_channel(2), basis, basis)
            assert np.all((0.0 <= p) & (p <= 1.0))
            assert np.all((0.0 <= q) & (q <= 1.0))
            assert np.all(np.diagonal(q[:, 0, :]) == 1.0)
            assert np.all(np.diagonal(q[:, 1, :]) == 0.0)


class TestSampleTwoTime:
    def test_deterministic_branch(self):
        basis = ObservableBasis.pauli(1)
        p, q = kernel(projector(ket(0)), identity_channel(2), basis, basis)
        z = basis.labels.index("Z")
        assert p[z] == 1.0  # certain first outcome
        assert q[z, 0, z] == 1.0  # certain second outcome
        assert q[z, 1, z] == 0.0  # dead first branch
        out = sample_two_time(projector(ket(0)), identity_channel(2),
                              PAULI["Z"], PAULI["Z"], 1000, seed=0)
        assert out.mean == 1.0
        assert out.stderr == 0.0

    def test_rejects_invalid_state(self):
        # Without the check, clipping turns this into a plausible table (IZ = 1.0).
        bad = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(ValueError, match="positive semidefinite"):
            sample_two_time(bad, identity_channel(2), PAULI["I"], PAULI["Z"], 10, seed=0)
        with pytest.raises(ValueError, match="positive semidefinite"):
            sample_table(bad, identity_channel(2), ObservableBasis.pauli(1), 10, seed=0)

    def test_xx_through_identity_is_deterministic(self):
        # X at t1 creates |+> or |->, the identity keeps it, X at t2 repeats it.
        out = sample_two_time(projector(ket(0)), identity_channel(2),
                              PAULI["X"], PAULI["X"], 20000, seed=1)
        assert out.mean == 1.0

    def test_plus_dephase_xx_near_zero(self):
        out = sample_two_time(plus_state(), dephasing_channel(2),
                              PAULI["X"], PAULI["X"], 100_000, seed=2)
        assert abs(out.mean) <= 5 * out.stderr

    def test_reproducible_bit_for_bit(self):
        rng = np.random.default_rng(7)
        rho = prandom.density_matrix(2, rng)
        ch = prandom.channel(2, 2, env_dim=3, rng=rng)
        a = sample_two_time(rho, ch, PAULI["X"], PAULI["Y"], 5000, seed=42)
        b = sample_two_time(rho, ch, PAULI["X"], PAULI["Y"], 5000, seed=42)
        c = sample_two_time(rho, ch, PAULI["X"], PAULI["Y"], 5000, seed=43)
        assert a == b
        assert a.mean != c.mean
        seeds = [np.random.SeedSequence((42, 12)) for _ in range(2)]
        assert len({sample_two_time(rho, ch, PAULI["X"], PAULI["Y"], 5000, s).mean for s in seeds}) == 1

    def test_unbiased_over_seeds(self):
        rng = np.random.default_rng(11)
        rho = prandom.density_matrix(2, rng)
        ch = prandom.channel(2, 2, env_dim=3, rng=rng)
        exact = float(np.trace(
            pdm_closed_form(rho, ch).mat @ kron(PAULI["X"].matrix, PAULI["Z"].matrix)
        ).real)
        means, errs = [], []
        for seed in range(100):
            out = sample_two_time(rho, ch, PAULI["X"], PAULI["Z"], 2000, seed=seed)
            means.append(out.mean)
            errs.append(out.stderr)
        pooled = np.sqrt(np.mean(np.square(errs)) / len(means))
        assert abs(np.mean(means) - exact) < 5 * pooled

    def test_zero_shots(self):
        with pytest.raises(ZeroShots):
            sample_two_time(projector(ket(0)), identity_channel(2),
                            PAULI["Z"], PAULI["Z"], 0, seed=0)

    def test_dimension_guard(self):
        with pytest.raises(DimensionMismatch):
            sample_two_time(maximally_mixed(3), identity_channel(2),
                            PAULI["Z"], PAULI["Z"], 10, seed=0)


class TestSampleTable:
    def test_identity_pairs_exact(self):
        rng = np.random.default_rng(13)
        rho = prandom.density_matrix(2, rng)
        table = sample_table(rho, identity_channel(2), ObservableBasis.pauli(1), 500, seed=3)
        assert table.entries[("I", "I")] == 1.0
        z_mean = float(np.trace(rho @ np.diag([1.0, -1.0])).real)
        # single-sided pair: second side scored by its own statistics only
        assert abs(table.entries[("I", "Z")] - z_mean) < 0.2
        assert table.shots[0, 3] == 500  # (I, Z)

    @pytest.mark.parametrize("descriptors", [("pauli:1", "pauli:1"), ("pauli:1", "light_touch:3"),
                                             ["light_touch:2", "pauli:1"]])
    def test_descriptor_pair_reads_as_the_pair_of_bases(self, descriptors):
        bases = tuple(ObservableBasis.from_descriptor(x) for x in descriptors)
        mixed = (descriptors[0], bases[1])
        rng = np.random.default_rng(29)
        rho = prandom.density_matrix(bases[0].dim, rng)
        ch = prandom.channel(bases[0].dim, bases[1].dim, env_dim=2, rng=rng)
        want = sample_table(rho, ch, bases, 10, 1)
        for basis in (descriptors, mixed):
            assert sample_table(rho, ch, basis, 10, 1).to_csv() == want.to_csv()
            got = exact_correlators(pdm_closed_form(rho, ch), basis)
            assert np.array_equal(got.values, exact_correlators(pdm_closed_form(rho, ch), bases).values)
            assert (got.basis1.descriptor, got.basis2.descriptor) == tuple(descriptors)

    @pytest.mark.parametrize("basis", [3, ("pauli:1", 2), (None, "pauli:1"), ("pauli:1",) * 3])
    def test_basis_that_is_neither_a_basis_nor_a_pair_names_basis(self, basis):
        with pytest.raises(TypeError, match="^basis must be"):
            sample_table(maximally_mixed(2), identity_channel(2), basis, 10, 1)

    def test_zero_variance_pair(self):
        table = sample_table(projector(ket(0)), dephasing_channel(2),
                             ObservableBasis.pauli(1), 100, seed=5)
        assert table.entries[("Z", "Z")] == 1.0

    # The per-shot reference's seeding (tests/oracles.py): ``pair_seed`` and its bulk form.
    def test_pair_seeds_are_order_independent(self):
        assert pair_seed(9, 1, 2).entropy == (9, 1, 2)
        a = pair_seed(9, 1, 2).generate_state(4)
        b = pair_seed(9, 1, 2).generate_state(4)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("args, name, error", [
        ((1.5, 0, 0), "root_seed", TypeError), ((True, 0, 0), "root_seed", TypeError),
        ((np.True_, 0, 0), "root_seed", TypeError), ((1, 0.0, 0), "i", TypeError),
        ((1, 0, False), "j", TypeError), ((-1, 0, 0), "root_seed", ValueError),
        ((1, -1, 0), "i", ValueError), ((1, 0, np.int64(-2)), "j", ValueError),
    ])
    def test_pair_seed_rejects_non_integers(self, args, name, error):
        with pytest.raises(error, match=f"^{name} must"):
            pair_seed(*args)

    def test_pair_seed_takes_numpy_integers(self):
        assert pair_seed(np.int64(1), np.int32(0), 2).entropy == (1, 0, 2)

    # Seeds of one to five 32-bit words: the pool holds four entropy words, so a seed of
    # three or more pushes j, then i, into the rounds mixed in after the pool is full.
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**32 - 1, 2**32, 2**64 - 1, 2**64,
                                      2**96 + 5, 2**128 + 1, 2**130])
    @pytest.mark.parametrize("n1, n2", [(1, 1), (4, 9), (9, 4), (16, 16)])
    def test_bulk_states_match_pair_seed(self, seed, n1, n2):
        states = pair_states(seed, n1, n2)
        assert states.shape == (n1 * n2, 4) and states.dtype == np.uint64
        for k, (i, j) in enumerate(np.ndindex(n1, n2)):
            assert np.array_equal(states[k], pair_seed(seed, i, j).generate_state(4, np.uint64))

    def test_rerun_gives_the_same_bytes(self):
        rng = np.random.default_rng(43)
        rho, ch = prandom.density_matrix(4, rng), prandom.channel(4, 4, env_dim=2, rng=rng)
        basis = ObservableBasis.pauli(2)
        first = sample_table(rho, ch, basis, 700, seed=2**70 + 3).to_csv()
        assert sample_table(rho, ch, basis, 700, seed=2**70 + 3).to_csv() == first
        assert sample_table(rho, ch, basis, 700, seed=2**70 + 4).to_csv() != first

    def test_converges_to_exact_correlators(self):
        rng = np.random.default_rng(17)
        rho = prandom.density_matrix(2, rng)
        ch = prandom.channel(2, 2, env_dim=3, rng=rng)
        exact = exact_correlators(pdm_closed_form(rho, ch))
        table = sample_table(rho, ch, ObservableBasis.pauli(1), 20000, seed=19)
        for key, value in exact.entries.items():
            assert abs(table.entries[key] - value) < 0.05

    def test_reconstructed_pdm_close(self):
        r = pdm_closed_form(projector(ket(0)), identity_channel(2))
        table = sample_table(projector(ket(0)), identity_channel(2),
                             ObservableBasis.pauli(1), 50_000, seed=23)
        recon = pdm_from_correlators(table)
        assert np.linalg.norm(recon.mat - r.mat) < 0.05

    def test_scaled_observable_outcomes(self):
        # Spectrum {+2, -2}: outcomes are +/-2, so the correlator scales by 4.
        rng = np.random.default_rng(37)
        rho = prandom.density_matrix(2, rng)
        ch = prandom.channel(2, 2, env_dim=3, rng=rng)
        z2 = 2.0 * np.diag([1.0, -1.0]).astype(complex)
        exact = float(np.trace(pdm_closed_form(rho, ch).mat @ kron(z2, z2)).real)
        out = sample_two_time(rho, ch, z2, z2, 50_000, seed=41)
        k = round((out.mean / 4.0 * 50_000 + 50_000) / 2)
        products = products_with_agreements(k, 50_000, 4.0)
        assert out.mean == np.mean(products)
        assert abs(out.stderr - np.std(products, ddof=1) / np.sqrt(50_000)) <= 4 * np.spacing(out.stderr)
        assert abs(out.mean - exact) <= 5 * out.stderr + 1e-9

    def test_light_touch_sampling_and_reconstruction(self):
        rng = np.random.default_rng(29)
        rho = prandom.density_matrix(3, rng)
        ch = prandom.channel(3, 3, env_dim=3, rng=rng)
        r = pdm_closed_form(rho, ch)
        basis = ObservableBasis.light_touch(3)
        exact = exact_correlators(r, basis)
        table = sample_table(rho, ch, basis, 20_000, seed=31)
        for key, value in exact.entries.items():
            assert abs(table.entries[key] - value) < 0.1
        recon = pdm_from_correlators(table)
        assert abs(np.trace(recon.mat).real - 1.0) < 1e-12
        assert np.linalg.norm(recon.mat - r.mat) < 0.2


# (basis at t1, basis at t2): d1 != d2 and the single-spectrum members I and D0.
KERNEL_PAIRS = [("pauli:1", "pauli:1"), ("pauli:2", "pauli:2"), ("pauli:1", "pauli:2"),
                ("light_touch:3", "light_touch:3"), ("pauli:1", "light_touch:3"),
                ("light_touch:3", "pauli:1"), ("light_touch:3", "light_touch:5")]
KERNEL_SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)


@st.composite
def sampling_cases(draw):
    """(rho, channel, b1, b2) with basis states (certain first outcomes) and the identity
    and dephasing channels (certain second outcomes) mixed in with random ones."""
    b1, b2 = (ObservableBasis.from_descriptor(d) for d in draw(st.sampled_from(KERNEL_PAIRS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        rho = projector(ket(draw(st.integers(0, b1.dim - 1)), b1.dim))
    else:
        rho = prandom.density_matrix(b1.dim, rng)
    kinds = ["random"] + (["identity", "dephasing"] if b1.dim == b2.dim else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "identity":
        ch = identity_channel(b1.dim)
    elif kind == "dephasing":
        ch = dephasing_channel(b1.dim)
    else:
        # The Stinespring isometry needs d2 * env_dim >= d1.
        env_dim = draw(st.integers(-(-b1.dim // b2.dim), 3))
        ch = prandom.channel(b1.dim, b2.dim, env_dim=env_dim, rng=rng)
    return rho, ch, b1, b2


class TestBranchKernel:
    @KERNEL_SETTINGS
    @given(case=sampling_cases())
    def test_probabilities_match_loop(self, case):
        rho, ch, b1, b2 = case
        p, q = kernel(rho, ch, b1, b2)
        assert p.shape == (len(b1),) and q.shape == (len(b1), 2, len(b2))
        for i, a in enumerate(b1.observables):
            for j, b in enumerate(b2.observables):
                ref = loop_probabilities(rho, ch, loop_projectors(a), loop_projectors(b))
                assert abs(p[i] - ref[0]) <= 1e-12
                assert abs(q[i, 0, j] - ref[1]) <= 1e-12
                assert abs(q[i, 1, j] - ref[2]) <= 1e-12

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(case=sampling_cases(), seed=st.integers(0, 2**130))
    def test_table_csv_matches_loop(self, case, seed):
        # The array draw is the per-pair loop of scalar binomials from one generator, in row-major order.
        rho, ch, b1, b2 = case
        got = sample_table(rho, ch, (b1, b2), 64, seed).to_csv()
        assert got == loop_binomial_table(agree_probabilities(rho, ch, b1, b2), b1, b2, 64, seed).to_csv()

    @KERNEL_SETTINGS
    @given(case=sampling_cases(), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_two_time_matches_loop(self, case, seed, data):
        # The same k as the loop's one binomial draw, its mean, and the ddof=1 stderr of its products.
        rho, ch, b1, b2 = case
        a = b1.observable(data.draw(st.sampled_from(b1.labels)))
        b = b2.observable(data.draw(st.sampled_from(b2.labels)))
        out = sample_two_time(rho, ch, a, b, 200, seed)
        k = int(np.random.default_rng(seed).binomial(200, loop_agree_probability(rho, ch, a, b)))
        products = products_with_agreements(k, 200, a.lam * b.lam)
        assert out.mean == a.lam * b.lam * ((2 * k - 200) / 200)
        assert abs(out.stderr - np.std(products, ddof=1) / np.sqrt(200)) <= 4 * np.spacing(out.stderr)

    def test_clamps_at_the_edges(self):
        # On |0><0| with Z at t2: p- within DEAD_BRANCH_PROB of 1 makes p+ exactly 0
        # even where p+ (1e-10, inside the 1e-9 sum slack) is live; p+ within it
        # snaps to 1; a branch below it is dead, so its q is 0, not Z's 1.
        rho = projector(ket(0))
        ch = identity_channel(2)
        second = projector_stack([PAULI["Z"]])
        tiny, dead, certain = (np.diag([x, 0.0]) for x in (1e-10, 1e-15, 1.0 - 1e-15))
        cases = [((tiny, np.diag([1.0, 0.0])), (0.0, 1.0, 1.0)),
                 ((certain, tiny), (1.0, 1.0, 1.0)),
                 ((certain, dead), (1.0, 1.0, 0.0))]
        for pair, want in cases:
            p, q = branch_probabilities(rho, ch, np.array([pair], dtype=complex), second)
            assert (p[0], q[0, 0, 0], q[0, 1, 0]) == want
            assert loop_probabilities(rho, ch, pair, second[0]) == want

    def test_branch_sums_checked(self):
        # Projector pairs that do not resolve the identity: the first pair sums
        # to 2 on |0><0|, the second to 0.5 on every output state.
        rho = projector(ket(0))
        ch = identity_channel(2)
        good = projector_stack([PAULI["Z"]])
        double = np.array([[np.diag([1.0, 0.0])] * 2], dtype=complex)
        half = np.array([[np.eye(2) / 4.0] * 2], dtype=complex)
        for projs1, projs2, total in ((double, good, 2.0), (good, half, 0.5)):
            with pytest.raises(ValueError, match=f"sum to {total!r}"):
                branch_probabilities(rho, ch, projs1, projs2)
            with pytest.raises(ValueError, match=f"sum to {total!r}"):
                loop_probabilities(rho, ch, projs1[0], projs2[0])


# Qubit bases of scaled Paulis: lam1 * lam2 is an integer (3*3, 3*2, 2*2), dyadic
# (3*0.5) or neither (3*0.7, 0.7*0.7), and 2*I is single-spectrum with lam = 2.
SCALED = ObservableBasis([LightTouchObservable(c * PAULI[p].matrix, f"{c}{p}")
                          for c, p in ((3.0, "Z"), (0.7, "X"), (2.0, "I"), (0.5, "Y"))], "scaled")


@st.composite
def scaled_cases(draw):
    """(rho, channel) on a qubit: a basis state or a random state, through the identity,
    the dephasing channel or a random channel."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rho = projector(ket(draw(st.integers(0, 1)))) if draw(st.booleans()) else prandom.density_matrix(2, rng)
    kind = draw(st.sampled_from(["identity", "dephasing", "random"]))
    if kind == "identity":
        return rho, identity_channel(2)
    if kind == "dephasing":
        return rho, dephasing_channel(2)
    return rho, prandom.channel(2, 2, env_dim=draw(st.integers(1, 3)), rng=rng)


class TestAgreementCounts:
    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(case=scaled_cases(), seed=st.integers(0, 2**32 - 1), shots=st.sampled_from([1, 64, 1000]))
    def test_table_is_lam_times_agreement_count(self, case, seed, shots):
        # Each value is lam1*lam2 * ((2k - n) / n) with k the loop reference's binomial draw; it
        # equals np.mean of n products +/-lam1*lam2 with k agreements bit for bit when lam1*lam2
        # is a power of two (scaling by it is exact), and within 1e-15 * lam1*lam2 otherwise.
        rho, ch = case
        table = sample_table(rho, ch, SCALED, shots, seed)
        want = loop_binomial_table(agree_probabilities(rho, ch, SCALED, SCALED), SCALED, SCALED, shots, seed)
        for i, a in enumerate(SCALED.observables):
            for j, b in enumerate(SCALED.observables):
                lam12 = a.lam * b.lam
                k = round((want.values[i, j] / lam12 * shots + shots) / 2)
                assert table.values[i, j] == want.values[i, j] == lam12 * ((2 * k - shots) / shots)
                mean = np.mean(products_with_agreements(k, shots, lam12))
                if math.frexp(lam12)[0] == 0.5:
                    assert table.values[i, j] == mean
                else:
                    assert abs(table.values[i, j] - mean) <= 1e-15 * lam12

    def test_counts_keep_the_per_shot_bytes_on_bundled_bases(self):
        # lam = 1: the sum of n products +/-1.0 is the integer 2k - n, so a value and the
        # per-shot mean of its k agreements agree bit for bit at 10^5 shots too.
        rng = np.random.default_rng(71)
        rho, ch = prandom.density_matrix(2, rng), prandom.channel(2, 2, env_dim=2, rng=rng)
        table = sample_table(rho, ch, ObservableBasis.pauli(1), 100_000, seed=73)
        for value in table.values.ravel():
            k = round((value * 100_000 + 100_000) / 2)
            assert value == (2 * k - 100_000) / 100_000 == np.mean(products_with_agreements(k, 100_000, 1.0))

    def test_table_pair_matches_two_time(self):
        # Pair (0, 0) is a table's first draw, so it is sample_two_time's one draw from the same seed.
        rng = np.random.default_rng(79)
        rho, ch = prandom.density_matrix(2, rng), prandom.channel(2, 2, env_dim=3, rng=rng)
        table = sample_table(rho, ch, SCALED, 500, seed=83)
        out = sample_two_time(rho, ch, SCALED.observables[0], SCALED.observables[0], 500, 83)
        assert table.values[0, 0] == out.mean


# Fixed in advance: the closed-form and Lueders agreement probabilities differ by rounding only.
AGREE_ATOL = 1e-12


class TestAgreeIdentity:
    """P_agree = 1/2 + Tr[R (A (x) B)] / (2 lam1 lam2) against the Lueders branch oracle."""

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(case=st.one_of(sampling_cases(), scaled_cases().map(lambda c: (*c, SCALED, SCALED))))
    def test_matches_lueders_oracle(self, case):
        # d1 != d2, lam != 1, single-spectrum members (I, D0, 2I), basis-state inputs whose
        # first branches die, and the identity channel; an exact 0 or 1 stays exact.
        rho, ch, b1, b2 = case
        got = agree_probabilities(rho, ch, b1, b2)
        want = np.array([[loop_agree_probability(rho, ch, a, b) for b in b2.observables]
                         for a in b1.observables])
        assert np.max(np.abs(got - want)) <= AGREE_ATOL
        certain = (want == 0.0) | (want == 1.0)
        assert np.array_equal(got[certain], want[certain])

    def test_table_builds_no_post_state_per_branch(self):
        # depolarizing(0.3) at d = 16 has 257 Kraus operators: Lueders post-states through it
        # took n1 K d^3 complex entries (over 1 GB); the closed form holds a few d^4.
        ch, basis = depolarizing_channel(0.3, 16), ObservableBasis.pauli(4)
        tracemalloc.start()
        try:
            table = sample_table(maximally_mixed(16), ch, basis, 1000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert table.values.shape == (256, 256) and table.entries[("IIII", "IIII")] == 1.0


# Fixed in advance: each comparison of the binomial and per-shot agree-counts over SEEDS
# seeds passes within Z_MAX standard errors of the difference; not tuned to the seeds.
SEEDS, SHOTS, Z_MAX = 400, 200, 5.0


class TestBinomialMatchesPerShot:
    """The binomial draw against the per-shot sampler it replaced (``tests/oracles.py``)."""

    @pytest.mark.parametrize("d1, basis", [(2, "pauli:1"), (3, "light_touch:3")])
    def test_agree_count_mean_and_variance(self, d1, basis):
        rng = np.random.default_rng(97 + d1)
        rho, ch = prandom.density_matrix(d1, rng), prandom.channel(d1, d1, env_dim=2, rng=rng)
        b = ObservableBasis.from_descriptor(basis)
        lam12 = np.outer([a.lam for a in b.observables], [a.lam for a in b.observables])
        binom = np.array([np.rint((sample_table(rho, ch, b, SHOTS, seed).values / lam12 * SHOTS + SHOTS) / 2)
                          for seed in range(SEEDS)])
        shot = per_shot_agree_counts(rho, ch, b, b, SHOTS, range(SEEDS))
        p_agree = np.array([[loop_agree_probability(rho, ch, a1, a2) for a2 in b.observables]
                            for a1 in b.observables])
        random = (p_agree > 0.0) & (p_agree < 1.0)
        assert random.sum() >= 0.75 * random.size
        b_k, s_k, p_k = binom[:, random], shot[:, random], p_agree[random]
        var_b, var_s = b_k.var(axis=0, ddof=1), s_k.var(axis=0, ddof=1)
        z_mean = np.abs(b_k.mean(axis=0) - s_k.mean(axis=0)) / np.sqrt((var_b + var_s) / SEEDS)
        # log of a ratio of two sample variances: standard error sqrt(2/(S-1) + 2/(S-1)) for
        # near-normal counts (binomial excess kurtosis is below 1/(n p (1 - p))).
        z_var = np.abs(np.log(var_b / var_s)) / np.sqrt(4.0 / (SEEDS - 1))
        assert np.all(z_mean <= Z_MAX), z_mean.max()
        assert np.all(z_var <= Z_MAX), z_var.max()
        # Both match the exact mean n P too.
        for counts in (b_k, s_k):
            z_exact = np.abs(counts.mean(axis=0) - SHOTS * p_k) / np.sqrt(SHOTS * p_k * (1.0 - p_k) / SEEDS)
            assert np.all(z_exact <= Z_MAX), z_exact.max()
        # Agreement certain or impossible: both samplers give k = n or 0, every seed.
        assert np.all(binom[:, ~random] == shot[:, ~random])
        assert np.all(binom[:, ~random] == SHOTS * p_agree[~random])

    @pytest.mark.parametrize("shots", [1, 2, 1000, MAX_SHOTS])
    def test_deterministic_pairs_are_exact(self, shots):
        # |0><0| through an X flip: Z then Z always disagree (P_agree = 0), X then X always agree
        # (p = 1/2, q = (1, 0)); the first branch of Z is dead.  Through the identity, every
        # observable repeats its outcome.  Each such value is exactly +/-lam1*lam2.
        flip = KrausChannel([np.array([[0, 1], [1, 0]], dtype=complex)])
        rho = projector(ket(0))
        for ch, sign in ((flip, {"3.0Z": -1.0, "0.7X": 1.0}), (identity_channel(2), {"3.0Z": 1.0, "0.7X": 1.0})):
            table = sample_table(rho, ch, SCALED, shots, seed=5)
            for label, s in sign.items():
                lam = SCALED.observable(label).lam
                assert table.entries[(label, label)] == s * lam * lam
                out = sample_two_time(rho, ch, SCALED.observable(label), SCALED.observable(label), shots, 5)
                assert (out.mean, out.stderr) == (s * lam * lam, 0.0)
        # The single-spectrum 2I agrees with a certain +lam of 3Z on |0><0| through the identity.
        assert sample_table(rho, identity_channel(2), SCALED, shots, seed=6).entries[("2.0I", "3.0Z")] == 6.0

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(case=scaled_cases(), seed=st.integers(0, 2**32 - 1), shots=st.sampled_from([1, 2, 3, 64, 1001]),
           pair=st.tuples(st.integers(0, 3), st.integers(0, 3)))
    def test_stderr_is_the_std_of_the_products(self, case, seed, shots, pair):
        # 2|lam12| sqrt(k(n - k) / (n(n - 1))) / sqrt(n) against np.std(ddof=1) / sqrt(n) of n
        # products with k agreements, within 4 ulp; 0 for one shot.
        rho, ch = case
        a, b = (SCALED.observables[i] for i in pair)
        out = sample_two_time(rho, ch, a, b, shots, seed)
        lam12 = a.lam * b.lam
        k = round((out.mean / lam12 * shots + shots) / 2)
        if shots == 1:
            assert out.stderr == 0.0
            return
        want = np.std(products_with_agreements(k, shots, lam12), ddof=1) / math.sqrt(shots)
        assert abs(out.stderr - want) <= 4 * np.spacing(max(out.stderr, want))


class TestShotCounts:
    BASIS = ObservableBasis.pauli(1)

    @pytest.mark.parametrize("bad", [True, False, np.True_, 2.0, np.float64(3.0), "10", None])
    def test_non_integers_rejected_up_front(self, bad):
        with pytest.raises(TypeError, match="shots_per_pair"):
            sample_table(maximally_mixed(2), identity_channel(2), self.BASIS, bad, seed=0)
        with pytest.raises(TypeError, match="shots"):
            sample_two_time(maximally_mixed(2), identity_channel(2), PAULI["Z"], PAULI["Z"], bad, seed=0)

    @pytest.mark.parametrize("bad", [0, -1, np.int64(0)])
    def test_below_one_is_zero_shots(self, bad):
        with pytest.raises(ZeroShots, match="shots_per_pair"):
            sample_table(maximally_mixed(2), identity_channel(2), self.BASIS, bad, seed=0)
        with pytest.raises(ZeroShots):
            sample_two_time(maximally_mixed(2), identity_channel(2), PAULI["Z"], PAULI["Z"], bad, seed=0)

    def test_checked_before_the_kernel(self):
        # An invalid state would raise ValueError from the kernel; the shot count is read first.
        bad = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(TypeError):
            sample_table(bad, identity_channel(2), self.BASIS, 2.0, seed=0)
        with pytest.raises(ZeroShots):
            sample_two_time(bad, identity_channel(2), PAULI["I"], PAULI["Z"], 0, seed=0)

    @pytest.mark.parametrize("shots", [np.int64(50), np.int32(50), np.uint16(50)])
    def test_numpy_integers_accepted(self, shots):
        table = sample_table(maximally_mixed(2), identity_channel(2), self.BASIS, shots, seed=4)
        assert table.shots.dtype.kind == "i" and np.all(table.shots == 50)
        assert table.to_csv() == sample_table(maximally_mixed(2), identity_channel(2), self.BASIS, 50, seed=4).to_csv()
        assert CorrelatorTable.from_csv(table.to_csv(), self.BASIS, self.BASIS).to_csv() == table.to_csv()
        assert sample_two_time(maximally_mixed(2), identity_channel(2), PAULI["Z"], PAULI["Z"], shots, 0).shots == 50


class TestSeeds:
    BASIS = ObservableBasis.pauli(1)

    @pytest.mark.parametrize("bad", [1.5, True, False, np.True_, np.float64(1.0), "1", None])
    def test_non_integers_rejected_up_front(self, bad):
        # An invalid state would raise ValueError from the kernel; the seed is read first.
        state = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(TypeError, match="seed"):
            sample_table(state, identity_channel(2), self.BASIS, 10, seed=bad)

    @pytest.mark.parametrize("bad", [True, np.True_, None])
    def test_two_time_rejects_bool(self, bad):
        # None would draw from OS entropy, and a bool would read as 0 or 1.
        with pytest.raises(TypeError, match="seed"):
            sample_two_time(np.diag([1.2, -0.2]).astype(complex), identity_channel(2),
                            PAULI["Z"], PAULI["Z"], 10, seed=bad)

    @pytest.mark.parametrize("bad", [-1, np.int64(-1)])
    def test_negative_rejected(self, bad):
        with pytest.raises(ValueError, match="seed"):
            sample_table(maximally_mixed(2), identity_channel(2), self.BASIS, 10, seed=bad)

    def test_numpy_integer_is_the_same_seed(self):
        want = sample_table(plus_state(), dephasing_channel(2), self.BASIS, 200, seed=1).to_csv()
        for seed in (np.int64(1), np.uint8(1)):
            assert sample_table(plus_state(), dephasing_channel(2), self.BASIS, 200, seed=seed).to_csv() == want
        assert sample_two_time(plus_state(), dephasing_channel(2), PAULI["X"], PAULI["Z"], 200,
                               np.random.SeedSequence((1, 12))).shots == 200
