"""User-facing property suites: randomized invariant checks with trial counts.

``CHECKS`` is the table of every check as (suite, name, trials, check).  A
check draws its random inputs trial by trial, in a fixed order from its
suite's generator, then computes its claim for all trials at once through
the stacked kernels.  Where the library has two routes to one quantity
(closed form and LP, full spectrum and Schur blocks) the check takes both,
so a regression in one shows up as a named failure rather than a silently
agreeing pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import coherence, pdm
from . import random as prandom
from .channels import _superoperator
from .channels import identity_channel, unitary_channel
from .leggett_garg import LG_SLACK, SI_DETECT_ATOL, _lg_correlators, _lg_pdms, lg_operator
from .linalg import kron
from .observables import PAULI_1Q, ObservableBasis
from .pdm import NEGATIVITY_ATOL, _bound_check, _closed_form, _PdmStack
from .sampling import sample_two_time
from .states import ket, projector

# Default seed of each suite, in run order.
SUITES = {"pdm": 20240801, "coherence": 20240802, "lg": 20240803}


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    trials: int
    detail: str = ""


def _jamiolkowski_stack(chs) -> np.ndarray:
    """The cached Jamiolkowski matrices of equally shaped channels, as one ``(N, n, n)`` stack."""
    return np.array([ch.jamiolkowski() for ch in chs])


def _closed_forms(pairs) -> _PdmStack:
    """The stack of PDMs of equally shaped (state, channel) pairs, as one stacked call."""
    states, chs = zip(*pairs)
    return _PdmStack.closed_form(np.array(states), _jamiolkowski_stack(chs))


def _by_dim(dims, quantity) -> np.ndarray:
    """``quantity(indices)`` for each group of equal ``dims``, scattered back to one array."""
    dims, out = np.asarray(dims), np.empty(len(dims))
    for d in np.unique(dims):
        out[dims == d] = quantity(np.flatnonzero(dims == d))
    return out


def _pair_quantity(pairs, quantity) -> np.ndarray:
    """``quantity`` of the ``_PdmStack`` of (state, channel) pairs, one stack per dimension."""
    return _by_dim([len(rho) for rho, _ in pairs],
                   lambda at: quantity(_closed_forms([pairs[k] for k in at])))


def _pdm_draw(rng) -> np.ndarray:
    """A random 4 x 4 qubit-pair PDM: the raw closed form of a random (state, channel) pair, or a
    unit-trace Hermitian matrix."""
    if rng.random() < 0.5:
        rho = prandom.density_matrix(2, rng)
        return _closed_form(rho, prandom.channel(2, 2, env_dim=3, rng=rng).jamiolkowski())
    return prandom.unit_trace_hermitian(4, rng)


def _pdms(draws) -> _PdmStack:
    """The ``(N, 4, 4)`` stack of ``_pdm_draw`` draws, checked once as a whole."""
    return _PdmStack(np.array(draws, dtype=complex), (2, 2))


def _positivity(rng, trials):
    s = _pdms([_pdm_draw(rng) for _ in range(trials)])
    t1 = s.t_p(1.0)
    on_psd = t1[s.spectra[:, 0] >= -NEGATIVITY_ATOL]
    ok = np.all(t1 >= 0.0) and np.all(on_psd == 0.0)
    return ok, f"max on PSD {np.max(on_psd, initial=0.0):.2e}"


def _convexity(rng, trials):
    first, second, w = zip(*[(_pdm_draw(rng), _pdm_draw(rng), rng.random()) for _ in range(trials)])
    r1, r2, w = _pdms(first), _pdms(second), np.array(w)
    mixed = _PdmStack(w[:, None, None] * r1.mats + (1 - w)[:, None, None] * r2.mats, (2, 2))
    worst = float(np.max(mixed.t_p(1.0) - (w * r1.t_p(1.0) + (1 - w) * r2.t_p(1.0))))
    return worst <= 1e-9, f"max gap {worst:.2e}"


def _unitary_invariance(rng, trials):
    draws, us, ps = zip(*[(_pdm_draw(rng), prandom.haar_unitary(4, rng), rng.choice([1.0, 2.0]))
                          for _ in range(trials)])
    r, u = _pdms(draws), np.array(us)
    rotated = _PdmStack(u @ r.mats @ u.conj().swapaxes(-1, -2), (2, 2))
    drift = [np.abs(rotated.t_p(p) - r.t_p(p)) for p in (1.0, 2.0)]
    worst = float(np.max(np.where(np.array(ps) == 1.0, *drift)))
    return worst <= 1e-9, f"max drift {worst:.2e}"


def _cptp_monotone(rng, trials):
    draws, maps = zip(*[(_pdm_draw(rng), prandom.channel(4, 4, env_dim=2, rng=rng)) for _ in range(trials)])
    r, s = _pdms(draws), _superoperator(_jamiolkowski_stack(maps), 4)
    mapped = (s @ r.mats.reshape(-1, 16, 1)).reshape(r.mats.shape)
    worst = float(np.max(_PdmStack(mapped, (2, 2)).t_p(1.0) - r.t_p(1.0)))
    return worst <= 1e-9, f"max gain {worst:.2e}"


def _closed_vs_lp(rng, trials):
    s = _pdms([_pdm_draw(rng) for _ in range(trials)])
    lam = s.spectra
    # The LP is the independent route: one block LP over every spectrum with a negative eigenvalue.
    negative = lam[:, 0] < -NEGATIVITY_ATOL
    numeric = np.zeros(len(lam))
    if negative.any():
        numeric[negative] = np.maximum(pdm._t1_simplex_lps(lam[negative])[0], 0.0)
    worst = float(np.max(np.abs(s.t_p(1.0) - numeric)))
    return worst <= 1e-7, f"max gap {worst:.2e}"


def _round_trip(rng, trials):
    r = _pdms([_pdm_draw(rng) for _ in range(trials)]).mats
    b = ObservableBasis.default_for_dim(2)
    back = pdm._expand(pdm._factored_gram_solve(pdm._overlaps(r, b.matrices, b.matrices).real, b, b), b, b)
    back = (back + back.conj().swapaxes(-1, -2)) / 2.0
    worst = float(np.max(np.abs(back - r)))
    return worst <= 1e-10, f"max error {worst:.2e}"


def _qubit_bound(rng, trials):
    pairs = []
    for t in range(trials):
        if t % 10 == 0:
            rho = projector(prandom.pure_state(2, rng))
            pairs.append((rho, unitary_channel(prandom.haar_unitary(2, rng))))
        else:
            pairs.append((prandom.density_matrix(2, rng), prandom.channel(2, 2, env_dim=4, rng=rng)))
    t1 = _closed_forms(pairs).t_p(1.0)
    worst, saturated = float(np.max(t1)), bool(np.any(t1 > 0.999))
    return _bound_check(worst, 2).bound_ok and saturated, f"max T_1 {worst:.12f}, saturated: {saturated}"


def _witness_soundness(rng, trials):
    witnesses = [pdm.synthesize_witness(pdm.pdm_closed_form(projector(ket(0)), identity_channel(2)))]
    while len(witnesses) < 10:
        r = _pdms([_pdm_draw(rng)])[0]
        if r.min_eigenvalue() < -1e-6:
            policy = str(rng.choice(["negative_eigenspace", "most_negative"]))
            witnesses.append(pdm.synthesize_witness(r, policy=policy))
    rhos = np.array([prandom.density_matrix(4, rng) for _ in range(trials)])
    w = np.array([x.mat for x in witnesses])[np.arange(trials) % len(witnesses)]
    floor = float(np.min(np.einsum("nij,nji->n", w, rhos).real))
    return floor >= -NEGATIVITY_ATOL, f"{len(witnesses)} witnesses, min expectation {floor:.2e}"


def _extremal_t2(rng, trials):
    value = pdm.si_measure(pdm.pdm_closed_form(projector(ket(0)), identity_channel(2)), 2.0).value
    return abs(value - np.sqrt(0.375)) <= 1e-7, f"value {value:.9f}"


def _block_vs_spectrum(rng, trials):
    pairs = []
    for t in range(trials):
        d = int(rng.choice([2, 3, 4]))
        probs = rng.dirichlet(np.ones(d))
        if t % 4 == 0:
            probs = np.zeros(d)
            probs[rng.integers(d)] = 1.0
        pairs.append((probs, prandom.channel(d, d, env_dim=3, rng=rng)))

    def disagree(at):
        probs, chs = np.array([pairs[k][0] for k in at]), [pairs[k][1] for k in at]
        support, schur = coherence._block_failures(probs, _jamiolkowski_stack(chs))
        lowest = _closed_forms([(np.diag(p.astype(complex)), ch) for p, ch in zip(probs, chs)]).spectra[:, 0]
        return ~(support | schur).any(axis=(-2, -1)) != (lowest >= -coherence.CLASS_ATOL)

    disagreements = int(np.sum(_by_dim([len(probs) for probs, _ in pairs], disagree)))
    return disagreements == 0, f"{disagreements} disagreements"


def _hierarchy(rng, trials):
    chs = []
    for t in range(trials):
        d = int(rng.choice([2, 3]))
        if t % 3 == 0:
            chs.append(prandom.oi_channel(d, rng))
        elif t % 3 == 1:
            chs.append(coherence.build_ce_oi_channel(prandom.stochastic_matrix(d, rng)))
        else:
            chs.append(prandom.channel(d, d, env_dim=3, rng=rng))

    def implications_hold(at):
        group = [chs[k] for k in at]
        d = group[0].in_dim
        r = coherence._class_residuals(_superoperator(_jamiolkowski_stack(group), d), d)
        oi, ce, ci, di = (r[c] <= coherence.CLASS_ATOL for c in ("oi", "ce", "ci", "di"))
        return (~oi | di) & (~ce | ci)

    return bool(np.all(_by_dim([ch.in_dim for ch in chs], implications_hold))), ""


def _oi_compatible(rng, trials):
    pairs = []
    for _ in range(trials):
        d = int(rng.choice([2, 3]))
        ch = prandom.oi_channel(d, rng)
        pairs.append((prandom.incoherent_state(d, rng), ch))
    worst = float(np.max(_pair_quantity(pairs, lambda s: s.t_p(1.0))))
    return worst <= SI_DETECT_ATOL, f"max negativity {worst:.2e}"


def _coherent_input(rng, trials):
    pairs = []
    for _ in range(trials):
        d = int(rng.choice([2, 3]))
        a = prandom.stochastic_matrix(d, rng)
        diffs = np.abs(a[:, :, None] - a[:, None, :])
        k, i, j = np.unravel_index(np.argmax(diffs), diffs.shape)
        if diffs[k, i, j] <= 1e-9 or i == j:
            continue
        adv = coherence.adversarial_coherent_state(a, int(i), int(j), int(k), float(rng.uniform(0.05, 0.95)))
        pairs.append((adv.state, coherence.build_ce_oi_channel(a)))
    floor = float(np.min(_pair_quantity(pairs, lambda s: s.t_p(1.0)), initial=np.inf))
    return floor > SI_DETECT_ATOL, f"min negativity {floor:.2e}"


def _lg_spectrum(rng, trials):
    triples = []
    for _ in range(trials):
        d = int(rng.choice([2, 2, 3]))
        triples.append(np.array([prandom.dichotomic_observable(d, rng) for _ in range(3)]))

    def drift(at):
        w = np.linalg.eigvalsh(lg_operator(*np.array([triples[k] for k in at]).swapaxes(0, 1)))
        return np.maximum(np.abs(w[:, -1] - 1.0), np.abs(w[:, 0] + 3.0))

    worst = float(np.max(_by_dim([len(q[0]) for q in triples], drift)))
    return worst <= 1e-9, f"max drift {worst:.2e}"


def _tripartite_range(rng, trials):
    qs, rhos = zip(*[(np.array([prandom.dichotomic_observable(2, rng) for _ in range(3)]),
                      prandom.density_matrix(8, rng)) for _ in range(trials)])
    k = np.einsum("nij,nji->n", np.array(rhos), lg_operator(*np.array(qs).swapaxes(0, 1))).real
    return np.all((-3.0 - LG_SLACK <= k) & (k <= 1.0 + LG_SLACK)), ""


def _oi_legs(rng, trials):
    chs, rhos = zip(*[(prandom.oi_channel(2, rng), prandom.incoherent_state(2, rng)) for _ in range(trials)])
    m = _jamiolkowski_stack(chs)
    c = _lg_correlators(_lg_pdms(np.array(rhos), m, m), PAULI_1Q["Z"])
    worst = float(np.max(c[:, 0] + c[:, 1] - c[:, 2]))
    return worst <= 1.0 + LG_SLACK, f"max K {worst:.9f}"


def _sampled_correlators(rng, trials):
    obs = [PAULI_1Q[c] for c in "XYZ"]
    a = np.array([obs[t % 3] for t in range(trials)])
    b = np.array([obs[(t + 1) % 3] for t in range(trials)])
    pairs, samples = [], []
    for t in range(trials):
        rho = prandom.density_matrix(2, rng)
        ch = prandom.channel(2, 2, env_dim=3, rng=rng)
        pairs.append((rho, ch))
        # Each seeded sample is itself a draw.
        samples.append(sample_two_time(rho, ch, a[t], b[t], 100_000, int(rng.integers(2**32))))
    exact = np.einsum("nij,nji->n", _closed_forms(pairs).mats, kron(a, b)).real
    sigma = np.maximum([s.stderr for s in samples], 1e-12)
    pull = np.abs(np.array([s.mean for s in samples]) - exact) / sigma
    return np.all(pull <= 5.0), f"max pull {float(np.max(pull)):.2f}"


# (suite, name, trials at scale 1 or None for one fixed evaluation, check(rng, trials) -> (ok, detail))
CHECKS = [
    ("pdm", "T_p positivity and zero iff PSD", 500, _positivity),
    ("pdm", "T_1 convexity under mixing", 1000, _convexity),
    ("pdm", "T_p unitary invariance", 1000, _unitary_invariance),
    ("pdm", "T_1 monotone under CPTP maps", 1000, _cptp_monotone),
    ("pdm", "T_1 closed form vs simplex optimizer", 1000, _closed_vs_lp),
    ("pdm", "tomographic round trip", 200, _round_trip),
    ("pdm", "qubit SI bound T_1 <= 1 with saturation", 10_000, _qubit_bound),
    ("pdm", "witness soundness on random density matrices", 10_000, _witness_soundness),
    ("pdm", "T_2 of the extremal PDM equals sqrt(0.375)", None, _extremal_t2),
    ("coherence", "Schur-block test agrees with full spectrum", 1000, _block_vs_spectrum),
    ("coherence", "hierarchy implications OI=>DI, CE=>CI", 1000, _hierarchy),
    ("coherence", "OI channels stay compatible on incoherent states", 100, _oi_compatible),
    ("coherence", "coherent input exposes SI of CE+OI channels", 1000, _coherent_input),
    ("lg", "LG operator spectrum pinned to (-3, 1)", 1000, _lg_spectrum),
    ("lg", "tripartite states keep K in [-3, 1]", 1000, _tripartite_range),
    ("lg", "OI legs with incoherent states respect K <= 1", 200, _oi_legs),
    ("lg", "sampled correlators match exact within 5 sigma", 20, _sampled_correlators),
]


def run_suites(which: str = "all", seed: int | None = None, scale: float = 1.0) -> list[CheckResult]:
    if which != "all" and which not in SUITES:
        raise ValueError(f"unknown suite {which!r}; choose from all, {', '.join(SUITES)}")
    results = []
    for suite, default_seed in SUITES.items():
        if which not in ("all", suite):
            continue
        rng = np.random.default_rng(default_seed if seed is None else seed)
        for _, name, trials, check in (row for row in CHECKS if row[0] == suite):
            trials = 1 if trials is None else max(1, int(trials * scale))
            passed, detail = check(rng, trials)
            results.append(CheckResult(suite, name, bool(passed), trials, detail))
    return results
