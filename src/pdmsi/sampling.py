"""Seeded Monte Carlo simulation of the two-time measurement procedure.

Each shot projects the input state onto a +/-lambda eigenspace of the first
observable (Lueders update), sends the post-measurement state through the
channel, projects again with the second observable, and records the product
of the two outcomes.  Expectations converge to Tr[R (A (x) B)].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel
from .exceptions import DimensionMismatch, ZeroShots
from .observables import LightTouchObservable, PauliString
from .pdm import CorrelatorTable, _resolve_bases

GENERATOR_ID = "numpy-pcg64"
DEAD_BRANCH_PROB = 1e-14


@dataclass
class MeasurementProjectors:
    """Spectral projectors onto the +/-lambda eigenspaces of an observable."""

    plus: np.ndarray
    minus: np.ndarray
    lam: float


def projectors_for(obs) -> MeasurementProjectors:
    """Projector pair for a Pauli string, light-touch observable, or +/-lam Hermitian.

    Single-spectrum observables (A = lam * I) always yield outcome +lam; their
    projector pair is (I, 0).
    """
    if not isinstance(obs, (PauliString, LightTouchObservable)):
        obs = LightTouchObservable(obs, label="")
    mat = obs.matrix
    lam = obs.lam
    single = getattr(obs, "kind", "pm") == "single"
    d = mat.shape[0]
    eye = np.eye(d, dtype=complex)
    if single:
        return MeasurementProjectors(plus=eye, minus=np.zeros_like(eye), lam=lam)
    plus = (eye + mat / lam) / 2.0
    minus = (eye - mat / lam) / 2.0
    return MeasurementProjectors(plus=plus, minus=minus, lam=lam)


def _branch(rho, projs: MeasurementProjectors):
    """Outcome probabilities and Lueders post-states for one measurement.

    Branches with probability below 1e-14 are flagged dead (never sampled)
    and carry no post-state.
    """
    out = []
    for proj in (projs.plus, projs.minus):
        p = float(np.trace(proj @ rho).real)
        p = min(max(p, 0.0), 1.0)
        if p < DEAD_BRANCH_PROB:
            out.append((0.0, None))
        else:
            post = proj @ rho @ proj
            out.append((p, post / np.trace(post).real))
    total = out[0][0] + out[1][0]
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"branch probabilities sum to {total!r}")
    return out


@dataclass
class TwoTimeSample:
    """Monte Carlo estimate of one two-time correlator."""

    mean: float
    stderr: float
    shots: int
    outcomes1: np.ndarray | None = None
    outcomes2: np.ndarray | None = None


def sample_two_time(rho, ch: KrausChannel, obs1, obs2, shots: int, seed,
                    keep_outcomes: bool = False) -> TwoTimeSample:
    """Sample <product of outcomes> for (obs1 at t1, obs2 at t2).

    Per shot, two uniform draws are consumed in order (first then second
    measurement), so identical (inputs, seed) reproduce identical outcome
    sequences bit for bit.
    """
    if shots < 1:
        raise ZeroShots("shots must be >= 1")
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[0] != ch.in_dim:
        raise DimensionMismatch("state dimension does not match channel input")
    projs1 = projectors_for(obs1)
    projs2 = projectors_for(obs2)
    if projs1.plus.shape[0] != ch.in_dim or projs2.plus.shape[0] != ch.out_dim:
        raise DimensionMismatch("observable dimensions do not match the channel")

    (p_plus, post_plus), (p_minus, post_minus) = _branch(rho, projs1)
    # Clamp deterministic first outcomes so dead branches can never fire.
    if p_plus >= 1.0 - DEAD_BRANCH_PROB:
        p_plus = 1.0
    if p_minus >= 1.0 - DEAD_BRANCH_PROB:
        p_plus = 0.0

    def second_plus_prob(post):
        if post is None:
            return 0.0
        (q_plus, _), _ = _branch(ch(post), projs2)
        if q_plus >= 1.0 - DEAD_BRANCH_PROB:
            return 1.0
        return q_plus

    q_given_plus = second_plus_prob(post_plus)
    q_given_minus = second_plus_prob(post_minus)

    rng = np.random.default_rng(seed)
    u1 = rng.random(shots)
    first_plus = u1 < p_plus
    outcomes1 = np.where(first_plus, projs1.lam, -projs1.lam)
    u2 = rng.random(shots)
    q = np.where(first_plus, q_given_plus, q_given_minus)
    outcomes2 = np.where(u2 < q, projs2.lam, -projs2.lam)

    products = outcomes1 * outcomes2
    mean = float(np.mean(products))
    stderr = float(np.std(products, ddof=1) / np.sqrt(shots)) if shots > 1 else 0.0
    return TwoTimeSample(
        mean=mean,
        stderr=stderr,
        shots=shots,
        outcomes1=outcomes1 if keep_outcomes else None,
        outcomes2=outcomes2 if keep_outcomes else None,
    )


def pair_seed(root_seed: int, i: int, j: int) -> np.random.SeedSequence:
    """Deterministic per-pair sub-seed; independent of iteration order."""
    return np.random.SeedSequence(entropy=(int(root_seed), int(i), int(j)))


def sample_table(rho, ch: KrausChannel, basis, shots_per_pair: int, seed: int) -> CorrelatorTable:
    """Sampled correlator table over the full basis-pair grid.

    ``basis`` is read as in ``exact_correlators``: None for the default basis
    of each factor, a descriptor, one basis for both slots, or a pair.
    """
    b1, b2 = _resolve_bases(basis, (ch.in_dim, ch.out_dim))
    entries, shots = {}, {}
    for i, a in enumerate(b1.labels):
        for j, b in enumerate(b2.labels):
            sample = sample_two_time(
                rho, ch, b1.observable(a), b2.observable(b),
                shots_per_pair, pair_seed(seed, i, j),
            )
            entries[(a, b)] = sample.mean
            shots[(a, b)] = shots_per_pair
    return CorrelatorTable(b1, b2, entries, shots)


def table_metadata(seed: int, shots_per_pair: int, basis_descriptors) -> dict:
    return {
        "generator": GENERATOR_ID,
        "seed": int(seed),
        "shots_per_pair": int(shots_per_pair),
        "basis": list(basis_descriptors),
    }
