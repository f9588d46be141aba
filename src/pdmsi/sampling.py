"""Seeded Monte Carlo simulation of the two-time measurement procedure.

Each shot projects the input state onto a +/-lambda eigenspace of the first
observable (Lueders update), sends the post-measurement state through the
channel, projects again with the second observable, and records the product
of the two outcomes.  Expectations converge to Tr[R (A (x) B)].

A product is +lam1*lam2 when the two outcomes agree and -lam1*lam2 when
they differ, so the number k of the n shots that agree is a sufficient
statistic: a table keeps only k per pair, as ``lam1*lam2 * ((2k - n) / n)``,
which is exactly +/-lam1*lam2 at k = n or 0.
The shots are i.i.d., so k is exactly Binomial(n, P_agree), with
``P_agree = p q+ + (1 - p)(1 - q-)`` from the outcome probabilities that one
kernel computes for a whole basis pair over the stacked projectors (p of +lam
at t1, q+/- of +lam at t2 after +/-lam at t1).  Where the clamped
probabilities make agreement certain or impossible (a dead first branch, a
certain second outcome), P_agree is exactly 1 or 0, since p + fl(1 - p)
rounds to 1, so k is exactly n or 0.

RNG contract (``GENERATOR_ID``): a table makes one generator,
``default_rng(seed)``, and draws one binomial per pair, all pairs in one call
in row-major (i, j) order; ``sample_two_time`` is the one-pair case.
Identical (inputs, seed) therefore give identical tables bit for bit, and
the cost per pair does not grow with the number of shots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel
from .exceptions import DimensionMismatch, ZeroShots
from .observables import LightTouchObservable
from .pdm import CorrelatorTable, _check_int, _resolve_bases
from .states import check_density_matrix

GENERATOR_ID = "numpy-pcg64-binomial"
DEAD_BRANCH_PROB = 1e-14


@dataclass
class MeasurementProjectors:
    """Spectral projectors onto the +/-lambda eigenspaces of an observable."""

    plus: np.ndarray
    minus: np.ndarray
    lam: float


def _observable(obs) -> LightTouchObservable:
    """A light-touch observable (a Pauli string is one); a raw +/-lam Hermitian matrix is wrapped."""
    return obs if isinstance(obs, LightTouchObservable) else LightTouchObservable(obs, label="")


def _projector_stack(matrices, observables) -> np.ndarray:
    """``(n, 2, d, d)`` stack of each observable's (P+, P-) = ((I + A/lam)/2, (I - A/lam)/2).

    Single-spectrum observables (A = lam * I) always yield outcome +lam; their
    projector pair is (I, 0).
    """
    lams = np.array([o.lam for o in observables])
    single = np.array([o.kind == "single" for o in observables])
    eye = np.eye(matrices.shape[-1], dtype=complex)
    scaled = matrices / lams[:, None, None]
    projs = np.stack([(eye + scaled) / 2.0, (eye - scaled) / 2.0], axis=1)
    projs[single, 0] = eye
    projs[single, 1] = 0.0
    return projs


def projectors_for(obs) -> MeasurementProjectors:
    """Projector pair for a Pauli string, light-touch observable, or +/-lam Hermitian."""
    obs = _observable(obs)
    (plus, minus), = _projector_stack(obs.matrix[None], [obs])
    return MeasurementProjectors(plus=plus, minus=minus, lam=obs.lam)


def _outcome_probs(projs, states, live=True) -> np.ndarray:
    """Clamped Re Tr[P rho] for every (P+, P-) of ``projs`` and every rho of ``states``.

    ``projs`` is (n, 2, d, d) and ``states`` (..., d, d); the result is
    (..., n, 2), clipped to [0, 1], with values below DEAD_BRANCH_PROB zeroed
    (dead: never sampled).  Raises ValueError when a pair on a ``live`` state
    (shape (...)) does not sum to 1 within 1e-9.
    """
    d = projs.shape[-1]
    vec_t = projs.transpose(0, 1, 3, 2).reshape(-1, d * d)
    probs = np.clip(np.real(states.reshape(-1, d * d) @ vec_t.T), 0.0, 1.0)
    probs = probs.reshape(states.shape[:-2] + projs.shape[:2])
    probs[probs < DEAD_BRANCH_PROB] = 0.0
    total = probs[..., 0] + probs[..., 1]
    bad = (np.abs(total - 1.0) > 1e-9) & np.expand_dims(live, -1)
    if bad.any():
        raise ValueError(f"branch probabilities sum to {float(total[bad][0])!r}")
    return probs


def _branch_probabilities(rho, ch: KrausChannel, projs1, projs2):
    """Outcome probabilities of every (A_i at t1, B_j at t2) pair of two projector stacks.

    Returns ``p`` of shape (n1,), the probability of +lam at t1 for A_i, and
    ``q`` of shape (n1, 2, n2), the probability of +lam at t2 for B_j after
    outcome s (0: +lam, 1: -lam) of A_i.  A first outcome within
    DEAD_BRANCH_PROB of certainty is certain, and so is a second one; a dead
    first branch has no post-state and q = 0.
    """
    rho = check_density_matrix(rho)
    if rho.shape[0] != ch.in_dim:
        raise DimensionMismatch("state dimension does not match channel input")
    if projs1.shape[-1] != ch.in_dim or projs2.shape[-1] != ch.out_dim:
        raise DimensionMismatch("observable dimensions do not match the channel")

    first = _outcome_probs(projs1, rho)
    p = first[:, 0].copy()
    p[p >= 1.0 - DEAD_BRANCH_PROB] = 1.0
    p[first[:, 1] >= 1.0 - DEAD_BRANCH_PROB] = 0.0

    live = first > 0.0
    post = projs1 @ rho @ projs1
    norm = np.trace(post, axis1=-2, axis2=-1).real[..., None, None]
    post = np.divide(post, norm, out=np.zeros_like(post), where=live[..., None, None])
    q = _outcome_probs(projs2, ch(post), live)[..., 0]
    q[q >= 1.0 - DEAD_BRANCH_PROB] = 1.0
    return p, q


def _agree_counts(p, q, shots: int, seed) -> np.ndarray:
    """Seeded agree-counts k of every (i, j) pair: one ``binomial(shots, P_agree)`` draw in row-major order.

    ``P_agree = p q+ + (1 - p)(1 - q-)`` is the probability that the two outcomes
    agree; the clip keeps it inside [0, 1], as numpy's binomial raises on a value 1 ulp outside.
    """
    p_agree = p[:, None] * q[:, 0, :] + (1.0 - p[:, None]) * (1.0 - q[:, 1, :])
    return np.random.default_rng(seed).binomial(shots, np.clip(p_agree, 0.0, 1.0))


@dataclass
class TwoTimeSample:
    """Monte Carlo estimate of one two-time correlator."""

    mean: float
    stderr: float
    shots: int


def sample_two_time(rho, ch: KrausChannel, obs1, obs2, shots: int, seed) -> TwoTimeSample:
    """Sample <product of outcomes> for (obs1 at t1, obs2 at t2).

    A one-by-one call of the table kernel: one binomial draw of the agree-count
    k from ``default_rng(seed)``, where ``seed`` is an integer or a
    SeedSequence.  The mean is ``lam1*lam2 * ((2k - n) / n)`` and the stderr
    ``2|lam1*lam2| sqrt(k(n - k) / (n(n - 1))) / sqrt(n)``, the ``ddof=1``
    standard error of the n products (0 for one shot).
    """
    shots = _check_int(shots, "shots", 1, ZeroShots)
    if seed is None or isinstance(seed, (bool, np.bool_)):
        raise TypeError(f"seed must be an integer or a SeedSequence, got {seed!r}")
    obs1, obs2 = _observable(obs1), _observable(obs2)
    p, q = _branch_probabilities(
        rho, ch, _projector_stack(obs1.matrix[None], [obs1]),
        _projector_stack(obs2.matrix[None], [obs2]),
    )
    k = int(_agree_counts(p, q, shots, seed)[0, 0])
    lam12 = obs1.lam * obs2.lam
    spread = math.sqrt(k * (shots - k) / (shots * (shots - 1))) if shots > 1 else 0.0
    return TwoTimeSample(mean=lam12 * ((2 * k - shots) / shots),
                         stderr=2.0 * abs(lam12) * spread / math.sqrt(shots), shots=shots)


def sample_table(rho, ch: KrausChannel, basis, shots_per_pair: int, seed: int) -> CorrelatorTable:
    """Sampled correlator table over the full basis-pair grid.

    ``basis`` is read as in ``exact_correlators``: None for the default basis
    of each factor, a descriptor, one basis for both slots, or a pair.
    Each pair keeps only its count of agreeing shots (see the module
    docstring).  ``seed`` is a Python or numpy integer >= 0; a bool or a
    float raises TypeError.
    """
    shots = _check_int(shots_per_pair, "shots_per_pair", 1, ZeroShots)
    seed = _check_int(seed, "seed", 0)
    b1, b2 = _resolve_bases(basis, (ch.in_dim, ch.out_dim))
    p, q = _branch_probabilities(
        rho, ch, _projector_stack(b1.matrices, b1.observables),
        _projector_stack(b2.matrices, b2.observables),
    )
    agree = _agree_counts(p, q, shots, seed)
    lam12 = np.outer([a.lam for a in b1.observables], [b.lam for b in b2.observables])
    values = lam12 * ((2 * agree - shots) / shots)
    return CorrelatorTable._from_arrays(b1, b2, values, np.full(values.shape, shots))


def table_metadata(seed: int, shots_per_pair: int, basis_descriptors) -> dict:
    return {
        "generator": GENERATOR_ID,
        "seed": int(seed),
        "shots_per_pair": int(shots_per_pair),
        "basis": list(basis_descriptors),
    }
