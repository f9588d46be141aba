"""Seeded Monte Carlo simulation of the two-time measurement procedure.

Each shot projects the input state onto a +/-lambda eigenspace of the first
observable (Lueders update), sends the post-measurement state through the
channel, projects again with the second observable, and records the product
of the two outcomes.  Expectations converge to Tr[R (A (x) B)].

A product is +lam1*lam2 when the two outcomes agree and -lam1*lam2 when
they differ, so the number k of the n shots that agree is a sufficient
statistic: a table keeps only k per pair, as ``lam1*lam2 * ((2k - n) / n)``,
which is exactly +/-lam1*lam2 at k = n or 0.
The shots are i.i.d., so k is exactly Binomial(n, P_agree).  The closed form
R = (1/2){rho (x) I, J} gives the Lueders correlator C = Tr[R (A (x) B)]
exactly (Fullwood & Parzygnat, Proc. R. Soc. A 478, 20220104 (2022)), and
C = lam1*lam2 (2 P_agree - 1), so every pair's ``P_agree = 1/2 + C / (2
lam1*lam2)`` comes from one closed form and the two matrix products of
``exact_correlators``; no post-measurement state is built.  A P_agree within
DEAD_BRANCH_PROB of 0 or 1 is exactly 0 or 1 (a dead first branch, a certain
second outcome), so k is exactly 0 or n there.

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
from .pdm import CorrelatorTable, Pdm, _check_int, _overlaps, _resolve_bases, pdm_closed_form

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


def projectors_for(obs) -> MeasurementProjectors:
    """Projector pair for a Pauli string, light-touch observable, or +/-lam Hermitian:
    (P+, P-) = ((I + A/lam)/2, (I - A/lam)/2), or (I, 0) for a single-spectrum observable
    (A = lam * I), whose outcome is always +lam."""
    obs = _observable(obs)
    eye = np.eye(obs.matrix.shape[-1], dtype=complex)
    if obs.kind == "single":
        return MeasurementProjectors(plus=eye, minus=np.zeros_like(eye), lam=obs.lam)
    scaled = obs.matrix / obs.lam
    return MeasurementProjectors(plus=(eye + scaled) / 2.0, minus=(eye - scaled) / 2.0, lam=obs.lam)


def _agree_probabilities(r: Pdm, mats1, mats2, lam12) -> np.ndarray:
    """``(n1, n2)`` P_agree of every (A_i at t1, B_j at t2) pair of two observable stacks
    ``(n, d, d)``, with ``lam12`` the ``(n1, n2)`` products of their ``lam``s.

    ``P_agree = 1/2 + Tr[R (A_i (x) B_j)] / (2 lam1 lam2)`` from the PDM R,
    clipped to [0, 1] (numpy's binomial raises on a value 1 ulp outside); a
    value within DEAD_BRANCH_PROB of 0 or 1 is exactly 0 or 1.
    """
    if mats1.shape[-1] != r.dims[0] or mats2.shape[-1] != r.dims[1]:
        raise DimensionMismatch("observable dimensions do not match the channel")
    p_agree = np.clip(0.5 + 0.5 * (_overlaps(r.mat, mats1, mats2).real / lam12), 0.0, 1.0)
    p_agree[p_agree < DEAD_BRANCH_PROB] = 0.0
    p_agree[p_agree >= 1.0 - DEAD_BRANCH_PROB] = 1.0
    return p_agree


@dataclass
class TwoTimeSample:
    """Monte Carlo estimate of one two-time correlator."""

    mean: float
    stderr: float
    shots: int


def sample_two_time(rho, ch: KrausChannel, obs1, obs2, shots: int, seed) -> TwoTimeSample:
    """Sample <product of outcomes> for (obs1 at t1, obs2 at t2).

    The one-pair case of ``sample_table``: one binomial draw of the agree-count
    k from ``default_rng(seed)``, where ``seed`` is an integer or a
    SeedSequence.  The mean is ``lam1*lam2 * ((2k - n) / n)`` and the stderr
    ``2|lam1*lam2| sqrt(k(n - k) / (n(n - 1))) / sqrt(n)``, the ``ddof=1``
    standard error of the n products (0 for one shot).
    """
    shots = _check_int(shots, "shots", 1, ZeroShots)
    if seed is None or isinstance(seed, (bool, np.bool_)):
        raise TypeError(f"seed must be an integer or a SeedSequence, got {seed!r}")
    obs1, obs2 = _observable(obs1), _observable(obs2)
    return _sample_pair(pdm_closed_form(rho, ch), obs1, obs2, shots, seed)


def _sample_pair(r: Pdm, obs1: LightTouchObservable, obs2: LightTouchObservable, shots: int,
                 seed) -> TwoTimeSample:
    """``sample_two_time`` from the pair's PDM, with its arguments already checked."""
    lam12 = obs1.lam * obs2.lam
    p_agree = _agree_probabilities(r, obs1.matrix[None], obs2.matrix[None], lam12)
    k = int(np.random.default_rng(seed).binomial(shots, p_agree)[0, 0])
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
    lam12 = np.outer([a.lam for a in b1.observables], [b.lam for b in b2.observables])
    p_agree = _agree_probabilities(pdm_closed_form(rho, ch), b1.matrices, b2.matrices, lam12)
    agree = np.random.default_rng(seed).binomial(shots, p_agree)
    values = lam12 * ((2 * agree - shots) / shots)
    return CorrelatorTable(b1, b2, values, np.full(values.shape, shots))


def table_metadata(seed: int, shots_per_pair: int, basis_descriptors) -> dict:
    return {
        "generator": GENERATOR_ID,
        "seed": int(seed),
        "shots_per_pair": int(shots_per_pair),
        "basis": list(basis_descriptors),
    }
