"""Seeded Monte Carlo simulation of the two-time measurement procedure.

Each shot projects the input state onto a +/-lambda eigenspace of the first
observable (Lueders update), sends the post-measurement state through the
channel, projects again with the second observable, and records the product
of the two outcomes.  Expectations converge to Tr[R (A (x) B)].

The outcome probabilities of a whole basis pair come from one kernel over
the stacked projectors; only the draws run per pair.  RNG contract: pair
(i, j) of a table draws from ``default_rng(SeedSequence((seed, i, j)))``
(``pair_seed``) and consumes ``shots`` uniforms for the first measurement,
then ``shots`` for the second; shot k has outcome +lam at t1 when
``u1[k] < P(+)`` and +lam at t2 when ``u2[k]`` is below the probability of
+lam given the first outcome.  Identical (inputs, seed) therefore give
identical tables bit for bit.  ``sample_table`` derives all of a table's
sub-seeds in one array pass (``_pair_states``), bit-identical to seeding each
pair from ``pair_seed``.  At 10^5 shots per pair the time goes to the uniforms
themselves (3-5 ns each on a 2-CPU x86-64 host), which seeding in bulk
leaves as it is.

A product is +lam1*lam2 when the two outcomes agree and -lam1*lam2 when
they differ, so the number k of the n shots that agree is a sufficient
statistic: a table keeps only k per pair, as ``lam1*lam2 * (2k - n) / n``.
The bundled bases have lam = 1, and n products +/-1.0 sum to exactly 2k - n,
so their tables keep the bytes of the per-shot mean (as whenever lam1*lam2
is an integer or a power of two); other scales can differ in the last bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel
from .exceptions import DimensionMismatch, ZeroShots
from .observables import LightTouchObservable
from .pdm import CorrelatorTable, _check_int, _resolve_bases
from .states import check_density_matrix

GENERATOR_ID = "numpy-pcg64"
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


def _draw(p: float, q_given, shots: int, seed):
    """One pair's seeded shots: whether each outcome was +lam at t1, and whether it was +lam at t2.

    ``q_given`` is (P(+ at t2 | + at t1), P(+ at t2 | - at t1)).
    """
    u = np.random.default_rng(seed).random(2 * shots)
    first_plus = u[:shots] < p
    u2 = u[shots:]
    second_plus = (first_plus & (u2 < q_given[0])) | (~first_plus & (u2 < q_given[1]))
    return first_plus, second_plus


@dataclass
class TwoTimeSample:
    """Monte Carlo estimate of one two-time correlator."""

    mean: float
    stderr: float
    shots: int


def sample_two_time(rho, ch: KrausChannel, obs1, obs2, shots: int, seed) -> TwoTimeSample:
    """Sample <product of outcomes> for (obs1 at t1, obs2 at t2).

    A one-by-one call of the table kernel: ``shots`` first-measurement draws,
    then ``shots`` second-measurement draws, from ``default_rng(seed)``.
    The mean is ``products.sum() / shots``, which is how ``np.mean``
    computes it, bit for bit, without its per-call overhead.
    """
    shots = _check_int(shots, "shots", 1, ZeroShots)
    if seed is None or isinstance(seed, (bool, np.bool_)):
        raise TypeError(f"seed must be an integer or a SeedSequence, got {seed!r}")
    obs1, obs2 = _observable(obs1), _observable(obs2)
    p, q = _branch_probabilities(
        rho, ch, _projector_stack(obs1.matrix[None], [obs1]),
        _projector_stack(obs2.matrix[None], [obs2]),
    )
    first_plus, second_plus = _draw(p[0], q[0, :, 0], shots, seed)
    lam12 = obs1.lam * obs2.lam
    products = np.where(first_plus == second_plus, lam12, -lam12)
    stderr = float(np.std(products, ddof=1) / np.sqrt(shots)) if shots > 1 else 0.0
    return TwoTimeSample(mean=float(products.sum() / shots), stderr=stderr, shots=shots)


def pair_seed(root_seed: int, i: int, j: int) -> np.random.SeedSequence:
    """Deterministic per-pair sub-seed; independent of iteration order.  Each argument is a Python
    or numpy integer >= 0."""
    return np.random.SeedSequence(entropy=(_check_int(root_seed, "root_seed", 0), _check_int(i, "i", 0),
                                           _check_int(j, "j", 0)))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), word for word.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _XSHIFT, _MASK32, _POOL_SIZE = 0xCA01F9DD, 0x4973F715, 16, 0xFFFFFFFF, 4


def _pair_states(seed: int, n1: int, n2: int) -> np.ndarray:
    """``(n1*n2, 4)`` uint64 PCG64 seeds: row ``i*n2 + j`` is
    ``pair_seed(seed, i, j).generate_state(4, np.uint64)``.

    The hash runs once over uint32 arrays of i and j; uint32 arithmetic wraps
    as numpy's C does, and the hash constants stay Python ints below 2**32.
    ``seed`` is an int >= 0 of any size, entered as its 32-bit words, least
    significant first (at least one word, as SeedSequence reads an int).
    """
    n = n1 * n2
    words = [np.full(n, (seed >> (32 * k)) & _MASK32, dtype=np.uint32)
             for k in range(max(1, -(-seed.bit_length() // 32)))]
    words += [np.repeat(np.arange(n1, dtype=np.uint32), n2), np.tile(np.arange(n2, dtype=np.uint32), n1)]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * hash_const
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    words += [np.zeros(n, dtype=np.uint32)] * (_POOL_SIZE - len(words))  # short entropy: hash zeros
    pool = [hashmix(word) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state(4, np.uint64): eight 32-bit words, cycling the pool, read as little-endian pairs.
    state = np.empty((n, 8), dtype="<u4")
    hash_const = _INIT_B
    for k in range(8):
        value = pool[k % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * hash_const
        state[:, k] = value ^ (value >> _XSHIFT)
    return state.view("<u8").astype(np.uint64)


@functools.cache
def _fixed_seed_type():
    """An ``ISeedSequence`` that hands PCG64 a precomputed ``generate_state(4, np.uint64)``.

    Made on first use: importing ``numpy.random`` costs every CLI start that
    never samples.
    """
    from numpy.random.bit_generator import ISeedSequence

    class FixedSeed(ISeedSequence):
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return FixedSeed


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
    agree = np.empty((len(b1), len(b2)), dtype=np.int64)
    fixed_seed = _fixed_seed_type()
    for (i, j), state in zip(np.ndindex(agree.shape), _pair_states(seed, *agree.shape)):
        first_plus, second_plus = _draw(p[i], q[i, :, j], shots, fixed_seed(state))
        agree[i, j] = np.count_nonzero(first_plus == second_plus)
    lam12 = np.outer([a.lam for a in b1.observables], [b.lam for b in b2.observables])
    values = lam12 * (2 * agree - shots) / shots
    return CorrelatorTable._from_arrays(b1, b2, values, np.full(values.shape, shots))


def table_metadata(seed: int, shots_per_pair: int, basis_descriptors) -> dict:
    return {
        "generator": GENERATOR_ID,
        "seed": int(seed),
        "shots_per_pair": int(shots_per_pair),
        "basis": list(basis_descriptors),
    }
