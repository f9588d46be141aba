"""Reference routines that only the tests use, kept beside them as oracles."""

import math

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from pdmsi.exceptions import DimensionMismatch
from pdmsi.observables import LightTouchObservable
from pdmsi.pdm import CorrelatorTable, _check_int
from pdmsi.random import density_matrix
from pdmsi.sampling import DEAD_BRANCH_PROB
from pdmsi.states import check_density_matrix, ket, ketbra


def anticommutator(a, b) -> np.ndarray:
    """{A, B} = AB + BA."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimensionMismatch(f"anticommutator requires equal shapes, got {a.shape} and {b.shape}")
    return a @ b + b @ a


def string_format_float(x: float) -> str:
    """``serialize.format_float`` by a rule on its text: ``.17g``, then ``.0`` appended when that
    text holds no exponent and no point."""
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    text = format(float(x), ".17g")
    if "e" not in text and "." not in text and "inf" not in text and "nan" not in text:
        text += ".0"
    return text


def trace_norm(m) -> float:
    """Schatten-1 norm of a Hermitian matrix as sum |eigenvalues|."""
    return float(np.sum(np.abs(np.linalg.eigvalsh(np.asarray(m, dtype=complex)))))


def schatten_norm(m, p: float) -> float:
    """Schatten-p norm via singular values (no symmetry assumption)."""
    s = np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)
    if np.isinf(p):
        return float(np.max(s)) if s.size else 0.0
    return float(np.sum(s**p) ** (1.0 / p))


def partial_trace(m, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one factor of a bipartite operator on C^{d1} x C^{d2}."""
    d1, d2 = dims
    t = np.asarray(m, dtype=complex).reshape(d1, d2, d1, d2)
    return np.trace(t, axis1=1, axis2=3) if keep == 0 else np.trace(t, axis1=0, axis2=2)


def channels_equal(a, b, atol: float = 1e-9) -> bool:
    """Action equality (Kraus lists are gauge dependent, so compare Jamiolkowski forms)."""
    if (a.in_dim, a.out_dim) != (b.in_dim, b.out_dim):
        return False
    return float(np.max(np.abs(a.jamiolkowski() - b.jamiolkowski()))) <= atol


def loop_jamiolkowski(kraus_ops, d_in: int) -> np.ndarray:
    """The block sum over Kraus operators and basis pairs, one outer product each:
    block (i, j) of M is sum_k K_k |j><i| K_k^dag."""
    d_out = len(kraus_ops[0])
    m = np.zeros((d_in * d_out, d_in * d_out), dtype=complex)
    for k in kraus_ops:
        k = np.asarray(k, dtype=complex)
        for i in range(d_in):
            for j in range(d_in):
                m[i * d_out : (i + 1) * d_out, j * d_out : (j + 1) * d_out] += np.outer(k[:, j], k[:, i].conj())
    return m


def loop_compose(outer_ops, inner_ops) -> list:
    """Kraus operators of ``outer`` after ``inner``: every product of one operator from each."""
    return [np.asarray(a) @ np.asarray(b) for a in outer_ops for b in inner_ops]


def loop_superoperator(kraus_ops) -> np.ndarray:
    """sum_k K_k (x) conj(K_k): the channel on row-major vectorized operators, from its Kraus operators."""
    return sum(np.kron(k, np.conj(k)) for k in np.asarray(kraus_ops, dtype=complex))


def loop_closed_form(rho, kraus_ops) -> np.ndarray:
    """R = (1/2){rho (x) I, M} from the Kraus operators, M by ``loop_jamiolkowski``."""
    rho = np.asarray(rho, dtype=complex)
    m = loop_jamiolkowski(kraus_ops, len(rho))
    return anticommutator(np.kron(rho, np.eye(len(m) // len(rho))), m) / 2.0


def loop_light_touch_basis(d: int) -> list:
    """``observables.light_touch_basis`` for d >= 3, one matrix entry at a time: the d diagonal members from the
    rows of a Sylvester-Hadamard matrix (d a power of two) or of all ones with -1 at (k, k) for k >= 1, then an
    X and a Y member per pair i < j."""
    if d & (d - 1) == 0:
        signs = np.array([[1.0]])
        while signs.shape[0] < d:
            signs = np.block([[signs, signs], [signs, -signs]])
    else:
        signs = np.ones((d, d))
        for k in range(1, d):
            signs[k, k] = -1.0
    obs = [LightTouchObservable(np.diag(signs[k].astype(complex)), f"D{k}") for k in range(d)]
    eye = np.eye(d, dtype=complex)
    for i in range(d):
        for j in range(i + 1, d):
            rest = eye.copy()
            rest[i, i] = 0.0
            rest[j, j] = 0.0
            x = rest.copy()
            x[i, j] = 1.0
            x[j, i] = 1.0
            obs.append(LightTouchObservable(x, f"X{i}.{j}"))
            y = rest.copy()
            y[i, j] = -1j
            y[j, i] = 1j
            obs.append(LightTouchObservable(y, f"Y{i}.{j}"))
    return obs


def loop_ce_oi_kraus(a) -> list:
    """The CE+OI Kraus set {sqrt(a_ki) |k><i| : a_ki > 0}, k-major, one matrix unit at a time."""
    d = len(a)
    return [np.sqrt(a[k, i]) * ketbra(k, i, d) for k in range(d) for i in range(d) if a[k, i] > 0]


def loop_dephasing_kraus(d: int) -> list:
    """The dephasing Kraus set {|i><i|}, one outer product of kets each."""
    return [np.outer(ket(i, d), ket(i, d).conj()) for i in range(d)]


def dephase(m) -> np.ndarray:
    """Delete all off-diagonal entries in the computational basis."""
    return np.diag(np.diag(np.asarray(m, dtype=complex)))


# Label-keyed correlator tables as ``{(label1, label2): float}`` dicts, the
# storage the array-backed CorrelatorTable and Witness replaced; the array
# code must match these exactly, byte for byte and bit for bit.

def dict_table_to_csv(basis1, basis2, entries: dict, shot_counts: dict | None) -> str:
    lines = ["label1,label2,value,shots"]
    for a in basis1.labels:
        for b in basis2.labels:
            if (a, b) not in entries:
                continue
            shots = "" if shot_counts is None else str(shot_counts.get((a, b), ""))
            lines.append(f"{a},{b},{format(entries[(a, b)], '.17g')},{shots}")
    return "\n".join(lines) + "\n"


def dict_table_from_csv(text: str, basis1, basis2) -> tuple[dict, dict | None]:
    """``(entries, shot_counts)`` of a table CSV, with the same ValueError and KeyError."""
    entries, shots = {}, {}
    rows = [line for line in text.strip().splitlines() if line.strip()]
    if not rows or rows[0].strip() != "label1,label2,value,shots":
        raise ValueError("expected CSV header 'label1,label2,value,shots'")
    for line in rows[1:]:
        a, b, value, n = (cell.strip() for cell in line.split(","))
        entries[(a, b)] = float(value)
        if n:
            shots[(a, b)] = int(n)
    for l1, l2 in entries:
        if l1 not in basis1 or l2 not in basis2:
            raise KeyError(f"entry ({l1},{l2}) not in the declared bases")
    return entries, shots or None


def label_grid(basis1, basis2, cells: dict | None, fill):
    """The ``(n1, n2)`` array of a label-keyed dict, ``fill`` at each pair it leaves out; None for None."""
    if cells is None:
        return None
    grid = np.full((len(basis1), len(basis2)), fill)
    for (a, b), v in cells.items():
        grid[basis1.index[a], basis2.index[b]] = v
    return grid


def dict_table(basis1, basis2, entries: dict, shot_counts: dict | None = None) -> CorrelatorTable:
    """The table of label-keyed entries and counts, built through the array constructor."""
    return CorrelatorTable(basis1, basis2, label_grid(basis1, basis2, entries, np.nan),
                           label_grid(basis1, basis2, shot_counts, -1))


def dict_shots_match(table, shot_counts: dict | None) -> bool:
    """Whether ``table.shots`` holds exactly the label-keyed counts, -1 elsewhere, or both are None."""
    want = label_grid(table.basis1, table.basis2, shot_counts, -1)
    return table.shots is None if want is None else table.shots is not None and np.array_equal(table.shots, want)


def by_label(array, basis1, basis2) -> dict:
    """``{(label1, label2): value}`` of every cell of an ``(n1, n2)`` array, in label-grid order."""
    return dict(zip([(a, b) for a in basis1.labels for b in basis2.labels], array.ravel().tolist()))


def dict_missing_pairs(basis1, basis2, entries: dict) -> list:
    return [(a, b) for a in basis1.labels for b in basis2.labels if (a, b) not in entries]


def dict_evaluate_witness(coeffs: dict, entries: dict, coeff_atol: float = 1e-12):
    """``<W>`` from label-keyed coefficients, or the list of missing pairs."""
    needed = {k: c for k, c in coeffs.items() if abs(c) > coeff_atol}
    missing = [k for k in needed if k not in entries]
    if missing:
        return missing
    return float(sum(c * entries[k] for k, c in needed.items()))


def dict_witness_coefficients(coeffs: dict) -> dict:
    """``Witness.to_dict()["coefficients"]``: ``"a|b"`` keys sorted by label pair."""
    return {f"{a}|{b}": c for (a, b), c in sorted(coeffs.items())}


def dephasing_superoperator(d: int) -> np.ndarray:
    """Superoperator of Delta in the row-major vectorization."""
    diag = np.zeros(d * d)
    diag[:: d + 1] = 1.0
    return np.diag(diag)


def delta_class_residuals(s) -> dict:
    """The OI, CE, CI and DI residuals and the single-channel NCGD surrogate of superoperators
    ``(..., d^2, d^2)``, each the max column norm of the gap between its identity's two sides,
    formed as dense products with Delta."""
    delta = dephasing_superoperator(int(round(np.sqrt(s.shape[-1]))))

    def gap(left, right):
        return np.max(np.linalg.norm(left - right, axis=-2), axis=-1)

    return {
        "oi": gap(s, s @ delta),
        "ce": gap(s, delta @ s),
        "ci": gap(s @ delta, delta @ s @ delta),
        "di": gap(delta @ s, delta @ s @ delta),
        "ncgd": gap(delta @ s @ delta @ s @ delta, delta @ s @ s @ delta),
    }


# The (t, tau) grid on which a dynamics family t -> F_t is probed for NCGD.
NCGD_GRID = np.logspace(-2.0, 1.0, 10)


def loop_ncgd_residual(family, delta) -> float:
    """Max deviation of Delta F_t Delta F_tau Delta from Delta F_{t+tau} Delta over the 10 x 10
    (t, tau) grid, with three single-time ``family(t)`` calls per pair.  On a semigroup a pass
    means only "not refuted on the grid"; the exact generator test is checked against it."""
    worst = 0.0
    for t in NCGD_GRID:
        for tau in NCGD_GRID:
            lhs = delta @ family(t) @ delta @ family(tau) @ delta
            rhs = delta @ family(t + tau) @ delta
            worst = max(worst, float(np.max(np.linalg.norm(lhs - rhs, axis=-2))))
    return worst


def gram_solve(overlaps, basis1, basis2) -> np.ndarray:
    """Coefficients ``G1^-1 O G2^-T`` per ``(n1, n2)`` slice by two ``np.linalg.solve`` calls against
    the bases' Gram matrices, the route each basis's stored inverse replaced."""
    left = np.linalg.solve(basis1.gram, overlaps)
    return np.linalg.solve(basis2.gram, left.swapaxes(-1, -2)).swapaxes(-1, -2)


# Sampling references: the Lueders branch kernel that the closed-form agreement
# probability replaced (stacked, ``branch_probabilities``, and pair by pair,
# ``loop_probabilities``), and the per-shot sampler that the binomial draw
# replaced.  The per-shot sampler draws 2n uniforms per pair from its own
# SeedSequence (seed, i, j) (``pair_seed``, derived in bulk by
# ``pair_states``); it is the reference distribution of the agree-count k.

def outcome_probs(projs, states, live=True) -> np.ndarray:
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


def branch_probabilities(rho, ch, projs1, projs2):
    """Outcome probabilities of every (A_i at t1, B_j at t2) pair of two projector stacks
    ``(n, 2, d, d)``, each pair as ``loop_projectors`` builds it, from the Lueders post-state of
    each first branch.

    Returns ``p`` of shape (n1,), the probability of +lam at t1 for A_i, and
    ``q`` of shape (n1, 2, n2), the probability of +lam at t2 for B_j after
    outcome s (0: +lam, 1: -lam) of A_i.  A first outcome within
    DEAD_BRANCH_PROB of certainty is certain, and so is a second one; a dead
    first branch has no post-state and q = 0.  Its memory grows as n1 K d^3.
    """
    rho = check_density_matrix(rho)
    if rho.shape[0] != ch.in_dim:
        raise DimensionMismatch("state dimension does not match channel input")
    if projs1.shape[-1] != ch.in_dim or projs2.shape[-1] != ch.out_dim:
        raise DimensionMismatch("observable dimensions do not match the channel")

    first = outcome_probs(projs1, rho)
    p = first[:, 0].copy()
    p[p >= 1.0 - DEAD_BRANCH_PROB] = 1.0
    p[first[:, 1] >= 1.0 - DEAD_BRANCH_PROB] = 0.0

    live = first > 0.0
    post = projs1 @ rho @ projs1
    norm = np.trace(post, axis1=-2, axis2=-1).real[..., None, None]
    post = np.divide(post, norm, out=np.zeros_like(post), where=live[..., None, None])
    q = outcome_probs(projs2, ch(post), live)[..., 0]
    q[q >= 1.0 - DEAD_BRANCH_PROB] = 1.0
    return p, q


def loop_projectors(obs):
    """(P+, P-, lam) of one observable, a raw +/-lam Hermitian wrapped as light-touch."""
    if not isinstance(obs, LightTouchObservable):
        obs = LightTouchObservable(obs, label="")
    eye = np.eye(obs.matrix.shape[0], dtype=complex)
    if obs.kind == "single":
        return eye, np.zeros_like(eye), obs.lam
    return (eye + obs.matrix / obs.lam) / 2.0, (eye - obs.matrix / obs.lam) / 2.0, obs.lam


def loop_branch(rho, plus, minus):
    out = []
    for proj in (plus, minus):
        p = min(max(float(np.trace(proj @ rho).real), 0.0), 1.0)
        if p < DEAD_BRANCH_PROB:
            out.append((0.0, None))
        else:
            post = proj @ rho @ proj
            out.append((p, post / np.trace(post).real))
    total = out[0][0] + out[1][0]
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"branch probabilities sum to {total!r}")
    return out


def loop_probabilities(rho, ch, projs1, projs2):
    """(P(+ at t1), P(+ at t2 | +), P(+ at t2 | -)) of one pair, with the same clamps."""
    (p_plus, post_plus), (p_minus, post_minus) = loop_branch(rho, *projs1[:2])
    if p_plus >= 1.0 - DEAD_BRANCH_PROB:
        p_plus = 1.0
    if p_minus >= 1.0 - DEAD_BRANCH_PROB:
        p_plus = 0.0

    def second_plus_prob(post):
        if post is None:
            return 0.0
        (q_plus, _), _ = loop_branch(ch(post), *projs2[:2])
        return 1.0 if q_plus >= 1.0 - DEAD_BRANCH_PROB else q_plus

    return p_plus, second_plus_prob(post_plus), second_plus_prob(post_minus)


def loop_agree_probability(rho, ch, obs1, obs2) -> float:
    """P(the two outcomes agree) of one pair, clipped to [0, 1]."""
    p, q_plus, q_minus = loop_probabilities(rho, ch, loop_projectors(obs1), loop_projectors(obs2))
    return min(max(p * q_plus + (1.0 - p) * (1.0 - q_minus), 0.0), 1.0)


def per_shot_outcomes(probs, shots, seed):
    """Whether each of ``shots`` shots, drawn one by one from ``default_rng(seed)``, had outcome +lam at
    t1 and at t2: ``shots`` uniforms for t1, then ``shots`` for t2.  ``probs`` is ``loop_probabilities``'s
    triple."""
    p_plus, q_given_plus, q_given_minus = probs
    rng = np.random.default_rng(seed)
    first_plus = rng.random(shots) < p_plus
    return first_plus, rng.random(shots) < np.where(first_plus, q_given_plus, q_given_minus)


def pair_seed(root_seed: int, i: int, j: int) -> np.random.SeedSequence:
    """The per-shot sampler's seed of pair (i, j); independent of iteration order.  Each argument is a
    Python or numpy integer >= 0."""
    return np.random.SeedSequence(entropy=(_check_int(root_seed, "root_seed", 0), _check_int(i, "i", 0),
                                           _check_int(j, "j", 0)))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), word for word.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _XSHIFT, _MASK32, _POOL_SIZE = 0xCA01F9DD, 0x4973F715, 16, 0xFFFFFFFF, 4


def pair_states(seed: int, n1: int, n2: int) -> np.ndarray:
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


class FixedSeed(ISeedSequence):
    """Hands PCG64 one row of ``pair_states`` as its ``generate_state(4, np.uint64)``."""

    def __init__(self, state):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def per_shot_agree_counts(rho, ch, basis1, basis2, shots, seeds) -> np.ndarray:
    """``(len(seeds), n1, n2)`` agree-counts, pair (i, j) drawn shot by shot from ``pair_seed(seed, i, j)``."""
    n1, n2 = len(basis1), len(basis2)
    probs = [loop_probabilities(rho, ch, loop_projectors(a), loop_projectors(b))
             for a in basis1.observables for b in basis2.observables]
    counts = np.empty((len(seeds), n1 * n2), dtype=np.int64)
    for s, seed in enumerate(seeds):
        for k, (pair, state) in enumerate(zip(probs, pair_states(seed, n1, n2))):
            first, second = per_shot_outcomes(pair, shots, FixedSeed(state))
            counts[s, k] = np.count_nonzero(first == second)
    return counts.reshape(len(seeds), n1, n2)


def loop_binomial_table(p_agree, basis1, basis2, shots, seed) -> CorrelatorTable:
    """The binomial contract pair by pair: one ``default_rng(seed)``, one scalar binomial per pair in
    row-major order with probability ``p_agree[i, j]``, each value ``lam1*lam2 * ((2k - n) / n)``."""
    rng = np.random.default_rng(seed)
    values = np.full((len(basis1), len(basis2)), np.nan)
    for a in basis1.observables:
        for b in basis2.observables:
            i, j = basis1.index[a.label], basis2.index[b.label]
            k = int(rng.binomial(shots, p_agree[i, j]))
            values[i, j] = a.lam * b.lam * ((2 * k - shots) / shots)
    return CorrelatorTable(basis1, basis2, values, np.full(values.shape, shots))


def products_with_agreements(k: int, shots: int, lam12: float) -> np.ndarray:
    """``shots`` products +/-lam12, ``k`` of them +lam12 (outcomes that agree)."""
    return np.where(np.arange(shots) < k, lam12, -lam12)


def loop_oi_kraus(d: int, rng) -> list:
    """The random OI Kraus set {sqrt(w_a) |v_a><i|} of ``pdmsi.random.oi_channel``, drawn state by state
    and built one outer product at a time."""
    ops = []
    for i in range(d):
        w, v = np.linalg.eigh(density_matrix(d, rng))
        for a in range(d):
            if w[a] > 1e-12:
                ops.append(np.sqrt(w[a]) * np.outer(v[:, a], ket(i, d).conj()))
    return ops
