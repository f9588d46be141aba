"""Three-time Leggett-Garg evaluation and its comparison with SI detection.

Correlators are computed exactly through the two-time PDM trace identity:
C_12 measures at t1 and t2 around the first leg, C_23 lets the state evolve
unmeasured through the first leg before measuring around the second, and
C_13 evolves through both legs with no intermediate measurement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, _from_superoperator, _superoperator
from .exceptions import DimensionMismatch, ZeroShots
from .linalg import check_hermitian, kron
from .observables import PAULI_1Q
from .pdm import Pdm, Witness, _check_int, _closed_form, _PdmStack, synthesize_witness
from .sampling import _observable, _sample_pair
from .states import DENSITY_ATOL, check_density_matrix

LG_SLACK = 1e-9
SI_DETECT_ATOL = 1e-9
# Absolute tolerance of a +/-1 observable's Hermiticity and of each entry of q^2 - I.
DICHOTOMIC_ATOL = 1e-10


def check_dichotomic(q) -> np.ndarray:
    """Validate a +/-1 observable, or each of a ``(..., d, d)`` stack: Hermitian with q^2 = I."""
    q = check_hermitian(q, DICHOTOMIC_ATOL, stacked=True)
    if float(np.max(np.abs(q @ q - np.eye(q.shape[-1])))) > DICHOTOMIC_ATOL:
        raise ValueError("dichotomic observable must square to the identity")
    return q


@dataclass
class LgScenario:
    initial: np.ndarray
    ch12: KrausChannel
    ch23: KrausChannel
    q: np.ndarray

    def __post_init__(self):
        rhos, (self.q,) = _checked_inputs([self.initial], [self.q], self.ch12, self.ch23)
        self.initial = rhos[0]


def _checked_inputs(states, qs, ch12: KrausChannel, ch23: KrausChannel) -> tuple[np.ndarray, list]:
    """The states as one ``(N, d, d)`` stack and the observables, each checked once: density matrices,
    +/-1 observables, and both legs and every observable on each state's dimension.  The states take one
    stacked check; on any failure each in turn, so an error is the first bad state's own."""
    try:
        rhos = check_hermitian(states, DENSITY_ATOL, stacked=True)
        ok = rhos.ndim == 3 and np.all(abs(rhos.trace(axis1=1, axis2=2).real - 1.0) <= DENSITY_ATOL) and np.all(
            np.linalg.eigvalsh(rhos)[:, 0] >= -DENSITY_ATOL)
    except (TypeError, ValueError):  # not one numeric stack (mixed dimensions, say), or NonHermitian
        ok = False
    rhos = rhos if ok else [check_density_matrix(rho) for rho in states]
    qs = [check_dichotomic(q) for q in qs]
    for rho in rhos:
        d = rho.shape[0]
        if (ch12.in_dim, ch12.out_dim) != (d, d) or (ch23.in_dim, ch23.out_dim) != (d, d):
            raise DimensionMismatch("LG legs must map the system dimension to itself")
        if any(q.shape != (d, d) for q in qs):
            raise DimensionMismatch("observable dimension must match the state")
    return np.asarray(rhos), qs


@dataclass
class LgResult:
    c12: float
    c23: float
    c13: float
    k: float


def _lg_results(rows) -> list[LgResult]:
    """One ``LgResult`` per (C12, C23, C13) row, with K = C12 + C23 - C13."""
    return [LgResult(c12=c12, c23=c23, c13=c13, k=c12 + c23 - c13) for c12, c23, c13 in rows]


def _lg_pdms(rho, m12, m23) -> tuple:
    """The closed-form PDMs behind (C12, C23, C13), over states ``(..., d, d)`` and the legs'
    Jamiolkowski matrices ``(..., d^2, d^2)``.

    The state through leg 1, the unmeasured leg-1 output ``S12 vec(rho)`` through
    leg 2, and the state through both legs, whose Jamiolkowski matrix is the
    realigned superoperator product ``S23 S12``.  None depends on the observable.
    """
    d = np.shape(rho)[-1]
    s12 = _superoperator(m12, d)
    rho2 = (s12 @ np.reshape(rho, (*np.shape(rho)[:-2], d * d, 1))).reshape(np.shape(rho))
    m13 = _from_superoperator(_superoperator(m23, d) @ s12, d)
    return _closed_form(rho, m12), _closed_form(rho2, m23), _closed_form(rho, m13)


def _lg_correlators(pdms, q) -> np.ndarray:
    """Exact (C12, C23, C13) on the last axis: ``Tr[R (q (x) q)]`` of each of ``_lg_pdms``."""
    qq = kron(q, q)
    return np.stack([np.einsum("...ij,ji->...", r, qq).real for r in pdms], axis=-1)


def lg_evaluate(scenario: LgScenario, shots: int | None = None, seed: int | None = None) -> LgResult:
    """LG correlators and K = C12 + C23 - C13.

    Exact by default; with ``shots`` each correlator is Monte Carlo sampled
    through the same measure-evolve-measure procedure as the simulator, from
    ``seed``, a Python or numpy integer >= 0: one binomial draw from each of
    the three closed forms, so no channel is composed.
    """
    rho, q = scenario.initial, scenario.q
    if shots is not None:
        if seed is None:
            raise ValueError("Monte Carlo LG evaluation needs a seed")
        seed = _check_int(seed, "seed", 0)
        shots = _check_int(shots, "shots", 1, ZeroShots)
    pdms = _lg_pdms(rho, scenario.ch12.jamiolkowski(), scenario.ch23.jamiolkowski())
    if shots is None:
        row = _lg_correlators(pdms, q).tolist()
    else:
        obs, dims = _observable(q), (len(q), len(q))
        row = [_sample_pair(Pdm(r, dims), obs, obs, shots, np.random.SeedSequence((seed, leg))).mean
               for r, leg in zip(pdms, (12, 23, 13))]
    return _lg_results([row])[0]


@dataclass
class SpatialBound:
    max_k: float
    min_k: float


def lg_operator(q1, q2, q3) -> np.ndarray:
    """B = q1 q2 I + I q2 q3 - q1 I q3 as a tripartite tensor operator (stacks broadcast)."""
    q1 = check_dichotomic(q1)
    q2 = check_dichotomic(q2)
    q3 = check_dichotomic(q3)
    i1 = np.eye(q1.shape[-1])
    i2 = np.eye(q2.shape[-1])
    i3 = np.eye(q3.shape[-1])
    return kron(kron(q1, q2), i3) + kron(kron(i1, q2), q3) - kron(kron(q1, i2), q3)


def spatial_lg_bound(q1, q2, q3) -> SpatialBound:
    """Extreme eigenvalues of the LG combination over tripartite states.

    For observables with both +1 and -1 eigenvalues these are always
    (max, min) = (1, -3): no spatial statistics can push K above 1.
    """
    w = np.linalg.eigvalsh(lg_operator(q1, q2, q3))
    return SpatialBound(max_k=float(w[-1]), min_k=float(w[0]))


@dataclass
class LgVsSi:
    lg_violated: bool
    max_k: float
    si_detected: bool
    best_negativity: float
    witness: Witness | None
    results: list[LgResult]  # exact correlators per (observable, state), observables outer; not in to_dict

    def to_dict(self) -> dict:
        return {
            "lg_violated": self.lg_violated,
            "max_k": self.max_k,
            "si_detected": self.si_detected,
            "best_negativity": self.best_negativity,
            "witness": None if self.witness is None else self.witness.to_dict(),
        }


def lg_vs_si(ch: KrausChannel, states, q_list=None, ch23: KrausChannel | None = None) -> LgVsSi:
    """Scan states: can the LG test or an SI witness expose temporal correlations?

    Both LG legs default to the same channel.  Intended for incoherent input
    states (the regime where the two tests differ); q_list defaults to Pauli Z
    for qubits.
    """
    if not len(states):
        raise ValueError("lg_vs_si needs at least one state")
    if q_list is None:
        if ch.in_dim != 2:
            raise ValueError("q_list has a default only for qubits; pass observables explicitly")
        q_list = [PAULI_1Q["Z"]]
    if not len(q_list):
        raise ValueError("lg_vs_si needs at least one observable in q_list")
    second = ch if ch23 is None else ch23
    rhos, qs = _checked_inputs(states, q_list, ch, second)
    pdms = _lg_pdms(rhos, ch.jamiolkowski(), second.jamiolkowski())
    results = _lg_results(np.array([_lg_correlators(pdms, q) for q in qs]).reshape(-1, 3).tolist())
    max_k = max(res.k for res in results)

    leg1 = _PdmStack(pdms[0], (ch.in_dim, ch.in_dim))
    del pdms  # three d^4-entry PDMs per state, freed before the eigensolves
    values = leg1.t_p(1.0)
    best = int(np.argmax(values))
    best_negativity = float(values[best])
    si_detected = best_negativity > SI_DETECT_ATOL
    witness = synthesize_witness(leg1[best]) if si_detected else None
    return LgVsSi(
        lg_violated=bool(max_k > 1.0 + LG_SLACK),
        max_k=float(max_k),
        si_detected=bool(si_detected),
        best_negativity=best_negativity,
        witness=witness,
        results=results,
    )
