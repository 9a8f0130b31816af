"""Jensen-Shannon divergence with size-proportional mixture weights.

All logarithms are base 2, which keeps the two-component JSD inside [0, 1].
The divergence decomposes additively over words; each word's term is
non-negative and vanishes exactly when the two probabilities are equal,
so the decomposition doubles as an attribution of the divergence to the
side that over-represents the word.

Every divergence in the package is built from ``per_word_terms``, one
vectorized kernel, and summed with ``math.fsum``. The kernel makes the
same IEEE operations, in the same association, as the scalar formula
``(pi1*p) * log2(p/m) + (pi2*q) * log2(q/m)`` with ``m = pi1*p + pi2*q``
would for each word, and ``fsum`` rounds the exact sum once, so neither
vectorizing nor the summation order moves a result by a bit. Logarithms
come from ``math.log2``: NumPy's ``log2`` differs from the C library's in
the last bit on a few inputs in a thousand.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .corpus import TokenDistribution

WEIGHT_SUM_TOL = 1e-12

Weight = Union[float, np.ndarray]


class Side(enum.Enum):
    P_SIDE = "P"
    Q_SIDE = "Q"
    NEUTRAL = "NEUTRAL"


@dataclass(frozen=True)
class MixtureWeights:
    """Mixture weights (pi1, pi2) for the blended distribution pi1*P + pi2*Q."""

    pi1: float
    pi2: float

    def __post_init__(self) -> None:
        if not (0.0 < self.pi1 < 1.0 and 0.0 < self.pi2 < 1.0):
            raise ValueError("mixture weights must lie strictly inside (0, 1)")
        if abs(self.pi1 + self.pi2 - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError("mixture weights must sum to 1")

    @classmethod
    def proportional(cls, p: TokenDistribution, q: TokenDistribution) -> "MixtureWeights":
        """Weights proportional to the token totals behind P and Q."""
        total = p.token_total + q.token_total
        return cls(pi1=p.token_total / total, pi2=q.token_total / total)


EQUAL_WEIGHTS = MixtureWeights(0.5, 0.5)


@dataclass(frozen=True)
class WordContribution:
    """One word's additive share of a JSD, attributed to the larger side."""

    lemma: str
    value: float
    attributed_to: Side


def _log2(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.log2, x.tolist()), dtype=float, count=x.size)


def _weighted_log_ratio(weighted: np.ndarray, x: np.ndarray, m: np.ndarray) -> np.ndarray:
    # weighted * log2(x/m) where x > 0, and 0 where x == 0 (0*log(0) = 0)
    out = np.zeros(m.shape)
    present = x > 0.0
    out[present] = weighted[present] * _log2(x[present] / m[present])
    return out


def per_word_terms(p: np.ndarray, q: np.ndarray, pi1: Weight, pi2: Weight) -> np.ndarray:
    """Each word's JSD term, elementwise over aligned probability arrays.

    Equals -m*log2(m) + pi1*p*log2(p) + pi2*q*log2(q) with 0*log(0) = 0,
    rewritten in KL form to avoid cancellation between entropy terms. A
    word with p == q gets exactly 0, and float overshoot below 0 is cut to
    0. pi1 and pi2 may be arrays that broadcast against p and q.
    """
    m = pi1 * p + pi2 * q
    term = _weighted_log_ratio(pi1 * p, p, m) + _weighted_log_ratio(pi2 * q, q, m)
    return np.where((term > 0.0) & (p != q), term, 0.0)


def clamped_fsum(terms: Iterable[float]) -> float:
    """The exactly rounded sum of per-word terms, clamped into [0, 1]."""
    total = math.fsum(terms)
    if total < 0.0:
        return 0.0
    return min(total, 1.0)


def equal_weight_jsds(
    halves: Sequence[tuple[Sequence[float], Sequence[float]]],
    owner: np.ndarray,
    p: np.ndarray,
    q: np.ndarray,
) -> list[float]:
    """Equal-weight JSDs of many distribution pairs, each bit-identical to ``jsd``.

    Under equal weights a word held by one side only contributes exactly
    half its probability: p/(0.5*p) is exactly 2 and log2(2) exactly 1.
    So pair k is given by ``halves[k]``, the two sides' 0.5*p over their
    whole supports, plus the words both sides hold: ``owner`` (sorted)
    names the pair of each shared word and ``p``, ``q`` its two
    probabilities. Each shared word adds its own term and takes back its
    two halves inside the same ``fsum``, which keeps the sum exact.
    """
    terms = per_word_terms(p, q, 0.5, 0.5)
    shared = np.column_stack((terms, -0.5 * p, -0.5 * q)).ravel().tolist()
    bounds = (3 * np.searchsorted(owner, np.arange(len(halves) + 1))).tolist()
    return [
        clamped_fsum(chain(half_p, half_q, shared[bounds[k]:bounds[k + 1]]))
        for k, (half_p, half_q) in enumerate(halves)
    ]


def _aligned_terms(
    p: TokenDistribution, q: TokenDistribution, weights: Optional[MixtureWeights]
) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    if weights is None:
        weights = MixtureWeights.proportional(p, q)
    lemmas = sorted(p.support | q.support)
    p_arr = np.array([p.get(lemma) for lemma in lemmas])
    q_arr = np.array([q.get(lemma) for lemma in lemmas])
    return lemmas, p_arr, q_arr, per_word_terms(p_arr, q_arr, weights.pi1, weights.pi2)


def jsd(
    p: TokenDistribution,
    q: TokenDistribution,
    weights: Optional[MixtureWeights] = None,
) -> float:
    """Jensen-Shannon divergence between two distributions, in [0, 1] bits.

    With weights omitted, pi1 and pi2 default to the token-total proportions
    of P and Q. Words absent from one side contribute through the 0*log(0)=0
    convention; the result is clamped against sub-1e-12 float overshoot.
    """
    return clamped_fsum(_aligned_terms(p, q, weights)[3].tolist())


def jsd_decomposed(
    p: TokenDistribution,
    q: TokenDistribution,
    weights: Optional[MixtureWeights] = None,
) -> tuple[float, tuple[WordContribution, ...]]:
    """JSD together with its exact per-word additive decomposition.

    The contribution values sum to the returned total; a word is attributed
    to the Q side iff its probability is larger under Q, to the P side iff
    larger under P, and is NEUTRAL (value 0) at equality.
    """
    lemmas, p_arr, q_arr, terms = _aligned_terms(p, q, weights)
    values = terms.tolist()
    contributions = tuple(
        WordContribution(
            lemma=lemma,
            value=value,
            attributed_to=Side.Q_SIDE if qw > pw else Side.P_SIDE if pw > qw else Side.NEUTRAL,
        )
        for lemma, value, pw, qw in zip(lemmas, values, p_arr.tolist(), q_arr.tolist())
    )
    return clamped_fsum(values), contributions
