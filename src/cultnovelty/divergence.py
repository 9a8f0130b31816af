"""Jensen-Shannon divergence with size-proportional mixture weights.

All logarithms are base 2, which keeps the two-component JSD inside [0, 1].
The divergence decomposes additively over words; each word's term is
non-negative and vanishes exactly when the two probabilities are equal,
so the decomposition doubles as an attribution of the divergence to the
side that over-represents the word.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

from .corpus import TokenDistribution

WEIGHT_SUM_TOL = 1e-12


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


def _per_word_term(p: float, q: float, pi1: float, pi2: float) -> float:
    # Equals -m*log2(m) + pi1*p*log2(p) + pi2*q*log2(q) with 0*log(0) = 0,
    # rewritten in KL form to avoid cancellation between entropy terms.
    if p == q:
        return 0.0
    m = pi1 * p + pi2 * q
    term = 0.0
    if p > 0.0:
        term += pi1 * p * math.log2(p / m)
    if q > 0.0:
        term += pi2 * q * math.log2(q / m)
    return term if term > 0.0 else 0.0


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
    if weights is None:
        weights = MixtureWeights.proportional(p, q)
    pi1, pi2 = weights.pi1, weights.pi2
    terms = [
        _per_word_term(p.get(lemma), q.get(lemma), pi1, pi2)
        for lemma in p.support | q.support
    ]
    total = math.fsum(terms)
    if total < 0.0:
        return 0.0
    return min(total, 1.0)


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
    if weights is None:
        weights = MixtureWeights.proportional(p, q)
    pi1, pi2 = weights.pi1, weights.pi2
    contributions = []
    for lemma in sorted(p.support | q.support):
        pw, qw = p.get(lemma), q.get(lemma)
        value = _per_word_term(pw, qw, pi1, pi2)
        if qw > pw:
            side = Side.Q_SIDE
        elif pw > qw:
            side = Side.P_SIDE
        else:
            side = Side.NEUTRAL
        contributions.append(WordContribution(lemma=lemma, value=value, attributed_to=side))
    total = math.fsum(c.value for c in contributions)
    if total < 0.0:
        total = 0.0
    return min(total, 1.0), tuple(contributions)
