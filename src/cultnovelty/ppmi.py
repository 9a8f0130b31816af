"""Positive PMI matrices from sliding-window co-occurrence counts.

The matrix over a document set is the "expectation space": which word
pairs the corpus makes likely. Windows never cross document boundaries;
PMI is clamped at zero, so only positively associated pairs are stored.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Union

from .corpus import Document
from .errors import EmptyCorpus

Pair = tuple[str, str]


def _pair_key(a: str, b: str) -> Pair:
    return (a, b) if a <= b else (b, a)


class PpmiRow(NamedTuple):
    """One lemma's PPMI row, L1-normalized into a distribution over its partners.

    halves holds 0.5 * each probability: under equal mixture weights, a
    partner the other row lacks adds exactly that much to their JSD.
    """

    probs: Mapping[str, float]
    halves: list[float]


@dataclass(frozen=True)
class PpmiMatrix:
    """Sparse symmetric map of unordered lemma pairs to positive PMI bits.

    Each pair is keyed once, as (a, b) with a <= b. rows holds one row
    for each lemma that is part of at least one stored pair, and no other.
    """

    pairs: Mapping[Pair, float]
    rows: Mapping[str, PpmiRow] = field(repr=False, compare=False)


def build_ppmi(docs: Union[Document, Iterable[Document]], window: int = 3) -> PpmiMatrix:
    """Build the PPMI matrix of one document or a pooled document set.

    Co-occurrences are all unordered token pairs at distance <= window-1
    inside a single document. Pair and unigram probabilities come from the
    same documents; entries with PMI <= 0 are omitted.
    """
    if isinstance(docs, Document):
        docs = [docs]
    if window < 2:
        raise ValueError("window must be >= 2")

    unigrams: Counter[str] = Counter()
    pair_counts: Counter[Pair] = Counter()
    for doc in docs:
        lemmas = doc.lemmas
        unigrams.update(lemmas)
        for gap in range(1, min(window, len(lemmas))):  # a gap past the document holds no pair
            pair_counts.update(map(_pair_key, lemmas, lemmas[gap:]))

    token_total = sum(unigrams.values())
    if token_total == 0:
        raise EmptyCorpus("no tokens to build a PPMI matrix from")

    pair_total = sum(pair_counts.values())
    pairs: dict[Pair, float] = {}
    for (a, b), count in pair_counts.items():
        p_pair = count / pair_total
        p_a = unigrams[a] / token_total
        p_b = unigrams[b] / token_total
        pmi = math.log2(p_pair / (p_a * p_b))
        if pmi > 0.0:
            pairs[(a, b)] = pmi

    return PpmiMatrix(pairs=pairs, rows=_rows(pairs))


def _rows(pairs: Mapping[Pair, float]) -> dict[str, PpmiRow]:
    grouped: dict[str, dict[str, float]] = {}
    for (a, b), v in pairs.items():
        grouped.setdefault(a, {})[b] = v
        if a != b:
            grouped.setdefault(b, {})[a] = v
    rows = {}
    for lemma, row in grouped.items():
        mass = math.fsum(row.values())
        probs = {partner: v / mass for partner, v in row.items()}
        rows[lemma] = PpmiRow(probs, [0.5 * p for p in probs.values()])
    return rows
