"""Document model, the pooled token distribution, and the score and control columns.

Documents hold lemmatized, POS-filtered token sequences. Scoring works on
the arrays that ``metrics.build_knowledge_space`` lays out from them; the
sparse lemma->probability map here is the pooled aggregate it starts from.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

from .errors import EmptyCorpus, EmptyDocument

COARSE_TAGS = ("NOUN", "VERB", "ADJ", "ADV", "NUM", "OTHER")
RETAINED_TAGS = frozenset({"NOUN", "VERB", "ADJ", "ADV", "NUM"})

PROB_SUM_TOL = 1e-9
# documents a knowledge space needs: build's floor on a split, and score's on a space
MIN_KNOWLEDGE = 2


@dataclass(frozen=True)
class AnnotatedToken:
    """A lowercase lemma with its coarse part-of-speech tag."""

    lemma: str
    pos: str

    def __post_init__(self) -> None:
        if not self.lemma or any(c.isspace() for c in self.lemma):
            raise ValueError(f"lemma must be non-empty without whitespace: {self.lemma!r}")
        if self.pos not in COARSE_TAGS:
            raise ValueError(f"unknown coarse tag {self.pos!r}")


@dataclass(frozen=True)
class Document:
    """One recipe text after annotation and content-word filtering.

    body_tokens holds only retained tags (NOUN/VERB/ADJ/ADV/NUM).
    """

    id: str
    title: str
    body_tokens: tuple[AnnotatedToken, ...]
    country: str = "UNKNOWN"
    ingredients: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        for tok in self.body_tokens:
            if tok.pos not in RETAINED_TAGS:
                raise ValueError(f"non-content tag {tok.pos} in body of {self.id}")

    @cached_property  # computed once per document; the dataclass is frozen, so it cannot go stale
    def lemmas(self) -> tuple[str, ...]:
        return tuple(tok.lemma for tok in self.body_tokens)


@dataclass(frozen=True)
class TokenDistribution:
    """Sparse lemma -> probability map plus the token count behind it.

    Zero-probability lemmas are absent; entries sum to 1 within 1e-9.
    """

    probs: Mapping[str, float]
    token_total: int

    def __post_init__(self) -> None:
        if self.token_total < 1:
            raise ValueError("token_total must be >= 1")
        if not self.probs:
            raise ValueError("distribution has empty support")
        total = 0.0
        for lemma, p in self.probs.items():
            if p <= 0.0:
                raise ValueError(f"non-positive probability for {lemma!r}")
            total += p
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")

    @classmethod
    def from_counts(cls, counts: Mapping[str, int]) -> "TokenDistribution":
        total = sum(counts.values())
        if total < 1:
            raise ValueError("empty counts")
        probs = {lemma: c / total for lemma, c in counts.items() if c > 0}
        return cls(probs=probs, token_total=total)

    def get(self, lemma: str) -> float:
        return self.probs.get(lemma, 0.0)

    @property
    def support(self) -> frozenset[str]:
        return frozenset(self.probs)


class NoveltyScores(NamedTuple):
    """All seven score components of one variation against one knowledge space."""

    appearance: float
    disappearance: float
    newness: float
    uniqueness: float
    difference: float
    new_surprise: float
    divergent_surprise: float


class ControlVars(NamedTuple):
    """Per-variation covariates used as controls and mediators downstream."""

    lexical_diversity: float
    new_ingredient_ratio: float
    length_ratio: float


def aggregate_distribution(docs: Iterable[Document]) -> TokenDistribution:
    """Pool token counts over all documents and normalize by the pooled total.

    This is the corpus-level estimate: counts are pooled before dividing,
    not averaged per document.
    """
    counts: Counter[str] = Counter()
    for doc in docs:
        counts.update(doc.lemmas)
    if not counts:
        raise EmptyCorpus("no tokens across the supplied documents")
    return TokenDistribution.from_counts(counts)


def control_variables(variation: Document, kb) -> ControlVars:
    """Compute the three control variables of a variation against a knowledge space.

    kb must expose ingredient_union and mean_doc_length (see metrics.KnowledgeSpace).
    """
    if not variation.body_tokens:
        raise EmptyDocument(f"document {variation.id} has no body tokens")
    n_tokens = len(variation.body_tokens)
    diversity = len(set(variation.lemmas)) / n_tokens
    if variation.ingredients:
        new = variation.ingredients - kb.ingredient_union
        new_ratio = len(new) / len(variation.ingredients)
    else:
        new_ratio = 0.0
    return ControlVars(
        lexical_diversity=diversity,
        new_ingredient_ratio=new_ratio,
        length_ratio=n_tokens / kb.mean_doc_length,
    )
