"""The five cultural-novelty metrics and their knowledge-space calibrations.

A knowledge space is the document set of one (product, culture) pair with
its cached aggregate distribution, PPMI matrix, and two leave-one-out
thresholds. Variations are single documents scored against it:

- newness: share of each lexicon whose divergence contribution exceeds the
  within-community threshold (appearance on the variation side,
  disappearance on the knowledge side);
- uniqueness: JSD between the variation and the aggregate prototype;
- difference: fraction of knowledge documents farther from the variation
  than the community's mean pairwise distance;
- new_surprise: share of the variation's collocation pairs unknown to the
  knowledge PPMI matrix;
- divergent_surprise: mean row-wise JSD between the two PPMI matrices over
  the shared vocabulary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .corpus import Document, TokenDistribution, aggregate_distribution, doc_distribution
from .divergence import EQUAL_WEIGHTS, Side, jsd, jsd_decomposed
from .errors import EmptyDocument, InsufficientKB
from .ppmi import PpmiMatrix, build_ppmi

DEFAULT_LAMBDA1 = 0.8
DEFAULT_LAMBDA2 = 0.2
DEFAULT_WINDOW = 3


@dataclass(frozen=True)
class KnowledgeSpace:
    """Calibrated document set of one cultural product within one community."""

    product: str
    culture: str
    docs: tuple[Document, ...]
    P_agg: TokenDistribution
    ppmi: PpmiMatrix
    epsilon_newness: float
    epsilon_difference: float
    ingredient_union: frozenset[str]
    mean_doc_length: float
    window: int = DEFAULT_WINDOW


@dataclass(frozen=True)
class NoveltyScores:
    """All seven score components of one variation against one knowledge space."""

    appearance: float
    disappearance: float
    newness: float
    uniqueness: float
    difference: float
    new_surprise: float
    divergent_surprise: float

    def as_tuple(self) -> tuple[float, ...]:
        return (
            self.appearance,
            self.disappearance,
            self.newness,
            self.uniqueness,
            self.difference,
            self.new_surprise,
            self.divergent_surprise,
        )


def _require_docs(docs: Sequence[Document]) -> None:
    if len(docs) < 2:
        raise InsufficientKB(f"need at least 2 documents, got {len(docs)}")


def _require_variation(variation: Document) -> None:
    if not variation.body_tokens:
        raise EmptyDocument(f"variation {variation.id} has no body tokens")


def calibrate_newness_threshold(docs: Sequence[Document]) -> float:
    """Leave-one-out newness threshold over a knowledge-space document set.

    Each document is held out in turn and compared against the aggregate of
    the rest; the strictly positive per-word contributions from all folds
    are pooled, and the threshold is their mean.
    Zero contributions are exact ties and carry no information, so they are
    excluded from the pool.
    """
    _require_docs(docs)
    pooled: list[float] = []
    for i, held_out in enumerate(docs):
        rest = [d for j, d in enumerate(docs) if j != i]
        p_loo = aggregate_distribution(rest)
        q = doc_distribution(held_out)
        _, contributions = jsd_decomposed(p_loo, q)
        pooled.extend(c.value for c in contributions if c.value > 0.0)
    if not pooled:
        return 0.0
    return math.fsum(pooled) / len(pooled)


def calibrate_difference_threshold(docs: Sequence[Document]) -> float:
    """Mean equal-weight pairwise JSD among the knowledge-space documents."""
    _require_docs(docs)
    dists = [doc_distribution(d) for d in docs]
    pair_values = [
        jsd(dists[i], dists[j], EQUAL_WEIGHTS)
        for i in range(len(dists))
        for j in range(i + 1, len(dists))
    ]
    return math.fsum(pair_values) / len(pair_values)


def build_knowledge_space(
    product: str,
    culture: str,
    docs: Iterable[Document],
    window: int = DEFAULT_WINDOW,
) -> KnowledgeSpace:
    """Assemble and calibrate a knowledge space from its documents."""
    ordered = tuple(sorted(docs, key=lambda d: d.id))
    _require_docs(ordered)
    for doc in ordered:
        if not doc.body_tokens:
            raise EmptyDocument(f"knowledge document {doc.id} has no body tokens")
    ingredient_union = frozenset().union(*(d.ingredients for d in ordered))
    return KnowledgeSpace(
        product=product,
        culture=culture,
        docs=ordered,
        P_agg=aggregate_distribution(ordered),
        ppmi=build_ppmi(ordered, window=window),
        epsilon_newness=calibrate_newness_threshold(ordered),
        epsilon_difference=calibrate_difference_threshold(ordered),
        ingredient_union=ingredient_union,
        mean_doc_length=sum(len(d.body_tokens) for d in ordered) / len(ordered),
        window=window,
    )


def newness(
    kb: KnowledgeSpace,
    variation: Document,
    lambda1: float = DEFAULT_LAMBDA1,
    lambda2: float = DEFAULT_LAMBDA2,
) -> tuple[float, float, float]:
    """Appearance, disappearance, and their weighted newness combination.

    Appearance is the share of the variation's lexicon whose contribution is
    attributed to the variation side and exceeds the calibrated threshold;
    disappearance is the mirror share of the knowledge lexicon. Comparisons
    are strict, so an exact replica of the knowledge space scores zero.
    """
    _require_variation(variation)
    if abs(lambda1 + lambda2 - 1.0) > 1e-12:
        raise ValueError("lambda1 + lambda2 must equal 1")
    q = doc_distribution(variation)
    _, contributions = jsd_decomposed(kb.P_agg, q)
    eps = kb.epsilon_newness
    appeared = 0
    disappeared = 0
    for c in contributions:
        if c.value > eps:
            if c.attributed_to is Side.Q_SIDE:
                appeared += 1
            elif c.attributed_to is Side.P_SIDE:
                disappeared += 1
    appearance = appeared / len(q.support)
    disappearance = disappeared / len(kb.P_agg.support)
    return appearance, disappearance, lambda1 * appearance + lambda2 * disappearance


def uniqueness(kb: KnowledgeSpace, variation: Document) -> float:
    """JSD between the variation and the knowledge-space prototype.

    Mixture weights are proportional to the corpus and document token totals.
    """
    _require_variation(variation)
    return jsd(kb.P_agg, doc_distribution(variation))


def difference(kb: KnowledgeSpace, variation: Document) -> float:
    """Fraction of knowledge documents strictly farther than the mean pairwise distance.

    Document-to-document distances use equal mixture weights; two single
    documents carry no meaningful size asymmetry.
    """
    _require_variation(variation)
    q = doc_distribution(variation)
    exceeding = sum(
        1
        for doc in kb.docs
        if jsd(doc_distribution(doc), q, EQUAL_WEIGHTS) > kb.epsilon_difference
    )
    return exceeding / len(kb.docs)


def new_surprise(kb_ppmi: PpmiMatrix, var_ppmi: PpmiMatrix) -> float:
    """Share of the variation's collocation pairs absent from the expectation space.

    A pair counts as novel when it is missing from the knowledge matrix or
    involves a lemma the knowledge space never saw. Returns 0 for a
    variation with no stored pairs.
    """
    if not var_ppmi.pairs:
        return 0.0
    novel = 0
    for (a, b) in var_ppmi.pairs:
        if a not in kb_ppmi.vocab or b not in kb_ppmi.vocab:
            novel += 1
        elif (a, b) not in kb_ppmi.pairs:
            novel += 1
    return novel / len(var_ppmi.pairs)


def _rows_for(matrix: PpmiMatrix, lemmas: frozenset[str]) -> dict[str, dict[str, float]]:
    rows: dict[str, dict[str, float]] = {lemma: {} for lemma in lemmas}
    for (a, b), v in matrix.pairs.items():
        if a in rows:
            rows[a][b] = v
        if b in rows and a != b:
            rows[b][a] = v
    return rows


def _row_distribution(row: dict[str, float]) -> TokenDistribution:
    mass = math.fsum(row.values())
    return TokenDistribution(
        probs={w: v / mass for w, v in row.items()},
        token_total=len(row),
    )


def divergent_surprise(kb_ppmi: PpmiMatrix, var_ppmi: PpmiMatrix) -> float:
    """Mean equal-weight JSD between matching PPMI rows of the two matrices.

    Only lemmas shared by both vocabularies contribute, and only when their
    row has positive mass on both sides; each row is L1-normalized into a
    distribution over its collocation partners first.
    """
    shared = kb_ppmi.vocab & var_ppmi.vocab
    if not shared:
        return 0.0
    kb_rows = _rows_for(kb_ppmi, shared)
    var_rows = _rows_for(var_ppmi, shared)
    values = []
    for lemma in sorted(shared):
        kb_row = kb_rows[lemma]
        var_row = var_rows[lemma]
        if not kb_row or not var_row:
            continue
        values.append(
            jsd(_row_distribution(kb_row), _row_distribution(var_row), EQUAL_WEIGHTS)
        )
    if not values:
        return 0.0
    return math.fsum(values) / len(values)


def score_all(
    kb: KnowledgeSpace,
    variation: Document,
    lambda1: float = DEFAULT_LAMBDA1,
    lambda2: float = DEFAULT_LAMBDA2,
) -> NoveltyScores:
    """Score one variation on all five metrics against a calibrated knowledge space."""
    _require_variation(variation)
    appearance, disappearance, combined = newness(kb, variation, lambda1, lambda2)
    var_ppmi = build_ppmi(variation, window=kb.window)
    return NoveltyScores(
        appearance=appearance,
        disappearance=disappearance,
        newness=combined,
        uniqueness=uniqueness(kb, variation),
        difference=difference(kb, variation),
        new_surprise=new_surprise(kb.ppmi, var_ppmi),
        divergent_surprise=divergent_surprise(kb.ppmi, var_ppmi),
    )
