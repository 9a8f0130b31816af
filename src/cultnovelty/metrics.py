"""The five cultural-novelty metrics and their knowledge-space calibrations.

A knowledge space is the document set of one (dish, origin) split with
its aggregate distribution, PPMI matrix, and two leave-one-out
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

Array layout. ``build_knowledge_space`` calibrates each knowledge space
once into ``KnowledgeArrays``: the sorted vocabulary as a lemma -> column
index, the documents' probabilities as a dense n x V matrix, the pooled
aggregate distribution as a V-vector, and each document's halved
probabilities (see below). The PPMI matrix carries its per-lemma rows,
already L1-normalized (``ppmi.PpmiRow``). The leave-one-out newness
threshold takes each fold's "rest" counts as the pooled counts minus the
held-out row, a block of folds at a time; the pairwise difference
threshold compares each document with all later ones in one block.

Bit-identity. Every divergence goes through ``divergence.per_word_terms``,
which makes the same IEEE operations per word as the scalar formula, and
every JSD and threshold is summed with ``math.fsum``, which rounds the
exact sum once, so the order of summation cannot move a result. Under
equal weights a word on one side only contributes exactly half its
probability, so ``difference``, the pairwise threshold and
``divergent_surprise`` compute logarithms only for shared words; each
shared word takes back its two halves inside the same ``fsum``
(``divergence.equal_weight_jsds``). The results equal, bit for bit, the
scalar per-word loop kept as ``scalar_*`` in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Optional, Sequence

import numpy as np

from .corpus import Document, aggregate_distribution
from .divergence import clamped_fsum, equal_weight_jsds, per_word_terms
# jsd and jsd_decomposed stay reachable here: bench/tracer.py counts calls through these names
from .divergence import jsd, jsd_decomposed  # noqa: F401
from .errors import EmptyDocument, InsufficientKB
from .ppmi import PpmiMatrix, build_ppmi

DEFAULT_LAMBDA1 = 0.8
DEFAULT_LAMBDA2 = 0.2
DEFAULT_WINDOW = 3

# folds of the leave-one-out threshold computed together: about this many
# matrix cells per block
_BLOCK_CELLS = 1 << 13


@dataclass(frozen=True)
class _Comparison:
    """One variation laid out against one knowledge space's vocabulary."""

    variation: Document
    word_count: int  # distinct lemmas of the variation
    columns: np.ndarray  # knowledge-space columns of the variation's known lemmas
    known: np.ndarray  # the variation's probabilities of those lemmas
    halves: list[float]  # 0.5 * each of the variation's probabilities
    p: np.ndarray  # the aggregate over the knowledge vocabulary, then 0 per unseen lemma
    q: np.ndarray  # the variation over the same positions
    terms: np.ndarray  # proportional-weight per-word terms of p against q


@dataclass
class KnowledgeArrays:
    """Array form of a knowledge space (see the module docstring).

    ``last`` keeps the most recent variation's comparison, so the metrics
    of one ``score_all`` lay the variation out once.
    """

    index: dict[str, int]
    doc_probs: np.ndarray
    doc_halves: tuple[list[float], ...]
    agg: np.ndarray  # pooled count / pooled total of each vocabulary lemma
    agg_total: int
    last: Optional[_Comparison] = None


@dataclass(frozen=True)
class KnowledgeSpace:
    """Calibrated document set of one cultural product within one community."""

    docs: tuple[Document, ...]
    ppmi: PpmiMatrix
    epsilon_newness: float
    epsilon_difference: float
    ingredient_union: frozenset[str]
    mean_doc_length: float
    arrays: KnowledgeArrays = field(repr=False, compare=False)
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


def _count_matrix(docs: Sequence[Document]) -> tuple[dict[str, int], np.ndarray]:
    """Sorted vocabulary index and the n x V token counts of the documents."""
    per_doc = [Counter(doc.lemmas) for doc in docs]
    for doc, counts in zip(docs, per_doc):
        if not counts:
            raise EmptyDocument(f"document {doc.id} has no body tokens")
    index = {lemma: j for j, lemma in enumerate(sorted(set().union(*per_doc)))}
    matrix = np.zeros((len(docs), len(index)), dtype=np.int64)
    for i, counts in enumerate(per_doc):
        matrix[i, [index[lemma] for lemma in counts]] = list(counts.values())
    return index, matrix


def _row_halves(probs: np.ndarray) -> tuple[list[float], ...]:
    return tuple((0.5 * row[row > 0.0]).tolist() for row in probs)


def calibrate_newness_threshold(docs: Sequence[Document]) -> float:
    """Leave-one-out newness threshold over a knowledge-space document set.

    Each document is held out in turn and compared against the aggregate of
    the rest; the strictly positive per-word contributions from all folds
    are pooled, and the threshold is their mean.
    Zero contributions are exact ties and carry no information, so they are
    excluded from the pool.
    """
    _require_docs(docs)
    _, counts = _count_matrix(docs)
    doc_totals = counts.sum(axis=1, keepdims=True)
    pooled_counts = counts.sum(axis=0)
    total = int(doc_totals.sum())
    block = max(1, _BLOCK_CELLS // counts.shape[1])
    positive = []
    for start in range(0, len(docs), block):
        held = counts[start:start + block]
        held_total = doc_totals[start:start + block]
        rest = pooled_counts - held
        rest_total = total - held_total
        terms = per_word_terms(
            rest / rest_total, held / held_total, rest_total / total, held_total / total
        )
        positive.append(terms[terms > 0.0])
    pooled = sum(len(values) for values in positive)
    if not pooled:
        return 0.0
    return math.fsum(chain.from_iterable(values.tolist() for values in positive)) / pooled


def calibrate_difference_threshold(docs: Sequence[Document]) -> float:
    """Mean equal-weight pairwise JSD among the knowledge-space documents."""
    _require_docs(docs)
    _, counts = _count_matrix(docs)
    probs = counts / counts.sum(axis=1, keepdims=True)
    halves = _row_halves(probs)
    pair_values: list[float] = []
    for i in range(len(docs) - 1):
        columns = np.flatnonzero(probs[i])
        later = probs[i + 1:, columns]
        owner, shared = np.nonzero(later)
        pair_values.extend(
            equal_weight_jsds(
                [(halves[i], halves[j]) for j in range(i + 1, len(docs))],
                owner,
                probs[i, columns][shared],
                later[owner, shared],
            )
        )
    return math.fsum(pair_values) / len(pair_values)


def build_knowledge_space(docs: Iterable[Document], window: int = DEFAULT_WINDOW) -> KnowledgeSpace:
    """Assemble and calibrate a knowledge space from its documents."""
    ordered = tuple(sorted(docs, key=lambda d: d.id))
    _require_docs(ordered)
    for doc in ordered:
        if not doc.body_tokens:
            raise EmptyDocument(f"knowledge document {doc.id} has no body tokens")
    ingredient_union = frozenset().union(*(d.ingredients for d in ordered))
    aggregate = aggregate_distribution(ordered)
    index, counts = _count_matrix(ordered)
    doc_probs = counts / counts.sum(axis=1, keepdims=True)
    return KnowledgeSpace(
        docs=ordered,
        ppmi=build_ppmi(ordered, window=window),
        epsilon_newness=calibrate_newness_threshold(ordered),
        epsilon_difference=calibrate_difference_threshold(ordered),
        ingredient_union=ingredient_union,
        mean_doc_length=sum(len(d.body_tokens) for d in ordered) / len(ordered),
        arrays=KnowledgeArrays(
            index=index,
            doc_probs=doc_probs,
            doc_halves=_row_halves(doc_probs),
            agg=np.array([aggregate.probs[lemma] for lemma in index]),
            agg_total=aggregate.token_total,
        ),
        window=window,
    )


def _compare(kb: KnowledgeSpace, variation: Document) -> _Comparison:
    """The variation laid out against kb; reused while the same variation is scored."""
    arrays = kb.arrays
    if arrays.last is not None and arrays.last.variation is variation:
        return arrays.last
    lemmas = variation.lemmas
    counts = Counter(lemmas)
    words = list(counts)
    probs = np.array([counts[w] for w in words]) / len(lemmas)
    columns = [arrays.index.get(w) for w in words]
    is_known = np.array([c is not None for c in columns], dtype=bool)
    known_columns = np.array([c for c in columns if c is not None], dtype=np.intp)
    unseen = probs[~is_known]
    p = np.concatenate((arrays.agg, np.zeros(len(unseen))))
    q = np.concatenate((np.zeros(len(arrays.agg)), unseen))
    q[known_columns] = probs[is_known]
    total = arrays.agg_total + len(lemmas)
    comparison = _Comparison(
        variation=variation,
        word_count=len(words),
        columns=known_columns,
        known=probs[is_known],
        halves=(0.5 * probs).tolist(),
        p=p,
        q=q,
        terms=per_word_terms(p, q, arrays.agg_total / total, len(lemmas) / total),
    )
    arrays.last = comparison
    return comparison


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
    c = _compare(kb, variation)
    over = c.terms > kb.epsilon_newness
    appeared = int(np.count_nonzero(over & (c.q > c.p)))
    disappeared = int(np.count_nonzero(over & (c.p > c.q)))
    appearance = appeared / c.word_count
    disappearance = disappeared / len(kb.arrays.agg)
    return appearance, disappearance, lambda1 * appearance + lambda2 * disappearance


def uniqueness(kb: KnowledgeSpace, variation: Document) -> float:
    """JSD between the variation and the knowledge-space prototype.

    Mixture weights are proportional to the corpus and document token totals.
    """
    _require_variation(variation)
    return clamped_fsum(_compare(kb, variation).terms.tolist())


def difference(kb: KnowledgeSpace, variation: Document) -> float:
    """Fraction of knowledge documents strictly farther than the mean pairwise distance.

    Document-to-document distances use equal mixture weights; two single
    documents carry no meaningful size asymmetry.
    """
    _require_variation(variation)
    c = _compare(kb, variation)
    doc_probs = kb.arrays.doc_probs[:, c.columns]
    owner, shared = np.nonzero(doc_probs)
    distances = equal_weight_jsds(
        [(doc_half, c.halves) for doc_half in kb.arrays.doc_halves],
        owner,
        doc_probs[owner, shared],
        c.known[shared],
    )
    exceeding = sum(1 for value in distances if value > kb.epsilon_difference)
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


def divergent_surprise(kb_ppmi: PpmiMatrix, var_ppmi: PpmiMatrix) -> float:
    """Mean equal-weight JSD between matching PPMI rows of the two matrices.

    Only lemmas shared by both vocabularies contribute, and only when their
    row has positive mass on both sides; each row is L1-normalized into a
    distribution over its collocation partners first.
    """
    halves = []
    owner, p, q = [], [], []
    for lemma in sorted(kb_ppmi.vocab & var_ppmi.vocab):
        kb_row = kb_ppmi.rows.get(lemma)
        var_row = var_ppmi.rows.get(lemma)
        if kb_row is None or var_row is None:
            continue
        for partner, q_value in var_row.probs.items():
            p_value = kb_row.probs.get(partner)
            if p_value is not None:
                owner.append(len(halves))
                p.append(p_value)
                q.append(q_value)
        halves.append((kb_row.halves, var_row.halves))
    if not halves:
        return 0.0
    values = equal_weight_jsds(halves, np.array(owner, dtype=np.intp), np.array(p), np.array(q))
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
