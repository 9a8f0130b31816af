"""The five cultural-novelty metrics and their knowledge-space calibrations.

A knowledge space is the document set of one (dish, origin) split with
its aggregate distribution, PPMI matrix, and two thresholds: the
leave-one-out newness threshold and the mean pairwise JSD behind
difference. Variations are single documents scored against it:

- newness: share of each lexicon whose divergence contribution exceeds the
  within-community threshold (appearance on the variation side,
  disappearance on the knowledge side);
- uniqueness: JSD between the variation and the aggregate prototype;
- difference: fraction of knowledge documents farther from the variation
  than the community's mean pairwise distance;
- new_surprise: share of the variation's collocation pairs unknown to the
  knowledge PPMI matrix;
- divergent_surprise: mean row-wise JSD between the two PPMI matrices over
  the lemmas that have a PPMI row on both sides.

Array layout. ``build_knowledge_space`` counts and calibrates each
knowledge space once, handing its count matrix to both thresholds, and
the space holds its array form: the sorted vocabulary as a lemma ->
column index, the documents' probabilities as a dense n x V matrix, the
pooled aggregate distribution as a V-vector, and each document's halved
probabilities (see below). The PPMI matrix carries its per-lemma rows,
already L1-normalized (``ppmi.PpmiRow``). ``lay_out`` lays one variation
out once, whatever it is scored against: its distinct lemmas, their
read-only probabilities and halves, and its PPMI matrix at the window.
``compare`` places that layout in one knowledge space's vocabulary;
``score_all`` calls it once and hands the ``Comparison`` to newness,
uniqueness and difference, and the layout's PPMI matrix to the two
surprises. A variation scored against several knowledge spaces is laid
out once and counted, and its PPMI matrix built, only then. The
leave-one-out newness threshold takes each fold's "rest" counts as the
pooled counts minus the held-out row, a block of folds at a time; the
pairwise difference threshold compares each document with all later ones
in one block, as ``difference`` compares the variation (``_block_jsds``).

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
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .corpus import MIN_KNOWLEDGE, Document, NoveltyScores, aggregate_distribution
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
class KnowledgeSpace:
    """Calibrated document set of one cultural product within one community.

    The fields from ``index`` on are its array form (see the module docstring).
    """

    docs: tuple[Document, ...]
    ppmi: PpmiMatrix
    epsilon_newness: float
    epsilon_difference: float
    ingredient_union: frozenset[str]
    mean_doc_length: float
    window: int
    index: dict[str, int] = field(repr=False, compare=False)
    doc_probs: np.ndarray = field(repr=False, compare=False)
    doc_halves: tuple[list[float], ...] = field(repr=False, compare=False)
    agg: np.ndarray = field(repr=False, compare=False)  # pooled count / pooled total of each lemma
    agg_total: int = field(repr=False, compare=False)


class Variation(NamedTuple):
    """One variation laid out once, for every knowledge space of its window."""

    doc: Document
    window: int
    words: tuple[str, ...]  # distinct lemmas, in order of first occurrence
    probs: np.ndarray  # read-only: each word's count / the token count
    halves: tuple[float, ...]  # 0.5 * each of probs
    ppmi: PpmiMatrix

    @property
    def id(self) -> str:
        return self.doc.id


@dataclass(frozen=True)
class Comparison:
    """One variation's layout placed in one knowledge space's vocabulary."""

    kb: KnowledgeSpace
    variation: Variation
    columns: np.ndarray  # knowledge-space columns of the variation's known lemmas
    known: np.ndarray  # the variation's probabilities of those lemmas
    p: np.ndarray  # the aggregate over the knowledge vocabulary, then 0 per unseen lemma
    q: np.ndarray  # the variation over the same positions
    terms: np.ndarray  # proportional-weight per-word terms of p against q


def _require_docs(docs: Sequence[Document]) -> None:
    if len(docs) < MIN_KNOWLEDGE:
        raise InsufficientKB(f"need at least {MIN_KNOWLEDGE} documents, got {len(docs)}")


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


def _block_jsds(block: np.ndarray, block_halves: Sequence, values: np.ndarray, halves: Sequence) -> list[float]:
    """Equal-weight JSD of each row of ``block`` against one distribution, ``values`` over its columns.

    ``halves`` are 0.5 * p over a whole support. A row is the first side; that moves no bit, as the
    equal-weight terms are symmetric and ``fsum`` is exact.
    """
    owner, shared = np.nonzero(block)
    pairs = [(row_halves, halves) for row_halves in block_halves]
    return equal_weight_jsds(pairs, owner, block[owner, shared], values[shared])


def calibrate_newness_threshold(docs: Sequence[Document], counts: Optional[np.ndarray] = None) -> float:
    """Leave-one-out newness threshold over a knowledge-space document set.

    Each document is held out in turn and compared against the aggregate of
    the rest; the strictly positive per-word contributions from all folds
    are pooled, and the threshold is their mean.
    Zero contributions are exact ties and carry no information, so they are
    excluded from the pool. ``counts`` is the documents' n x V token counts
    from ``_count_matrix``, counted here when not given.
    """
    _require_docs(docs)
    if counts is None:
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


def calibrate_difference_threshold(docs: Sequence[Document], counts: Optional[np.ndarray] = None) -> float:
    """Mean equal-weight pairwise JSD among the knowledge-space documents.

    ``counts`` is the documents' n x V token counts from ``_count_matrix``,
    counted here when not given.
    """
    _require_docs(docs)
    if counts is None:
        _, counts = _count_matrix(docs)
    probs = counts / counts.sum(axis=1, keepdims=True)
    halves = _row_halves(probs)
    pair_values: list[float] = []
    for i in range(len(docs) - 1):
        columns = np.flatnonzero(probs[i])
        pair_values.extend(_block_jsds(probs[i + 1:, columns], halves[i + 1:], probs[i, columns], halves[i]))
    return math.fsum(pair_values) / len(pair_values)


def build_knowledge_space(docs: Iterable[Document], window: int = DEFAULT_WINDOW) -> KnowledgeSpace:
    """Assemble and calibrate a knowledge space from its documents."""
    ordered = tuple(sorted(docs, key=lambda d: d.id))
    _require_docs(ordered)
    index, counts = _count_matrix(ordered)  # raises EmptyDocument for a document without tokens
    aggregate = aggregate_distribution(ordered)
    doc_probs = counts / counts.sum(axis=1, keepdims=True)
    return KnowledgeSpace(
        docs=ordered,
        ppmi=build_ppmi(ordered, window=window),
        epsilon_newness=calibrate_newness_threshold(ordered, counts),
        epsilon_difference=calibrate_difference_threshold(ordered, counts),
        ingredient_union=frozenset().union(*(d.ingredients for d in ordered)),
        mean_doc_length=aggregate.token_total / len(ordered),
        window=window,
        index=index,
        doc_probs=doc_probs,
        doc_halves=_row_halves(doc_probs),
        agg=np.array([aggregate.probs[lemma] for lemma in index]),
        agg_total=aggregate.token_total,
    )


def lay_out(doc: Document, window: int = DEFAULT_WINDOW) -> Variation:
    """The variation's words, probabilities and PPMI matrix, as every knowledge space reads them."""
    if not doc.body_tokens:
        raise EmptyDocument(f"variation {doc.id} has no body tokens")
    counts = Counter(doc.lemmas)
    probs = np.array(list(counts.values())) / len(doc.lemmas)
    probs.flags.writeable = False
    return Variation(
        doc=doc,
        window=window,
        words=tuple(counts),
        probs=probs,
        halves=tuple((0.5 * probs).tolist()),
        ppmi=build_ppmi(doc, window=window),
    )


def compare(kb: KnowledgeSpace, v: Variation) -> Comparison:
    """The variation placed in kb's vocabulary, as newness, uniqueness and difference read it."""
    columns = [kb.index.get(w) for w in v.words]
    is_known = np.array([c is not None for c in columns], dtype=bool)
    known_columns = np.array([c for c in columns if c is not None], dtype=np.intp)
    unseen = v.probs[~is_known]
    p = np.concatenate((kb.agg, np.zeros(len(unseen))))
    q = np.concatenate((np.zeros(len(kb.agg)), unseen))
    q[known_columns] = v.probs[is_known]
    length = len(v.doc.lemmas)
    total = kb.agg_total + length
    return Comparison(
        kb=kb,
        variation=v,
        columns=known_columns,
        known=v.probs[is_known],
        p=p,
        q=q,
        terms=per_word_terms(p, q, kb.agg_total / total, length / total),
    )


def newness(
    c: Comparison,
    lambda1: float = DEFAULT_LAMBDA1,
    lambda2: float = DEFAULT_LAMBDA2,
) -> tuple[float, float, float]:
    """Appearance, disappearance, and their weighted newness combination.

    Appearance is the share of the variation's lexicon whose contribution is
    attributed to the variation side and exceeds the calibrated threshold;
    disappearance is the mirror share of the knowledge lexicon. Comparisons
    are strict, so an exact replica of the knowledge space scores zero.
    """
    if abs(lambda1 + lambda2 - 1.0) > 1e-12:
        raise ValueError("lambda1 + lambda2 must equal 1")
    over = c.terms > c.kb.epsilon_newness
    appeared = int(np.count_nonzero(over & (c.q > c.p)))
    disappeared = int(np.count_nonzero(over & (c.p > c.q)))
    appearance = appeared / len(c.variation.words)
    disappearance = disappeared / len(c.kb.agg)
    return appearance, disappearance, lambda1 * appearance + lambda2 * disappearance


def uniqueness(c: Comparison) -> float:
    """JSD between the variation and the knowledge-space prototype.

    Mixture weights are proportional to the corpus and document token totals.
    """
    return clamped_fsum(c.terms.tolist())


def difference(c: Comparison) -> float:
    """Fraction of knowledge documents strictly farther than the mean pairwise distance.

    Document-to-document distances use equal mixture weights; two single
    documents carry no meaningful size asymmetry.
    """
    distances = _block_jsds(c.kb.doc_probs[:, c.columns], c.kb.doc_halves, c.known, c.variation.halves)
    return sum(value > c.kb.epsilon_difference for value in distances) / len(c.kb.docs)


def new_surprise(kb_ppmi: PpmiMatrix, var_ppmi: PpmiMatrix) -> float:
    """Share of the variation's collocation pairs absent from the expectation space.

    Returns 0 for a variation with no stored pairs.
    """
    if not var_ppmi.pairs:
        return 0.0
    # one lookup per variation pair: a keys-view difference would walk every knowledge pair
    return sum(pair not in kb_ppmi.pairs for pair in var_ppmi.pairs) / len(var_ppmi.pairs)


def divergent_surprise(kb_ppmi: PpmiMatrix, var_ppmi: PpmiMatrix) -> float:
    """Mean equal-weight JSD between matching PPMI rows of the two matrices.

    Only lemmas with a row on both sides contribute, that is lemmas with at
    least one positively associated partner in each matrix; each row is an
    L1-normalized distribution over its collocation partners.
    """
    halves = []
    owner, p, q = [], [], []
    for lemma in sorted(kb_ppmi.rows.keys() & var_ppmi.rows.keys()):
        kb_row = kb_ppmi.rows[lemma]
        var_row = var_ppmi.rows[lemma]
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
    v: Variation,
    lambda1: float = DEFAULT_LAMBDA1,
    lambda2: float = DEFAULT_LAMBDA2,
) -> NoveltyScores:
    """Score one laid-out variation on all five metrics against a calibrated knowledge space."""
    if v.window != kb.window:
        raise ValueError(
            f"variation {v.id} is laid out at window {v.window}, the knowledge space at {kb.window}"
        )
    c = compare(kb, v)
    appearance, disappearance, combined = newness(c, lambda1, lambda2)
    return NoveltyScores(
        appearance=appearance,
        disappearance=disappearance,
        newness=combined,
        uniqueness=uniqueness(c),
        difference=difference(c),
        new_surprise=new_surprise(kb.ppmi, v.ppmi),
        divergent_surprise=divergent_surprise(kb.ppmi, v.ppmi),
    )
