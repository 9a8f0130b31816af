"""The array-backed metrics equal the scalar reference bit for bit.

``tests/oracles.py`` keeps the scalar per-word loop as ``scalar_*``. The
package computes the same float operations per word and sums them with
``math.fsum``, so every score field and both thresholds must be ``==``,
including on exact ties at the strict ``>`` of newness and difference.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from cultnovelty.metrics import build_knowledge_space, lay_out, score_all

from conftest import make_doc
from oracles import (
    dist_of,
    pooled_dist,
    proportional_weights,
    scalar_contributions,
    scalar_difference_threshold,
    scalar_jsd,
    scalar_newness_threshold,
    scalar_score_all,
)

LETTERS = "abcdefgh"
UNSEEN = "xyz"
EXACT = settings(max_examples=300, deadline=None)


@st.composite
def cases(draw):
    """Knowledge documents (token lists) and a variation over 1-8-letter vocabularies."""
    vocab = LETTERS[: draw(st.integers(1, 8))]
    max_len = 1 if draw(st.booleans()) else 12  # one-token documents
    doc = st.lists(st.sampled_from(vocab), min_size=1, max_size=max_len)
    n = draw(st.integers(2, 6))
    docs = [draw(doc)] * n if draw(st.booleans()) else [draw(doc) for _ in range(n)]
    kind = draw(st.sampled_from(["mixed", "unseen", "copy", "pooled"]))
    if kind == "mixed":
        variation = draw(st.lists(st.sampled_from(vocab + UNSEEN), min_size=1, max_size=12))
    elif kind == "unseen":
        variation = draw(st.lists(st.sampled_from(UNSEEN), min_size=1, max_size=12))
    elif kind == "copy":
        variation = list(docs[draw(st.integers(0, n - 1))])
    else:
        variation = [w for d in docs for w in d]
    return docs, variation


def newness_tie(length):
    """Two one-word documents of `length` tokens put epsilon_newness at exactly 0.5,
    and an unseen word repeated 2 * length times contributes exactly 0.5."""
    return [["a"] * length, ["b"] * length], ["z"] * (2 * length)


@st.composite
def tied_cases(draw):
    if draw(st.booleans()):
        return newness_tie(draw(st.integers(1, 6)))
    # in a two-document space, a copy of one document lies exactly
    # epsilon_difference from the other
    doc = st.lists(st.sampled_from(LETTERS[: draw(st.integers(1, 8))]), min_size=1, max_size=12)
    docs = [draw(doc), draw(doc)]
    return docs, list(docs[draw(st.integers(0, 1))])


def kb_of(docs):
    return build_knowledge_space([make_doc(f"k{i}", d) for i, d in enumerate(docs)])


def assert_equals_scalar(docs, variation):
    kb = kb_of(docs)
    assert kb.epsilon_newness == scalar_newness_threshold(docs)
    assert kb.epsilon_difference == scalar_difference_threshold(docs)
    assert score_all(kb, lay_out(make_doc("v", variation))) == scalar_score_all(docs, variation)


@EXACT
@given(cases())
def test_equals_scalar_reference(case):
    assert_equals_scalar(*case)


@settings(max_examples=100, deadline=None)
@given(tied_cases())
def test_equals_scalar_reference_on_ties(case):
    assert_equals_scalar(*case)


def test_tied_cases_really_tie():
    for length in range(1, 7):
        docs, variation = newness_tie(length)
        p, tp = pooled_dist(docs)
        q, tq = dist_of(variation)
        terms = {w: v for w, v, _ in scalar_contributions(p, q, *proportional_weights(tp, tq))}
        assert terms["z"] == scalar_newness_threshold(docs) == 0.5
        assert score_all(kb_of(docs), lay_out(make_doc("v", variation))).appearance == 0.0
    docs = [["a", "b", "b"], ["a", "c"]]
    gap = scalar_jsd(dist_of(docs[1])[0], dist_of(docs[0])[0], 0.5, 0.5)
    assert 0.0 < gap == scalar_difference_threshold(docs)
    assert score_all(kb_of(docs), lay_out(make_doc("v", docs[0]))).difference == 0.0


@EXACT
@given(cases())
def test_every_metric_in_unit_interval(case):
    docs, variation = case
    assert all(0.0 <= v <= 1.0 for v in score_all(kb_of(docs), lay_out(make_doc("v", variation))))


@EXACT
@given(st.lists(st.sampled_from(LETTERS), min_size=1, max_size=12), st.integers(2, 6))
def test_replica_variation_scores_zero(doc, n):
    scores = score_all(kb_of([doc] * n), lay_out(make_doc("v", doc)))
    assert (scores.appearance, scores.disappearance, scores.newness) == (0.0, 0.0, 0.0)
    assert scores.uniqueness == 0.0
    assert scores.new_surprise == 0.0


@EXACT
@given(cases())
def test_pooled_variation_is_neither_new_nor_unique(case):
    docs, _ = case
    scores = score_all(kb_of(docs), lay_out(make_doc("v", [w for d in docs for w in d])))
    assert (scores.newness, scores.uniqueness) == (0.0, 0.0)


@settings(max_examples=100, deadline=None)
@given(cases(), st.lists(st.lists(st.sampled_from(LETTERS + UNSEEN), min_size=1, max_size=12),
                         min_size=1, max_size=4))
def test_scores_do_not_depend_on_scoring_order(case, others):
    # the variations share one id, and each order starts on a space of its own,
    # so a layout kept between calls by id would leak into one order only
    docs, variation = case
    variations = [make_doc("v", v) for v in [variation, *others]]
    kb = kb_of(docs)
    forward = [score_all(kb, lay_out(v)) for v in variations]
    kb = kb_of(docs)
    assert [score_all(kb, lay_out(v)) for v in reversed(variations)] == forward[::-1]
