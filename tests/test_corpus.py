import random
from collections import Counter

import pytest

from cultnovelty.corpus import (
    AnnotatedToken,
    TokenDistribution,
    aggregate_distribution,
    control_variables,
)
from cultnovelty.errors import EmptyCorpus, EmptyDocument
from cultnovelty.metrics import build_knowledge_space

from conftest import make_doc


class TestAnnotatedToken:
    def test_rejects_empty_lemma(self):
        with pytest.raises(ValueError):
            AnnotatedToken(lemma="", pos="NOUN")

    def test_rejects_whitespace(self):
        with pytest.raises(ValueError):
            AnnotatedToken(lemma="two words", pos="NOUN")

    def test_rejects_unknown_tag(self):
        with pytest.raises(ValueError):
            AnnotatedToken(lemma="x", pos="DET")


class TestTokenDistribution:
    def test_from_counts(self):
        d = TokenDistribution.from_counts({"a": 2, "b": 1, "c": 1})
        assert d.probs == {"a": 0.5, "b": 0.25, "c": 0.25}
        assert d.token_total == 4

    def test_rejects_zero_probability(self):
        with pytest.raises(ValueError):
            TokenDistribution(probs={"a": 1.0, "b": 0.0}, token_total=2)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            TokenDistribution(probs={"a": 0.7}, token_total=1)

    def test_rejects_zero_total(self):
        with pytest.raises(ValueError):
            TokenDistribution(probs={"a": 1.0}, token_total=0)

    def test_from_document_counts(self):
        d = TokenDistribution.from_counts(Counter(make_doc("d", ["a", "b", "a", "c"]).lemmas))
        assert d.probs == {"a": 0.5, "b": 0.25, "c": 0.25}
        assert d.token_total == 4

    def test_from_counts_singleton(self):
        d = TokenDistribution.from_counts({"x": 1})
        assert d.probs == {"x": 1.0}
        assert d.token_total == 1

    def test_from_counts_rejects_empty_counts(self):
        for counts in ({}, {"a": 0}):
            with pytest.raises(ValueError):
                TokenDistribution.from_counts(counts)

    def test_from_counts_normalization_property(self):
        rng = random.Random(11)
        for trial in range(50):
            lemmas = rng.choices("abcdefgh", k=rng.randint(1, 40))
            d = TokenDistribution.from_counts(Counter(lemmas))
            assert abs(sum(d.probs.values()) - 1.0) <= 1e-9
            assert all(p > 0 for p in d.probs.values())


class TestAggregateDistribution:
    def test_symmetric_pooling(self):
        d = aggregate_distribution([make_doc("1", ["a", "a"]), make_doc("2", ["b", "b"])])
        assert d.probs == {"a": 0.5, "b": 0.5}

    def test_pooled_counts_not_mean_of_distributions(self):
        # pooled tally: a appears 2/4 times, b 2/4; the mean of the two
        # per-document distributions would give a = 0.625 instead
        d = aggregate_distribution([make_doc("1", ["a"]), make_doc("2", ["a", "b", "b"])])
        assert d.probs == {"a": 0.5, "b": 0.5}
        assert d.token_total == 4

    def test_single_doc_is_its_own_distribution(self):
        doc = make_doc("1", ["a", "b", "b"])
        assert aggregate_distribution([doc]).probs == TokenDistribution.from_counts(Counter(doc.lemmas)).probs

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            aggregate_distribution([])

    def test_matches_weighted_average_on_random_corpora(self):
        rng = random.Random(5)
        for trial in range(30):
            docs = [
                make_doc(f"d{trial}_{i}", rng.choices("abcde", k=rng.randint(1, 20)))
                for i in range(rng.randint(1, 6))
            ]
            agg = aggregate_distribution(docs)
            total = sum(len(d.body_tokens) for d in docs)
            for lemma in agg.probs:
                weighted = sum(
                    len(d.body_tokens) * TokenDistribution.from_counts(Counter(d.lemmas)).get(lemma)
                    for d in docs
                )
                assert agg.probs[lemma] == pytest.approx(weighted / total, abs=1e-12)


class TestControlVariables:
    @pytest.fixture
    def kb(self):
        docs = [
            make_doc("k1", ["a"] * 30 + ["b"] * 30, ingredients=frozenset({"salt", "flour"})),
            make_doc("k2", ["a"] * 30 + ["c"] * 30, ingredients=frozenset({"salt"})),
        ]
        return build_knowledge_space(docs)

    def test_new_ingredient_ratio(self, kb):
        var = make_doc("v", ["a", "b"], ingredients=frozenset({"salt", "mango"}))
        assert control_variables(var, kb).new_ingredient_ratio == 0.5

    def test_no_ingredients_defaults_to_zero(self, kb):
        var = make_doc("v", ["a", "b"])
        assert control_variables(var, kb).new_ingredient_ratio == 0.0

    def test_lexical_diversity(self, kb):
        var = make_doc("v", ["a", "b", "a"])
        assert control_variables(var, kb).lexical_diversity == pytest.approx(2 / 3)

    def test_length_ratio(self, kb):
        var = make_doc("v", ["a"] * 30)
        assert control_variables(var, kb).length_ratio == pytest.approx(0.5)

    def test_empty_variation_rejected(self, kb):
        with pytest.raises(EmptyDocument):
            control_variables(make_doc("v", []), kb)

    def test_ranges(self, kb):
        rng = random.Random(3)
        for trial in range(40):
            var = make_doc(
                f"v{trial}",
                rng.choices("abcdef", k=rng.randint(1, 50)),
                ingredients=frozenset(rng.sample(["salt", "flour", "x", "y", "z"], rng.randint(0, 5))),
            )
            cv = control_variables(var, kb)
            assert 0.0 < cv.lexical_diversity <= 1.0
            assert 0.0 <= cv.new_ingredient_ratio <= 1.0
            assert cv.length_ratio > 0.0
