import pytest

from cultnovelty.annotation import (
    NaiveProvider,
    PreannotatedProvider,
    coarse_tag,
    filter_stream,
    lemmatize,
)
from cultnovelty.errors import EmptyAfterFilter


def content_tokens(raw_text, provider):
    return filter_stream(provider.token_stream(raw_text))


def preannotated(*pairs):
    return PreannotatedProvider([{"text": w, "pos": t} for w, t in pairs])


class TestPreannotated:
    def test_determiner_removal(self):
        tokens = content_tokens(
            "Stir the couscous gently",
            preannotated(("Stir", "VERB"), ("the", "DET"), ("couscous", "NOUN"), ("gently", "ADV")),
        )
        assert [(t.lemma, t.pos) for t in tokens] == [
            ("stir", "VERB"),
            ("couscous", "NOUN"),
            ("gently", "ADV"),
        ]

    def test_nothing_retained(self):
        with pytest.raises(EmptyAfterFilter):
            content_tokens("the a of", preannotated(("the", "DET"), ("a", "DET"), ("of", "ADP")))

    def test_surface_fallback_lemmatization(self):
        tokens = content_tokens(
            "Add 2 sliced onions",
            preannotated(("Add", "VERB"), ("2", "NUM"), ("sliced", "ADJ"), ("onions", "NOUN")),
        )
        assert [(t.lemma, t.pos) for t in tokens] == [
            ("add", "VERB"),
            ("2", "NUM"),
            ("sliced", "ADJ"),
            ("onion", "NOUN"),
        ]

    def test_explicit_lemma_wins(self):
        provider = PreannotatedProvider([{"lemma": "Tomato", "pos": "NOUN"}])
        (token,) = content_tokens("Tomatoes", provider)
        assert token.lemma == "tomato"

    def test_fine_tags_fold_to_coarse(self):
        assert coarse_tag("PROPN") == "NOUN"
        assert coarse_tag("adj") == "ADJ"
        assert coarse_tag("AUX") == "OTHER"
        assert coarse_tag("DET") == "OTHER"


class TestLemmatizer:
    @pytest.mark.parametrize(
        "word,pos,expected",
        [
            ("onions", "NOUN", "onion"),
            ("berries", "NOUN", "berry"),
            ("tomatoes", "NOUN", "tomato"),
            ("dishes", "NOUN", "dish"),
            ("boxes", "NOUN", "box"),
            ("couscous", "NOUN", "couscous"),
            ("hummus", "NOUN", "hummus"),
            ("glass", "NOUN", "glass"),
            ("gas", "NOUN", "gas"),
            ("stirring", "VERB", "stir"),
            ("chopped", "VERB", "chop"),
            ("sliced", "VERB", "slice"),
            ("slicing", "VERB", "slice"),
            ("baking", "VERB", "bake"),
            ("cooking", "VERB", "cook"),
            ("fried", "VERB", "fry"),
            ("added", "VERB", "add"),
            ("serves", "VERB", "serve"),
            ("mixes", "VERB", "mix"),
            ("grilling", "VERB", "grill"),
            ("gently", "ADV", "gently"),
            ("2", "NUM", "2"),
            ("1/2", "NUM", "1/2"),
        ],
    )
    def test_cases(self, word, pos, expected):
        assert lemmatize(word, pos) == expected

    def test_idempotent_on_wordlist(self):
        words = [
            "onions", "berries", "tomatoes", "stirring", "chopped", "slicing",
            "couscous", "noodles", "layers", "sauces", "potatoes", "fillings",
            "simmering", "boiled", "draining", "seasons", "heated", "pans",
        ]
        for pos in ("NOUN", "VERB"):
            for word in words:
                once = lemmatize(word, pos)
                assert lemmatize(once, pos) == once


class TestNaiveProvider:
    def test_golden_sentence(self):
        tokens = content_tokens(
            "Add 2 sliced onions to the hot pan and stir gently.", NaiveProvider()
        )
        assert [(t.lemma, t.pos) for t in tokens] == [
            ("add", "VERB"),
            ("2", "NUM"),
            ("slice", "VERB"),
            ("onion", "NOUN"),
            ("hot", "ADJ"),
            ("pan", "NOUN"),
            ("stir", "VERB"),
            ("gently", "ADV"),
        ]

    def test_golden_sentence_two(self):
        tokens = content_tokens(
            "Cover the couscous with boiling water and leave it for 10 minutes.",
            NaiveProvider(),
        )
        assert [(t.lemma, t.pos) for t in tokens] == [
            ("cover", "VERB"),
            ("couscous", "NOUN"),
            ("boil", "VERB"),
            ("water", "NOUN"),
            ("leave", "VERB"),
            ("10", "NUM"),
            ("minute", "NOUN"),
        ]

    def test_stopwords_only_raises(self):
        with pytest.raises(EmptyAfterFilter):
            content_tokens("the of and to", NaiveProvider())

    def test_blank_text_raises(self):
        with pytest.raises(EmptyAfterFilter):
            content_tokens("   ", NaiveProvider())

    def test_numerals_pass_through(self):
        tokens = content_tokens("simmer 45 minutes", NaiveProvider())
        assert ("45", "NUM") in [(t.lemma, t.pos) for t in tokens]

    def test_idempotent_on_own_output(self):
        texts = [
            "Add 2 sliced onions to the hot pan and stir gently.",
            "Layer the lasagna noodles with ricotta and bake until golden.",
            "Chopped cilantro, diced tomatoes, and 3 crushed garlic cloves.",
            "Whisk the eggs slowly, pour into the pan, cover and simmer.",
        ]
        provider = NaiveProvider()
        for text in texts:
            first = content_tokens(text, provider)
            again = content_tokens(" ".join(t.lemma for t in first), provider)
            assert [(t.lemma, t.pos) for t in again] == [(t.lemma, t.pos) for t in first]

    def test_unknown_words_default_to_noun(self):
        (token,) = content_tokens("zlatko", NaiveProvider())
        assert token.pos == "NOUN"

    def test_deterministic(self):
        text = "Simmer the stew slowly over low heat for 20 minutes."
        assert content_tokens(text, NaiveProvider()) == content_tokens(text, NaiveProvider())
