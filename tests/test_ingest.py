"""The line check of a preannotated record against AnnotatedToken's own rule,
and the round trip of the documents build writes for score.

Build annotates only the records that can reach a manifest, but every line
must still fail the way annotation would fail. The check scans each token's
lemma or text instead of building the token; these properties hold it to
the annotation path it stands in for. Score reads build's documents.jsonl
through the same reader, so what it reads back must be what build annotated.
"""

import json
import tempfile
import unicodedata
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cultnovelty.annotation import PreannotatedProvider, filter_stream
from cultnovelty.errors import EmptyAfterFilter, ParseError
from cultnovelty.ingest import check_country, read_documents, write_documents

# surfaces the lemmatizer strips suffixes from, blanks, Unicode spaces, and
# characters whose case mapping or NFC form changes their length
surfaces = st.sampled_from([
    "boxes", "tomatoes", "stirring", "chopped", "x ied", "ab s", "a s", "olive oil", "oil ",
    " ", "", "\t", "\u00a0", "\u2003", "\u3000", "\u0085", "I\u0307", "\u0130", "\u03a3\u0391\u03a3",
    "e\u0301", "10", "1/2",
]) | st.text(max_size=5)
tags = st.sampled_from(["NOUN", "noun", "PROPN", "VERB", "ADJ", "ADV", "NUM", "DET", "X", ""])
tokens = st.lists(
    st.fixed_dictionaries({"pos": tags}, optional={"lemma": surfaces, "text": surfaces})
    .filter(lambda t: "lemma" in t or "text" in t),
    min_size=1,
    max_size=5,
)


def read_one(tokens):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        path.write_text(json.dumps({"id": "d", "title": "t", "tokens": tokens}) + "\n", encoding="utf-8")
        return read_documents(path)


@settings(max_examples=300, deadline=None)
@given(tokens)
def test_line_check_rejects_what_annotation_rejects(tokens):
    entries = [{k: unicodedata.normalize("NFC", v) for k, v in tok.items()} for tok in tokens]
    try:
        expected = filter_stream(PreannotatedProvider(entries).token_stream(""))
    except ValueError as exc:  # AnnotatedToken's lemma rule
        with pytest.raises(ParseError, match="lemma must be non-empty without whitespace") as info:
            read_one(tokens)
        assert str(exc) in str(info.value)
    except EmptyAfterFilter:
        assert read_one(tokens) == []
    else:
        assert read_one(tokens)[0].body_tokens == expected


# any Unicode but whitespace, which no lemma may hold
words = st.text(min_size=1, max_size=6).filter(lambda w: not any(c.isspace() for c in w))
round_trip_tokens = st.lists(
    st.tuples(st.sampled_from(["lemma", "text"]), words, st.sampled_from(["NOUN", "VERB", "ADJ", "DET"])),
    min_size=1,
    max_size=5,
)
# U+03AA U+0301 lowers to U+03CA U+0301, which NFC composes to U+0390
GREEK = "\u03aa\u0301"


def written_and_read_back(record, provider):
    with tempfile.TemporaryDirectory() as tmp:
        corpus, documents = Path(tmp) / "corpus.jsonl", Path(tmp) / "documents.jsonl"
        corpus.write_text(json.dumps(record) + "\n", encoding="utf-8")
        docs = read_documents(corpus, provider)
        write_documents(documents, docs)
        return [(d.id, d.lemmas, d.ingredients) for d in docs], [
            (d.id, d.lemmas, d.ingredients) for d in read_documents(documents)
        ]


@settings(max_examples=200, deadline=None)
@given(round_trip_tokens, st.lists(st.text(max_size=8), max_size=4), st.text(min_size=1, max_size=30))
@example([("lemma", GREEK, "NOUN")], [GREEK], GREEK)
@example([("text", GREEK.lower(), "NOUN")], [" " + GREEK + "  Salt "], "Boxes of " + GREEK)
def test_written_documents_read_back_unchanged(tokens, ingredients, text):
    tokens = [{key: surface, "pos": pos} for key, surface, pos in tokens]
    record = {"id": "d", "ingredients": ingredients, "tokens": tokens, "text": text}
    annotated, read_back = written_and_read_back(record, "preannotated")
    assert read_back == annotated
    if text.strip():  # the naive provider rejects a blank text
        annotated, read_back = written_and_read_back(record, "naive")
        assert read_back == annotated


@pytest.mark.parametrize("raw,code", [("MA", "MA"), (" ma", "MA"), ("gr ", "GR"), ("\tjp\n", "JP"), ("  ", "")])
def test_country_codes_are_stripped_and_uppercased(raw, code):
    assert check_country(raw, "here") == code
