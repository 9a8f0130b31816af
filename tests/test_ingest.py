"""The line check of a preannotated record against AnnotatedToken's own rule.

Build annotates only the records that can reach a manifest, but every line
must still fail the way annotation would fail. The check scans each token's
lemma or text instead of building the token; these properties hold it to
the annotation path it stands in for.
"""

import json
import tempfile
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cultnovelty.annotation import PreannotatedProvider, filter_stream
from cultnovelty.errors import EmptyAfterFilter, ParseError
from cultnovelty.ingest import read_documents

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
