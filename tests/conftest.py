import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cultnovelty.corpus import AnnotatedToken, Document

FIXTURES = Path(__file__).parent / "fixtures"


def make_doc(doc_id, lemmas, pos="NOUN", **kwargs):
    tokens = tuple(AnnotatedToken(lemma=str(l), pos=pos) for l in lemmas)
    kwargs.setdefault("title", doc_id)
    return Document(id=doc_id, body_tokens=tokens, **kwargs)


@pytest.fixture
def fixtures_dir():
    return FIXTURES


@pytest.fixture
def mkdoc():
    return make_doc
