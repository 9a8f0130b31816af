"""Annotation providers: pre-annotated token streams and a naive fallback.

The canonical input carries tokens annotated by an external tagger; the
NAIVE provider exists so the tool runs standalone. It lowercases, strips
punctuation and stopwords, guesses a coarse tag from bundled lexicons
(unknown words default to NOUN), and applies a suffix-stripping lemmatizer.
Golden tests pin its behavior; matching a trained tagger is a non-goal.
"""

from __future__ import annotations

import re
from importlib import resources
from typing import Mapping, Sequence

from .corpus import RETAINED_TAGS, AnnotatedToken
from .errors import EmptyAfterFilter

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_NUMERIC_RE = re.compile(r"\d+(?:[./]\d+)?")
_VOWELS = set("aeiou")
# consonants safe to undouble after stripping -ing/-ed (chopping -> chop)
_UNDOUBLE = set("bdgmnprt")

# common finer-grained tags folded onto the coarse set
_TAG_MAP = {
    "NOUN": "NOUN",
    "PROPN": "NOUN",
    "VERB": "VERB",
    "ADJ": "ADJ",
    "ADV": "ADV",
    "NUM": "NUM",
}


def _load_wordlist(name: str) -> frozenset[str]:
    text = resources.files("cultnovelty.data").joinpath(name).read_text("utf-8")
    return frozenset(w.strip() for w in text.splitlines() if w.strip() and not w.startswith("#"))


STOPWORDS = _load_wordlist("stopwords.txt")
VERB_LEXICON = _load_wordlist("verbs.txt")
ADJ_LEXICON = _load_wordlist("adjectives.txt")
ADV_LEXICON = _load_wordlist("adverbs.txt")


def coarse_tag(tag: str) -> str:
    return _TAG_MAP.get(tag.upper(), "OTHER")


def _strip_plural(word: str) -> str:
    if len(word) > 4 and word.endswith("ies"):
        return word[:-3] + "y"
    if len(word) > 4 and word.endswith("sses"):
        return word[:-2]
    if len(word) > 3 and word.endswith("oes"):
        return word[:-2]
    if len(word) > 4 and word.endswith(("shes", "ches", "xes")):
        return word[:-2]
    if (
        len(word) > 3
        and word.endswith("s")
        and not word.endswith(("ss", "us", "is", "ous"))
    ):
        return word[:-1]
    return word


def _is_cvc(stem: str) -> bool:
    # consonant-vowel-consonant tail wants its silent e back (bak -> bake)
    if len(stem) < 3:
        return False
    a, b, c = stem[-3], stem[-2], stem[-1]
    return a not in _VOWELS and b in _VOWELS and c not in _VOWELS and c not in "wxy"


def _restore_stem(stem: str) -> str:
    if len(stem) >= 4 and stem[-1] == stem[-2] and stem[-1] in _UNDOUBLE:
        return stem[:-1]
    if stem.endswith(("c", "u", "v")) or _is_cvc(stem):
        return stem + "e"
    return stem


def _strip_verb_suffix(word: str) -> str:
    if word.endswith("ing") and len(word) >= 6:
        stem = word[:-3]
        if len(stem) >= 3:
            return _restore_stem(stem)
        return word
    if word.endswith("ed") and len(word) >= 5:
        stem = word[:-2]
        if stem.endswith("i"):
            return stem[:-1] + "y"
        if len(stem) >= 3:
            return _restore_stem(stem)
        return word
    if word.endswith("s"):
        stripped = _strip_plural(word)
        # reach the fixpoint in one pass so the pipeline stays idempotent
        if stripped != word and stripped.endswith(("ing", "ed")):
            return _strip_verb_suffix(stripped)
        return stripped
    return word


def lemmatize(word: str, pos: str) -> str:
    """Suffix-stripping lemmatizer; only nouns and verbs are reduced."""
    word = word.lower()
    if _NUMERIC_RE.fullmatch(word):
        return word
    if pos == "NOUN":
        return _strip_plural(word)
    if pos == "VERB":
        return _strip_verb_suffix(word)
    return word


def _guess(surface: str) -> tuple[str, str]:
    """Coarse tag and lemma for one lowercased surface token."""
    if _NUMERIC_RE.fullmatch(surface):
        return surface, "NUM"
    if surface in VERB_LEXICON:
        return surface, "VERB"
    if surface in ADJ_LEXICON:
        return surface, "ADJ"
    if surface in ADV_LEXICON:
        return surface, "ADV"
    if surface.endswith("ly") and len(surface) > 3:
        return surface, "ADV"
    if surface.endswith(("ing", "ed", "s")):
        candidate = _strip_verb_suffix(surface)
        if candidate != surface and candidate in VERB_LEXICON:
            return candidate, "VERB"
    return _strip_plural(surface), "NOUN"


class NaiveProvider:
    """Rule-based pipeline over raw text; deterministic and self-contained."""

    def token_stream(self, raw_text: str) -> list[tuple[str, str]]:
        stream: list[tuple[str, str]] = []
        for surface in _TOKEN_RE.findall(raw_text.lower()):
            if surface in STOPWORDS or (len(surface) == 1 and surface.isalpha()):
                stream.append((surface, "OTHER"))
                continue
            lemma, tag = _guess(surface)
            if lemma in STOPWORDS:
                tag = "OTHER"
            stream.append((lemma, tag))
        return stream


class PreannotatedProvider:
    """Token stream supplied with the document, e.g. from an external tagger.

    Each entry carries a tag plus either an explicit lemma or a surface
    form; surfaces without a lemma fall back to the tag-aware lemmatizer.
    """

    def __init__(self, entries: Sequence[Mapping[str, str]]):
        self._entries = entries

    def token_stream(self, raw_text: str) -> list[tuple[str, str]]:
        stream: list[tuple[str, str]] = []
        for entry in self._entries:
            tag = coarse_tag(str(entry.get("pos", "OTHER")))
            lemma = entry.get("lemma")
            if lemma is None:
                lemma = lemmatize(str(entry["text"]), tag)
            stream.append((str(lemma).lower(), tag))
        return stream


def filter_stream(stream: Sequence[tuple[str, str]]) -> tuple[AnnotatedToken, ...]:
    """Keep only content-word tokens of a pre-filter (lemma, tag) stream."""
    retained = [
        AnnotatedToken(lemma=lemma, pos=tag)
        for lemma, tag in stream
        if tag in RETAINED_TAGS and lemma
    ]
    if not retained:
        raise EmptyAfterFilter("no content-word token survived the filter")
    return tuple(retained)
