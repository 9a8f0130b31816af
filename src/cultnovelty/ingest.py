"""JSONL corpus ingestion.

One document per line: {"id", "title", "country", "ingredients": [...],
"text": "..."} plus, when pre-annotated, "tokens": [{"lemma", "pos"}, ...].
Other keys, such as "product", are ignored: dish matching decides which
dish a record belongs to. Text is NFC-normalized; documents the
POS filter empties are dropped with a warning rather than scored. Every
line is checked, but only the records a caller picks are annotated, so at
build time the dropped-after-filter warnings name dish-matched records only.
"""

from __future__ import annotations

import json
import logging
import re
import unicodedata
from dataclasses import replace
from pathlib import Path
from typing import Callable, Collection, NamedTuple, Optional, Union

from .annotation import NaiveProvider, PreannotatedProvider, coarse_tag, filter_stream
from .corpus import RETAINED_TAGS, Document
from .errors import EmptyAfterFilter, ParseError

log = logging.getLogger(__name__)

PROVIDERS = ("preannotated", "naive")

_WS_RE = re.compile(r"\s+")
_SPACE_RE = re.compile(r"\s")  # the characters str.isspace() accepts


def normalize_ingredient(raw: str) -> str:
    """Lowercase, trim, and collapse internal whitespace."""
    return _WS_RE.sub(" ", raw.strip().lower())


def _nfc(value: str) -> str:
    return unicodedata.normalize("NFC", value)


def check_country(country: str, where: str) -> str:
    """Return the country if it can name a manifest file; raise ParseError if not.

    Build writes one manifest per (dish, origin) named after the origin, so
    a path separator, a control character (NUL included), "." or ".."
    would escape or break that file name.
    """
    if country in (".", "..") or any(
        c in "/\\" or unicodedata.category(c) == "Cc" for c in country
    ):
        raise ParseError(f"{where}: country {country!r} cannot name a manifest file")
    return country


class _Line(NamedTuple):
    """One checked corpus line, not yet annotated."""

    doc: Document  # no body tokens or ingredients yet
    where: str
    text: str  # what the naive provider tags
    entries: Optional[list[dict[str, str]]]  # the preannotated tokens, NFC strings
    ingredients: list  # as the record holds them


def _check_record(record: dict, doc_id: str, provider_name: str, where: str) -> _Line:
    """Every check a corpus line must pass, whether or not it is annotated later.

    The lemma rule of AnnotatedToken (non-empty, no whitespace) runs on
    every preannotated token of a retained tag, as a scan of its lemma or,
    without one, its text: lowercasing and the lemmatizer neither add nor
    remove whitespace, and an empty lemma is filtered out, not rejected.
    The naive provider's lemmas are runs of word characters.
    """
    title = record.get("title")
    title = "" if title is None else _nfc(str(title))
    raw_text = _nfc(str(record.get("text", "")))
    entries = None
    if provider_name == "preannotated":
        tokens = record.get("tokens")
        if tokens is None:
            raise ParseError(f"{where}: provider is preannotated but record has no tokens")
        if not isinstance(tokens, list):
            raise ParseError(f"{where}: tokens must be a JSON array")
        entries = []
        for i, tok in enumerate(tokens):
            if not isinstance(tok, dict):
                raise ParseError(f"{where}: token {i} is not a JSON object")
            if "lemma" not in tok and "text" not in tok:
                raise ParseError(f"{where}: token {i} has neither lemma nor text")
            entry = {k: _nfc(str(v)) for k, v in tok.items()}
            surface = entry["lemma"] if "lemma" in entry else entry["text"]
            if _SPACE_RE.search(surface) and coarse_tag(entry.get("pos", "OTHER")) in RETAINED_TAGS:
                lemma = PreannotatedProvider([entry]).token_stream(raw_text)[0][0]
                raise ParseError(f"{where}: lemma must be non-empty without whitespace: {lemma!r}")
            entries.append(entry)
    elif not raw_text.strip():
        raise ParseError(f"{where}: provider is naive but record has no text")

    country = record.get("country")
    country = "UNKNOWN" if country is None else str(country).strip().upper() or "UNKNOWN"
    check_country(country, where)
    ingredients = record.get("ingredients", [])
    if not isinstance(ingredients, list):
        raise ParseError(f"{where}: ingredients must be a JSON array")
    doc = Document(id=doc_id, title=title, body_tokens=(), country=country)
    return _Line(doc, where, raw_text, entries, ingredients)


def _annotate(line: _Line) -> Document:
    """The line's document with its POS-filtered body and normalized
    ingredients; raises EmptyAfterFilter."""
    provider = NaiveProvider() if line.entries is None else PreannotatedProvider(line.entries)
    ingredients = frozenset(
        normalize_ingredient(_nfc(str(ing))) for ing in line.ingredients if str(ing).strip()
    )
    return replace(
        line.doc, body_tokens=filter_stream(provider.token_stream(line.text)), ingredients=ingredients
    )


def read_documents(
    path: Union[str, Path],
    provider_name: str = "preannotated",
    ids: Union[None, Collection[str], Callable[[list[Document]], Collection[str]]] = None,
) -> list[Document]:
    """Read a JSONL corpus; returns the annotated documents in file order.

    Every line is parsed once and checked for JSON and an id that no earlier
    line holds. ``ids`` picks the records to annotate: None for all, a
    collection of NFC ids, or a function that gets every record as a
    Document with no body tokens yet, in file order, and returns such a
    collection. The record checks (see _check_record) run on every line,
    except that a collection limits them to its own ids: score passes one,
    and its manifests hold the digest of corpus bytes that build checked in
    full. Build passes its title screen, so its dropped-after-filter
    warnings name dish-matched records only. Documents emptied by the POS
    filter are dropped and logged. Malformed lines and duplicate ids are
    hard errors with line context.
    """
    if provider_name not in PROVIDERS:
        raise ValueError(f"unknown annotation provider {provider_name!r}")
    path = Path(path)
    check_all = ids is None or callable(ids)
    lines: list[_Line] = []
    seen_ids: set[str] = set()
    with path.open(encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{line_no}"
            try:
                record = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise ParseError(f"{where}: invalid JSON ({exc})") from exc
            if not isinstance(record, dict):
                raise ParseError(f"{where}: expected a JSON object")
            if "id" not in record:
                raise ParseError(f"{where}: missing required field 'id'")
            doc_id = _nfc(str(record["id"]))
            if doc_id in seen_ids:
                raise ParseError(f"{where}: duplicate document id {doc_id!r}")
            seen_ids.add(doc_id)
            if check_all or doc_id in ids:
                lines.append(_check_record(record, doc_id, provider_name, where))
    if callable(ids):
        ids = ids([line.doc for line in lines])
    documents: list[Document] = []
    dropped = 0
    for line in lines:
        if ids is not None and line.doc.id not in ids:
            continue
        try:
            documents.append(_annotate(line))
        except EmptyAfterFilter:
            log.warning("%s: dropped document %r (empty after POS filter)", line.where, line.doc.id)
            dropped += 1
    if dropped:
        log.warning("%s: dropped %d empty-after-filter document(s)", path, dropped)
    return documents
