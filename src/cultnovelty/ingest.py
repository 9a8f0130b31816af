"""JSONL corpus ingestion.

One document per line: {"id", "title", "country", "product",
"ingredients": [...], "text": "..."} plus, when pre-annotated,
"tokens": [{"lemma", "pos"}, ...]. Text is NFC-normalized; documents the
POS filter empties are dropped with a warning rather than scored.
"""

from __future__ import annotations

import json
import logging
import re
import unicodedata
from pathlib import Path
from typing import Collection, Optional, Union

from .annotation import NaiveProvider, PreannotatedProvider, filter_stream
from .corpus import Document
from .errors import EmptyAfterFilter, ParseError

log = logging.getLogger(__name__)

PROVIDERS = ("preannotated", "naive")

_WS_RE = re.compile(r"\s+")


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


def _document_from_record(record: dict, doc_id: str, provider_name: str, where: str) -> Document:
    title = record.get("title")
    title = "" if title is None else _nfc(str(title))
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
            entries.append({k: _nfc(str(v)) for k, v in tok.items()})
        provider = PreannotatedProvider(entries)
        raw_text = _nfc(str(record.get("text", "")))
    else:
        raw_text = _nfc(str(record.get("text", "")))
        if not raw_text.strip():
            raise ParseError(f"{where}: provider is naive but record has no text")
        provider = NaiveProvider()

    try:
        body = filter_stream(provider.token_stream(raw_text))
    except ValueError as exc:  # a retained lemma AnnotatedToken rejects
        raise ParseError(f"{where}: {exc}") from exc

    country = record.get("country")
    country = "UNKNOWN" if country is None else str(country).strip().upper() or "UNKNOWN"
    check_country(country, where)
    raw_ingredients = record.get("ingredients", [])
    if not isinstance(raw_ingredients, list):
        raise ParseError(f"{where}: ingredients must be a JSON array")
    ingredients = frozenset(
        normalize_ingredient(_nfc(str(ing))) for ing in raw_ingredients if str(ing).strip()
    )
    return Document(
        id=doc_id,
        title=title,
        body_tokens=body,
        country=country,
        product=str(record.get("product", "NONE")) or "NONE",
        ingredients=ingredients,
    )


def read_documents(
    path: Union[str, Path],
    provider_name: str = "preannotated",
    ids: Optional[Collection[str]] = None,
) -> list[Document]:
    """Read a JSONL corpus; returns documents in file order.

    Every line is parsed and checked for an id that no earlier line holds.
    With ``ids``, only the records whose NFC id is in it are annotated and
    returned. Documents emptied by the POS filter are dropped and logged.
    Malformed lines and duplicate ids are hard errors with line context.
    """
    if provider_name not in PROVIDERS:
        raise ValueError(f"unknown annotation provider {provider_name!r}")
    path = Path(path)
    documents: list[Document] = []
    seen_ids: set[str] = set()
    dropped = 0
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
            if ids is not None and doc_id not in ids:
                continue
            try:
                documents.append(_document_from_record(record, doc_id, provider_name, where))
            except EmptyAfterFilter:
                log.warning("%s: dropped document %r (empty after POS filter)", where, doc_id)
                dropped += 1
    if dropped:
        log.warning("%s: dropped %d empty-after-filter document(s)", path, dropped)
    return documents
