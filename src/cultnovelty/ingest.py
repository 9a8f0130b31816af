"""JSONL corpus ingestion, and parse_json, the parser of every JSON input.

One document per line: {"id", "title", "country", "ingredients": [...],
"text": "..."} plus, when pre-annotated, "tokens": [{"lemma", "pos"}, ...].
Other keys, such as "product", are ignored: dish matching decides which
dish a record belongs to. Text is NFC-normalized; documents the
POS filter empties are dropped with a warning rather than scored. Every
line is checked, but only the records a caller picks are annotated, so at
build time the dropped-after-filter warnings name dish-matched records only.
write_documents writes documents back as pre-annotated records (build's documents.jsonl).
"""

from __future__ import annotations

import json
import logging
import re
import unicodedata
from dataclasses import replace
from pathlib import Path
from typing import Callable, Collection, Iterable, NamedTuple, Optional, Union

from .annotation import NaiveProvider, PreannotatedProvider, coarse_tag, filter_stream, lower_nfc
from .corpus import RETAINED_TAGS, Document
from .errors import EmptyAfterFilter, ParseError

log = logging.getLogger(__name__)

PROVIDERS = ("preannotated", "naive")

_WS_RE = re.compile(r"\s+")
_SPACE_RE = re.compile(r"\s")  # the characters str.isspace() accepts


def normalize_ingredient(raw: str) -> str:
    """Trim, lowercase, NFC-normalize, and collapse internal whitespace."""
    return _WS_RE.sub(" ", lower_nfc(raw.strip()))


def _nfc(value: str) -> str:
    return unicodedata.normalize("NFC", value)


def parse_json(text: str, where: str, what: str, kind: type) -> Union[list, dict]:
    """The list or dict (kind) that a JSON text holds; raises ParseError naming where.

    ValueError covers JSONDecodeError and integer literals over Python's
    4,300-digit limit. The caller reads the file, so that a UnicodeDecodeError,
    also a ValueError, keeps its own message.
    """
    try:
        value = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{where}: invalid JSON ({exc})") from exc
    if not isinstance(value, kind):
        raise ParseError(f"{where}: {what} must be a JSON {'array' if kind is list else 'object'}")
    return value


def json_string(value, where: str, *field) -> str:
    """The value if it is a string; raises ParseError naming where and the field if not.

    The field's parts are joined only for the message, so that a check per
    corpus token builds no string.
    """
    if not isinstance(value, str):
        raise ParseError(f"{where}: {' '.join(map(str, field))} holds {value!r}, not a JSON string")
    return value


def check_country(country: str, where: str) -> str:
    """The code stripped and uppercased; raises ParseError if it cannot name a manifest file.

    Every country code read passes through here. Build writes one manifest
    per (dish, origin) named after the origin, so a path separator, a control
    character (NUL included), "." or ".." would escape or break that file name.
    """
    country = country.strip().upper()
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
    ingredients: list[str]  # as the record holds them


def _check_record(record: dict, doc_id: str, provider_name: str, where: str) -> _Line:
    """Every check a corpus line must pass, whether or not it is annotated later.

    The lemma rule of AnnotatedToken (non-empty, no whitespace) runs on
    every preannotated token of a retained tag, as a scan of its lemma or,
    without one, its text: lowercasing and the lemmatizer neither add nor
    remove whitespace, and an empty lemma is filtered out, not rejected.
    The naive provider's lemmas are runs of word characters.
    """
    title = record.get("title")
    title = "" if title is None else _nfc(json_string(title, where, "title"))
    raw_text = ""  # the preannotated provider reads only the tokens
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
            entry = {k: _nfc(json_string(tok[k], where, "token", i, k))
                     for k in ("lemma", "text", "pos") if k in tok}
            surface = entry["lemma"] if "lemma" in entry else entry["text"]
            if _SPACE_RE.search(surface) and coarse_tag(entry.get("pos", "OTHER")) in RETAINED_TAGS:
                lemma = PreannotatedProvider([entry]).token_stream("")[0][0]
                raise ParseError(f"{where}: lemma must be non-empty without whitespace: {lemma!r}")
            entries.append(entry)
    else:
        text = record.get("text")
        raw_text = "" if text is None else _nfc(json_string(text, where, "text"))
        if not raw_text.strip():
            raise ParseError(f"{where}: provider is naive but record has no text")

    country = record.get("country")
    country = "" if country is None else json_string(country, where, "country")
    country = check_country(country, where) or "UNKNOWN"
    ingredients = record.get("ingredients", [])
    if not isinstance(ingredients, list):
        raise ParseError(f"{where}: ingredients must be a JSON array")
    for ingredient in ingredients:
        json_string(ingredient, where, "ingredients")
    doc = Document(id=doc_id, title=title, body_tokens=(), country=country)
    return _Line(doc, where, raw_text, entries, ingredients)


def _annotate(line: _Line) -> Document:
    """The line's document with its POS-filtered body and normalized
    ingredients; raises EmptyAfterFilter."""
    provider = NaiveProvider() if line.entries is None else PreannotatedProvider(line.entries)
    ingredients = frozenset(normalize_ingredient(ing) for ing in line.ingredients if ing.strip())
    return replace(
        line.doc, body_tokens=filter_stream(provider.token_stream(line.text)), ingredients=ingredients
    )


def read_documents(
    path: Union[str, Path],
    provider_name: str = "preannotated",
    screen: Optional[Callable[[list[Document]], Collection[str]]] = None,
) -> list[Document]:
    """Read a JSONL corpus; returns the annotated documents in file order.

    Every line is parsed once and checked for JSON, an id, a non-blank
    string or an integer, that no earlier line holds, and the record checks
    of _check_record. ``screen`` picks the records to annotate: it gets
    every record as a Document with no body tokens yet, in file order, and
    returns the ids to keep; None keeps all. Build passes its title screen,
    so its dropped-after-filter warnings name dish-matched records only.
    Documents emptied by the POS filter are dropped and logged. Malformed
    lines and duplicate ids are hard errors with line context.
    """
    if provider_name not in PROVIDERS:
        raise ValueError(f"unknown annotation provider {provider_name!r}")
    path = Path(path)
    lines: list[_Line] = []
    seen_ids: set[str] = set()
    with path.open(encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{line_no}"
            record = parse_json(line, where, "record", dict)
            if "id" not in record:
                raise ParseError(f"{where}: missing required field 'id'")
            doc_id = record["id"]
            if isinstance(doc_id, bool) or not isinstance(doc_id, (str, int)):
                raise ParseError(f"{where}: id holds {doc_id!r}, not a JSON string or integer")
            doc_id = _nfc(str(doc_id))
            if not doc_id.strip():
                raise ParseError(f"{where}: id holds an empty or blank string")
            if doc_id in seen_ids:
                raise ParseError(f"{where}: duplicate document id {doc_id!r}")
            seen_ids.add(doc_id)
            lines.append(_check_record(record, doc_id, provider_name, where))
    keep = None if screen is None else screen([line.doc for line in lines])
    documents: list[Document] = []
    dropped = 0
    for line in lines:
        if keep is not None and line.doc.id not in keep:
            continue
        try:
            documents.append(_annotate(line))
        except EmptyAfterFilter:
            log.warning("%s: dropped document %r (empty after POS filter)", line.where, line.doc.id)
            dropped += 1
    if dropped:
        log.warning("%s: dropped %d empty-after-filter document(s)", path, dropped)
    return documents


def write_documents(path: Union[str, Path], docs: Iterable[Document]) -> None:
    """Write the documents, sorted by id, as the pre-annotated records read_documents reads back.

    Canonical JSON of the id, the sorted ingredients and the {lemma, pos}
    tokens; title and country are left out, as scoring reads neither.
    """
    with Path(path).open("w", encoding="utf-8") as fh:
        for doc in sorted(docs, key=lambda d: d.id):
            tokens = [{"lemma": tok.lemma, "pos": tok.pos} for tok in doc.body_tokens]
            record = {"id": doc.id, "ingredients": sorted(doc.ingredients), "tokens": tokens}
            fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
