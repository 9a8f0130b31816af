"""Dataset construction: country detection, dish matching, splits.

Reproduces the corpus-construction protocol on a user-supplied recipe
corpus: detect a country in each title, match dish aliases, and split
each (dish, origin) into a knowledge set and variations with a seeded
30% same-country hold-out.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Union

from .corpus import Document
from .distances import Registry
from .errors import IneligibleDish, ParseError
from .ingest import check_country, json_string, parse_json

DEFAULT_HOLDOUT = 0.3
MIN_KNOWLEDGE = 2
MIN_VARIATIONS = 2


@dataclass(frozen=True)
class DishSpec:
    """One curated dish: canonical name, local aliases, and exclusions."""

    canonical_name: str
    aliases: frozenset[str]
    excluded_patterns: frozenset[str] = frozenset()
    country_overrides: Optional[Mapping[str, str]] = None  # title pattern -> forced ISO

    def __post_init__(self) -> None:
        if not self.aliases:
            raise ValueError(f"dish {self.canonical_name!r} has no aliases")
        if self.country_overrides is None:
            object.__setattr__(self, "country_overrides", {})

    @classmethod
    def create(
        cls,
        canonical_name: str,
        aliases: Iterable[str] = (),
        excluded_patterns: Iterable[str] = (),
        country_overrides: Optional[Mapping[str, str]] = None,
    ) -> "DishSpec":
        alias_set = frozenset(a.lower() for a in aliases) | {canonical_name.lower()}
        return cls(
            canonical_name=canonical_name,
            aliases=alias_set,
            excluded_patterns=frozenset(p.lower() for p in excluded_patterns),
            country_overrides=dict(country_overrides or {}),
        )


@dataclass(frozen=True)
class CorpusSplit:
    """Knowledge/variation document split for one (dish, origin) pair."""

    knowledge: tuple[Document, ...]
    variations: tuple[Document, ...]


def dish_slug(name: str) -> str:
    """The dish part of its manifest file names, ``<slug>__<origin>.json``."""
    return "".join(c if c.isalnum() else "_" for c in name.lower())


def load_dish_specs(path: Union[str, Path]) -> list[DishSpec]:
    """Load a dish-spec JSON file: a list of {name, aliases, excluded, country_overrides}.

    Two entries whose names give the same slug would write the same
    manifest files, so they are rejected, as is a name, alias, exclusion,
    override pattern or override country that is not a non-blank string.
    """
    path = Path(path)
    entries = parse_json(path.read_text("utf-8"), str(path), "dish specs", list)
    specs = []
    slugs: dict[str, int] = {}
    for i, entry in enumerate(entries):
        where = f"{path}: dish entry {i}"
        if not isinstance(entry, dict):
            raise ParseError(f"{where}: must be a JSON object")
        # a string would otherwise be read letter by letter, and a list has no .items()
        for key, kind, name in (("aliases", list, "array"), ("excluded", list, "array"),
                                ("country_overrides", dict, "object")):
            if not isinstance(entry.get(key, kind()), kind):
                raise ParseError(f"{where}: {key} must be a JSON {name}")
        # str() would turn null into "None", and a blank surface would match, or
        # exclude, any title with a standalone punctuation mark
        overrides = entry.get("country_overrides", {})
        for key, values in (("name", [entry["name"]] if "name" in entry else []),
                            ("aliases", entry.get("aliases", [])),
                            ("excluded", entry.get("excluded", [])),
                            ("country_overrides", [*overrides, *overrides.values()])):
            for value in values:
                if not json_string(value, where, key).strip():
                    raise ParseError(f"{where}: {key} holds an empty or blank string")
        try:
            specs.append(
                DishSpec.create(
                    canonical_name=entry["name"],
                    aliases=entry.get("aliases", []),
                    excluded_patterns=entry.get("excluded", []),
                    country_overrides={k: check_country(v, where) for k, v in overrides.items()},
                )
            )
        except KeyError as exc:
            raise ParseError(f"{where}: {exc}") from exc
        slug = dish_slug(specs[-1].canonical_name)
        first = slugs.setdefault(slug, i)
        if first != i:
            raise ParseError(
                f"{path}: dish entries {first} ({specs[first].canonical_name!r}) and {i} "
                f"({specs[-1].canonical_name!r}) would share the manifest files {slug}__<origin>.json"
            )
    return specs


@lru_cache(maxsize=8192)
def _word_pattern(surface: str, plural: bool) -> re.Pattern:
    escaped = re.escape(surface.lower())
    suffix = r"(?:e?s)?" if plural else ""
    return re.compile(rf"(?<!\w){escaped}{suffix}(?!\w)")


def _find_word(surface: str, text_lower: str, plural: bool = False) -> Optional[re.Match]:
    return _word_pattern(surface, plural).search(text_lower)


@lru_cache(maxsize=8)
def _country_pattern(registry: Registry) -> tuple[re.Pattern, dict[str, str]]:
    """One zero-width alternation over every lowercased surface, longest first,
    and the smallest ISO that owns each surface."""
    owners: dict[str, str] = {}
    for record in registry.records():  # ascending ISO
        for surface in record.surfaces:
            owners.setdefault(surface.lower(), record.iso)
    if not owners:
        return re.compile(r"(?!)"), owners  # matches nothing
    alternation = "|".join(re.escape(s) for s in sorted(owners, key=lambda s: (-len(s), s)))
    return re.compile(rf"(?=(?<!\w)({alternation})(?!\w))"), owners


def detect_country(title: str, registry: Registry) -> Optional[str]:
    """Find the country a title names, by country name or demonym.

    Whole-word, case-insensitive matching; the longest matched surface
    wins, and exact ties resolve to the lexicographically smallest ISO.
    Returns None when no surface matches. The pattern consumes nothing, so
    finditer tries every position and reports the longest surface there.
    """
    pattern, owners = _country_pattern(registry)
    found = [m.group(1) for m in pattern.finditer(title.lower())]
    if not found:
        return None
    return min((-len(surface), owners[surface]) for surface in found)[1]


def match_dish(title: str, dish: DishSpec) -> bool:
    """True when an alias occurs as a whole word and no exclusion does.

    Aliases also match their simple plural (alias + "s"/"es").
    """
    title_lower = title.lower()
    for pattern in dish.excluded_patterns:
        if _find_word(pattern, title_lower, plural=True):
            return False
    return any(_find_word(alias, title_lower, plural=True) for alias in dish.aliases)


def forced_country(title: str, dish: DishSpec) -> Optional[str]:
    """Per-dish misattribution override: title pattern forces a country."""
    title_lower = title.lower()
    for pattern in sorted(dish.country_overrides):
        if _find_word(pattern, title_lower):
            return dish.country_overrides[pattern]
    return None


def matched_documents(corpus: Iterable[Document], dish: DishSpec) -> list[Document]:
    """Dish-matched documents with their effective country stamped on.

    Documents whose country stays UNKNOWN are excluded; the per-dish
    country overrides are applied here, after generic detection.
    """
    out = []
    for doc in sorted(corpus, key=lambda d: d.id):
        if not match_dish(doc.title, dish):
            continue
        country = forced_country(doc.title, dish) or doc.country
        if country == "UNKNOWN":
            continue
        out.append(replace(doc, country=country))
    return out


def build_split(
    matched: Sequence[Document],
    origin: str,
    holdout_fraction: float = DEFAULT_HOLDOUT,
    seed: int = 0,
) -> CorpusSplit:
    """Split one dish's matches into knowledge and variations for one origin.

    matched is the output of matched_documents: sorted by id, countries
    resolved. Origin-country matches are shuffled with the seeded
    generator and floor(holdout_fraction * n) of them join the variations
    alongside all other-country matches. Raises IneligibleDish, carrying
    both sizes, when either side ends up below its floor of two documents.
    """
    if not 0.0 <= holdout_fraction < 1.0:
        raise ValueError("holdout_fraction must lie in [0, 1)")
    origin_docs = [d for d in matched if d.country == origin]
    foreign_docs = [d for d in matched if d.country != origin]

    rng = random.Random(seed)
    shuffled = list(origin_docs)
    rng.shuffle(shuffled)
    n_holdout = math.floor(holdout_fraction * len(origin_docs))
    held_out = shuffled[:n_holdout]
    knowledge = shuffled[n_holdout:]
    variations = held_out + foreign_docs

    if len(knowledge) < MIN_KNOWLEDGE or len(variations) < MIN_VARIATIONS:
        raise IneligibleDish(
            f"{origin}: knowledge={len(knowledge)}, variations={len(variations)} "
            f"below floors ({MIN_KNOWLEDGE}/{MIN_VARIATIONS})",
            kb_size=len(knowledge),
            variation_count=len(variations),
        )
    return CorpusSplit(
        knowledge=tuple(sorted(knowledge, key=lambda d: d.id)),
        variations=tuple(sorted(variations, key=lambda d: d.id)),
    )
