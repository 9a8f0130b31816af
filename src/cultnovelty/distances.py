"""Country registry and the four country-pair cultural distances.

Traditional/survival coordinates and capital positions feed the two
computed distances (Euclidean on the cultural map, haversine between
capitals); linguistic and religious distances are load-only CSV matrices
from user-supplied files. Unknown pairs are reported, never imputed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Mapping, Optional, Union

from .errors import ConflictingEntry, MissingCoordinates, ParseError, UnknownCountry

EARTH_RADIUS_KM = 6371.0


@dataclass(frozen=True)
class CountryRecord:
    """One registry entry: identity plus cultural-map and capital coordinates."""

    iso: str
    name: str
    demonyms: frozenset[str]
    capital_lat: Optional[float] = None
    capital_lon: Optional[float] = None
    iw_traditional: Optional[float] = None
    iw_survival: Optional[float] = None

    def __post_init__(self) -> None:
        if self.capital_lat is not None and not -90.0 <= self.capital_lat <= 90.0:
            raise ValueError(f"{self.iso}: latitude {self.capital_lat} out of range")
        if self.capital_lon is not None and not -180.0 <= self.capital_lon <= 180.0:
            raise ValueError(f"{self.iso}: longitude {self.capital_lon} out of range")

    @property
    def surfaces(self) -> frozenset[str]:
        """Name and demonyms, the strings country detection scans for."""
        return frozenset({self.name}) | self.demonyms


class Registry:
    """Immutable ISO-indexed collection of country records."""

    def __init__(self, records: list[CountryRecord]):
        by_iso: dict[str, CountryRecord] = {}
        for record in records:
            if record.iso in by_iso:
                raise ParseError(f"duplicate registry entry for {record.iso}")
            by_iso[record.iso] = record
        self._by_iso = by_iso

    def __contains__(self, iso: str) -> bool:
        return iso in self._by_iso

    def __iter__(self):
        return iter(sorted(self._by_iso))

    def __len__(self) -> int:
        return len(self._by_iso)

    def get(self, iso: str) -> CountryRecord:
        try:
            return self._by_iso[iso]
        except KeyError:
            raise UnknownCountry(f"no registry entry for {iso!r}") from None

    def records(self) -> list[CountryRecord]:
        return [self._by_iso[iso] for iso in sorted(self._by_iso)]


def load_registry(path: Optional[Union[str, Path]] = None) -> Registry:
    """Load a registry JSON file; without a path, the bundled sample registry.

    The bundled file carries approximate coordinates for standalone runs;
    analyses against a specific survey wave should pass their own file.
    """
    if path is None:
        raw = resources.files("cultnovelty.data").joinpath(
            "country_registry_v1.json"
        ).read_text("utf-8")
        source = "<bundled registry>"
    else:
        source = str(path)
        raw = Path(path).read_text("utf-8")
    try:
        entries = json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"{source}: invalid JSON ({exc})") from exc
    if not isinstance(entries, list):
        raise ParseError(f"{source}: expected a JSON array of country entries")

    records = []
    for i, entry in enumerate(entries):
        try:
            capital = entry.get("capital")
            iw = entry.get("iw")
            records.append(
                CountryRecord(
                    iso=str(entry["iso"]).upper(),
                    name=str(entry["name"]),
                    demonyms=frozenset(str(d) for d in entry.get("demonyms", [])),
                    capital_lat=float(capital[0]) if capital else None,
                    capital_lon=float(capital[1]) if capital else None,
                    iw_traditional=float(iw[0]) if iw else None,
                    iw_survival=float(iw[1]) if iw else None,
                )
            )
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise ParseError(f"{source}: entry {i}: {exc}") from exc
    return Registry(records)


def iw_distance(a: CountryRecord, b: CountryRecord) -> float:
    """Euclidean distance between two countries on the two-axis cultural map."""
    if a.iw_traditional is None or a.iw_survival is None:
        raise MissingCoordinates(f"{a.iso} has no cultural-map coordinates")
    if b.iw_traditional is None or b.iw_survival is None:
        raise MissingCoordinates(f"{b.iso} has no cultural-map coordinates")
    return math.hypot(a.iw_traditional - b.iw_traditional, a.iw_survival - b.iw_survival)


def geo_distance(a: CountryRecord, b: CountryRecord) -> float:
    """Great-circle (haversine) distance in kilometers between the capitals."""
    for rec in (a, b):
        if rec.capital_lat is None or rec.capital_lon is None:
            raise MissingCoordinates(f"{rec.iso} has no capital coordinates")
    lat1, lon1 = math.radians(a.capital_lat), math.radians(a.capital_lon)
    lat2, lon2 = math.radians(b.capital_lat), math.radians(b.capital_lon)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def _pair_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric sparse country-pair distance table."""

    entries: Mapping[tuple[str, str], float]

    def get(self, a: str, b: str) -> Optional[float]:
        return self.entries.get(_pair_key(a, b))

    def __len__(self) -> int:
        return len(self.entries)


def load_distance_matrix(path: Union[str, Path], registry: Registry) -> DistanceMatrix:
    """Load a CSV distance file with header iso_a,iso_b,distance.

    Duplicate unordered pairs with conflicting values and ISO codes absent
    from the registry are hard errors.
    """
    entries: dict[tuple[str, str], float] = {}
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return DistanceMatrix(entries={})
        if [c.strip().lower() for c in header] != ["iso_a", "iso_b", "distance"]:
            raise ParseError(f"{path}: expected header iso_a,iso_b,distance, got {header}")
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 3:
                raise ParseError(f"{path}:{line_no}: expected 3 columns, got {len(row)}")
            iso_a, iso_b = row[0].strip().upper(), row[1].strip().upper()
            for iso in (iso_a, iso_b):
                if iso not in registry:
                    raise UnknownCountry(f"{path}:{line_no}: unknown ISO code {iso!r}")
            try:
                value = float(row[2])
            except ValueError as exc:
                raise ParseError(f"{path}:{line_no}: bad distance {row[2]!r}") from exc
            if value < 0.0:
                raise ParseError(f"{path}:{line_no}: negative distance {value}")
            if iso_a == iso_b and value != 0.0:
                raise ParseError(f"{path}:{line_no}: nonzero self-distance for {iso_a}")
            key = _pair_key(iso_a, iso_b)
            if key in entries and entries[key] != value:
                raise ConflictingEntry(
                    f"{path}:{line_no}: pair {key} already set to {entries[key]}, got {value}"
                )
            entries[key] = value
    return DistanceMatrix(entries=entries)


def compute_matrix(registry: Registry, kind: str) -> DistanceMatrix:
    """IW or GEO matrix over every registry pair with the needed coordinates."""
    if kind not in ("IW", "GEO"):
        raise ValueError("compute_matrix only builds IW or GEO matrices")
    fn = iw_distance if kind == "IW" else geo_distance
    entries: dict[tuple[str, str], float] = {}
    isos = list(registry)
    for i, a in enumerate(isos):
        for b in isos[i + 1 :]:
            try:
                entries[_pair_key(a, b)] = fn(registry.get(a), registry.get(b))
            except MissingCoordinates:
                continue
    return DistanceMatrix(entries=entries)
