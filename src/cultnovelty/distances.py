"""Country registry and the four country-pair cultural distances.

Each kind is one ``DistanceMatrix``, and ``distance_matrices`` builds them
all. IW (Euclidean on the traditional/survival cultural map) and GEO
(haversine between capitals) are computed from the registry's coordinates
over every pair of its countries; linguistic and religious are loaded from
user-supplied CSV files. Every matrix holds the registry's countries and
follows one country rule: a country outside the registry has no distance of
any kind, not even to itself, and a registry country is at distance 0 from
itself, whether or not it has coordinates or a file lists its self-pair.
Other unknown pairs are reported, never imputed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Mapping, Optional, Union

from .errors import MissingCoordinates, ParseError, UnknownCountry
from .ingest import check_country, parse_json

EARTH_RADIUS_KM = 6371.0
DISTANCE_KINDS = ("iw", "geo", "linguistic", "religious")


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
        for value in (self.iw_traditional, self.iw_survival):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{self.iso}: cultural-map coordinate {value} is not finite")

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


def _coordinate_pair(entry: dict, key: str, where: str) -> tuple[Optional[float], Optional[float]]:
    """An entry's two coordinates under key: absent or null, or exactly two numbers."""
    value = entry.get(key)
    if value is None:
        return None, None
    if not (isinstance(value, list) and len(value) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
        raise ParseError(f"{where}: {key} must be null or a JSON array of two numbers")
    try:
        return float(value[0]), float(value[1])
    except OverflowError as exc:
        raise ParseError(f"{where}: {key} coordinate out of range ({exc})") from exc


BUNDLED_REGISTRY = "<bundled registry>"  # the source name of the registry shipped with the package


def bundled_registry():
    """The registry file shipped with the package, as an importlib.resources Traversable."""
    return resources.files("cultnovelty.data").joinpath("country_registry_v1.json")


def load_registry(path: Optional[Union[str, Path]] = None) -> Registry:
    """Load a registry JSON file; without a path, the bundled sample registry.

    The bundled file carries approximate coordinates for standalone runs;
    analyses against a specific survey wave should pass their own file.
    """
    if path is None:
        raw = bundled_registry().read_text("utf-8")
        source = BUNDLED_REGISTRY
    else:
        source = str(path)
        raw = Path(path).read_text("utf-8")
    entries = parse_json(raw, source, "registry", list)

    records = []
    first: dict[str, int] = {}  # the entry that holds each ISO
    for i, entry in enumerate(entries):
        where = f"{source}: entry {i}"
        if not isinstance(entry, dict):
            raise ParseError(f"{where}: must be a JSON object")
        # a blank surface would match any title with a standalone punctuation mark
        for key in ("iso", "name"):
            if not isinstance(entry.get(key), str) or not entry[key].strip():
                raise ParseError(f"{where}: {key} must be a non-blank string")
        demonyms = entry.get("demonyms", [])
        if not isinstance(demonyms, list) or not all(isinstance(d, str) and d.strip() for d in demonyms):
            raise ParseError(f"{where}: demonyms must be a JSON array of non-blank strings")
        iso = check_country(entry["iso"], where)
        if first.setdefault(iso, i) != i:
            raise ParseError(f"{where}: iso {iso!r} repeats entry {first[iso]}")
        capital, iw = (_coordinate_pair(entry, key, where) for key in ("capital", "iw"))
        try:
            records.append(
                CountryRecord(
                    iso=iso,
                    name=entry["name"],
                    demonyms=frozenset(demonyms),
                    capital_lat=capital[0],
                    capital_lon=capital[1],
                    iw_traditional=iw[0],
                    iw_survival=iw[1],
                )
            )
        except ValueError as exc:
            raise ParseError(f"{where}: {exc}") from exc
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
    """Symmetric sparse country-pair distance table over a registry's countries.

    ``get`` gives None when either country is outside the registry, 0 for a
    registry country paired with itself whether or not its self-pair is
    listed (the loader rejects any other self-distance), and the listed
    entry, or None, for any other pair.
    """

    entries: Mapping[tuple[str, str], float]
    countries: frozenset[str]

    def get(self, a: str, b: str) -> Optional[float]:
        if a not in self.countries or b not in self.countries:
            return None
        if a == b:
            return 0.0
        return self.entries.get(_pair_key(a, b))

    def __len__(self) -> int:
        return len(self.entries)


def load_distance_matrix(path: Union[str, Path], registry: Registry) -> DistanceMatrix:
    """Load a CSV distance file with header iso_a,iso_b,distance.

    Duplicate unordered pairs with conflicting values and ISO codes absent
    from the registry raise ParseError, as does any other malformed line.
    """
    entries: dict[tuple[str, str], float] = {}
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return DistanceMatrix(entries={}, countries=frozenset(registry))
        if [c.strip().lower() for c in header] != ["iso_a", "iso_b", "distance"]:
            raise ParseError(f"{path}: expected header iso_a,iso_b,distance, got {header}")
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 3:
                raise ParseError(f"{path}:{line_no}: expected 3 columns, got {len(row)}")
            iso_a, iso_b = (check_country(iso, f"{path}:{line_no}") for iso in row[:2])
            for iso in (iso_a, iso_b):
                if iso not in registry:
                    raise ParseError(f"{path}:{line_no}: unknown ISO code {iso!r}")
            try:
                value = float(row[2])
            except ValueError:
                value = math.nan
            if not (math.isfinite(value) and value >= 0.0):
                raise ParseError(f"{path}:{line_no}: bad distance {row[2]!r} (need finite, >= 0)")
            if iso_a == iso_b and value != 0.0:
                raise ParseError(f"{path}:{line_no}: nonzero self-distance for {iso_a}")
            key = _pair_key(iso_a, iso_b)
            if key in entries and entries[key] != value:
                raise ParseError(f"{path}:{line_no}: pair {key} already set to {entries[key]}, got {value}")
            entries[key] = value
    return DistanceMatrix(entries=entries, countries=frozenset(registry))


def compute_matrix(registry: Registry, kind: str) -> DistanceMatrix:
    """IW or GEO matrix over every registry pair with the needed coordinates."""
    if kind not in ("iw", "geo"):
        raise ValueError("compute_matrix only builds iw or geo matrices")
    fn = iw_distance if kind == "iw" else geo_distance
    entries: dict[tuple[str, str], float] = {}
    isos = list(registry)
    for i, a in enumerate(isos):
        for b in isos[i + 1 :]:
            try:
                entries[_pair_key(a, b)] = fn(registry.get(a), registry.get(b))
            except MissingCoordinates:
                continue
    return DistanceMatrix(entries=entries, countries=frozenset(registry))


def distance_matrices(
    registry: Registry,
    linguistic_path: Optional[Union[str, Path]] = None,
    religious_path: Optional[Union[str, Path]] = None,
) -> dict[str, DistanceMatrix]:
    """Each distance kind's matrix, in DISTANCE_KINDS order; a kind without a file is left out."""
    matrices = {kind: compute_matrix(registry, kind) for kind in ("iw", "geo")}
    for kind, path in (("linguistic", linguistic_path), ("religious", religious_path)):
        if path:
            matrices[kind] = load_distance_matrix(path, registry)
    return matrices
