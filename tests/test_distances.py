import math
import random

import pytest

from cultnovelty.distances import (
    CountryRecord,
    compute_matrix,
    geo_distance,
    iw_distance,
    load_distance_matrix,
    load_registry,
)
from cultnovelty.errors import (
    MissingCoordinates,
    ParseError,
    UnknownCountry,
)

from oracles import oracle_haversine


def record(iso, iw=None, capital=None):
    return CountryRecord(
        iso=iso,
        name=iso,
        demonyms=frozenset(),
        capital_lat=capital[0] if capital else None,
        capital_lon=capital[1] if capital else None,
        iw_traditional=iw[0] if iw else None,
        iw_survival=iw[1] if iw else None,
    )


class TestRegistry:
    def test_bundled_registry_loads(self):
        registry = load_registry()
        assert "FR" in registry and "DE" in registry
        fr = registry.get("FR")
        assert fr.name == "France"
        assert "French" in fr.demonyms

    def test_unknown_country(self):
        with pytest.raises(UnknownCountry):
            load_registry().get("ZZ")

    def test_rejects_duplicate_iso(self, tmp_path):
        path = tmp_path / "reg.json"
        path.write_text('[{"iso":"AA","name":"A"},{"iso":"AA","name":"A2"}]')
        with pytest.raises(ParseError):
            load_registry(path)

    def test_rejects_bad_latitude(self, tmp_path):
        path = tmp_path / "reg.json"
        path.write_text('[{"iso":"AA","name":"A","capital":[99.0, 0.0]}]')
        with pytest.raises(ParseError):
            load_registry(path)


class TestIwDistance:
    def test_self_zero(self):
        a = record("AA", iw=(1.0, -0.5))
        assert iw_distance(a, a) == 0.0

    def test_three_four_five(self):
        assert iw_distance(record("AA", iw=(0, 0)), record("BB", iw=(3, 4))) == 5.0

    def test_formula(self):
        value = iw_distance(record("AA", iw=(1.2, -0.5)), record("BB", iw=(-0.3, 0.9)))
        assert value == pytest.approx(math.sqrt(1.5**2 + 1.4**2), abs=1e-12)

    def test_translation_invariance(self):
        rng = random.Random(8)
        for _ in range(50):
            t1, s1, t2, s2, dt, ds = (rng.uniform(-2, 2) for _ in range(6))
            base = iw_distance(record("AA", iw=(t1, s1)), record("BB", iw=(t2, s2)))
            moved = iw_distance(
                record("AA", iw=(t1 + dt, s1 + ds)), record("BB", iw=(t2 + dt, s2 + ds))
            )
            assert moved == pytest.approx(base, abs=1e-9)

    def test_missing_coordinates(self):
        with pytest.raises(MissingCoordinates):
            iw_distance(record("AA"), record("BB", iw=(0, 0)))


class TestGeoDistance:
    def test_self_zero(self):
        paris = record("FR", capital=(48.8566, 2.3522))
        assert geo_distance(paris, paris) == 0.0

    def test_paris_berlin(self):
        registry = load_registry()
        value = geo_distance(registry.get("FR"), registry.get("DE"))
        assert value == pytest.approx(878, abs=2)
        oracle = oracle_haversine(48.8566, 2.3522, 52.5200, 13.4050)
        assert value == pytest.approx(oracle, abs=1e-6)

    def test_antipodal_half_circumference(self):
        a = record("AA", capital=(0.0, 0.0))
        b = record("BB", capital=(0.0, 180.0))
        assert geo_distance(a, b) == pytest.approx(math.pi * 6371.0, abs=1)

    def test_symmetry_and_triangle_inequality(self):
        rng = random.Random(77)
        for _ in range(100):
            points = [
                record(f"P{i}", capital=(rng.uniform(-90, 90), rng.uniform(-180, 180)))
                for i in range(3)
            ]
            ab = geo_distance(points[0], points[1])
            ba = geo_distance(points[1], points[0])
            bc = geo_distance(points[1], points[2])
            ac = geo_distance(points[0], points[2])
            assert ab == pytest.approx(ba, abs=1e-6)
            assert ac <= ab + bc + 1e-6

    def test_missing_coordinates(self):
        with pytest.raises(MissingCoordinates):
            geo_distance(record("AA"), record("BB", capital=(0, 0)))


class TestDistanceMatrix:
    def test_load_and_symmetric_lookup(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("iso_a,iso_b,distance\nFR,DE,0.4\n")
        matrix = load_distance_matrix(path, load_registry())
        assert matrix.get("DE", "FR") == 0.4
        assert matrix.get("FR", "DE") == 0.4

    def test_unlisted_self_pair_is_zero(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("iso_a,iso_b,distance\nFR,DE,0.4\n")
        matrix = load_distance_matrix(path, load_registry())
        assert matrix.get("FR", "FR") == 0.0 and matrix.get("IT", "IT") == 0.0
        assert matrix.get("IT", "DE") is None

    def test_conflicting_duplicate(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("iso_a,iso_b,distance\nFR,DE,0.4\nDE,FR,0.5\n")
        with pytest.raises(ParseError, match="d.csv:3: pair"):
            load_distance_matrix(path, load_registry())

    def test_consistent_duplicate_tolerated(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("iso_a,iso_b,distance\nFR,DE,0.4\nDE,FR,0.4\n")
        matrix = load_distance_matrix(path, load_registry())
        assert len(matrix) == 1

    def test_empty_file_reports_missing_pair(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("iso_a,iso_b,distance\n")
        matrix = load_distance_matrix(path, load_registry())
        assert len(matrix) == 0
        assert matrix.get("FR", "DE") is None

    def test_unknown_iso_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("iso_a,iso_b,distance\nFR,QQ,0.4\n")
        with pytest.raises(ParseError, match="d.csv:2: unknown ISO code 'QQ'"):
            load_distance_matrix(path, load_registry())

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,c\nFR,DE,0.4\n")
        with pytest.raises(ParseError):
            load_distance_matrix(path, load_registry())

    def test_nonzero_self_distance_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("iso_a,iso_b,distance\nFR,FR,0.2\n")
        with pytest.raises(ParseError):
            load_distance_matrix(path, load_registry())


class TestComputeMatrix:
    def test_iw_and_geo_cover_registry(self):
        registry = load_registry()
        for kind in ("IW", "GEO"):
            matrix = compute_matrix(registry, kind)
            n = len(registry)
            assert len(matrix) == n * (n - 1) // 2
            assert all(v >= 0 for v in matrix.entries.values())

    def test_rejects_loaded_kinds(self):
        with pytest.raises(ValueError):
            compute_matrix(load_registry(), "LINGUISTIC")
