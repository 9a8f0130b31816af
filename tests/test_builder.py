import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cultnovelty.builder import (
    DishSpec,
    build_split,
    detect_country,
    forced_country,
    load_dish_specs,
    match_dish,
    matched_documents,
)
from cultnovelty.distances import CountryRecord, Registry, load_registry
from cultnovelty.errors import ParseError

from conftest import make_doc
from oracles import oracle_detect_country


@pytest.fixture(scope="module")
def registry():
    return load_registry()


class TestDetectCountry:
    @pytest.mark.parametrize(
        "title,expected",
        [
            ("Moroccan Couscous", "MA"),
            ("Best Chocolate Cake", None),
            ("Jamaican Jerk Couscous", "JM"),
            ("Classic French Onion Soup", "FR"),
            ("Chinatown Noodle Soup", None),
            ("greek salad with feta", "GR"),
            ("South African Bobotie", "ZA"),
        ],
    )
    def test_detection(self, registry, title, expected):
        assert detect_country(title, registry) == expected

    def test_never_matches_inside_words(self, registry):
        assert detect_country("Spainish-inspired Chinatown burger", registry) is None

    def test_longest_surface_wins(self, registry):
        # "South African" must beat any shorter surface inside it
        assert detect_country("South African stew", registry) == "ZA"


BUNDLED = load_registry()
BUNDLED_SURFACES = sorted({s for r in BUNDLED.records() for s in r.surfaces})
# glue that keeps a surface a whole word, makes it part of a longer word
# (a plural-like or other suffix) or puts punctuation right next to it
GLUE = st.sampled_from(["", " ", "  ", "-", "'", ",", ".", "(", ")", "s", "es", "ish", "n", "_", "9", "é"])


def titles_from(surfaces):
    words = st.sampled_from(surfaces).map(str.upper) | st.sampled_from(surfaces) | st.text(max_size=5)
    return st.lists(st.tuples(GLUE, words), max_size=5).map(
        lambda parts: "".join(glue + word for glue, word in parts))


# nested and overlapping surfaces, the same surface under two ISOs, and
# same-length surfaces of different ISOs
SMALL_SURFACES = ["ab", "ab cd", "cd", "b", "bc", "abc", "cd ef", "cd ef gh", "ef", "x-y", "y", "éa", "ÉA", "a.b"]
small_registries = st.lists(
    st.tuples(st.sampled_from(SMALL_SURFACES),
              st.lists(st.sampled_from(SMALL_SURFACES), max_size=3)),
    min_size=0, max_size=5,
).map(lambda entries: Registry([
    CountryRecord(iso=f"C{i}", name=name, demonyms=frozenset(demonyms))
    for i, (name, demonyms) in enumerate(entries)
]))


class TestDetectCountryAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(titles_from(BUNDLED_SURFACES))
    def test_bundled_registry(self, title):
        assert detect_country(title, BUNDLED) == oracle_detect_country(title, BUNDLED)

    @settings(max_examples=300, deadline=None)
    @given(small_registries, st.data())
    def test_overlapping_surfaces(self, registry, data):
        title = data.draw(titles_from(SMALL_SURFACES))
        assert detect_country(title, registry) == oracle_detect_country(title, registry)

    def test_match_inside_an_earlier_match_is_seen(self):
        # "ab cd" is the longest surface at 0, but "cd ef gh" starts inside it
        registry = Registry([CountryRecord("AA", "ab cd", frozenset()),
                             CountryRecord("ZZ", "cd ef gh", frozenset())])
        assert detect_country("ab cd ef gh", registry) == "ZZ"

    def test_fixture_titles(self, fixtures_dir):
        titles = [json.loads(line)["title"]
                  for line in (fixtures_dir / "recipes_50.jsonl").read_text("utf-8").splitlines()]
        titles += ["Moroccan South African ZA stew", "south-african", "Frenchs", "(French)"]
        for title in titles:
            assert detect_country(title, BUNDLED) == oracle_detect_country(title, BUNDLED)


class TestMatchDish:
    def test_alias_with_plural_and_diacritics(self):
        dish = DishSpec.create("Pancake", aliases=["crêpe"])
        assert match_dish("French Pancakes (Crêpes)", dish)

    def test_exclusion_wins(self):
        dish = DishSpec.create("Pancake", excluded_patterns=["syrup"])
        assert not match_dish("Pancake Syrup", dish)

    def test_local_spelling_variant(self):
        dish = DishSpec.create("Pierogi", aliases=["piroshki"])
        assert match_dish("Piroshki", dish)

    def test_no_partial_word_match(self):
        dish = DishSpec.create("Taco")
        assert not match_dish("Tacoma Diner Special", dish)

    def test_forced_country_override(self):
        dish = DishSpec.create("Curry", country_overrides={"indian curry": "GB"})
        assert forced_country("Indian Curry House Style", dish) == "GB"
        assert forced_country("Thai Curry", dish) is None

    def test_load_dish_specs(self, fixtures_dir):
        specs = load_dish_specs(fixtures_dir / "dishes_sample.json")
        assert len(specs) == 10
        by_name = {s.canonical_name: s for s in specs}
        assert "crêpe" in by_name["Pancake"].aliases
        assert "syrup" in by_name["Pancake"].excluded_patterns

    def test_load_rejects_non_list(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x"}')
        with pytest.raises(ParseError):
            load_dish_specs(path)


def corpus_for_split(n_origin=10, n_foreign=4):
    dish_docs = [
        make_doc(f"o{i:02d}", ["a", "b"], title=f"Moroccan Couscous {i}", country="MA")
        for i in range(n_origin)
    ]
    dish_docs += [
        make_doc(f"f{i:02d}", ["a", "c"], title=f"Mexican Couscous {i}", country="MX")
        for i in range(n_foreign)
    ]
    dish_docs.append(make_doc("x1", ["q"], title="Moroccan Tagine", country="MA"))
    return dish_docs


class TestBuildSplit:
    dish = DishSpec.create("Couscous")

    def split(self, docs, seed):
        return build_split(matched_documents(docs, self.dish), "MA", 0.3, seed=seed)

    def test_holdout_floor(self):
        split = self.split(corpus_for_split(10), seed=5)
        assert len(split.knowledge) == 7
        same_country_variations = [d for d in split.variations if d.country == "MA"]
        assert len(same_country_variations) == 3
        assert len(split.variations) == 7

    def test_determinism(self):
        one = self.split(corpus_for_split(), seed=42)
        two = self.split(corpus_for_split(), seed=42)
        assert [d.id for d in one.knowledge] == [d.id for d in two.knowledge]
        assert [d.id for d in one.variations] == [d.id for d in two.variations]

    def test_input_order_does_not_matter(self):
        docs = corpus_for_split()
        shuffled = list(docs)
        random.Random(1).shuffle(shuffled)
        one = self.split(docs, seed=9)
        two = self.split(shuffled, seed=9)
        assert [d.id for d in one.knowledge] == [d.id for d in two.knowledge]

    def test_different_seeds_differ(self):
        splits = {
            tuple(d.id for d in self.split(corpus_for_split(), seed=s).knowledge)
            for s in range(8)
        }
        assert len(splits) > 1

    def test_disjoint_and_covering(self):
        # the tagine document names no couscous alias, so matching excludes it
        split = self.split(corpus_for_split(), seed=3)
        knowledge_ids = {d.id for d in split.knowledge}
        variation_ids = {d.id for d in split.variations}
        assert not knowledge_ids & variation_ids
        assert knowledge_ids | variation_ids == {f"o{i:02d}" for i in range(10)} | {
            f"f{i:02d}" for i in range(4)
        }

    def test_variation_floor_violation(self):
        split = self.split(corpus_for_split(2, 0), seed=1)
        assert not split.eligible
        # floor(0.3 * 2) = 0 held out: both origin documents stay as knowledge
        assert (len(split.knowledge), len(split.variations)) == (2, 0)

    def test_knowledge_floor_violation(self):
        split = self.split(corpus_for_split(1, 5), seed=1)
        assert not split.eligible
        assert (len(split.knowledge), len(split.variations)) == (1, 5)

    def test_override_redirects_country(self):
        dish = DishSpec.create("Curry", country_overrides={"indian curry": "GB"})
        docs = [
            make_doc(f"g{i}", ["a", "b"], title=f"Indian Curry {i}", country="IN")
            for i in range(6)
        ] + [
            make_doc(f"h{i}", ["a", "c"], title=f"Thai Curry {i}", country="TH")
            for i in range(3)
        ]
        matched = matched_documents(docs, dish)
        assert {d.country for d in matched} == {"GB", "TH"}
        split = build_split(matched, "GB", 0.3, seed=2)
        assert {d.country for d in split.knowledge} == {"GB"}
        assert len(split.knowledge) == 5  # floor(0.3 * 6) = 1 of six held out
