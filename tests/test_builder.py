import math
import random
from itertools import combinations

import pytest

from cultnovelty.builder import (
    DishSpec,
    build_split,
    country_clusters,
    detect_country,
    forced_country,
    greedy_modularity_partition,
    jaccard,
    load_dish_specs,
    match_dish,
    matched_documents,
    modularity,
    top_ingredients,
)
from cultnovelty.distances import load_registry
from cultnovelty.errors import EmptyCorpus, IneligibleDish, ParseError

from conftest import make_doc
from oracles import all_partitions, oracle_modularity


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
        with pytest.raises(IneligibleDish) as info:
            self.split(corpus_for_split(2, 0), seed=1)
        # floor(0.3 * 2) = 0 held out: both origin documents stay as knowledge
        assert (info.value.kb_size, info.value.variation_count) == (2, 0)

    def test_knowledge_floor_violation(self):
        with pytest.raises(IneligibleDish) as info:
            self.split(corpus_for_split(1, 5), seed=1)
        assert (info.value.kb_size, info.value.variation_count) == (1, 5)

    def test_stamps_product(self):
        split = self.split(corpus_for_split(), seed=3)
        assert all(d.product == "Couscous" for d in split.knowledge + split.variations)

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


class TestTopIngredients:
    def test_ties_at_cutoff_included(self):
        docs = [
            make_doc("1", ["x"], ingredients=frozenset({"a", "b"})),
            make_doc("2", ["x"], ingredients=frozenset({"a", "b", "c"})),
            make_doc("3", ["x"], ingredients=frozenset({"c", "d", "e"})),
        ]
        # counts: a=2, b=2, c=2, d=1, e=1; k = max(1, round(0.2*5)) = 1
        kept = top_ingredients(docs, top_fraction=0.2)
        assert kept == {"a", "b", "c"}

    def test_small_sets_keep_at_least_one(self):
        docs = [make_doc("1", ["x"], ingredients=frozenset({"a", "b"}))]
        assert len(top_ingredients(docs, top_fraction=0.2)) >= 1

    def test_empty(self):
        assert top_ingredients([make_doc("1", ["x"])]) == frozenset()


class TestModularity:
    def test_matches_oracle_on_random_graphs(self):
        rng = random.Random(12)
        nodes = ["a", "b", "c", "d", "e"]
        for _ in range(30):
            edges = {
                pair: rng.uniform(0.1, 1.0)
                for pair in combinations(nodes, 2)
                if rng.random() < 0.6
            }
            partition = []
            pool = list(nodes)
            rng.shuffle(pool)
            while pool:
                k = rng.randint(1, len(pool))
                partition.append(frozenset(pool[:k]))
                pool = pool[k:]
            assert modularity(partition, edges) == pytest.approx(
                oracle_modularity([set(p) for p in partition], edges), abs=1e-12
            )

    def test_edgeless_graph_zero(self):
        assert modularity([frozenset({"a"}), frozenset({"b"})], {}) == 0.0


class TestCountryClusters:
    def test_identical_pair_clusters_together(self):
        docs = [
            make_doc("1", ["x"], country="AA", ingredients=frozenset({"p", "q"})),
            make_doc("2", ["x"], country="BB", ingredients=frozenset({"p", "q"})),
            make_doc("3", ["x"], country="CC", ingredients=frozenset({"r", "s"})),
        ]
        clusters = country_clusters(docs, top_fraction=1.0)
        members = {frozenset(c.members) for c in clusters}
        assert frozenset({"AA", "BB"}) in members
        assert frozenset({"CC"}) in members

    def test_single_country_singleton_zero(self):
        docs = [make_doc("1", ["x"], country="AA", ingredients=frozenset({"p"}))]
        (cluster,) = country_clusters(docs)
        assert cluster.members == {"AA"}
        assert cluster.modularity == 0.0

    def test_partition_property(self):
        rng = random.Random(23)
        pool = ["p", "q", "r", "s", "t", "u", "v"]
        docs = [
            make_doc(
                f"d{i}",
                ["x"],
                country=f"C{i % 6}",
                ingredients=frozenset(rng.sample(pool, rng.randint(1, 4))),
            )
            for i in range(30)
        ]
        clusters = country_clusters(docs)
        seen = [c for cluster in clusters for c in cluster.members]
        assert sorted(seen) == sorted({d.country for d in docs})

    def test_reported_modularity_recomputable(self):
        rng = random.Random(31)
        pool = ["p", "q", "r", "s", "t"]
        docs = [
            make_doc(
                f"d{i}",
                ["x"],
                country=f"C{i % 5}",
                ingredients=frozenset(rng.sample(pool, rng.randint(1, 3))),
            )
            for i in range(25)
        ]
        clusters = country_clusters(docs, top_fraction=1.0)
        kept = {
            c: top_ingredients([d for d in docs if d.country == c], 1.0)
            for c in {d.country for d in docs}
        }
        edges = {}
        names = sorted(kept)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                sim = jaccard(kept[a], kept[b])
                if sim > 0:
                    edges[(a, b)] = sim
        partition = [frozenset(c.members) for c in clusters]
        assert clusters[0].modularity == pytest.approx(modularity(partition, edges), abs=1e-9)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            country_clusters([make_doc("1", ["x"])])  # UNKNOWN country only

    def test_five_country_fixture_matches_exhaustive_oracle(self):
        shared_med = ["olive oil", "garlic", "tomato"]
        shared_east = ["rice", "chili", "ginger"]
        own = {
            "MA": ["cumin", "raisin"],
            "IT": ["basil", "parmesan"],
            "GR": ["feta", "dill"],
            "MX": ["tortilla", "bean"],
            "JP": ["miso", "nori"],
        }
        docs = []
        idx = 0
        for country in ("MA", "IT", "GR"):
            for i in range(4):
                idx += 1
                ings = shared_med + [own[country][i % 2]]
                docs.append(make_doc(f"d{idx}", ["x"], country=country, ingredients=frozenset(ings)))
        for country in ("MX", "JP"):
            for i in range(4):
                idx += 1
                ings = shared_east + [own[country][i % 2]]
                docs.append(make_doc(f"d{idx}", ["x"], country=country, ingredients=frozenset(ings)))

        clusters = country_clusters(docs, top_fraction=0.2)
        partition = sorted(tuple(sorted(c.members)) for c in clusters)

        countries = sorted({d.country for d in docs})
        kept = {
            c: top_ingredients([d for d in docs if d.country == c], 0.2) for c in countries
        }
        edges = {}
        for i, a in enumerate(countries):
            for b in countries[i + 1 :]:
                sim = jaccard(kept[a], kept[b])
                if sim > 0:
                    edges[(a, b)] = sim
        best_q = -math.inf
        best_partition = None
        for candidate in all_partitions(countries):
            q = oracle_modularity(candidate, edges)
            if q > best_q:
                best_q = q
                best_partition = sorted(tuple(sorted(p)) for p in candidate)
        assert partition == best_partition
        assert clusters[0].modularity == pytest.approx(best_q, abs=1e-9)
        assert partition == [("GR", "IT", "MA"), ("JP", "MX")]
