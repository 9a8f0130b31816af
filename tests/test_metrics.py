import random
from collections import Counter

import pytest

from cultnovelty import metrics
from cultnovelty.corpus import TokenDistribution, aggregate_distribution
from cultnovelty.errors import EmptyDocument, InsufficientKB
from cultnovelty.metrics import (
    build_knowledge_space,
    calibrate_difference_threshold,
    calibrate_newness_threshold,
    compare,
    difference,
    divergent_surprise,
    lay_out,
    new_surprise,
    newness,
    score_all,
    uniqueness,
)
from cultnovelty.ppmi import build_ppmi

from conftest import make_doc
from oracles import (
    oracle_difference,
    oracle_difference_epsilon,
    oracle_divergent_surprise,
    oracle_new_surprise,
    oracle_newness,
    oracle_newness_epsilon,
    oracle_uniqueness,
)

AAB = ["a", "a", "b"]
ABB = ["a", "b", "b"]


def kb_two(lemmas1=AAB, lemmas2=ABB, **kwargs):
    return build_knowledge_space([make_doc("k1", lemmas1), make_doc("k2", lemmas2)], **kwargs)


def random_kb_and_variation(rng, vocab="abcdefgh", novel="xyz"):
    docs = [
        make_doc(f"k{i}", rng.choices(vocab, k=rng.randint(3, 25)))
        for i in range(rng.randint(2, 5))
    ]
    kb = build_knowledge_space(docs)
    var = make_doc("v", rng.choices(vocab + novel, k=rng.randint(2, 25)))
    return kb, var


class TestNewnessThreshold:
    def test_identical_docs_zero(self):
        assert calibrate_newness_threshold([make_doc("1", AAB), make_doc("2", AAB)]) == 0.0

    def test_two_fold_oracle(self):
        docs = [make_doc("1", AAB), make_doc("2", ABB)]
        assert calibrate_newness_threshold(docs) == pytest.approx(
            oracle_newness_epsilon([AAB, ABB]), abs=1e-12
        )

    def test_duplication_invariance(self):
        docs = [make_doc("1", AAB), make_doc("2", ABB)]
        doubled = [make_doc("1", AAB * 2), make_doc("2", ABB * 2)]
        assert calibrate_newness_threshold(docs) == pytest.approx(
            calibrate_newness_threshold(doubled), abs=1e-12
        )

    def test_insufficient(self):
        with pytest.raises(InsufficientKB):
            calibrate_newness_threshold([make_doc("1", AAB)])


class TestNewness:
    def test_replica_scores_zero(self):
        kb = kb_two()
        var = make_doc("v", AAB + ABB)  # same pooled distribution as the aggregate
        appearance, disappearance, combined = newness(compare(kb, lay_out(var)))
        assert (appearance, disappearance, combined) == (0.0, 0.0, 0.0)

    def test_lambda_weighting_identity(self):
        kb = kb_two()
        var = make_doc("v", ["a", "c", "c"])
        appearance, disappearance, combined = newness(compare(kb, lay_out(var)))
        assert combined == pytest.approx(0.8 * appearance + 0.2 * disappearance, abs=1e-12)

    def test_all_new_words_full_appearance(self):
        kb = kb_two()
        _, _, _ = newness(compare(kb, lay_out(make_doc("v", ["c", "c", "c"]))))
        appearance, disappearance, combined = newness(compare(kb, lay_out(make_doc("v", ["c", "c", "c"]))))
        assert appearance == 1.0

    def test_matches_oracle(self):
        kb = kb_two()
        var = make_doc("v", ["a", "c", "b", "c"])
        mine = newness(compare(kb, lay_out(var)))
        expected = oracle_newness([AAB, ABB], ["a", "c", "b", "c"])
        for got, want in zip(mine, expected):
            assert got == pytest.approx(want, abs=1e-9)

    def test_lambda_must_sum_to_one(self):
        kb = kb_two()
        with pytest.raises(ValueError):
            newness(compare(kb, lay_out(make_doc("v", ["a"]))), lambda1=0.8, lambda2=0.3)

    def test_empty_variation(self):
        with pytest.raises(EmptyDocument, match="variation v has no body tokens"):
            newness(compare(kb_two(), lay_out(make_doc("v", []))))


class TestUniqueness:
    def test_replica_zero(self):
        kb = kb_two()
        assert uniqueness(compare(kb, lay_out(make_doc("v", AAB + ABB)))) == 0.0

    def test_disjoint_equal_totals_is_one(self):
        kb = kb_two()  # six knowledge tokens
        assert uniqueness(compare(kb, lay_out(make_doc("v", ["c"] * 6)))) == 1.0

    def test_matches_oracle_with_proportional_weights(self):
        kb = kb_two()
        var = make_doc("v", ["a", "c"])
        assert uniqueness(compare(kb, lay_out(var))) == pytest.approx(
            oracle_uniqueness([AAB, ABB], ["a", "c"]), abs=1e-12
        )


class TestDifferenceThreshold:
    def test_identical_docs_zero(self):
        assert calibrate_difference_threshold([make_doc("1", AAB), make_doc("2", AAB)]) == 0.0

    def test_single_disjoint_pair(self):
        assert calibrate_difference_threshold([make_doc("1", ["a"]), make_doc("2", ["b"])]) == 1.0

    def test_three_doc_oracle(self):
        docs = [make_doc("1", AAB), make_doc("2", ABB), make_doc("3", ["a", "b"])]
        assert calibrate_difference_threshold(docs) == pytest.approx(
            oracle_difference_epsilon([AAB, ABB, ["a", "b"]]), abs=1e-12
        )


class TestDifference:
    def test_identical_everything_zero(self):
        kb = build_knowledge_space([make_doc("1", AAB), make_doc("2", AAB)])
        assert difference(compare(kb, lay_out(make_doc("v", AAB)))) == 0.0

    def test_disjoint_variation_full(self):
        kb = build_knowledge_space([make_doc("1", AAB), make_doc("2", AAB)])
        assert difference(compare(kb, lay_out(make_doc("v", ["z", "z"])))) == 1.0

    def test_three_doc_fixture_oracle(self):
        docs = [make_doc("1", AAB), make_doc("2", ABB), make_doc("3", ["a", "b"])]
        kb = build_knowledge_space(docs)
        assert difference(compare(kb, lay_out(make_doc("v", ["a", "c"])))) == pytest.approx(
            oracle_difference([AAB, ABB, ["a", "b"]], ["a", "c"]), abs=1e-12
        )


class TestSurprise:
    def test_known_pairs_zero(self):
        kb = build_ppmi(make_doc("k", ["a", "b"]))
        var = build_ppmi(make_doc("v", ["a", "b"]))
        assert new_surprise(kb, var) == 0.0

    def test_out_of_vocabulary_pairs_one(self):
        kb = build_ppmi(make_doc("k", ["a", "b"]))
        var = build_ppmi(make_doc("v", ["x", "y"]))
        assert new_surprise(kb, var) == 1.0

    def test_two_of_three_novel(self):
        kb = build_ppmi(make_doc("k", ["a", "b", "c"]))
        var = build_ppmi(make_doc("v", ["a", "b", "x"]))
        assert new_surprise(kb, var) == pytest.approx(2 / 3, abs=1e-12)

    def test_no_pairs_scores_zero(self):
        kb = build_ppmi(make_doc("k", ["a", "b"]))
        var = build_ppmi(make_doc("v", ["a"]))
        assert new_surprise(kb, var) == 0.0

    def test_identical_matrices_divergent_zero(self):
        kb = build_ppmi(make_doc("k", ["a", "b", "c"]))
        assert divergent_surprise(kb, kb) == 0.0

    def test_disjoint_row_supports_contribute_one(self):
        kb = build_ppmi(make_doc("k", ["a", "b"]))
        var = build_ppmi(make_doc("v", ["a", "x"]))
        # only shared lemma is "a"; its partners (b vs x) are disjoint
        assert divergent_surprise(kb, var) == 1.0

    def test_row_shift_oracle(self):
        kb_tokens = ["a", "b", "c"]
        var_tokens = ["a", "b", "b", "c"]
        kb = build_ppmi(make_doc("k", kb_tokens))
        var = build_ppmi(make_doc("v", var_tokens))
        assert divergent_surprise(kb, var) == pytest.approx(
            oracle_divergent_surprise([kb_tokens], var_tokens), abs=1e-12
        )

    def test_new_surprise_oracle_randomized(self):
        rng = random.Random(99)
        for trial in range(30):
            kb_docs = [
                rng.choices("abcdef", k=rng.randint(2, 20))
                for _ in range(rng.randint(1, 3))
            ]
            var_tokens = rng.choices("abcdxyz", k=rng.randint(2, 20))
            kb = build_ppmi([make_doc(f"k{i}", t) for i, t in enumerate(kb_docs)])
            var = build_ppmi(make_doc("v", var_tokens))
            assert new_surprise(kb, var) == pytest.approx(
                oracle_new_surprise(kb_docs, var_tokens), abs=1e-12
            )
            assert divergent_surprise(kb, var) == pytest.approx(
                oracle_divergent_surprise(kb_docs, var_tokens), abs=1e-9
            )


class TestScoreAll:
    def test_replica_anchors(self):
        kb = kb_two()
        scores = score_all(kb, lay_out(make_doc("v", AAB + ABB)))
        assert scores.newness == 0.0
        assert scores.uniqueness == 0.0

    def test_composition_coherence(self):
        kb = kb_two()
        var = make_doc("v", ["a", "c", "b"])
        scores = score_all(kb, lay_out(var))
        appearance, disappearance, combined = newness(compare(kb, lay_out(var)))
        var_ppmi = build_ppmi(var, window=kb.window)
        assert scores.appearance == appearance
        assert scores.disappearance == disappearance
        assert scores.newness == combined
        assert scores.uniqueness == uniqueness(compare(kb, lay_out(var)))
        assert scores.difference == difference(compare(kb, lay_out(var)))
        assert scores.new_surprise == new_surprise(kb.ppmi, var_ppmi)
        assert scores.divergent_surprise == divergent_surprise(kb.ppmi, var_ppmi)

    def test_newness_weighting_holds(self):
        rng = random.Random(1)
        for _ in range(20):
            kb, var = random_kb_and_variation(rng)
            scores = score_all(kb, lay_out(var))
            assert scores.newness == pytest.approx(
                0.8 * scores.appearance + 0.2 * scores.disappearance, abs=1e-12
            )

    def test_all_scores_in_unit_interval(self):
        rng = random.Random(2)
        for _ in range(50):
            kb, var = random_kb_and_variation(rng)
            for value in score_all(kb, lay_out(var)):
                assert 0.0 <= value <= 1.0

    def test_uniform_duplication_leaves_distribution_metrics_unchanged(self):
        kb = kb_two()
        kb2 = build_knowledge_space([make_doc("k1", AAB * 3), make_doc("k2", ABB * 3)])
        var = make_doc("v", ["a", "c"])
        var2 = make_doc("v", ["a", "c"] * 3)
        assert uniqueness(compare(kb, lay_out(var))) == pytest.approx(
            uniqueness(compare(kb2, lay_out(var2))), abs=1e-12
        )
        assert difference(compare(kb, lay_out(var))) == difference(compare(kb2, lay_out(var2)))
        n1 = newness(compare(kb, lay_out(var)))
        n2 = newness(compare(kb2, lay_out(var2)))
        assert n1[0] == pytest.approx(n2[0], abs=1e-12)
        assert n1[1] == pytest.approx(n2[1], abs=1e-12)

    def test_uniqueness_zero_iff_replica(self):
        rng = random.Random(4)
        for _ in range(30):
            kb, var = random_kb_and_variation(rng)
            value = uniqueness(compare(kb, lay_out(var)))
            aggregate = dict(zip(kb.index, kb.agg.tolist()))
            same = TokenDistribution.from_counts(Counter(var.lemmas)).probs == aggregate
            assert (value == 0.0) == same


class TestVariationLayout:
    def test_layout_is_read_only(self):
        v = lay_out(make_doc("v", ["a", "c", "a"]))
        assert v.probs.flags.writeable is False
        with pytest.raises(ValueError):
            v.probs[0] = 0.0
        assert (v.id, v.words, v.probs.tolist(), v.halves) == ("v", ("a", "c"), [2 / 3, 1 / 3], (1 / 3, 1 / 6))

    def test_scores_do_not_depend_on_the_order_of_layouts_and_spaces(self):
        rng = random.Random(6)
        kbs = [random_kb_and_variation(rng)[0] for _ in range(4)]
        layouts = [lay_out(random_kb_and_variation(rng)[1]) for _ in range(5)]
        forward = [[score_all(kb, v) for kb in kbs] for v in layouts]
        backward = [[score_all(kb, v) for kb in reversed(kbs)] for v in reversed(layouts)]
        assert [row[::-1] for row in backward[::-1]] == forward
        fresh = [[score_all(kb, lay_out(v.doc)) for kb in kbs] for v in layouts]
        assert fresh == forward

    def test_window_mismatch_rejected(self):
        kb = kb_two(window=3)
        with pytest.raises(ValueError, match="window 4, the knowledge space at 3"):
            score_all(kb, lay_out(make_doc("v", AAB), window=4))
        score_all(kb_two(window=4), lay_out(make_doc("v", AAB), window=4))  # matching windows score


class TestKnowledgeSpace:
    def test_requires_two_docs(self):
        with pytest.raises(InsufficientKB):
            build_knowledge_space([make_doc("1", AAB)])

    def test_cached_fields_recomputable(self):
        docs = [make_doc("1", AAB), make_doc("2", ABB), make_doc("3", ["a", "b"])]
        kb = build_knowledge_space(docs)
        assert kb.epsilon_difference == pytest.approx(
            calibrate_difference_threshold(kb.docs), abs=1e-12
        )
        assert kb.epsilon_newness == pytest.approx(
            calibrate_newness_threshold(kb.docs), abs=1e-12
        )
        assert kb.mean_doc_length == pytest.approx(8 / 3)

    def test_documents_counted_once_per_build(self, monkeypatch):
        # both thresholds take the count matrix the build already holds
        calls = []
        count_matrix = metrics._count_matrix
        monkeypatch.setattr(metrics, "_count_matrix", lambda docs: calls.append(docs) or count_matrix(docs))
        kb = build_knowledge_space([make_doc("1", AAB), make_doc("2", ABB), make_doc("3", ["a", "c"])])
        assert len(calls) == 1
        assert kb.epsilon_newness == calibrate_newness_threshold(kb.docs)
        assert kb.epsilon_difference == calibrate_difference_threshold(kb.docs)

    def test_empty_document_rejected(self):
        with pytest.raises(EmptyDocument, match="document k2 has no body tokens"):
            build_knowledge_space([make_doc("k1", AAB), make_doc("k2", [])])

    def test_ingredient_union(self):
        docs = [
            make_doc("1", AAB, ingredients=frozenset({"salt"})),
            make_doc("2", ABB, ingredients=frozenset({"flour", "salt"})),
        ]
        kb = build_knowledge_space(docs)
        assert kb.ingredient_union == {"salt", "flour"}

    def test_arrays_hold_the_pooled_aggregate(self):
        rng = random.Random(8)
        for _ in range(20):
            kb, _ = random_kb_and_variation(rng)
            pooled = aggregate_distribution(kb.docs)
            assert list(kb.index) == sorted(pooled.probs)
            assert kb.agg.tolist() == [pooled.probs[w] for w in kb.index]
            assert kb.agg_total == pooled.token_total == sum(len(d.lemmas) for d in kb.docs)

    def test_docs_sorted_by_id(self):
        kb = build_knowledge_space([make_doc("b", AAB), make_doc("a", ABB)])
        assert [d.id for d in kb.docs] == ["a", "b"]
