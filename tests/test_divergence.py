import math
import random

import pytest

from cultnovelty.corpus import TokenDistribution
from cultnovelty.divergence import (
    EQUAL_WEIGHTS,
    MixtureWeights,
    Side,
    jsd,
    jsd_decomposed,
)

from oracles import oracle_contributions, oracle_jsd


def dist(counts):
    return TokenDistribution.from_counts(counts)


def random_pair(rng, vocab_size, max_count=40):
    vocab = [f"w{i}" for i in range(vocab_size)]
    p = dist({w: rng.randint(1, max_count) for w in rng.sample(vocab, rng.randint(1, vocab_size))})
    q = dist({w: rng.randint(1, max_count) for w in rng.sample(vocab, rng.randint(1, vocab_size))})
    return p, q


class TestMixtureWeights:
    def test_proportional_default(self):
        p = dist({"a": 3})
        q = dist({"b": 1})
        w = MixtureWeights.proportional(p, q)
        assert w.pi1 == 0.75 and w.pi2 == 0.25

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            MixtureWeights(0.6, 0.5)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            MixtureWeights(1.0, 0.0)


class TestJsd:
    def test_identical_is_zero_exactly(self):
        p = dist({"a": 1})
        assert jsd(p, p, EQUAL_WEIGHTS) == 0.0

    def test_disjoint_supports_maximize(self):
        assert jsd(dist({"a": 1}), dist({"b": 1}), EQUAL_WEIGHTS) == 1.0

    def test_half_overlap_value(self):
        # independent oracle evaluation of the defining formula
        value = jsd(dist({"a": 1, "b": 1}), dist({"a": 1}), EQUAL_WEIGHTS)
        assert value == pytest.approx(0.311278124459, abs=1e-6)
        assert value == pytest.approx(oracle_jsd({"a": 0.5, "b": 0.5}, {"a": 1.0}, 0.5, 0.5), abs=1e-12)

    def test_default_weights_are_proportional(self):
        p = dist({"a": 2, "b": 4})
        q = dist({"a": 2})
        assert jsd(p, q) == jsd(p, q, MixtureWeights(0.75, 0.25))

    def test_symmetry_within_1e12(self):
        rng = random.Random(7)
        for _ in range(200):
            p, q = random_pair(rng, rng.randint(2, 12))
            w = MixtureWeights.proportional(p, q)
            assert abs(jsd(p, q, w) - jsd(q, p, MixtureWeights(w.pi2, w.pi1))) <= 1e-12

    def test_bounds(self):
        rng = random.Random(13)
        for _ in range(200):
            p, q = random_pair(rng, rng.randint(1, 10))
            assert 0.0 <= jsd(p, q) <= 1.0

    def test_positive_when_different(self):
        rng = random.Random(29)
        for _ in range(100):
            p, q = random_pair(rng, rng.randint(2, 8))
            if p.probs != q.probs:
                assert jsd(p, q) > 0.0

    def test_matches_oracle_randomized(self):
        rng = random.Random(41)
        for _ in range(100):
            p, q = random_pair(rng, rng.randint(2, 15))
            w = MixtureWeights.proportional(p, q)
            assert jsd(p, q, w) == pytest.approx(
                oracle_jsd(dict(p.probs), dict(q.probs), w.pi1, w.pi2), abs=1e-12
            )


class TestDecomposition:
    def test_identical_all_neutral(self):
        p = dist({"a": 1, "b": 3})
        total, contribs = jsd_decomposed(p, p, EQUAL_WEIGHTS)
        assert total == 0.0
        assert all(c.value == 0.0 and c.attributed_to is Side.NEUTRAL for c in contribs)

    def test_disjoint_attribution(self):
        total, contribs = jsd_decomposed(dist({"a": 1}), dist({"b": 1}), EQUAL_WEIGHTS)
        by_lemma = {c.lemma: c for c in contribs}
        assert by_lemma["a"].value == pytest.approx(0.5, abs=1e-12)
        assert by_lemma["a"].attributed_to is Side.P_SIDE
        assert by_lemma["b"].value == pytest.approx(0.5, abs=1e-12)
        assert by_lemma["b"].attributed_to is Side.Q_SIDE
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_matches_literal_formula_per_word(self):
        rng = random.Random(3)
        for _ in range(100):
            p, q = random_pair(rng, rng.randint(2, 10))
            w = MixtureWeights.proportional(p, q)
            _, contribs = jsd_decomposed(p, q, w)
            expected = oracle_contributions(dict(p.probs), dict(q.probs), w.pi1, w.pi2)
            for c in contribs:
                assert c.value == pytest.approx(expected[c.lemma], abs=1e-9)

    def test_sum_equals_total(self):
        rng = random.Random(17)
        for _ in range(50):
            p, q = random_pair(rng, rng.randint(2, 20))
            total, contribs = jsd_decomposed(p, q)
            assert abs(math.fsum(c.value for c in contribs) - total) <= 1e-9
            assert total == pytest.approx(jsd(p, q), abs=1e-12)

    def test_sum_equals_total_large_vocab(self):
        rng = random.Random(23)
        vocab = [f"w{i}" for i in range(10_000)]
        p = dist({w: rng.randint(1, 50) for w in vocab})
        q = dist({w: rng.randint(1, 50) for w in rng.sample(vocab, 8000)})
        total, contribs = jsd_decomposed(p, q)
        assert abs(math.fsum(c.value for c in contribs) - total) <= 1e-9

    def test_values_non_negative(self):
        rng = random.Random(31)
        for _ in range(100):
            p, q = random_pair(rng, rng.randint(1, 10))
            _, contribs = jsd_decomposed(p, q)
            assert all(c.value >= 0.0 for c in contribs)

    def test_attribution_flips_under_swap(self):
        rng = random.Random(37)
        for _ in range(50):
            p, q = random_pair(rng, rng.randint(2, 8))
            w = MixtureWeights.proportional(p, q)
            _, forward = jsd_decomposed(p, q, w)
            _, backward = jsd_decomposed(q, p, MixtureWeights(w.pi2, w.pi1))
            flipped = {Side.P_SIDE: Side.Q_SIDE, Side.Q_SIDE: Side.P_SIDE, Side.NEUTRAL: Side.NEUTRAL}
            back = {c.lemma: c for c in backward}
            for c in forward:
                assert back[c.lemma].attributed_to is flipped[c.attributed_to]
