import random

import pytest

from cultnovelty.errors import EmptyCorpus
from cultnovelty.ppmi import build_ppmi

from conftest import make_doc
from oracles import oracle_ppmi


class TestBuildPpmi:
    def test_single_pair_two_bits(self):
        m = build_ppmi(make_doc("d", ["a", "b"]))
        assert m.pairs == {("a", "b"): 2.0}
        assert m.pair_total == 1

    def test_single_token_empty_pairs(self):
        m = build_ppmi(make_doc("d", ["a"]))
        assert m.pairs == {}
        assert m.vocab == {"a"}

    def test_window_enumeration(self):
        m = build_ppmi(make_doc("d", ["a", "b", "c"]), window=3)
        assert set(m.pairs) == {("a", "b"), ("a", "c"), ("b", "c")}

    def test_window_two_excludes_distance_two(self):
        m = build_ppmi(make_doc("d", ["a", "b", "c"]), window=2)
        assert set(m.pairs) == {("a", "b"), ("b", "c")}

    def test_windows_do_not_cross_documents(self):
        pooled = build_ppmi([make_doc("1", ["a", "b"]), make_doc("2", ["c", "d"])])
        assert ("b", "c") not in pooled.pairs
        assert ("a", "b") in pooled.pairs

    def test_pairs_keyed_once_in_sorted_order(self):
        assert build_ppmi(make_doc("d", ["b", "a"])).pairs == {("a", "b"): 2.0}
        m = build_ppmi(make_doc("d", ["c", "a", "b", "c"]))
        assert all(a <= b for a, b in m.pairs)

    def test_absent_pair_has_no_entry(self):
        m = build_ppmi(make_doc("d", ["a", "b"]))
        assert ("a", "z") not in m.pairs and ("z", "a") not in m.pairs

    def test_negative_pmi_dropped(self):
        # (a, a) and (b, b) co-occur less often than independence predicts
        m = build_ppmi(make_doc("d", ["a", "a", "b", "b"]), window=3)
        assert ("a", "a") not in m.pairs
        assert ("a", "b") in m.pairs
        assert all(v > 0.0 for v in m.pairs.values())

    def test_vocab_covers_pairless_lemmas(self):
        m = build_ppmi(make_doc("d", ["a", "a", "b", "b"]), window=2)
        assert m.vocab == {"a", "b"}

    def test_rejects_small_window(self):
        with pytest.raises(ValueError):
            build_ppmi(make_doc("d", ["a", "b"]), window=1)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            build_ppmi([])

    def test_row(self):
        m = build_ppmi(make_doc("d", ["a", "b", "c"]), window=3)
        assert {w for w in m.vocab if m.pairs.get(("a", w), 0.0) > 0.0} == {"b", "c"}
        assert set(m.rows["a"].probs) == {"b", "c"}

    def test_matches_oracle_randomized(self):
        rng = random.Random(19)
        for trial in range(40):
            docs = [
                make_doc(f"d{trial}_{i}", rng.choices("abcdefg", k=rng.randint(2, 30)))
                for i in range(rng.randint(1, 4))
            ]
            window = rng.randint(2, 5)
            mine = build_ppmi(docs, window=window)
            pairs, vocab, pair_total = oracle_ppmi([d.lemmas for d in docs], window)
            assert mine.pair_total == pair_total
            assert mine.vocab == vocab
            assert set(mine.pairs) == set(pairs)
            for key, value in pairs.items():
                assert mine.pairs[key] == pytest.approx(value, abs=1e-12)
