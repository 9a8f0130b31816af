import math
import random
from functools import partial

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from cultnovelty.errors import (
    AllTied,
    ConstantSeries,
    DuplicateIds,
    InsufficientObservations,
    LengthMismatch,
    NumericOverflow,
    RankDeficient,
)
from cultnovelty.stats import _resample_counts, kendall_tau, mediate, ols, pearson, rbo

from oracles import oracle_mediate, oracle_rbo


class TestPearson:
    def test_perfect_positive(self):
        r, p = pearson([1, 2, 3], [2, 4, 6])
        assert r == 1.0
        assert p == 0.0

    def test_perfect_negative(self):
        r, p = pearson([1, 2, 3], [3, 2, 1])
        assert r == -1.0
        assert p == 0.0

    def test_half(self):
        r, _ = pearson([1, 2, 3], [1, 3, 2])
        assert r == pytest.approx(0.5, abs=1e-12)

    def test_matches_scipy(self):
        rng = random.Random(6)
        for _ in range(30):
            n = rng.randint(5, 40)
            x = [rng.gauss(0, 1) for _ in range(n)]
            y = [rng.gauss(0, 1) for _ in range(n)]
            r, p = pearson(x, y)
            want = scipy.stats.pearsonr(x, y)
            assert r == pytest.approx(want.statistic, abs=1e-12)
            assert p == pytest.approx(want.pvalue, abs=1e-10)

    def test_symmetry_and_affine_invariance(self):
        rng = random.Random(9)
        x = [rng.gauss(0, 1) for _ in range(20)]
        y = [rng.gauss(0, 1) for _ in range(20)]
        assert pearson(x, y)[0] == pytest.approx(pearson(y, x)[0], abs=1e-12)
        scaled = [3.0 * v + 7.0 for v in y]
        assert pearson(x, scaled)[0] == pytest.approx(pearson(x, y)[0], abs=1e-12)

    def test_constant_series(self):
        with pytest.raises(ConstantSeries):
            pearson([1, 1, 1], [1, 2, 3])

    @pytest.mark.parametrize("scale", [1e200, 1e-200], ids=["squares_overflow", "squares_underflow"])
    def test_extreme_scales_match_the_unscaled_series(self, scale):
        x = [1.0, -1.0, 3.0, 0.5]
        y = [1.0, 2.0, 3.0, 4.0]
        scaled = [v * scale for v in x]
        want = pearson(x, y)
        assert pearson(scaled, y) == pytest.approx(want, rel=1e-12)
        assert pearson(y, scaled) == pytest.approx(want, rel=1e-12)
        assert pearson(scaled, scaled)[0] == 1.0

    def test_overflowing_squares_do_not_force_a_perfect_correlation(self):
        r, p = pearson([1e200, -1e200, 3e200, 0.5], [1, 2, 3, 4])
        want_r, want_p = pearson([1.0, -1.0, 3.0, 0.0], [1, 2, 3, 4])
        assert r == pytest.approx(want_r, rel=1e-12)
        assert r == pytest.approx(0.0756, abs=1e-4)
        assert p == pytest.approx(want_p, rel=1e-12)

    def test_power_of_two_scale_keeps_every_bit(self):
        rng = random.Random(12)
        x = [rng.gauss(0, 1) for _ in range(15)]
        y = [rng.gauss(0, 1) for _ in range(15)]
        for k in (-600, -3, 5, 600):
            assert pearson([math.ldexp(v, k) for v in x], y) == pearson(x, y)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            pearson([1, 2], [1, 2, 3])


class TestKendallTau:
    def test_identical_orderings(self):
        tau, _ = kendall_tau([1, 2, 3, 4], [10, 20, 30, 40])
        assert tau == 1.0

    def test_reversed_orderings(self):
        tau, _ = kendall_tau([1, 2, 3, 4], [4, 3, 2, 1])
        assert tau == -1.0

    def test_one_swap(self):
        tau, _ = kendall_tau([1, 2, 3, 4], [1, 3, 2, 4])
        assert tau == pytest.approx(2 / 3, abs=1e-12)

    def test_matches_scipy_with_ties(self):
        rng = random.Random(14)
        for _ in range(30):
            n = rng.randint(5, 30)
            x = [rng.randint(0, 6) for _ in range(n)]
            y = [rng.randint(0, 6) for _ in range(n)]
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            tau, p = kendall_tau(x, y)
            want = scipy.stats.kendalltau(x, y, method="asymptotic")
            assert tau == pytest.approx(want.statistic, abs=1e-12)
            assert p == pytest.approx(want.pvalue, abs=1e-10)

    def test_all_tied(self):
        with pytest.raises(AllTied):
            kendall_tau([1, 1, 1], [1, 2, 3])

    def test_symmetry(self):
        x, y = [1, 4, 2, 2, 5], [2, 2, 3, 1, 4]
        assert kendall_tau(x, y) == kendall_tau(y, x)

    def test_values_whose_differences_overflow_rank_like_small_ones(self):
        huge = [1e308, -1e308, 0.0, 5e307, 1e308]
        same_order = [4.0, -4.0, 0.0, 3.0, 4.0]
        y = [1, 2, 3, 3, 5]
        assert kendall_tau(huge, y) == kendall_tau(same_order, y)
        assert kendall_tau(y, huge) == kendall_tau(y, same_order)


class TestRbo:
    def test_identical(self):
        for p in (0.5, 0.9, 0.99):
            assert rbo(["a", "b", "c"], ["a", "b", "c"], p) == 1.0

    def test_disjoint(self):
        assert rbo(["a", "b"], ["c", "d"], 0.9) == 0.0

    def test_swap_matches_oracle(self):
        value = rbo(["a", "b", "c"], ["b", "a", "c"], 0.9)
        assert value == pytest.approx(oracle_rbo(["a", "b", "c"], ["b", "a", "c"], 0.9), abs=1e-12)

    def test_matches_oracle_randomized(self):
        rng = random.Random(44)
        ids = [f"i{k}" for k in range(12)]
        for _ in range(50):
            a = rng.sample(ids, rng.randint(1, 12))
            b = rng.sample(ids, rng.randint(1, 12))
            p = rng.choice([0.5, 0.8, 0.9, 0.95])
            assert rbo(a, b, p) == pytest.approx(oracle_rbo(a, b, p), abs=1e-12)

    def test_symmetric(self):
        rng = random.Random(45)
        ids = [f"i{k}" for k in range(8)]
        for _ in range(20):
            a = rng.sample(ids, rng.randint(1, 8))
            b = rng.sample(ids, rng.randint(1, 8))
            assert rbo(a, b, 0.9) == pytest.approx(rbo(b, a, 0.9), abs=1e-12)

    def test_bounded(self):
        rng = random.Random(46)
        ids = [f"i{k}" for k in range(10)]
        for _ in range(50):
            a = rng.sample(ids, rng.randint(1, 10))
            b = rng.sample(ids, rng.randint(1, 10))
            assert 0.0 <= rbo(a, b, 0.9) <= 1.0 + 1e-12

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicateIds):
            rbo(["a", "a"], ["a", "b"], 0.9)

    def test_bad_p_rejected(self):
        with pytest.raises(ValueError):
            rbo(["a"], ["a"], 1.0)


class TestOls:
    def test_exact_linear_fit(self):
        x = np.arange(6, dtype=float)
        design = np.column_stack([np.ones(6), x])
        result = ols(design, 1.0 + 2.0 * x, names=("const", "x"))
        assert result.coefficients["const"] == pytest.approx(1.0, abs=1e-10)
        assert result.coefficients["x"] == pytest.approx(2.0, abs=1e-10)
        assert result.r_squared == pytest.approx(1.0, abs=1e-10)

    def test_duplicated_column_rank_deficient(self):
        x = np.arange(8, dtype=float)
        design = np.column_stack([np.ones(8), x, x])
        with pytest.raises(RankDeficient):
            ols(design, x, names=("const", "x", "x2"))

    def test_too_few_rows(self):
        with pytest.raises(InsufficientObservations):
            ols(np.ones((2, 2)), [1.0, 2.0])

    def test_matches_reference_implementation(self):
        # golden values frozen from an independent statistics package
        rng = np.random.default_rng(2718)
        n = 60
        x1 = rng.normal(size=n)
        x2 = rng.normal(size=n)
        y = 0.5 + 1.5 * x1 - 2.0 * x2 + rng.normal(size=n)
        design = np.column_stack([np.ones(n), x1, x2])
        mine = ols(design, y, names=("const", "x1", "x2"))

        # scipy-based reference: beta via lstsq, classical covariance
        beta, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ beta
        sigma2 = resid @ resid / (n - 3)
        cov = sigma2 * np.linalg.inv(design.T @ design)
        se = np.sqrt(np.diag(cov))
        t = beta / se
        p = 2 * scipy.stats.t.sf(np.abs(t), n - 3)
        for i, name in enumerate(("const", "x1", "x2")):
            assert mine.coefficients[name] == pytest.approx(beta[i], abs=1e-10)
            assert mine.std_errors[name] == pytest.approx(se[i], abs=1e-10)
            assert mine.p_values[name] == pytest.approx(p[i], abs=1e-10)

    def test_noise_slope_not_significant(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=50)
        y = rng.normal(size=50)
        result = ols(np.column_stack([np.ones(50), x]), y, names=("const", "x"))
        assert result.p_values["x"] > 0.01

    def test_residuals_orthogonal_to_regressors(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(10, 60))
            design = np.column_stack([np.ones(n), rng.normal(size=(n, 3))])
            y = rng.normal(size=n)
            result = ols(design, y)
            beta = np.array([result.coefficients[k] for k in result.coefficients])
            resid = y - design @ beta
            bound = 1e-8 * np.linalg.norm(y)
            assert np.all(np.abs(design.T @ resid) <= bound)


class TestMediate:
    def make_system(self, seed=123, n=300):
        rng = np.random.default_rng(seed)
        t = rng.normal(size=n)
        m = 3.0 * t + rng.normal(size=n) * 0.5
        y = 2.0 * m + rng.normal(size=n) * 0.5
        return t, m, y

    def test_total_is_acme_plus_ade_exactly(self):
        t, m, y = self.make_system()
        result = mediate(t, m, y, n_boot=50, seed=4)
        assert result.total_effect == result.acme + result.ade

    def test_fully_mediated_system(self):
        t, m, y = self.make_system()
        result = mediate(t, m, y, n_boot=500, seed=4)
        assert result.acme == pytest.approx(6.0, abs=0.3)
        assert result.acme_ci[0] <= 6.0 <= result.acme_ci[1]
        assert result.ade_ci[0] <= 0.0 <= result.ade_ci[1]

    def test_independent_mediator_zero_acme(self):
        rng = np.random.default_rng(21)
        n = 200
        t = rng.normal(size=n)
        m = rng.normal(size=n)  # unrelated to treatment
        y = 1.5 * t + rng.normal(size=n) * 0.1
        result = mediate(t, m, y, n_boot=200, seed=3)
        assert abs(result.acme) < 0.05
        assert result.total_effect == pytest.approx(result.ade, abs=0.05)

    def test_seed_reproducibility_bit_identical(self):
        t, m, y = self.make_system()
        one = mediate(t, m, y, n_boot=300, seed=99)
        two = mediate(t, m, y, n_boot=300, seed=99)
        assert one == two

    def test_no_bootstrap_degrades_to_point_estimates(self):
        t, m, y = self.make_system()
        result = mediate(t, m, y, n_boot=0)
        assert result.acme_ci is None and result.ade_p is None
        assert result.total_effect == result.acme + result.ade

    @staticmethod
    def assert_matches_oracle(t, m, y, n_boot, seed):
        got = mediate(t, m, y, n_boot=n_boot, seed=seed)
        want = oracle_mediate(t, m, y, n_boot, seed)
        close = partial(pytest.approx, rel=1e-10, abs=1e-12)
        assert got.acme == close(want["acme"])
        assert got.ade == close(want["ade"])
        assert got.total_effect == close(want["total"])
        assert got.total_effect == got.acme + got.ade
        if n_boot == 0:
            assert got.acme_ci is None and got.total_p is None
            return
        for name in ("acme", "ade", "total"):
            assert getattr(got, f"{name}_ci") == close(want[f"{name}_ci"])
            assert getattr(got, f"{name}_p") == want[f"{name}_p"]

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(10, 80),
        n_boot=st.integers(0, 200),
        seed=st.integers(0, 2**32 - 1),
        data_seed=st.integers(0, 2**32 - 1),
        levels=st.sampled_from([0, 2, 3]),
    )
    def test_matches_oracle(self, n, n_boot, seed, data_seed, levels):
        # levels 2 and 3 give treatments with that many distinct values, so some
        # replicates draw a constant treatment and need the least-squares refit
        rng = np.random.default_rng(data_seed)
        t = rng.integers(0, levels, size=n).astype(float) if levels else rng.normal(size=n)
        m = 0.8 * t + rng.normal(size=n)
        y = 0.5 * m - 0.3 * t + rng.normal(size=n)
        self.assert_matches_oracle(t, m, y, n_boot, seed)

    def test_rank_deficient_replicates_match_oracle(self):
        t = np.array([0.0] * 9 + [1.0])
        rng = np.random.default_rng(31)
        m = 0.8 * t + rng.normal(size=10)
        y = 0.5 * m + rng.normal(size=10)
        # about a third of the replicates never draw the one treated row
        assert np.sum(_resample_counts(5, 10, 200)[:, 9] == 0) > 50
        self.assert_matches_oracle(t, m, y, 200, 5)

    def test_resample_counts_shared_and_read_only(self):
        counts = _resample_counts(7, 30, 40)
        assert counts is _resample_counts(7, 30, 40)
        assert counts.shape == (40, 30) and not counts.flags.writeable
        assert np.all(counts.sum(axis=1) == 30)

    def test_too_short(self):
        with pytest.raises(InsufficientObservations):
            mediate([1.0] * 5, [1.0] * 5, [1.0] * 5, n_boot=0)

    def test_overflowing_series_raises(self):
        t = [1e308, 1e308] + [float(i) for i in range(10)]
        with pytest.raises(NumericOverflow):
            mediate(t, list(range(12)), list(range(12)), n_boot=5)
