import math
import random
from dataclasses import fields
from functools import partial

import mpmath
import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cultnovelty import stats
from cultnovelty.errors import (
    AllTied,
    ConstantSeries,
    DuplicateIds,
    InsufficientObservations,
    LengthMismatch,
    NumericOverflow,
    RankDeficient,
)
from cultnovelty.stats import (
    MediationResult,
    _normal_p,
    _resample_counts,
    _t_p_value,
    gram_table,
    kendall_tau,
    mediate,
    ols,
    pearson,
    rbo,
)

from oracles import oracle_kendall_tau, oracle_mediate, oracle_rbo


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


# few distinct values, so that draws tie; the extremes, whose differences
# overflow; and -0.0, which ties 0.0
KENDALL_VALUES = st.one_of(
    st.sampled_from([-1e308, -2.0, -0.0, 0.0, 1.0, 1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


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

    @staticmethod
    def assert_matches_oracle(x, y):
        want = oracle_kendall_tau(x, y)
        if want is None:
            with pytest.raises(AllTied):
                kendall_tau(x, y)
        else:
            assert kendall_tau(x, y) == want

    @pytest.mark.filterwarnings("error")  # no overflow on the way, even where no result changes
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(3, 40).flatmap(
            lambda n: st.lists(
                st.tuples(KENDALL_VALUES, KENDALL_VALUES), min_size=n, max_size=n
            )
        )
    )
    @example([(1.0, 2.0), (1.0, 2.0), (1.0, 3.0), (2.0, 3.0), (0.5, 1.0)])  # ties in x, y and both
    @example([(1e308, -1e308), (-1e308, 1e308), (0.0, 0.0), (5e307, 1.0)])
    @example([(-0.0, 1.0), (0.0, 2.0), (1.0, 3.0), (-0.0, -0.0), (2.0, 0.0)])
    def test_equals_oracle(self, pairs):
        x, y = [a for a, _ in pairs], [b for _, b in pairs]
        self.assert_matches_oracle(x, y)
        with pytest.MonkeyPatch.context() as patch:  # several row blocks for every n here
            patch.setattr(stats, "_KENDALL_BLOCK", 3)
            self.assert_matches_oracle(x, y)

    def test_several_default_row_blocks_equal_oracle(self):
        rng = random.Random(3)
        n = 2 * stats._KENDALL_BLOCK + 5
        x = [rng.choice([-1e308, -0.0, 0.0, 1.0, 2.5, 1e308]) for _ in range(n)]
        y = [rng.randint(0, 20) + rng.choice([0.0, 0.5]) for _ in range(n)]
        self.assert_matches_oracle(x, y)


def mpmath_t_p(t, df):
    """Two-sided t-test p to 40 digits, with x = df / (df + t^2) formed from the exact t."""
    with mpmath.workdps(40):
        t = mpmath.mpf(t)
        x = df / (df + t * t)
        return mpmath.betainc(mpmath.mpf(df) / 2, mpmath.mpf(1) / 2, 0, x, regularized=True)


def t_reference_grid(df):
    """(t, 40-digit p) from t = 1e-4 up to where p falls below 1e-250 or t * t overflows.

    Steps of 10% to t = 100, then doublings, plus both sides of t = 1, where the
    continued fraction switches between I_x(df/2, 1/2) and 1 - I_(1-x)(1/2, df/2).
    """
    ts = sorted([1e-4 * 1.1**k for k in range(146)] + [math.nextafter(1.0, 0.0), 1.0]
                + [100.0 * 2.0**k for k in range(1, 512)])
    for t in ts:
        if math.isinf(t * t):
            return
        want = mpmath_t_p(t, df)
        if want < 1e-250:
            return
        yield t, want


class TestTPValue:
    @pytest.mark.parametrize("df", [1, 2, 3, 5, 10, 30, 100, 1_000, 10_000, 1_000_000])
    def test_matches_mpmath(self, df):
        # df = 1 stops where t * t overflows (t about 1.3e154, p about 5e-155)
        grid = list(t_reference_grid(df))
        assert len(grid) > 100
        worst = max(abs(_t_p_value(t, df) - want) / want for t, want in grid)
        assert worst <= 1e-12

    @pytest.mark.parametrize("t", [1e160, 1e200, -1e200, math.inf, -math.inf])
    @pytest.mark.parametrize("df", [1, 2, 30, 1_000_000])
    def test_overflowing_square_gives_zero(self, t, df):
        assert _t_p_value(t, df) == 0.0

    @pytest.mark.parametrize("t", [0.0, -0.0])
    @pytest.mark.parametrize("df", [1, 2, 30, 1_000_000])
    def test_zero_gives_one(self, t, df):
        assert _t_p_value(t, df) == 1.0

    @settings(max_examples=300, deadline=None)
    @given(t=st.floats(allow_nan=False), df=st.integers(1, 10**7))
    def test_is_a_probability(self, t, df):
        assert 0.0 <= _t_p_value(t, df) <= 1.0


class TestNormalP:
    def test_huge_statistic_gives_zero(self):
        assert _normal_p(1e200) == 0.0
        assert _normal_p(-1e200) == 0.0

    def test_zero_gives_one(self):
        assert _normal_p(0.0) == 1.0

    def test_matches_mpmath(self):
        for z in (1e-8, 0.5, 1.96, 5.0, 20.0, 37.0):
            want = mpmath.erfc(mpmath.mpf(z) / mpmath.sqrt(2))
            assert _normal_p(z) == pytest.approx(float(want), rel=1e-13)


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

    @pytest.mark.parametrize("value", [0.0, 0.1, -3e12])
    def test_constant_response_raises(self, value):
        # nothing to explain: a fit would report r squared 1 and p 0 for every term
        x = np.arange(8, dtype=float)
        with pytest.raises(ConstantSeries):
            ols(np.column_stack([np.ones(8), x]), [value] * 8, names=("const", "x"))

    def test_response_whose_squares_underflow_raises(self):
        # its squared deviations underflow to zero: a fit would report r squared 1
        # and every p 0, where pearson gives r 0.28 and p 0.49
        y = [0.0, 1e-170, 0.0, 2e-170, 0.0, 1e-170, 3e-170, 0.0]
        x = np.arange(8, dtype=float)
        with pytest.raises(NumericOverflow, match="underflows"):
            ols(np.column_stack([np.ones(8), x]), y, names=("const", "x"))

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


def mediate_alone(t, m, y, n_boot, seed=0):
    """mediate on the Gram table of its own three columns."""
    return mediate(gram_table((t, m, y), n_boot, seed))


class TestMediate:
    def make_system(self, seed=123, n=300):
        rng = np.random.default_rng(seed)
        t = rng.normal(size=n)
        m = 3.0 * t + rng.normal(size=n) * 0.5
        y = 2.0 * m + rng.normal(size=n) * 0.5
        return t, m, y

    def test_total_is_acme_plus_ade_exactly(self):
        t, m, y = self.make_system()
        result = mediate_alone(t, m, y, 50, 4)
        assert result.total_effect == result.acme + result.ade

    def test_fully_mediated_system(self):
        t, m, y = self.make_system()
        result = mediate_alone(t, m, y, 500, 4)
        assert result.acme == pytest.approx(6.0, abs=0.3)
        assert result.acme_ci[0] <= 6.0 <= result.acme_ci[1]
        assert result.ade_ci[0] <= 0.0 <= result.ade_ci[1]

    def test_independent_mediator_zero_acme(self):
        rng = np.random.default_rng(21)
        n = 200
        t = rng.normal(size=n)
        m = rng.normal(size=n)  # unrelated to treatment
        y = 1.5 * t + rng.normal(size=n) * 0.1
        result = mediate_alone(t, m, y, 200, 3)
        assert abs(result.acme) < 0.05
        assert result.total_effect == pytest.approx(result.ade, abs=0.05)

    def test_seed_reproducibility_bit_identical(self):
        t, m, y = self.make_system()
        one = mediate_alone(t, m, y, 300, 99)
        two = mediate_alone(t, m, y, 300, 99)
        assert one == two

    def test_no_bootstrap_degrades_to_point_estimates(self):
        t, m, y = self.make_system()
        result = mediate_alone(t, m, y, 0)
        assert result.acme_ci is None and result.ade_p is None
        assert result.total_effect == result.acme + result.ade

    @staticmethod
    def assert_matches_oracle(t, m, y, n_boot, seed):
        got = mediate_alone(t, m, y, n_boot, seed)
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
            mediate_alone([1.0] * 5, [1.0] * 5, [1.0] * 5, 0)

    def test_overflowing_series_raises(self):
        t = [1e308, 1e308] + [float(i) for i in range(10)]
        with pytest.raises(NumericOverflow):
            mediate_alone(t, list(range(12)), list(range(12)), 5)

    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(LengthMismatch):
            mediate_alone(list(range(12)), list(range(11)), list(range(12)), 0)


class TestSharedGramTable:
    """Mediations that read one table over all of a row set's columns.

    Each must give what mediate gives from its own three columns: the same
    p-values and replicate count, and every other field within 1e-12
    relative, as BLAS may sum the products of the wider table in another
    order. The data have effects well away from zero, where a relative
    tolerance is meaningful.
    """

    N_METRICS, N_MEDIATORS = 5, 3

    @staticmethod
    def assert_same(got, want):
        for field in fields(MediationResult):
            g, w = getattr(got, field.name), getattr(want, field.name)
            if field.name.endswith("_p") or field.name == "n_boot" or w is None:
                assert g == w, field.name
            else:
                assert g == pytest.approx(w, rel=1e-12, abs=0.0), field.name

    def assert_shared_equals_standalone(self, metrics, mediators, y, n_boot, seed):
        table = gram_table(list(metrics) + list(mediators) + [y], n_boot, seed)
        outcome = len(metrics) + len(mediators)
        for i, t in enumerate(metrics):
            for j, m in enumerate(mediators):
                got = mediate(table, columns=(i, len(metrics) + j, outcome))
                self.assert_same(got, mediate_alone(t, m, y, n_boot, seed))

    def system(self, data_seed, n):
        rng = np.random.default_rng(data_seed)
        metrics = rng.normal(size=(self.N_METRICS, n))
        weights = rng.uniform(0.5, 1.0, size=(self.N_MEDIATORS, self.N_METRICS))
        mediators = weights @ metrics + 0.5 * rng.normal(size=(self.N_MEDIATORS, n))
        y = mediators.sum(axis=0) + 0.3 * metrics.sum(axis=0) + 0.5 * rng.normal(size=n)
        return metrics, mediators, y

    @pytest.mark.parametrize("data_seed", [0, 1, 2])
    def test_equals_standalone(self, data_seed):
        metrics, mediators, y = self.system(data_seed, n=150)
        self.assert_shared_equals_standalone(metrics, mediators, y, n_boot=200, seed=data_seed)

    def test_no_bootstrap_equals_standalone(self):
        metrics, mediators, y = self.system(5, n=40)
        self.assert_shared_equals_standalone(metrics, mediators, y, n_boot=0, seed=1)

    def test_two_level_treatment_refits_replicates(self):
        metrics, mediators, y = self.system(7, n=12)
        metrics[0] = [0.0] * 10 + [1.0] * 2
        # replicates that draw no treated row have a constant treatment
        assert np.any(_resample_counts(9, 12, 100)[:, 10:].sum(axis=1) == 0)
        self.assert_shared_equals_standalone(metrics, mediators, y, n_boot=100, seed=9)

    def test_singular_point_estimate(self):
        metrics, mediators, y = self.system(11, n=30)
        mediators[1] = 2.0 * metrics[3] + 1.0  # collinear with one treatment
        metrics[4] = 0.25  # a constant treatment
        self.assert_shared_equals_standalone(metrics, mediators, y, n_boot=50, seed=3)

    def test_overflowing_column_fails_only_its_mediations(self):
        metrics, mediators, y = self.system(13, n=30)
        metrics[2] *= 1e307
        table = gram_table(list(metrics) + list(mediators) + [y], 20, 0)
        for i, t in enumerate(metrics):
            for j, m in enumerate(mediators):
                columns = (i, self.N_METRICS + j, self.N_METRICS + self.N_MEDIATORS)
                if i == 2:
                    with pytest.raises(NumericOverflow):
                        mediate(table, columns=columns)
                else:
                    got = mediate(table, columns=columns)
                    self.assert_same(got, mediate_alone(t, m, y, 20, 0))
