"""Self-contained statistics for the validation pipeline.

Correlation (Pearson, tau-b), top-weighted ranking overlap, OLS with
classical inference, and linear product-of-coefficients mediation (Imai,
Keele & Tingley 2010) with a seeded percentile bootstrap (Efron &
Tibshirani 1993). The bootstrap draws each (seed, n, n_boot) resample set
once. One Gram table per row set fixes its rows, n_boot and seed, and holds
every replicate's count-weighted Gram entries over all of that set's
standardized columns, and the raw columns. A mediation reads only its
table: it slices its own 4x4 matrices out of it and solves all of its
replicates at once, and rank-deficient replicates fall back to
minimum-norm least squares on the raw columns. Kendall's tau-b takes its
pair signs by comparison, as sign matrices in row blocks. Implementations
are written against numpy and the standard library; the test suite checks
them against independent oracles.

The t-test p-value is the regularized incomplete beta I_x(df/2, 1/2),
evaluated by the modified Lentz method (Numerical Recipes, 3rd ed., sections
5.2 and 6.4) on the even part of its continued fraction, written in both x
and 1 - x (DiDonato & Morris 1992, BFRAC) so that neither is formed from the
other. Its log-beta term comes from ``math.lgamma`` for small df and from the
asymptotic series of ln Gamma(a + 1/2) - ln Gamma(a) (DLMF 5.11.8) for large df.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import (
    AllTied,
    ConstantSeries,
    DuplicateIds,
    InsufficientObservations,
    LengthMismatch,
    NumericOverflow,
    RankDeficient,
)

# replicates per weighted Gram block: bounds the float copy of the count matrix at this
# many x n, and fixes mediation.csv's bytes, since BLAS may sum a taller block's product
# in another order (128 moved them on a generated corpus and was no faster)
_BOOT_BLOCK = 16
# rows of the pair-sign matrices kendall_tau holds at once: bounds them at this many x n
_KENDALL_BLOCK = 256
# a Gram block whose eigenvalue ratio falls below this is refit by lstsq; the
# normal equations lose up to about eps / ratio relative, so 1e-4 keeps them near 1e-11
_MIN_EIGEN_RATIO = 1e-4
# the continued fraction of I_x(df/2, 1/2) takes at most about 160 terms for df up to 1e12
_MAX_FRACTION_TERMS = 1000
# modified Lentz: stand-in for a zero denominator
_LENTZ_TINY = 1e-300


@dataclass(frozen=True)
class RegressionResult:
    """OLS estimates with classical inference."""

    coefficients: dict[str, float]
    std_errors: dict[str, float]
    t_stats: dict[str, float]
    p_values: dict[str, float]
    r_squared: float
    n_obs: int


@dataclass(frozen=True)
class MediationResult:
    """Linear mediation decomposition with bootstrap intervals.

    total_effect always equals acme + ade exactly; intervals and p-values
    are None when the bootstrap was disabled (n_boot=0).
    """

    total_effect: float
    acme: float
    ade: float
    acme_ci: Optional[tuple[float, float]]
    ade_ci: Optional[tuple[float, float]]
    total_ci: Optional[tuple[float, float]]
    acme_p: Optional[float]
    ade_p: Optional[float]
    total_p: Optional[float]
    n_boot: int


def _paired(*series: Sequence[float], min_n: int) -> list[np.ndarray]:
    n = len(series[0])
    for other in series[1:]:
        if len(other) != n:
            raise LengthMismatch(f"series lengths differ: {n} vs {len(other)}")
    if n < min_n:
        raise InsufficientObservations(f"need at least {min_n} observations, got {n}")
    return [np.asarray(x, dtype=float) for x in series]


def _ln_beta_half(a: float) -> float:
    """ln B(a, 1/2) = ln Gamma(a) + ln Gamma(1/2) - ln Gamma(a + 1/2)."""
    if a < 15.0:
        return math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5)
    # ln Gamma(a + 1/2) - ln Gamma(a) by DLMF 5.11.8: from a = 15 the series is within
    # 5e-16 absolute, while the difference of two lgamma values loses 6e-15 and growing
    w = 1.0 / (a * a)
    series = 1 / 8 - w * (1 / 192 - w * (1 / 640 - w * (17 / 14336 - w * 5115 / 3041280)))
    return 0.5 * math.log(math.pi / a) + series / a


def _beta_fraction(a: float, b: float, x: float, y: float) -> float:
    """x^a y^b / (B(a, b) I_x(a, b)) for y = 1 - x, by modified Lentz.

    The even part of the continued fraction of I_x(a, b) (DiDonato & Morris
    1992, BFRAC). It converges fast for (a + b) y >= b. Where _t_p_value
    calls it, a y - b x + 1 in its partial denominators stays above 1/2; the
    plain fraction (Numerical Recipes 6.4) forms 1 - (a + b) x / (a + 1)
    instead, which cancels to O(1/a) as x nears one.
    """
    f = a * (a * y - b * x + 1.0) / (a + 1.0)
    c, d = f, 0.0
    for m in range(1, _MAX_FRACTION_TERMS):
        k = a + 2 * m
        num = (a + m - 1) * (a + b + m - 1) * m * (b - m) * (x / (k - 1)) ** 2
        den = m + m * (b - m) * x / (k - 1) + (a + m) * (a * y - b * x + 1.0 + m * (1.0 + y)) / (k + 1)
        d = 1.0 / ((den + num * d) or _LENTZ_TINY)
        c = (den + num / c) or _LENTZ_TINY
        step = c * d
        f *= step
        if abs(step - 1.0) <= math.ulp(1.0):
            break
    return f


def _t_p_value(t: float, df: int) -> float:
    """Two-sided p of a t statistic: the regularized incomplete beta I_x(df/2, 1/2).

    x = df / (df + t^2) and 1 - x = t^2 / (df + t^2) and their logs come
    straight from t: x rounds away the digits that carry p at large df. A t
    whose square overflows gives 0.
    """
    t2 = t * t
    if t2 == 0.0:
        return 1.0
    if math.isinf(t2):
        return 0.0
    a = df / 2.0
    x = df / (df + t2)
    y = t2 / (df + t2)
    front = math.exp(-a * math.log1p(t2 / df) - 0.5 * math.log1p(df / t2) - _ln_beta_half(a))
    # (a + 1/2) y >= 1/2 exactly when t^2 >= 1; below it p > 0.3, so 1 - I_y(1/2, a) keeps its digits
    if t2 >= 1.0:
        return front / _beta_fraction(a, 0.5, x, y)
    return 1.0 - front / _beta_fraction(0.5, a, y, x)


def _normal_p(z: float) -> float:
    """Two-sided p of a standard normal statistic."""
    return math.erfc(abs(z) / math.sqrt(2.0))


def pearson(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Sample Pearson correlation with its two-sided t-test p-value."""
    xa, ya = _paired(x, y, min_n=3)
    # r is scale-free: a power-of-two scale to at most 1 is exact and keeps the squares finite
    xa, ya = (np.ldexp(v, -np.frexp(np.abs(v).max())[1]) for v in (xa, ya))
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    sxx = float(xc @ xc)
    syy = float(yc @ yc)
    if sxx == 0.0 or syy == 0.0:
        raise ConstantSeries("correlation is undefined for a constant series")
    cov = float(xc @ yc)
    # ratio of squares keeps perfectly collinear integer series at exactly +-1
    r = math.copysign(math.sqrt(min(1.0, cov * cov / (sxx * syy))), cov)
    n = len(xa)
    if abs(r) == 1.0:
        return r, 0.0
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    return r, _t_p_value(t, n - 2)


def kendall_tau(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Tau-b with tie correction; p from the tie-adjusted normal approximation."""
    xa, ya = _paired(x, y, min_n=3)
    n = len(xa)
    # each unordered pair appears twice among the rows of the sign matrices and
    # the diagonal is zero, so their sum is twice concordant minus discordant
    twice_concordant_minus_discordant = 0
    for start in range(0, n, _KENDALL_BLOCK):
        rows = slice(start, start + _KENDALL_BLOCK)
        # signs by comparison: the difference of two large values would overflow
        sign_x = (xa > xa[rows, None]).astype(np.int8) - (xa < xa[rows, None])
        sign_y = (ya > ya[rows, None]).astype(np.int8) - (ya < ya[rows, None])
        twice_concordant_minus_discordant += int((sign_x * sign_y).sum(dtype=np.int64))
    concordant_minus_discordant = twice_concordant_minus_discordant // 2

    def tie_counts(arr: np.ndarray) -> list[int]:
        _, counts = np.unique(arr, return_counts=True)
        return [int(c) for c in counts if c > 1]

    ties_x = tie_counts(xa)
    ties_y = tie_counts(ya)
    n0 = n * (n - 1) // 2
    n1 = sum(t * (t - 1) // 2 for t in ties_x)
    n2 = sum(t * (t - 1) // 2 for t in ties_y)
    if n1 == n0 or n2 == n0:
        raise AllTied("tau-b is undefined when a whole series is tied")
    tau = concordant_minus_discordant / math.sqrt((n0 - n1) * (n0 - n2))
    tau = max(-1.0, min(1.0, tau))

    v0 = n * (n - 1) * (2 * n + 5)
    vt = sum(t * (t - 1) * (2 * t + 5) for t in ties_x)
    vu = sum(u * (u - 1) * (2 * u + 5) for u in ties_y)
    v1 = (
        sum(t * (t - 1) for t in ties_x)
        * sum(u * (u - 1) for u in ties_y)
        / (2.0 * n * (n - 1))
    )
    v2 = (
        sum(t * (t - 1) * (t - 2) for t in ties_x)
        * sum(u * (u - 1) * (u - 2) for u in ties_y)
        / (9.0 * n * (n - 1) * (n - 2))
    )
    var = (v0 - vt - vu) / 18.0 + v1 + v2
    if var <= 0.0:
        return tau, 1.0
    return tau, _normal_p(concordant_minus_discordant / math.sqrt(var))


def rbo(list_a: Sequence[str], list_b: Sequence[str], p: float = 0.9) -> float:
    """Extrapolated rank-biased overlap of two duplicate-free rankings.

    Overlap fractions at increasing depth are weighted geometrically by p
    and extrapolated past the end of the shorter list, so the result stays
    in [0, 1] for rankings of unequal length.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("persistence p must lie strictly inside (0, 1)")
    for name, lst in (("a", list_a), ("b", list_b)):
        if len(set(lst)) != len(lst):
            raise DuplicateIds(f"ranking {name} repeats an id")
    if not list_a or not list_b:
        return 0.0
    if list(list_a) == list(list_b):
        return 1.0
    short, long_ = sorted((list(list_a), list(list_b)), key=len)
    s, l = len(short), len(long_)

    seen_short: set[str] = set()
    seen_long: set[str] = set()
    overlap = 0
    overlap_at: dict[int, int] = {}
    sum1 = 0.0
    for depth in range(1, l + 1):
        long_item = long_[depth - 1]
        short_item = short[depth - 1] if depth <= s else None
        if short_item == long_item:
            overlap += 1
        else:
            if short_item is not None:
                if short_item in seen_long:
                    overlap += 1
                seen_short.add(short_item)
            if long_item in seen_short:
                overlap += 1
            seen_long.add(long_item)
        overlap_at[depth] = overlap
        sum1 += overlap / depth * p**depth

    x_s = overlap_at[s]
    x_l = overlap_at[l]
    sum2 = sum(
        x_s * (depth - s) / (s * depth) * p**depth for depth in range(s + 1, l + 1)
    )
    sum3 = ((x_l - x_s) / l + x_s / s) * p**l
    return (1.0 - p) / p * (sum1 + sum2) + sum3


def ols(
    design: np.ndarray,
    y: Sequence[float],
    names: Optional[Sequence[str]] = None,
) -> RegressionResult:
    """Least squares through a QR decomposition, with classical inference.

    The design matrix must already include its intercept column. Raises
    ConstantSeries when every response is equal, and NumericOverflow when a
    sum of squares or a standard error overflows float64, or when the total
    sum of squares underflows it (a fit would then read r squared 1, p 0).
    """
    X = np.asarray(design, dtype=float)
    yv = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ValueError("design must be a 2-d matrix")
    n, k = X.shape
    if len(yv) != n:
        raise LengthMismatch(f"{n} design rows vs {len(yv)} responses")
    if n < k + 1:
        raise InsufficientObservations(f"{n} rows cannot identify {k} parameters")
    if names is None:
        names = ["const"] + [f"x{i}" for i in range(1, k)]
    if len(names) != k:
        raise ValueError("one name per design column required")
    if yv.min() == yv.max():  # nothing to explain: r squared and every p would be degenerate
        raise ConstantSeries("regression is undefined for a constant response")

    # finite inputs can still overflow float64 on the way; the check below catches that
    with np.errstate(over="ignore", invalid="ignore"):
        q, r = np.linalg.qr(X)
        diag = np.abs(np.diag(r))
        if diag.min() <= max(n, k) * np.finfo(float).eps * diag.max():
            raise RankDeficient("design matrix is rank deficient")
        beta = np.linalg.solve(r, q.T @ yv)

        residuals = yv - X @ beta
        ssr = float(residuals @ residuals)
        sst = float(np.sum((yv - yv.mean()) ** 2))
        df = n - k
        r_inv = np.linalg.solve(r, np.eye(k))
        xtx_inv = r_inv @ r_inv.T
        se = np.sqrt(np.diag(ssr / df * xtx_inv))
    if not (math.isfinite(ssr) and math.isfinite(sst) and np.isfinite(se).all()):
        raise NumericOverflow("the regression overflows float64")
    if sst < np.finfo(float).tiny:
        raise NumericOverflow("the regression underflows float64")
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = np.where(se > 0, beta / se, np.inf)
    p_values = [_t_p_value(float(t), df) for t in t_stats]
    r_squared = 1.0 - ssr / sst

    return RegressionResult(
        coefficients=dict(zip(names, map(float, beta))),
        std_errors=dict(zip(names, map(float, se))),
        t_stats=dict(zip(names, map(float, t_stats))),
        p_values=dict(zip(names, p_values)),
        r_squared=max(0.0, min(1.0, r_squared)),
        n_obs=n,
    )


def _mediation_point(t: np.ndarray, m: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """(acme, ade) from the two minimum-norm least-squares fits."""
    ones = np.ones(len(t))
    a = float(np.linalg.lstsq(np.column_stack([ones, t]), m, rcond=None)[0][1])
    coef_y = np.linalg.lstsq(np.column_stack([ones, t, m]), y, rcond=None)[0]
    c_prime, b = float(coef_y[1]), float(coef_y[2])
    return a * b, c_prime


def _resample_indices(seed: int, n: int, replicate: int) -> np.ndarray:
    """Rows of one bootstrap replicate, drawn from child ``replicate`` of SeedSequence(seed).

    ``SeedSequence(seed, spawn_key=(i,))`` is the i-th child that
    ``SeedSequence(seed).spawn`` returns, so any replicate can be redrawn alone.
    """
    child = np.random.SeedSequence(seed, spawn_key=(replicate,))
    return np.random.default_rng(child).integers(0, n, size=n)


@lru_cache(maxsize=1)
def _resample_counts(seed: int, n: int, n_boot: int) -> np.ndarray:
    """Read-only n_boot x n matrix of how often each row is drawn in each replicate.

    Mediations over the same seed and row count draw the same resamples, so
    consecutive calls share one draw.
    """
    dtype = np.uint16 if n <= np.iinfo(np.uint16).max else np.uint32
    counts = np.empty((n_boot, n), dtype=dtype)
    for i in range(n_boot):
        counts[i] = np.bincount(_resample_indices(seed, n, i), minlength=n)
    counts.flags.writeable = False
    return counts


def _standardize(v: np.ndarray) -> tuple[np.ndarray, float]:
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        scale = float(v.std()) or 1.0
        z = (v - v.mean()) / scale
    if not (np.isfinite(scale) and np.isfinite(z).all()):
        raise NumericOverflow("a series overflows float64 when standardized")
    return z, scale


@dataclass(frozen=True, eq=False)
class GramTable:
    """Weighted Gram entries of standardized columns, one row per replicate.

    Column k of ``entries`` is the k-th upper-triangle entry, row by row, of
    the Gram matrix of [1, z_0, z_1, ...], where z_j is column j standardized.
    Row 0 weights every observation once and gives the point estimates; row
    1 + i weights them by replicate i of ``_resample_counts(seed, n, n_boot)``.
    ``scales[j]`` is column j's standard deviation, or None where standardizing
    it overflows float64; z_j is then zero, so only the fits that use it fail.
    ``data[j]`` is column j as given, for the refit of a singular replicate.
    """

    entries: np.ndarray
    scales: tuple[Optional[float], ...]
    data: np.ndarray
    n_boot: int
    seed: int


def gram_table(columns: Sequence[Sequence[float]], n_boot: int, seed: int) -> GramTable:
    """The Gram table of equally long columns, at least 10 rows: each replicate weights the same rows."""
    data = np.array(_paired(*columns, min_n=10))
    n_columns, n = data.shape
    n_boot = max(n_boot, 0)
    design = np.empty((n, 1 + n_columns))
    design[:, 0] = 1.0
    scales: list[Optional[float]] = []
    for j, column in enumerate(data, start=1):
        try:
            design[:, j], scale = _standardize(column)
        except NumericOverflow:
            design[:, j], scale = 0.0, None
        scales.append(scale)
    upper = np.triu_indices(1 + n_columns)
    products = design[:, upper[0]] * design[:, upper[1]]
    entries = np.empty((1 + n_boot, len(upper[0])))
    np.matmul(np.ones((1, n)), products, out=entries[:1])
    if n_boot:
        counts = _resample_counts(seed, n, n_boot)
        for start in range(0, n_boot, _BOOT_BLOCK):
            block = counts[start : start + _BOOT_BLOCK]
            np.matmul(block.astype(float), products, out=entries[1 + start : 1 + start + len(block)])
    return GramTable(entries=entries, scales=tuple(scales), data=data, n_boot=n_boot, seed=seed)


def _gram_slice(table: GramTable, columns: tuple[int, int, int]) -> np.ndarray:
    """Every row's 4x4 Gram matrix of [1, z_t, z_m, z_y], gathered from the table."""
    size = 1 + len(table.scales)
    upper = np.triu_indices(size)
    position = np.empty((size, size), dtype=np.intp)
    position[upper] = position[upper[::-1]] = np.arange(len(upper[0]))
    chosen = [0] + [1 + c for c in columns]
    return table.entries[:, position[np.ix_(chosen, chosen)]]


def _weighted_effects(
    gram: np.ndarray, scales: Sequence[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(acme, ade, singular) of each 4x4 Gram matrix of [1, t', m', y'].

    t', m' and y' are the standardized columns. m ~ 1 + t is the leading 2x2
    block and y ~ 1 + t + m the leading 3x3 block; shifting and scaling
    change the slopes only by the scale ratios. Rows flagged singular hold
    placeholders and must be refit. ``gram`` is overwritten.
    """
    t_scale, m_scale, y_scale = scales
    # the 2x2 block is a principal submatrix of the 3x3 one, so by eigenvalue
    # interlacing its ratio is never the smaller of the two
    eig = np.linalg.eigvalsh(gram[:, :3, :3])
    singular = eig[:, 0] < _MIN_EIGEN_RATIO * eig[:, 2]
    gram[singular] = np.eye(4)
    a = np.linalg.solve(gram[:, :2, :2], gram[:, :2, 2:3])[:, 1, 0] * (m_scale / t_scale)
    coef = np.linalg.solve(gram[:, :3, :3], gram[:, :3, 3:4])[:, :, 0]
    b = coef[:, 2] * (y_scale / m_scale)
    ade = coef[:, 1] * (y_scale / t_scale)
    return a * b, ade, singular


def _bootstrap_p(samples: np.ndarray) -> float:
    below = float(np.mean(samples <= 0.0))
    above = float(np.mean(samples >= 0.0))
    return min(1.0, 2.0 * min(below, above))


def mediate(table: GramTable, columns: tuple[int, int, int] = (0, 1, 2)) -> MediationResult:
    """Linear product-of-coefficients mediation with bootstrap inference.

    Fits mediator ~ treatment and outcome ~ treatment + mediator; the
    mediated effect is the product a*b, the direct effect is the treatment
    coefficient of the second fit, and the total is their sum. Percentile
    intervals and p-values come from a seeded nonparametric bootstrap whose
    per-replicate substreams make the result independent of evaluation
    order. The point estimate is the replicate whose every weight is one.

    ``table`` comes from ``gram_table`` and fixes the rows, the number of
    replicates and the seed; ``columns`` name its treatment, mediator and
    outcome columns. Mediations over the same rows share one table.
    """
    scales = [table.scales[c] for c in columns]
    if None in scales:
        raise NumericOverflow("a series overflows float64 when standardized")

    acme_all, ade_all, singular = _weighted_effects(_gram_slice(table, columns), scales)
    t, m, y = (table.data[c] for c in columns)
    if singular[0]:
        acme_all[0], ade_all[0] = _mediation_point(t, m, y)
    for i in np.flatnonzero(singular[1:]):
        idx = _resample_indices(table.seed, len(t), i)
        acme_all[1 + i], ade_all[1 + i] = _mediation_point(t[idx], m[idx], y[idx])
    acme, ade = float(acme_all[0]), float(ade_all[0])
    total = acme + ade

    if table.n_boot == 0:
        return MediationResult(
            total_effect=total, acme=acme, ade=ade,
            acme_ci=None, ade_ci=None, total_ci=None,
            acme_p=None, ade_p=None, total_p=None, n_boot=0,
        )

    samples = np.stack((acme_all[1:], ade_all[1:], acme_all[1:] + ade_all[1:]))
    acme_ci, ade_ci, total_ci = (
        (float(low), float(high)) for low, high in np.percentile(samples, [2.5, 97.5], axis=1).T
    )
    acme_p, ade_p, total_p = (_bootstrap_p(s) for s in samples)
    return MediationResult(
        total_effect=total,
        acme=acme,
        ade=ade,
        acme_ci=acme_ci,
        ade_ci=ade_ci,
        total_ci=total_ci,
        acme_p=acme_p,
        ade_p=ade_p,
        total_p=total_p,
        n_boot=table.n_boot,
    )
