"""Self-contained statistics for the validation pipeline.

Correlation (Pearson, tau-b), top-weighted ranking overlap, OLS with
classical inference, and linear product-of-coefficients mediation (Imai,
Keele & Tingley 2010) with a seeded percentile bootstrap (Efron &
Tibshirani 1993). The bootstrap draws each (seed, n, n_boot) resample set
once and solves every replicate from count-weighted Gram matrices of the
standardized data; rank-deficient replicates fall back to minimum-norm
least squares. Implementations are written against numpy directly; the
test suite checks them against independent oracles. ``scipy.special`` is
imported on first use, so importing the package does not pay for it.
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

# replicates per weighted Gram block: bounds the float copy of the count matrix
_BOOT_BLOCK = 64
# a Gram block whose eigenvalue ratio falls below this is refit by lstsq; the
# normal equations lose up to about eps / ratio relative, so 1e-4 keeps them near 1e-11
_MIN_EIGEN_RATIO = 1e-4


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


def _paired(x: Sequence[float], y: Sequence[float], min_n: int) -> tuple[np.ndarray, np.ndarray]:
    if len(x) != len(y):
        raise LengthMismatch(f"series lengths differ: {len(x)} vs {len(y)}")
    if len(x) < min_n:
        raise InsufficientObservations(f"need at least {min_n} observations, got {len(x)}")
    return np.asarray(x, dtype=float), np.asarray(y, dtype=float)


def _t_p_value(t: float, df: int) -> float:
    """Two-sided p of a t statistic via the regularized incomplete beta."""
    if math.isinf(t):
        return 0.0
    from scipy import special

    return float(special.betainc(df / 2.0, 0.5, df / (df + t * t)))


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
    concordant_minus_discordant = 0
    for i in range(n - 1):
        # signs by comparison: the difference of two large values would overflow
        sign_x = (xa[i + 1 :] > xa[i]).astype(int) - (xa[i + 1 :] < xa[i])
        sign_y = (ya[i + 1 :] > ya[i]).astype(int) - (ya[i + 1 :] < ya[i])
        concordant_minus_discordant += int(sign_x @ sign_y)

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
    z = concordant_minus_discordant / math.sqrt(var)
    from scipy import special

    p = float(special.erfc(abs(z) / math.sqrt(2.0)))
    return tau, min(1.0, p)


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

    The design matrix must already include its intercept column.
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
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = np.where(se > 0, beta / se, np.inf)
    p_values = [_t_p_value(float(t), df) for t in t_stats]
    r_squared = 1.0 - ssr / sst if sst > 0.0 else 1.0

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


def _weighted_effects(
    weights: np.ndarray, outer: np.ndarray, scales: tuple[float, float, float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(acme, ade, singular) of each row of case weights.

    ``outer`` holds each observation's outer product of [1, t', m', y'] over
    standardized columns, so ``weights @ outer`` is every replicate's Gram
    matrix. m ~ 1 + t is its leading 2x2 block and y ~ 1 + t + m its leading
    3x3 block; shifting and scaling change the slopes only by the scale ratios.
    Rows flagged singular hold placeholders and must be refit.
    """
    t_scale, m_scale, y_scale = scales
    gram = (weights @ outer).reshape(-1, 4, 4)
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


def _percentile_ci(samples: np.ndarray) -> tuple[float, float]:
    lo, hi = np.percentile(samples, [2.5, 97.5])
    return float(lo), float(hi)


def _bootstrap_p(samples: np.ndarray) -> float:
    below = float(np.mean(samples <= 0.0))
    above = float(np.mean(samples >= 0.0))
    return min(1.0, 2.0 * min(below, above))


def mediate(
    treatment: Sequence[float],
    mediator: Sequence[float],
    outcome: Sequence[float],
    n_boot: int = 1000,
    seed: int = 0,
) -> MediationResult:
    """Linear product-of-coefficients mediation with bootstrap inference.

    Fits mediator ~ treatment and outcome ~ treatment + mediator; the
    mediated effect is the product a*b, the direct effect is the treatment
    coefficient of the second fit, and the total is their sum. Percentile
    intervals and p-values come from a seeded nonparametric bootstrap whose
    per-replicate substreams make the result independent of evaluation
    order. The point estimate is the replicate whose every weight is one.
    """
    t, m = _paired(treatment, mediator, min_n=10)
    _, y = _paired(treatment, outcome, min_n=10)
    n = len(t)
    columns, scales = zip(*(_standardize(v) for v in (t, m, y)))
    design = np.column_stack((np.ones(n),) + columns)
    outer = (design[:, :, None] * design[:, None, :]).reshape(n, 16)

    point_acme, point_ade, singular = _weighted_effects(np.ones((1, n)), outer, scales)
    if singular[0]:
        point_acme[0], point_ade[0] = _mediation_point(t, m, y)
    acme, ade = float(point_acme[0]), float(point_ade[0])
    total = acme + ade

    if n_boot <= 0:
        return MediationResult(
            total_effect=total, acme=acme, ade=ade,
            acme_ci=None, ade_ci=None, total_ci=None,
            acme_p=None, ade_p=None, total_p=None, n_boot=0,
        )

    counts = _resample_counts(seed, n, n_boot)
    acme_samples = np.empty(n_boot)
    ade_samples = np.empty(n_boot)
    for start in range(0, n_boot, _BOOT_BLOCK):
        block = slice(start, start + _BOOT_BLOCK)
        acme_samples[block], ade_samples[block], singular = _weighted_effects(
            counts[block].astype(float), outer, scales
        )
        for i in start + np.flatnonzero(singular):
            idx = _resample_indices(seed, n, i)
            acme_samples[i], ade_samples[i] = _mediation_point(t[idx], m[idx], y[idx])
    total_samples = acme_samples + ade_samples

    return MediationResult(
        total_effect=total,
        acme=acme,
        ade=ade,
        acme_ci=_percentile_ci(acme_samples),
        ade_ci=_percentile_ci(ade_samples),
        total_ci=_percentile_ci(total_samples),
        acme_p=_bootstrap_p(acme_samples),
        ade_p=_bootstrap_p(ade_samples),
        total_p=_bootstrap_p(total_samples),
        n_boot=n_boot,
    )
