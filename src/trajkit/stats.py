"""Statistical utilities: rank correlation, polynomial fits, interval
estimates, and 2x2 contingency measures."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence


class ConstantSeriesError(ValueError):
    """A correlation is undefined on a constant series."""


class DegenerateSpanError(ValueError):
    """A fit is undefined when the regressor has zero span."""


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Rank correlation with average ranks on ties."""
    if len(xs) != len(ys):
        raise ValueError("series differ in length")
    if len(xs) < 3:
        raise ValueError("need at least 3 points")
    if len(set(xs)) == 1 or len(set(ys)) == 1:
        raise ConstantSeriesError("constant series")
    from scipy.stats import spearmanr

    return float(spearmanr(xs, ys).statistic)


def legendre2_r2(xs: Sequence[float], ys: Sequence[float]) -> float:
    """R-squared of a least-squares fit on the degree-2 Legendre basis.

    ``xs`` is affinely rescaled to [-1, 1] before fitting.
    """
    if len(xs) != len(ys):
        raise ValueError("series differ in length")
    if len(xs) < 4:
        raise ValueError("need at least 4 points")
    import numpy as np

    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    lo, hi = x.min(), x.max()
    if hi == lo:
        raise DegenerateSpanError("xs span is zero")
    t = 2.0 * (x - lo) / (hi - lo) - 1.0
    design = np.polynomial.legendre.legvander(t, 2)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    ss_res = float(resid @ resid)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        raise ConstantSeriesError("ys are constant")
    return 1.0 - ss_res / ss_tot


def linear_r2(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Squared Pearson correlation; symmetric in its arguments."""
    if len(set(xs)) == 1 or len(set(ys)) == 1:
        raise ConstantSeriesError("constant series")
    from scipy.stats import pearsonr

    r = float(pearsonr(xs, ys).statistic)
    return r * r


def wilson_interval(successes: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0 <= successes <= n:
        raise ValueError(f"successes {successes} outside [0, {n}]")
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return (center - half, center + half)


@dataclass(frozen=True)
class Contingency2x2:
    """Counts: a = consistent & success, b = inconsistent & success,
    c = consistent & failure, d = inconsistent & failure."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if min(self.a, self.b, self.c, self.d) < 0:
            raise ValueError("counts must be nonnegative")
        if self.n == 0:
            raise ValueError("empty table")

    @property
    def n(self) -> int:
        return self.a + self.b + self.c + self.d


@dataclass(frozen=True)
class ContingencyStats:
    match_ratio_first: Optional[float]   # success % within the first column
    match_ratio_second: Optional[float]  # success % within the second column
    relative_risk: Optional[float]
    odds_ratio: Optional[float]
    chi2: float
    phi: float


def contingency_stats(t: Contingency2x2) -> ContingencyStats:
    """Match ratios, relative risk, odds ratio, Pearson chi-square, and phi.

    Undefined components (zero denominators) come back as None while the
    rest are still reported. No continuity correction is applied.
    """
    col1 = t.a + t.c
    col2 = t.b + t.d
    ratio1 = 100.0 * t.a / col1 if col1 else None
    ratio2 = 100.0 * t.b / col2 if col2 else None
    rr = (ratio1 / ratio2) if (ratio1 is not None and ratio2) else None
    odds = (t.a * t.d) / (t.b * t.c) if t.b * t.c else None

    row1 = t.a + t.b
    row2 = t.c + t.d
    denom = row1 * row2 * col1 * col2
    chi2 = t.n * (t.a * t.d - t.b * t.c) ** 2 / denom if denom else 0.0
    phi = math.sqrt(chi2 / t.n)
    return ContingencyStats(
        match_ratio_first=ratio1,
        match_ratio_second=ratio2,
        relative_risk=rr,
        odds_ratio=odds,
        chi2=chi2,
        phi=phi,
    )


@dataclass(frozen=True)
class SeedSummary:
    mean: float
    ci: Optional[tuple[float, float]]
    n: int
    std: Optional[float]


def multi_seed_summary(values: Sequence[float]) -> SeedSummary:
    """Mean with a 95% confidence interval over per-seed values.

    The interval uses the Student-t quantile on k-1 degrees of freedom with
    the sample standard deviation; a single seed yields the mean only.
    """
    if not values:
        raise ValueError("no values")
    k = len(values)
    mean = sum(values) / k
    if k == 1:
        return SeedSummary(mean=mean, ci=None, n=1, std=None)
    var = sum((v - mean) ** 2 for v in values) / (k - 1)
    std = math.sqrt(var)
    from scipy.stats import t

    tq = float(t.ppf(0.975, k - 1))
    half = tq * std / math.sqrt(k)
    return SeedSummary(mean=mean, ci=(mean - half, mean + half), n=k, std=std)


@dataclass(frozen=True)
class CorrelationReport:
    """Rank and fit statistics for one metric against the online reference.

    The declared orientation treats the online success series as the fitted
    response; the transposed fit is carried alongside for transparency, as
    is the (orientation-free) linear R-squared.
    """

    metric: str
    spearman_rho: float
    legendre_r2: float
    legendre_r2_transposed: float
    linear_r2: float


def correlation_report(metric_name: str, metric_values: Sequence[float],
                       online_values: Sequence[float]) -> CorrelationReport:
    return CorrelationReport(
        metric=metric_name,
        spearman_rho=spearman(metric_values, online_values),
        legendre_r2=legendre2_r2(metric_values, online_values),
        legendre_r2_transposed=legendre2_r2(online_values, metric_values),
        linear_r2=linear_r2(metric_values, online_values),
    )
