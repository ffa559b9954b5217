"""Statistical utilities: rank correlation, polynomial fits, interval
estimates, and 2x2 contingency measures."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
    import numpy as np


class ConstantSeriesError(ValueError):
    """A correlation is undefined on a constant series."""


class DegenerateSpanError(ValueError):
    """A fit is undefined when the regressor has zero span."""


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Rank correlation with average ranks on ties; NaN in either series
    gives NaN.

    Pearson's r of the 1-based average ranks through ``np.corrcoef``, the
    steps ``scipy.stats.spearmanr`` takes, so the value is the same float.
    """
    if len(xs) != len(ys):
        raise ValueError("series differ in length")
    if len(xs) < 3:
        raise ValueError("need at least 3 points")
    if len(set(xs)) == 1 or len(set(ys)) == 1:
        raise ConstantSeriesError("constant series")
    import numpy as np

    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if np.isnan(x).any() or np.isnan(y).any():
        return math.nan
    return float(np.corrcoef(_average_ranks(x), _average_ranks(y))[1, 0])


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their ranks."""
    import numpy as np

    order = np.argsort(v, kind="stable")
    sorted_v = v[order]
    starts = np.flatnonzero(np.r_[True, sorted_v[1:] != sorted_v[:-1]])
    counts = np.diff(np.r_[starts, len(v)])
    ranks = np.empty(len(v))
    ranks[order] = np.repeat(starts + (counts + 1) / 2, counts)
    return ranks


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


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation; NaN in either series gives NaN.

    Computed with the float operations ``scipy.stats.pearsonr`` uses (norms
    scaled by the largest deviation and reduced along the axis, not by BLAS
    ``dot``), so the value is the same float.
    """
    if len(set(xs)) == 1 or len(set(ys)) == 1:
        raise ConstantSeriesError("constant series")
    if len(xs) != len(ys):
        raise ValueError("series differ in length")
    if len(xs) < 2:
        raise ValueError("need at least 2 points")
    import numpy as np

    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    xm = x - x.mean()
    ym = y - y.mean()
    with np.errstate(invalid="ignore", divide="ignore"):
        xmax = np.abs(xm).max()
        ymax = np.abs(ym).max()
        normxm = xmax * np.linalg.norm(xm / xmax, axis=-1)
        normym = ymax * np.linalg.norm(ym / ymax, axis=-1)
        r = np.clip(np.vecdot(xm / normxm, ym / normym), -1.0, 1.0)
    if len(x) == 2:
        r = np.round(r)
    return float(r)


def linear_r2(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Squared Pearson correlation; symmetric in its arguments."""
    r = pearson(xs, ys)
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


def t_quantile(p: float, df: int) -> float:
    """Quantile of Student's t on ``df`` degrees of freedom, for 0.5 <= p < 1.

    Closed forms for 1 and 2 degrees of freedom; otherwise Newton steps
    from t = 0 on the distribution function, which is concave for t > 0,
    so the steps rise monotonically to the root. Agrees with
    ``scipy.special.stdtrit`` to a relative 1e-12 on 0.6 <= p <= 0.999.
    """
    if not 0.5 <= p < 1.0:
        raise ValueError(f"p={p} outside [0.5, 1)")
    if df < 1:
        raise ValueError(f"df={df} must be >= 1")
    if df == 1:
        return math.tan(math.pi * (p - 0.5))
    if df == 2:
        return (2.0 * p - 1.0) / math.sqrt(2.0 * p * (1.0 - p))
    t = 0.0
    while True:
        excess, density = _t_cdf_excess(t, df, p)
        step = -excess / density
        if step <= 0.0 or t + step == t:
            return t
        t += step


def _t_cdf_excess(t: float, df: int, p: float) -> tuple[float, float]:
    """F(t) - p and the density f(t), for t >= 0 and df >= 3.

    With a = df/2 and u = t^2/df, the upper tail is I_x(a, 1/2)/2 at
    x = 1/(1 + u) and the central mass 2F(t) - 1 is I_y(1/2, a) at
    y = u/(1 + u). Far out (u >= 0.05 past the fraction's convergence
    bound) the tail comes from its continued fraction, 1 - p being exact;
    elsewhere the central mass comes from its hypergeometric series, which
    needs no 1 - x (the fraction would lose a relative eps/u through it),
    and 2p - 1 is exact.
    """
    a = df / 2
    u = t * t / df
    log1pu = math.log1p(u)
    log_beta = 0.5 * math.log(math.pi) - _log_gamma_half_ratio(a)  # log B(a, 1/2)
    density = math.exp(-(a + 0.5) * log1pu - log_beta) / math.sqrt(df)
    if u >= 0.05 and u * (a + 1.0) > 1.5:
        front = math.exp(-a * log1pu + 0.5 * (math.log(u) - log1pu) - log_beta)
        tail = 0.5 * front * _beta_fraction(a, 0.5, 1.0 / (1.0 + u)) / a
        return (1.0 - p) - tail, density
    y = u / (1.0 + u)
    term = total = 1.0
    n = 0
    while term > 1e-17 * total:
        term *= (a + 0.5 + n) * y / (n + 1.5)
        total += term
        n += 1
    central = 2.0 * math.sqrt(y) * math.exp(-a * log1pu - log_beta) * total
    return 0.5 * (central - (2.0 * p - 1.0)), density


def _log_gamma_half_ratio(a: float) -> float:
    """log(Gamma(a + 1/2) / Gamma(a)) for a a positive multiple of 1/2.

    ``lgamma(a + 0.5) - lgamma(a)`` loses about 1e-11 at a = 5000 to the
    size of the two terms, so small a multiplies out the recurrence
    r(a + 1) = r(a) (a + 1/2) / a and large a sums Stirling's series for
    the difference.
    """
    if a < 50:
        half = a % 1 == 0.5
        r = 1.0 / math.sqrt(math.pi) if half else 0.5 * math.sqrt(math.pi)
        k = 0.5 if half else 1.0
        while k < a:
            r *= (k + 0.5) / k
            k += 1.0
        return math.log(r)

    def stirling(z: float) -> float:
        z2 = z * z
        return (1 / 12 - (1 / 360 - (1 / 1260 - 1 / (1680 * z2)) / z2) / z2) / z

    return (a * math.log1p(0.5 / a) - 0.5 + 0.5 * math.log(a)
            + stirling(a + 0.5) - stirling(a))


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b) (modified Lentz), for x below
    (a + 1) / (a + b + 2), where it converges."""
    tiny = 1e-300

    def clamp(v: float) -> float:
        return v if abs(v) > tiny else tiny

    c = 1.0
    d = 1.0 / clamp(1.0 - (a + b) * x / (a + 1.0))
    h = d
    m = 0
    while True:
        m += 1
        m2 = 2 * m
        for num in (m * (b - m) * x / ((a - 1.0 + m2) * (a + m2)),
                    -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2))):
            d = 1.0 / clamp(1.0 + num * d)
            c = clamp(1.0 + num / c)
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h


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
    try:
        var = sum((v - mean) ** 2 for v in values) / (k - 1)
    except OverflowError:
        var = math.inf
    if not math.isfinite(mean + var):
        raise ValueError("the mean or variance of the values is not a finite float")
    std = math.sqrt(var)
    half = t_quantile(0.975, k - 1) * std / math.sqrt(k)
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
