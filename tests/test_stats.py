import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import match_ratios, reference_round, wilson_oracle
from trajkit.stats import (
    ConstantSeriesError,
    Contingency2x2,
    DegenerateSpanError,
    contingency_stats,
    correlation_report,
    legendre2_r2,
    linear_r2,
    multi_seed_summary,
    pearson,
    spearman,
    t_quantile,
    wilson_interval,
)

# Six-model correlation table: online success vs replay metrics.
AW_ONLINE = [13.0, 47.6, 52.0, 65.9, 66.4, 67.0]
SOEVAL_EM = [55.93, 62.84, 57.66, 76.16, 67.37, 71.66]
OFFLINE_EM = [56.68, 60.39, 54.52, 74.09, 65.49, 70.95]
SOEVAL_PROGRESS = [8.19, 9.00, 8.40, 15.84, 12.01, 14.17]


class TestSpearman:
    def test_reference_table_values(self):
        assert round(spearman(SOEVAL_EM, AW_ONLINE), 4) == 0.7714
        assert round(spearman(OFFLINE_EM, AW_ONLINE), 4) == 0.6571
        assert round(spearman(SOEVAL_PROGRESS, AW_ONLINE), 4) == 0.7714

    def test_monotone_identity(self):
        xs = [1.0, 2.0, 5.0, 9.0]
        assert spearman(xs, [x * 3 + 1 for x in xs]) == pytest.approx(1.0)

    def test_reversed_is_minus_one(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert spearman(xs, list(reversed(xs))) == pytest.approx(-1.0)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(2)
        xs = rng.normal(size=20).tolist()
        ys = rng.normal(size=20).tolist()
        base = spearman(xs, ys)
        assert spearman([math.exp(x) for x in xs], ys) == pytest.approx(base)
        assert spearman(xs, [y ** 3 for y in ys]) == pytest.approx(base)

    def test_average_ranks_on_ties(self):
        # hand-computed: xs ranks (1.5, 1.5, 3); ys ranks (1, 2, 3)
        rho = spearman([1.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        assert rho == pytest.approx(0.866, abs=1e-3)

    def test_constant_series_rejected(self):
        with pytest.raises(ConstantSeriesError):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            spearman([1.0, 2.0], [1.0, 2.0])


class TestLegendreR2:
    def test_exact_quadratic_is_one(self):
        xs = [0.0, 1.0, 2.0, 3.0, 4.0]
        ys = [3 * x * x - 2 * x + 1 for x in xs]
        assert legendre2_r2(xs, ys) == pytest.approx(1.0, abs=1e-9)

    def test_within_model_data_identity(self):
        # data generated from the degree-2 basis itself
        rng = np.random.default_rng(7)
        xs = np.linspace(-3, 5, 12)
        t = 2 * (xs - xs.min()) / (xs.max() - xs.min()) - 1
        design = np.polynomial.legendre.legvander(t, 2)
        ys = design @ np.array([0.3, -1.2, 0.8])
        assert legendre2_r2(xs.tolist(), ys.tolist()) == pytest.approx(1.0, abs=1e-9)
        assert rng is not None

    def test_least_squares_bounded_below_by_constant_fit(self):
        rng = np.random.default_rng(5)
        xs = np.linspace(0, 1, 16).tolist()
        ys = rng.normal(size=16).tolist()
        assert legendre2_r2(xs, ys) >= 0.0

    def test_declared_orientation_on_reference_table(self):
        # quadratic fit of online success on each metric
        assert legendre2_r2(OFFLINE_EM, AW_ONLINE) == pytest.approx(0.4821, abs=0.05)

    def test_linear_r2_reproduces_reference_values(self):
        assert round(linear_r2(SOEVAL_EM, AW_ONLINE), 4) == 0.6241
        assert round(linear_r2(OFFLINE_EM, AW_ONLINE), 4) == 0.4821
        assert round(linear_r2(SOEVAL_PROGRESS, AW_ONLINE), 4) == 0.5377

    def test_degenerate_span(self):
        with pytest.raises(DegenerateSpanError):
            legendre2_r2([2.0, 2.0, 2.0, 2.0], [1.0, 2.0, 3.0, 4.0])

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            legendre2_r2([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])

    def test_correlation_report_carries_both_orientations(self):
        report = correlation_report("soeval_em", SOEVAL_EM, AW_ONLINE)
        assert report.legendre_r2 != report.legendre_r2_transposed
        assert report.linear_r2 == pytest.approx(0.6241, abs=1e-4)
        assert report.spearman_rho == pytest.approx(0.7714, abs=1e-4)


class TestWilson:
    # The reference table was rounded half-up to 4 places, then to 3.
    def test_tpr_tnr_reference_rows(self):
        lo, hi = wilson_interval(273, 324)
        assert (reference_round(lo), reference_round(hi)) == (0.799, 0.878)
        lo, hi = wilson_interval(309, 324)
        assert (reference_round(lo), reference_round(hi)) == (0.925, 0.972)

    def test_accuracy_row_upper_bound(self):
        lo, hi = wilson_interval(582, 648)
        assert reference_round(hi) == 0.919

    def test_accuracy_row_lower_bound(self):
        # 0.872464... rounds to 0.8725 and then to the printed 0.873
        lo, hi = wilson_interval(582, 648)
        assert reference_round(lo) == 0.873

    def test_bounds_match_oracle(self):
        for k, n in [(582, 648), (273, 324), (309, 324), (0, 50), (50, 50)]:
            assert wilson_interval(k, n) == pytest.approx(
                wilson_oracle(k, n), abs=2e-6)

    def test_zero_successes_boundary(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0
        assert hi > 0.0

    def test_all_successes_boundary(self):
        lo, hi = wilson_interval(50, 50)
        assert hi == pytest.approx(1.0)
        assert lo < 1.0

    def test_interval_contains_point_estimate(self):
        for k, n in [(1, 10), (5, 10), (9, 10), (500, 1000)]:
            lo, hi = wilson_interval(k, n)
            assert 0.0 <= lo <= k / n <= hi <= 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)


class TestContingency:
    def reference(self):
        return Contingency2x2(5531, 456, 1976, 2037)

    def test_reference_table(self):
        s = contingency_stats(self.reference())
        # the reference prints 73.70 for the first ratio, a misprint for
        # 5531/(5531+1976) = 73.68 (see acceptance criterion 04)
        first, second = match_ratios(5531, 456, 1976, 2037)
        assert s.match_ratio_first == pytest.approx(float(first), abs=1e-9)
        assert round(s.match_ratio_first, 2) == 73.68
        assert s.match_ratio_second == pytest.approx(float(second), abs=1e-9)
        assert s.match_ratio_second == pytest.approx(18.29, abs=5e-3)
        assert s.relative_risk == pytest.approx(4.03, abs=0.01)
        assert s.odds_ratio == pytest.approx(12.50, abs=0.01)
        assert s.chi2 == pytest.approx(2389.58, abs=2.0)
        assert s.phi == pytest.approx(0.489, abs=1e-3)

    def test_symmetric_table_odds_identity(self):
        # a=d, b=c -> OR = (a/b)^2
        s = contingency_stats(Contingency2x2(40, 10, 10, 40))
        assert s.odds_ratio == pytest.approx((40 / 10) ** 2)

    def test_independent_table_zero_chi2(self):
        # counts formed from products of margins are independent
        s = contingency_stats(Contingency2x2(20, 30, 40, 60))
        assert s.chi2 == pytest.approx(0.0, abs=1e-9)
        assert s.phi == pytest.approx(0.0, abs=1e-9)

    def test_chi2_equals_n_phi_squared(self):
        s = contingency_stats(self.reference())
        assert s.chi2 == pytest.approx(self.reference().n * s.phi ** 2, abs=1e-9)

    def test_zero_denominator_reports_none(self):
        s = contingency_stats(Contingency2x2(5, 0, 3, 0))
        assert s.match_ratio_second is None
        assert s.relative_risk is None
        assert s.odds_ratio is None
        assert s.match_ratio_first is not None

    def test_counts_validated(self):
        with pytest.raises(ValueError):
            Contingency2x2(-1, 0, 0, 5)
        with pytest.raises(ValueError):
            Contingency2x2(0, 0, 0, 0)


SEED_PROGRESS = [0.1892, 0.1932, 0.1858, 0.1916, 0.1868, 0.1968, 0.1898, 0.1883]


class TestMultiSeed:
    def test_reference_eight_seed_row(self):
        s = multi_seed_summary(SEED_PROGRESS)
        assert round(s.mean, 4) == 0.1902
        assert round(s.ci[0], 4) == 0.1872
        assert round(s.ci[1], 4) == 0.1932

    def test_identical_values_zero_width(self):
        s = multi_seed_summary([0.5] * 6)
        assert s.ci == (0.5, 0.5)

    def test_two_value_closed_form(self):
        # sd of {a, b} with ddof=1 is |a-b|/sqrt(2)
        a, b = 0.2, 0.4
        s = multi_seed_summary([a, b])
        sd = abs(a - b) / math.sqrt(2)
        from scipy import stats as sps
        tq = sps.t.ppf(0.975, 1)
        half = tq * sd / math.sqrt(2)
        assert s.ci[0] == pytest.approx(0.3 - half)
        assert s.ci[1] == pytest.approx(0.3 + half)

    def test_single_seed_mean_only(self):
        s = multi_seed_summary([0.7])
        assert s.mean == 0.7
        assert s.ci is None

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            multi_seed_summary([])


# --- agreement with scipy ----------------------------------------------------------
#
# spearman and pearson compute without scipy.stats, with the float operations
# scipy.stats uses; these properties compare with ==. The t quantile behind
# multi_seed_summary is computed without scipy and agrees with
# scipy.special.stdtrit to a relative 1e-12.


class TestTQuantile:
    @settings(max_examples=500, deadline=None)
    @given(st.integers(1, 10_000))
    def test_seed_interval_quantile_matches_stdtrit(self, df):
        from scipy.special import stdtrit

        assert t_quantile(0.975, df) == pytest.approx(float(stdtrit(df, 0.975)),
                                                      rel=1e-12, abs=0)

    @settings(max_examples=500, deadline=None)
    @given(st.integers(1, 10_000), st.floats(0.6, 0.999))
    def test_matches_stdtrit(self, df, p):
        from scipy.special import stdtrit

        assert t_quantile(p, df) == pytest.approx(float(stdtrit(df, p)), rel=1e-12, abs=0)

    def test_small_df_every_one(self):
        from scipy.special import stdtrit

        for df in range(1, 301):
            assert t_quantile(0.975, df) == pytest.approx(float(stdtrit(df, 0.975)),
                                                          rel=1e-12, abs=0), df

    def test_median_and_closed_forms(self):
        assert t_quantile(0.5, 7) == 0.0
        assert t_quantile(0.75, 1) == pytest.approx(1.0, rel=1e-15)
        assert t_quantile(0.975, 2) == pytest.approx(4.302652729749464, rel=1e-15)

    @pytest.mark.parametrize("p, df", [(0.4, 3), (1.0, 3), (math.nan, 3), (0.975, 0)])
    def test_outside_domain_rejected(self, p, df):
        with pytest.raises(ValueError):
            t_quantile(p, df)

SCALES = (1e-6, 1e-3, 1.0, 1e3, 1e6)


@st.composite
def paired_series(draw, min_size=2):
    """Two non-constant series of equal length, 2-60 points: heavy ties,
    magnitudes 1e-6 to 1e6, negative values, means far above the spread, and
    exact linear relations (where rounding can push r past 1)."""
    n = draw(st.integers(min_size, 60))
    unit = st.floats(-1.0, 1.0, allow_nan=False)

    def series():
        scale = draw(st.sampled_from(SCALES))
        offset = draw(st.sampled_from((0.0, 0.0, -5e5, 1e6)))
        levels = draw(st.lists(unit, min_size=2, max_size=n, unique=True))
        picks = draw(st.lists(st.integers(0, len(levels) - 1), min_size=n, max_size=n))
        return [offset + scale * levels[i] for i in picks]

    xs = series()
    if draw(st.booleans()):
        slope = draw(st.sampled_from((-3.0, -0.5, 0.1, 2.0, 7.0)))
        ys = [slope * x + draw(st.sampled_from((0.0, 1.0, -4.0))) for x in xs]
    else:
        ys = series()
    return _spread(xs), _spread(ys)


def _spread(series):
    """The series, made non-constant by moving its last point if needed."""
    return series if len(set(series)) > 1 else series[:-1] + [series[-1] + 1.0]


@pytest.mark.filterwarnings("ignore")
class TestMatchesScipy:
    @settings(max_examples=400, deadline=None)
    @given(paired_series(min_size=3))
    def test_spearman_equals_spearmanr(self, pair):
        from scipy.stats import spearmanr

        xs, ys = pair
        assert spearman(xs, ys) == spearmanr(xs, ys).statistic

    @settings(max_examples=400, deadline=None)
    @given(paired_series())
    def test_pearson_and_linear_r2_equal_pearsonr(self, pair):
        from scipy.stats import pearsonr

        xs, ys = pair
        r = pearsonr(xs, ys).statistic
        assert pearson(xs, ys) == r
        # linear_r2 has always returned r * r; ``r ** 2`` goes through pow
        # and can differ from it in the last bit.
        assert linear_r2(xs, ys) == r * r

    @settings(max_examples=100, deadline=None)
    @given(paired_series(min_size=3), st.data())
    def test_nan_gives_nan(self, pair, data):
        from scipy.stats import pearsonr, spearmanr

        xs, ys = pair
        series = data.draw(st.sampled_from((xs, ys)))
        series[data.draw(st.integers(0, len(series) - 1))] = math.nan
        assert math.isnan(spearman(xs, ys))
        assert math.isnan(spearmanr(xs, ys).statistic)
        assert math.isnan(pearson(xs, ys))
        assert math.isnan(pearsonr(xs, ys).statistic)
        assert math.isnan(linear_r2(xs, ys))

    def test_rounding_past_one_is_clipped(self):
        from scipy.stats import pearsonr

        xs = [13.0, 6.0, 11.0]
        ys = [3.0 * x + 1.0 for x in xs]
        assert pearson(xs, ys) == pearsonr(xs, ys).statistic == 1.0

    def test_two_points_give_plus_or_minus_one(self):
        assert pearson([0.1, 0.7], [3.0, 2.9]) == -1.0
        assert linear_r2([0.1, 0.7], [3.0, 3.1]) == 1.0

    def test_tied_ranks_are_averaged(self):
        from scipy.stats import spearmanr

        xs = [3.0, 1.0, 3.0, 2.0, 3.0, 1.0]
        ys = [0.5, 0.1, 0.2, 0.9, 0.4, 0.3]
        assert spearman(xs, ys) == spearmanr(xs, ys).statistic

    def test_length_and_constant_errors(self):
        with pytest.raises(ConstantSeriesError):
            linear_r2([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            linear_r2([1.0, 2.0, 3.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            linear_r2([], [])
