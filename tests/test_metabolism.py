import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ecometab.errors import (
    AlignmentError,
    DomainError,
    EmptyPeriodError,
    InsufficientDataError,
    MissingDataError,
)
from ecometab.ledger import (
    LIRE_PER_EURO,
    Currency,
    Series,
    extract_series,
    normalize_ledger,
)
from ecometab.metabolism import (
    AllometryClass,
    allometric_fit,
    arithmetic_growth,
    classify_allometry,
    crossover_years,
    mean_cost_profile,
    metabolism_index,
    trend_fit,
)
import oracles
from helpers import ledger_of, power_law_ledger, random_ledger, record


class TestTrendFit:
    def test_constructed_line(self):
        records = [
            record(year, revenue=1e6 * (year - 1996), personnel=1.0, total_cost=1.0)
            for year in range(1997, 2016)
        ]
        fit = trend_fit(ledger_of(records), "total_revenue")
        assert fit.slope == pytest.approx(1e6, rel=1e-12)
        assert fit.r_squared == 1.0

    def test_recovers_known_slope_within_three_se(self):
        import random

        rng = random.Random(42)
        slope, noise_sd = 5e6, 1e7
        half = noise_sd * math.sqrt(3.0)
        records = [
            record(1997 + i, revenue=slope * (i + 1) + rng.uniform(-half, half) + 2e8,
                   personnel=1.0, total_cost=1.0)
            for i in range(19)
        ]
        ledger = ledger_of(records)
        fit = trend_fit(ledger, "total_revenue")
        xs = [float(y) for y in ledger.years]
        ys = [r.total_revenue for r in ledger.records]
        _, oracle_slope = oracles.grid_ols(xs, ys)
        assert fit.slope == pytest.approx(oracle_slope, rel=1e-8)
        assert abs(fit.slope - slope) <= 3 * fit.se_slope


class TestMetabolismIndex:
    def test_identity_ratio_is_100(self):
        records = [record(y, revenue=5.0 + y % 3, personnel=5.0 + y % 3, total_cost=9.0)
                   for y in range(2000, 2006)]
        points = metabolism_index(ledger_of(records))
        assert all(p.share_percent == pytest.approx(100.0, rel=1e-12) for p in points)

    def test_exact_arithmetic(self):
        points = metabolism_index(ledger_of([record(2001, 120.0, 30.0, 100.0)]))
        assert points[0].share_percent == 25.0

    def test_zero_denominator_names_year(self):
        records = [record(2000, 1.0, 0.5, 1.0), record(2001, 0.0, 0.5, 1.0)]
        with pytest.raises(DomainError, match="2001"):
            metabolism_index(ledger_of(records))

    def test_overflowing_share_names_year(self):
        records = [record(1997, 1e-300, 5e10, 5e10), record(1998, 1.0, 0.5, 1.0)]
        with pytest.raises(DomainError, match="not finite in 1997"):
            metabolism_index(ledger_of(records))

    def test_configurable_items(self):
        records = [record(2000, 10.0, 5.0, 8.0, other_costs=2.0)]
        points = metabolism_index(ledger_of(records), "other_costs", "total_cost")
        assert points[0].share_percent == 25.0


class TestArithmeticGrowth:
    def test_constant_series_has_zero_growth(self):
        series = Series((2000, 2005, 2010), (4.0, 4.0, 4.0))
        rate = arithmetic_growth(series, 2000, 2010)
        assert rate.r_per_year == 0.0
        assert rate.cumulative == 0.0

    def test_doubling_over_ten_years(self):
        series = Series((2000, 2010), (100.0, 200.0))
        rate = arithmetic_growth(series, 2000, 2010)
        assert rate.t_years == 10
        assert rate.r_per_year == pytest.approx(0.10, rel=1e-12)
        assert rate.cumulative == pytest.approx(1.00, rel=1e-12)

    def test_cumulative_equals_rate_times_years(self):
        series = Series(tuple(range(1997, 2016)),
                        tuple(100.0 + 7.0 * i for i in range(19)))
        rate = arithmetic_growth(series, 1997, 2015)
        assert rate.cumulative == pytest.approx(rate.r_per_year * rate.t_years,
                                                rel=1e-12)

    def test_range_error(self):
        series = Series((2000, 2001), (1.0, 2.0))
        with pytest.raises(DomainError):
            arithmetic_growth(series, 2001, 2000)

    def test_missing_year(self):
        series = Series((2000, 2002), (1.0, 2.0))
        with pytest.raises(MissingDataError):
            arithmetic_growth(series, 2000, 2001)

    def test_nonpositive_start(self):
        series = Series((2000, 2001), (0.0, 2.0))
        with pytest.raises(DomainError):
            arithmetic_growth(series, 2000, 2001)

    @given(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
    def test_scale_invariance(self, c):
        series = Series((2000, 2001, 2005), (50.0, 80.0, 120.0))
        scaled = Series(series.years, tuple(c * v for v in series.values))
        base = arithmetic_growth(series, 2000, 2005)
        other = arithmetic_growth(scaled, 2000, 2005)
        assert other.r_per_year == pytest.approx(base.r_per_year, rel=1e-12)
        assert other.cumulative == pytest.approx(base.cumulative, rel=1e-12)


class TestAllometricFit:
    def test_identity_relation_is_isometric(self):
        records = [record(1997 + i, revenue=100.0 + 13.0 * i, personnel=100.0 + 13.0 * i,
                          total_cost=200.0) for i in range(19)]
        fit = allometric_fit(ledger_of(records))
        assert fit.exponent == pytest.approx(1.0, abs=1e-12)
        assert fit.r_squared == 1.0
        assert fit.classification is AllometryClass.ISOMETRIC

    def test_noiseless_power_law_recovery(self):
        fit = allometric_fit(power_law_ledger(prefactor=3.5, exponent=1.61))
        assert fit.exponent == pytest.approx(1.61, abs=1e-9)
        assert fit.log_prefactor == pytest.approx(math.log(3.5), abs=1e-8)
        assert fit.exact_fit
        assert fit.classification is AllometryClass.POSITIVE_ALLOMETRIC

    def test_nonpositive_values_name_year_and_item(self):
        records = [record(2000, 1.0, 1.0, 1.0),
                   record(2001, 1.0, 0.0, 1.0),
                   record(2002, 1.0, 1.0, 1.0)]
        with pytest.raises(DomainError, match="cost_of_personnel.*2001"):
            allometric_fit(ledger_of(records))

    def test_invalid_alpha(self):
        with pytest.raises(DomainError):
            allometric_fit(random_ledger(seed=1), alpha=1.5)

    def test_explanatory_scale_invariance(self):
        base_ledger = random_ledger(seed=4)
        fit = allometric_fit(base_ledger)
        c = 7.3
        scaled = ledger_of(
            [record(r.year, revenue=c * r.total_revenue, personnel=r.cost_of_personnel,
                    total_cost=r.total_cost) for r in base_ledger],
        )
        other = allometric_fit(scaled)
        assert other.exponent == pytest.approx(fit.exponent, rel=1e-9)
        assert other.se_exponent == pytest.approx(fit.se_exponent, rel=1e-9)
        assert other.r_squared == pytest.approx(fit.r_squared, rel=1e-9)
        assert other.log_prefactor == pytest.approx(
            fit.log_prefactor - fit.exponent * math.log(c), rel=1e-9
        )
        assert other.classification is fit.classification

    def test_dependent_scale_invariance(self):
        base_ledger = random_ledger(seed=4)
        fit = allometric_fit(base_ledger)
        c = 0.4
        scaled = ledger_of(
            [record(r.year, revenue=r.total_revenue, personnel=c * r.cost_of_personnel,
                    total_cost=r.total_cost) for r in base_ledger],
        )
        other = allometric_fit(scaled)
        assert other.exponent == pytest.approx(fit.exponent, rel=1e-9)
        assert other.log_prefactor == pytest.approx(
            fit.log_prefactor + math.log(c), rel=1e-9
        )


class TestClassifyAllometry:
    def test_paper_style_positive(self):
        assert classify_allometry(1.61, 0.15, 19, 0.05) is AllometryClass.POSITIVE_ALLOMETRIC

    def test_exact_isometry(self):
        assert classify_allometry(1.0, 0.0, 19, 0.05) is AllometryClass.ISOMETRIC

    def test_strong_negative(self):
        assert classify_allometry(0.5, 0.05, 19, 0.05) is AllometryClass.NEGATIVE_ALLOMETRIC

    def test_insignificant_deviation_is_isometric(self):
        # |t| = 0.667 is far below the df=17 critical value (about 2.11).
        assert classify_allometry(0.8, 0.3, 19, 0.05) is AllometryClass.ISOMETRIC

    def test_critical_value_against_oracle(self):
        crit = oracles.t_critical(0.05, 17)
        assert abs((0.8 - 1.0) / 0.3) < crit
        assert abs((1.61 - 1.0) / 0.15) > crit

    def test_exact_fit_compares_directly(self):
        assert classify_allometry(1.0 + 5e-13, 0.0, 19) is AllometryClass.ISOMETRIC
        assert classify_allometry(1.001, 0.0, 19) is AllometryClass.POSITIVE_ALLOMETRIC
        assert classify_allometry(0.999, 0.0, 19) is AllometryClass.NEGATIVE_ALLOMETRIC

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            classify_allometry(1.0, 0.1, 19, alpha=0.0)
        with pytest.raises(InsufficientDataError):
            classify_allometry(1.0, 0.1, 2)
        with pytest.raises(DomainError):
            classify_allometry(1.0, -0.1, 19)

    @given(st.floats(min_value=0.0, max_value=3.0),
           st.floats(min_value=0.0, max_value=3.0))
    def test_monotone_in_exponent(self, b1, b2):
        lo, hi = sorted((b1, b2))
        order = [AllometryClass.NEGATIVE_ALLOMETRIC, AllometryClass.ISOMETRIC,
                 AllometryClass.POSITIVE_ALLOMETRIC]
        first = order.index(classify_allometry(lo, 0.2, 19, 0.05))
        second = order.index(classify_allometry(hi, 0.2, 19, 0.05))
        assert first <= second


class TestCrossoverYears:
    def test_symmetric_lines_cross_midway(self):
        a = Series((2000, 2001), (1.0, 3.0))
        b = Series((2000, 2001), (2.0, 2.0))
        crossings = crossover_years(a, b)
        assert len(crossings) == 1
        assert crossings[0].crossing_year == pytest.approx(2000.5)
        assert (crossings[0].start_year, crossings[0].end_year) == (2000, 2001)

    def test_no_crossing(self):
        a = Series((2000, 2001, 2002), (5.0, 6.0, 7.0))
        b = Series((2000, 2001, 2002), (1.0, 1.0, 1.0))
        assert crossover_years(a, b) == ()

    def test_zero_touch_reported_once_at_the_year(self):
        a = Series((2000, 2001, 2002), (0.0, 1.0, 2.0))
        b = Series((2000, 2001, 2002), (1.0, 1.0, 1.0))
        crossings = crossover_years(a, b)
        assert len(crossings) == 1
        assert crossings[0].crossing_year == 2001.0

    def test_alignment_error(self):
        with pytest.raises(AlignmentError):
            crossover_years(Series((2000, 2001), (1.0, 2.0)),
                            Series((2000, 2002), (1.0, 2.0)))

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            crossover_years(Series((2000,), (1.0,)), Series((2000,), (2.0,)))

    @given(st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=12))
    def test_matches_brute_force_scan(self, deltas):
        years = tuple(range(2000, 2000 + len(deltas)))
        a = Series(years, tuple(float(d) for d in deltas))
        b = Series(years, tuple(0.0 for _ in deltas))
        crossings = crossover_years(a, b)
        expected = oracles.brute_force_crossings(list(years), [float(d) for d in deltas])
        assert [c.crossing_year for c in crossings] == expected


class TestMeanCostProfile:
    def test_two_point_mean(self):
        records = [record(2000, 1.0, 0.5, 1.0, services=1.0),
                   record(2001, 1.0, 0.5, 1.0, services=3.0)]
        profile = mean_cost_profile(ledger_of(records))
        assert profile.by_item["services"].mean == 2.0

    def test_singleton_record(self):
        profile = mean_cost_profile(ledger_of([record(2000, 1.0, 0.5, 0.9)]))
        assert profile.by_item["cost_of_personnel"].mean == 0.5
        assert profile.by_item["cost_of_personnel"].sd == 0.0

    def test_partially_reported_items_are_omitted_with_note(self):
        records = [record(2000, 1.0, 0.5, 1.0, services=1.0),
                   record(2001, 1.0, 0.5, 1.0)]
        profile = mean_cost_profile(ledger_of(records))
        assert "services" in profile.omitted
        assert "services" not in profile.by_item

    def test_empty_period(self):
        with pytest.raises(EmptyPeriodError, match="^no records in period 1900-1910$"):
            random_ledger(seed=2).window((1900, 1910))
        # A ledger built by hand may hold no records at all.
        with pytest.raises(InsufficientDataError):
            mean_cost_profile(ledger_of([]))

    def test_means_match_two_pass_oracle(self):
        ledger = random_ledger(seed=31)
        profile = mean_cost_profile(ledger)
        for item, d in profile.by_item.items():
            values = [r.item(item) for r in ledger.records]
            mean, sd = oracles.two_pass_mean_sd(values)
            assert d.mean == pytest.approx(mean, rel=1e-12)
            assert d.sd == pytest.approx(sd, rel=1e-12)


class TestCurrencyInvariance:
    def test_analyses_are_invariant_under_normalization(self):
        itl = random_ledger(seed=77, currency=Currency.ITL)
        eur = normalize_ledger(itl)

        m_itl = metabolism_index(itl)
        m_eur = metabolism_index(eur)
        for a, b in zip(m_itl, m_eur):
            assert a.share_percent == pytest.approx(b.share_percent, rel=1e-9)

        for item in ("total_revenue", "cost_of_personnel", "total_cost"):
            s_itl = extract_series(itl, item)
            s_eur = extract_series(eur, item)
            g_itl = arithmetic_growth(s_itl, 1997, 2015)
            g_eur = arithmetic_growth(s_eur, 1997, 2015)
            assert g_itl.r_per_year == pytest.approx(g_eur.r_per_year, rel=1e-9)
            assert g_itl.cumulative == pytest.approx(g_eur.cumulative, rel=1e-9)

            t_itl = trend_fit(itl, item)
            t_eur = trend_fit(eur, item)
            assert t_itl.standardized_slope == pytest.approx(
                t_eur.standardized_slope, rel=1e-9
            )
            assert t_itl.r_squared == pytest.approx(t_eur.r_squared, rel=1e-9)
            assert t_itl.f_statistic == pytest.approx(t_eur.f_statistic, rel=1e-9)
            assert t_eur.slope == pytest.approx(t_itl.slope / LIRE_PER_EURO, rel=1e-9)

        a_itl = allometric_fit(itl)
        a_eur = allometric_fit(eur)
        assert a_itl.exponent == pytest.approx(a_eur.exponent, rel=1e-9)
        assert a_itl.classification is a_eur.classification


class TestMetabolismGrowthConsistency:
    @pytest.mark.parametrize("seed", range(8))
    def test_share_ratio_equals_growth_ratio(self, seed):
        ledger = random_ledger(seed=seed)
        points = metabolism_index(ledger)
        num = arithmetic_growth(extract_series(ledger, "cost_of_personnel"), 1997, 2015)
        den = arithmetic_growth(extract_series(ledger, "total_revenue"), 1997, 2015)
        share_ratio = points[-1].share_percent / points[0].share_percent
        predicted = (1.0 + num.cumulative) / (1.0 + den.cumulative)
        assert share_ratio == pytest.approx(predicted, rel=1e-9)
