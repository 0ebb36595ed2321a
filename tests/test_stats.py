import dataclasses
import math
import random
import statistics

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ecometab import stats
from ecometab.errors import (
    AlignmentError,
    ConvergenceError,
    DegenerateRegressorError,
    DomainError,
    InsufficientDataError,
)
from ecometab.ledger import Series
from ecometab.stats import (
    Descriptives,
    betainc,
    descriptives,
    ols_fit,
    p_value_f,
    p_value_t,
    significance_stars,
    t_critical,
)
import oracles


def year_series(first, values):
    years = tuple(range(first, first + len(values)))
    return (
        Series(years, tuple(float(y) for y in years)),
        Series(years, tuple(float(v) for v in values)),
    )


def noisy_dataset(seed, n=19, slope=5e6, noise_sd=1e7, first_year=1997):
    rng = random.Random(seed)
    half = noise_sd * math.sqrt(3.0)
    return [slope * (i + 1) + rng.uniform(-half, half) for i in range(n)]


class TestOlsFit:
    def test_perfect_line(self):
        x, y = year_series(2000, [2 * y + 1 for y in range(2000, 2010)])
        fit = ols_fit(x, y)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(1.0, abs=1e-9)
        assert fit.r_squared == 1.0
        assert fit.exact_fit
        assert all(r == pytest.approx(0.0, abs=1e-9) for r in fit.residuals)
        assert fit.se_slope == 0.0
        assert fit.p_slope == 0.0

    def test_constant_response_is_degenerate(self):
        x, y = year_series(2000, [7.5] * 10)
        fit = ols_fit(x, y)
        assert fit.degenerate
        assert fit.slope == 0.0
        assert fit.r_squared == 0.0
        assert fit.f_statistic == 0.0
        assert fit.p_slope == 1.0

    def test_matches_grid_refinement_oracle(self):
        values = noisy_dataset(seed=42)
        x, y = year_series(1997, values)
        fit = ols_fit(x, y)
        oracle_intercept, oracle_slope = oracles.grid_ols(list(x.values), list(y.values))
        assert fit.slope == pytest.approx(oracle_slope, rel=1e-8)
        assert fit.intercept == pytest.approx(oracle_intercept, rel=1e-8)

    def test_alignment_error(self):
        x, _ = year_series(2000, [1, 2, 3])
        _, y = year_series(2001, [1, 2, 3])
        with pytest.raises(AlignmentError):
            ols_fit(x, y)

    def test_insufficient_data(self):
        x, y = year_series(2000, [1, 2])
        with pytest.raises(InsufficientDataError):
            ols_fit(x, y)

    def test_degenerate_regressor(self):
        years = (2000, 2001, 2002)
        x = Series(years, (3.0, 3.0, 3.0))
        y = Series(years, (1.0, 2.0, 3.0))
        with pytest.raises(DegenerateRegressorError):
            ols_fit(x, y)

    def test_identity_suite_on_seeded_data(self):
        for seed in range(25):
            values = noisy_dataset(seed=seed)
            x, y = year_series(1997, values)
            fit = ols_fit(x, y)
            scale = max(abs(v) for v in y.values) * fit.n
            assert abs(math.fsum(fit.residuals)) <= 1e-9 * scale
            pearson = statistics.correlation(list(x.values), list(y.values))
            assert fit.standardized_slope == pytest.approx(pearson, rel=1e-10)
            assert fit.r_squared == pytest.approx(fit.standardized_slope**2, rel=1e-10)
            assert fit.f_statistic == pytest.approx(
                (fit.slope / fit.se_slope) ** 2, rel=1e-10
            )
            assert fit.p_f == pytest.approx(fit.p_slope, rel=1e-8)

    def test_f_tail_is_the_t_tail_on_seeded_data(self):
        for seed in range(25):
            x, y = year_series(1997, noisy_dataset(seed=seed))
            fit = ols_fit(x, y)
            assert fit.p_f == fit.p_slope
            assert p_value_f(fit.f_statistic, 1, fit.n - 2) == fit.p_slope

    def test_affine_equivariance(self):
        values = noisy_dataset(seed=7)
        x, y = year_series(1997, values)
        base = ols_fit(x, y)
        for a, b in ((2.5, 1e9), (-0.75, -3e8), (1e-6, 0.0)):
            scaled = Series(y.years, tuple(a * v + b for v in y.values))
            fit = ols_fit(x, scaled)
            assert fit.slope == pytest.approx(a * base.slope, rel=1e-9)
            assert fit.se_slope == pytest.approx(abs(a) * base.se_slope, rel=1e-9)
            assert abs(fit.standardized_slope) == pytest.approx(
                abs(base.standardized_slope), rel=1e-9
            )
            assert fit.r_squared == pytest.approx(base.r_squared, rel=1e-9)
            assert fit.f_statistic == pytest.approx(base.f_statistic, rel=1e-9)
            assert fit.p_slope == pytest.approx(base.p_slope, rel=1e-9)

    def test_regressor_shift(self):
        values = noisy_dataset(seed=8)
        x, y = year_series(1997, values)
        base = ols_fit(x, y)
        for shift in (-1996.0, 100.0, 2500.0):
            shifted = Series(x.years, tuple(v + shift for v in x.values))
            fit = ols_fit(shifted, y)
            assert fit.slope == pytest.approx(base.slope, rel=1e-9)
            assert fit.r_squared == pytest.approx(base.r_squared, rel=1e-9)
            assert fit.f_statistic == pytest.approx(base.f_statistic, rel=1e-9)
            assert fit.intercept == pytest.approx(
                base.intercept - base.slope * shift, rel=1e-7
            )


class TestDescriptives:
    def test_textbook_case(self):
        d = descriptives([1.0, 2.0, 3.0])
        assert (d.n, d.mean, d.sd, d.minimum, d.maximum) == (3, 2.0, 1.0, 1.0, 3.0)

    def test_singleton(self):
        d = descriptives([5.0])
        assert d.mean == 5.0
        assert d.sd == 0.0

    def test_empty_is_an_error(self):
        with pytest.raises(InsufficientDataError):
            descriptives([])

    def test_thousand_uniform_values_match_two_pass_oracle(self):
        rng = random.Random(123)
        values = [rng.random() for _ in range(1000)]
        d = descriptives(values)
        mean, sd = oracles.two_pass_mean_sd(values)
        assert d.mean == pytest.approx(mean, rel=1e-12)
        assert d.sd == pytest.approx(sd, rel=1e-12)

    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
                    min_size=2, max_size=50))
    def test_matches_statistics_module(self, values):
        d = descriptives(values)
        assert d.mean == pytest.approx(statistics.fmean(values), rel=1e-9, abs=1e-9)
        assert d.sd == pytest.approx(statistics.stdev(values), rel=1e-6, abs=1e-6)
        assert d.minimum <= d.mean <= d.maximum


# Nonzero values of ordinary size, so that any of them times 2^j, |j| <= 900,
# is a normal float.
_ordinary = st.floats(min_value=-1e6, max_value=1e6).filter(lambda v: v == 0 or abs(v) >= 1e-6)


class TestExtremeMagnitudes:
    """Power-of-two scaling of the data scales the levels and nothing else.

    Scaling y scales every level; scaling x by 2^j scales only the slope and
    its standard error, by 2^-j. j reaches past 2^±512, where the squares of
    the scaled values would overflow or underflow.
    """

    @given(st.lists(_ordinary, min_size=3, max_size=25), st.integers(-900, 900))
    def test_ols_fit(self, values, j):
        x, y = year_series(1997, values)
        base = ols_fit(x, y)
        fit = ols_fit(x, Series(y.years, tuple(math.ldexp(v, j) for v in y.values)))
        assert fit == dataclasses.replace(
            base,
            intercept=math.ldexp(base.intercept, j),
            slope=math.ldexp(base.slope, j),
            se_intercept=math.ldexp(base.se_intercept, j),
            se_slope=math.ldexp(base.se_slope, j),
            residuals=tuple(math.ldexp(r, j) for r in base.residuals),
        )

    @given(st.lists(_ordinary, min_size=3, max_size=25), st.integers(-900, 900))
    @example(values=[1.0, 2.0, 3.0, 5.0, 4.0], j=664)  # x about 2e203
    def test_ols_fit_on_scaled_x(self, values, j):
        x, y = year_series(1997, values)
        base = ols_fit(x, y)
        fit = ols_fit(Series(x.years, tuple(math.ldexp(v, j) for v in x.values)), y)
        assert fit == dataclasses.replace(
            base,
            slope=math.ldexp(base.slope, -j),
            se_slope=math.ldexp(base.se_slope, -j),
        )

    @given(st.lists(_ordinary, min_size=1, max_size=30), st.integers(-900, 900))
    def test_descriptives(self, values, j):
        base = descriptives(values)
        d = descriptives([math.ldexp(v, j) for v in values])
        assert d == Descriptives(
            base.n, *(math.ldexp(v, j) for v in (base.mean, base.sd, base.minimum, base.maximum))
        )


class TestPValues:
    def test_t_at_zero_is_one(self):
        for df in (1, 5, 17, 100):
            assert p_value_t(0.0, df) == 1.0

    def test_t_large_sample_normal_limit(self):
        assert p_value_t(1.96, 10000) == pytest.approx(0.0500, abs=5e-4)

    def test_paper_scale_statistic_is_highly_significant(self):
        assert p_value_t(6.038, 17) < 0.001

    def test_f_at_zero_is_one(self):
        assert p_value_f(0.0, 1, 17) == 1.0

    def test_f_t_duality(self):
        t = 2.5
        assert p_value_f(t * t, 1, 17) == pytest.approx(p_value_t(t, 17), rel=1e-8)

    def test_f_matches_integration_oracle(self):
        assert p_value_f(4.0, 1, 30) == pytest.approx(
            oracles.p_f_upper(4.0, 1, 30), abs=1e-6
        )

    def test_t_matches_integration_oracle_on_grid(self):
        for df in (1, 5, 17, 100):
            for t in (0.25, 0.8, 1.5, 2.2, 4.0, 6.5, 9.0):
                assert p_value_t(t, df) == pytest.approx(
                    oracles.p_t_two_sided(t, df), abs=1e-6
                )

    def test_t_strictly_decreasing_in_statistic(self):
        for df in (1, 5, 17, 100):
            grid = [i * 0.25 for i in range(41)]
            values = [p_value_t(t, df) for t in grid]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            p_value_t(1.0, 0)
        with pytest.raises(DomainError):
            p_value_t(math.nan, 5)
        with pytest.raises(DomainError):
            p_value_f(-1.0, 1, 5)
        with pytest.raises(DomainError):
            p_value_f(1.0, 0, 5)
        with pytest.raises(DomainError):
            betainc(0.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            betainc(1.0, 1.0, 1.5)
        with pytest.raises(DomainError):
            betainc(2.0, 3.0, 0.4, 0.5)

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.integers(min_value=1, max_value=10**9),
           st.integers(min_value=1, max_value=100))
    def test_tails_accept_every_finite_statistic(self, s, df, df1):
        assert 0.0 <= p_value_t(s, df) <= 1.0
        assert 0.0 <= p_value_f(abs(s), df1, df) <= 1.0

    def test_betainc_symmetry(self):
        assert betainc(2.0, 3.0, 0.4) == pytest.approx(
            1.0 - betainc(3.0, 2.0, 0.6), rel=1e-12
        )

    def test_t_critical_matches_oracle(self):
        for alpha, df in ((0.05, 17), (0.01, 17), (0.05, 5), (0.001, 100)):
            assert t_critical(alpha, df) == pytest.approx(
                oracles.t_critical(alpha, df), abs=1e-6
            )

    def test_t_critical_round_trips(self):
        crit = t_critical(0.05, 17)
        assert p_value_t(crit, 17) == pytest.approx(0.05, abs=1e-10)

    # References below are 40-digit mpmath values rounded to double; scipy
    # 1.17 gives the same p-value to the bit.
    def test_small_statistic_keeps_the_central_probability(self):
        # 1 - p = P(|T| < 1e-7) is 7.86e-8, below the rounding of x = df/(df + t²).
        assert 1.0 - p_value_t(1e-7, 17) == pytest.approx(1.0 - 0.999999921375654, rel=1e-12)

    def test_t_critical_near_alpha_one(self):
        assert t_critical(0.999999, 5) == pytest.approx(1.3171527621084687e-06, rel=1e-12)
        assert t_critical(0.999999, 17) == pytest.approx(1.2718706747787083e-06, rel=1e-12)
        # lgamma cancellation at df = 1e6 limits this one to about 7e-10.
        assert t_critical(0.999999, 10**6) == pytest.approx(1.2533144506804418e-06, rel=1e-9)

    def test_t_critical_at_extreme_arguments(self):
        alphas = (1e-300, 1e-12, 0.05, 0.5, 1.0 - 1e-12)
        for df in (1, 2, 3, 17, 1000, 10**7):
            values = [t_critical(alpha, df) for alpha in alphas]
            assert all(0.0 < v < math.inf for v in values), df
            assert values == sorted(values, reverse=True), df
        # Subnormal tails: Newton crawls in from the left until bisection takes over.
        for alpha, df in ((1e-323, 122), (5e-324, 126), (1.5e-323, 140)):
            assert 0.0 < t_critical(alpha, df) < math.inf

    def test_t_critical_needs_few_tail_evaluations(self, monkeypatch):
        calls = 0

        def counting(t, df):
            nonlocal calls
            calls += 1
            return p_value_t(t, df)

        monkeypatch.setattr(stats, "p_value_t", counting)
        worst = 0
        for df in range(1, 2001):
            for alpha in (0.01, 0.05, 0.10):
                calls = 0
                t_critical(alpha, df)
                worst = max(worst, calls)
        assert worst <= 6

    def test_continued_fraction_says_when_it_does_not_converge(self):
        # At x = 1/2, a = b = 1e5 needs 241 terms and a = b = 1e6 needs 519.
        assert betainc(1e5, 1e5, 0.5) == pytest.approx(0.5, abs=1e-6)
        with pytest.raises(ConvergenceError, match="did not converge in 300 iterations"):
            betainc(1e6, 1e6, 0.5)


class TestSignificanceStars:
    @pytest.mark.parametrize("p,stars", [
        (0.0004, "***"),
        (0.004, "**"),
        (0.04, "*"),
        (0.2, ""),
        (0.05, ""),
    ])
    def test_star_rule(self, p, stars):
        assert significance_stars(p) == stars
