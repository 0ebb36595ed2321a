import dataclasses
import math
import random
import statistics

import pytest
from hypothesis import Phase, example, given, settings
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
        assert not fit.degenerate
        assert fit.f_statistic == math.inf

    def test_constant_response_is_degenerate(self):
        x, y = year_series(2000, [7.5] * 10)
        fit = ols_fit(x, y)
        assert fit.degenerate
        assert fit.slope == 0.0
        assert fit.r_squared == 0.0
        assert fit.f_statistic == 0.0
        assert fit.p_slope == 1.0
        # Three 0.1s have no exact mean, so their residuals and se are not 0.
        for values in ([7.5] * 10, [0.1] * 3):
            x, y = year_series(2000, values)
            fit = ols_fit(x, y)
            n = len(values)
            mean = math.fsum(y.values) / n
            x_mean = math.fsum(x.values) / n
            sxx = math.fsum((v - x_mean) ** 2 for v in x.values)
            residuals = tuple(v - mean for v in y.values)
            sigma2 = math.fsum(r * r for r in residuals) / (n - 2)
            assert fit.residuals == residuals
            assert fit.intercept == mean
            assert fit.se_slope == pytest.approx(math.sqrt(sigma2 / sxx), rel=1e-12, abs=0.0)
            assert fit.se_intercept == pytest.approx(
                math.sqrt(sigma2 * (1.0 / n + x_mean * x_mean / sxx)), rel=1e-12, abs=0.0
            )
            assert fit.standardized_slope == 0.0
            assert fit.exact_fit is False
        assert fit.se_slope > 0.0

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

    def test_fitted_line_that_overflows(self):
        # The slope fits, but the intercept at year 0 lies past the float range.
        x, y = year_series(1997, [1e9 * (i + 1) for i in range(18)] + [1.7e308])
        with pytest.raises(DomainError, match="fitted line overflows a float"):
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

    def test_r_squared_is_f_over_f_plus_residual_df(self):
        # Simple OLS ties R2 to F exactly: R2 = F / (F + n - 2).
        rng = random.Random(8)
        for _ in range(200):
            n = rng.randrange(3, 60)
            values = noisy_dataset(rng.random(), n=n, slope=rng.uniform(-1e7, 1e7))
            fit = ols_fit(*year_series(1997, values))
            f = fit.f_statistic
            assert fit.r_squared == pytest.approx(f / (f + n - 2), rel=1e-9, abs=0)

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

    # The worst relative error of sd against exact arithmetic over 40,000 sets
    # of n = 2 to 25 values 1e9·(1 + noise·N(0, 1)), noise log-uniform in
    # 1e-14..1e-1, was 2.22e-16.
    SD_RTOL = 3e-16

    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              phases=(Phase.explicit, Phase.generate))
    @given(noise_exponent=st.floats(-14.0, -1.0),
           deviates=st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=25))
    def test_sd_matches_exact_arithmetic(self, noise_exponent, deviates):
        # Values of about 1e9 whose spread is as small as a few ulps.
        values = [1e9 * (1.0 + 10.0 ** noise_exponent * z) for z in deviates]
        mean, sd = oracles.exact_mean_sd(values)
        d = descriptives(values)
        assert abs(d.mean - mean) <= math.ulp(mean)
        assert abs(d.sd - sd) <= self.SD_RTOL * sd


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
    @example(values=[1.5] * 5, j=996)  # a constant response of about 1e300
    @example(values=[1.5] * 5, j=-997)  # and of about 1e-300
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
        for alpha, df in ((0.0, 5), (1.0, 5), (math.nan, 5), (0.05, 0)):
            with pytest.raises(DomainError, match="t_critical needs"):
                t_critical(alpha, df)

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.integers(min_value=1, max_value=10**9),
           st.integers(min_value=1, max_value=100))
    def test_tails_accept_every_finite_statistic(self, s, df, df1):
        assert 0.0 <= p_value_t(s, df) <= 1.0
        assert 0.0 <= p_value_f(abs(s), df1, df) <= 1.0

    def test_betainc_symmetry(self):
        # The two tails of one point share one front factor, so they sum to 1
        # within an ulp: at df 1e6 they once missed by 3.5e-11.
        points = [(2.0, 3.0, 0.4, 0.6)]
        for df in (3, 17, 1998, 10**6, 10**7):
            for t in (0.05, 0.1, 0.2533, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
                t2 = t * t
                points.append((df / 2.0, 0.5, df / (df + t2), t2 / (df + t2)))
        for a, b, x, y in points:
            total = betainc(a, b, x, y) + betainc(b, a, y, x)
            assert abs(total - 1.0) <= 2.3e-16, (a, b, x, total - 1.0)

    def test_t_critical_matches_oracle(self):
        for alpha, df in ((0.05, 17), (0.01, 17), (0.05, 5), (0.001, 100)):
            assert t_critical(alpha, df) == pytest.approx(
                oracles.t_critical(alpha, df), abs=1e-6
            )

    def test_t_critical_round_trips(self):
        crit = t_critical(0.05, 17)
        assert p_value_t(crit, 17) == pytest.approx(0.05, abs=1e-10)
        # Above alpha = 1/2 the root is found on the central probability, the
        # other tail of the point p_value_t takes.
        crit = t_critical(0.8, 10**6)
        assert p_value_t(crit, 10**6) == pytest.approx(0.8, rel=1e-15)

    # References below are 40-digit mpmath values rounded to double; scipy
    # 1.17 gives the same p-value to the bit.
    def test_small_statistic_keeps_the_central_probability(self):
        # 1 - p = P(|T| < 1e-7) is 7.86e-8, below the rounding of x = df/(df + t²).
        assert 1.0 - p_value_t(1e-7, 17) == pytest.approx(1.0 - 0.999999921375654, rel=1e-12)

    def test_t_critical_near_alpha_one(self):
        assert t_critical(0.999999, 5) == pytest.approx(1.3171527621084687e-06, rel=1e-12)
        assert t_critical(0.999999, 17) == pytest.approx(1.2718706747787083e-06, rel=1e-12)
        # lgamma cancellation at df = 1e6 limits this one to about 5.5e-10.
        assert t_critical(0.999999, 10**6) == pytest.approx(1.2533144506804418e-06, rel=1e-9)

    def test_t_critical_at_extreme_arguments(self):
        alphas = (1e-300, 1e-12, 0.05, 0.5, 1.0 - 1e-12)
        for df in (1, 2, 3, 17, 1000, 10**7):
            values = [t_critical(alpha, df) for alpha in alphas]
            assert all(0.0 < v < math.inf for v in values), df
            assert values == sorted(values, reverse=True), df
        # Subnormal tails, which carry a few bits: a tail that rounds to 0 still steps.
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

    def test_t_critical_over_its_whole_domain(self, monkeypatch):
        # A seeded sweep, log-uniform in alpha from 5e-324 to 1/2, in 1 - alpha from
        # 1e-16 to 1/2 and in df from 3 to 1e9, plus the ends. Each tail evaluation,
        # through p_value_t or of the central probability, is one betainc call.
        calls = 0

        def counting(*args):
            nonlocal calls
            calls += 1
            return betainc(*args)

        monkeypatch.setattr(stats, "betainc", counting)
        rng = random.Random(17)
        cases = [(alpha, df) for alpha in (5e-324, 1e-300, 0.5, math.nextafter(0.5, 1.0),
                                           1.0 - 1e-16) for df in (3, 1000, 10**9)]
        # At df 1e12 lgamma noise stops the steps shrinking above _T_STEP_TOL.
        cases.append((0.05, 10**12))
        for _ in range(6000):
            if rng.random() < 0.5:
                alpha = math.exp(rng.uniform(math.log(5e-324), math.log(0.5)))
            else:
                alpha = 1.0 - math.exp(rng.uniform(math.log(1e-16), math.log(0.5)))
            cases.append((alpha, round(math.exp(rng.uniform(math.log(3), math.log(1e9))))))
        for alpha, df in cases:
            calls = 0
            crit = t_critical(alpha, df)
            assert 0.0 < crit < math.inf and calls <= 6, (alpha, df, crit, calls)
            if df > 1000:
                continue  # lgamma cancellation blurs the tails (tests/test_tails_scipy.py)
            # The round trip lands within 1e-12 of the target (2.9e-13 measured over
            # 40,000 cases), or within the least double where the tail is subnormal.
            t2 = crit * crit
            if alpha <= 0.5:
                prob, target = p_value_t(crit, df), alpha
            else:
                prob, target = betainc(0.5, df / 2.0, t2 / (df + t2), df / (df + t2)), 1.0 - alpha
            assert abs(prob - target) <= 1e-12 * target + 5e-324, (alpha, df, prob)

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
