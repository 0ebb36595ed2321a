"""Core analyses over a ledger: trends, cost shares, growth, allometry.

Four views of how an organization consumes its revenue:

* ``trend_fit``: OLS of an item against calendar year.
* ``metabolism_index``: an item's share of another, in percent per year
  (by default the personnel cost share of total revenue).
* ``arithmetic_growth``: linear (non-compounding) growth rate between two
  years, carried both per-year and cumulative.
* ``allometric_fit``: log-log power-law fit of a cost item against an
  explanatory item, classified against proportional (isometric) growth.

Plus ``crossover_years`` (where two series trade places) and
``mean_cost_profile`` (per-item descriptives behind cost bar charts).
All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from enum import Enum
from itertools import compress, repeat
from operator import gt, le, lt, ne, sub

from .errors import AlignmentError, DomainError, InsufficientDataError
from .ledger import COST_ITEMS, LedgerSeries, Series, extract_series
from .stats import Descriptives, RegressionFit, descriptives, ols_fit, t_critical

# |exponent - 1| below this counts as exactly isometric when the fit is exact.
_ISOMETRY_ATOL = 1e-12


class AllometryClass(Enum):
    NEGATIVE_ALLOMETRIC = "negative_allometric"  # cost grows slower than revenue
    ISOMETRIC = "isometric"                      # proportional growth
    POSITIVE_ALLOMETRIC = "positive_allometric"  # cost outgrows revenue


@dataclass(frozen=True)
class MetabolismPoint:
    """One year's cost share of revenue, in percent."""

    year: int
    share_percent: float


class ShareSeries(Series):
    """Yearly shares in percent: a ``Series`` that indexes and iterates as ``MetabolismPoint``s."""

    def __iter__(self) -> Iterator[MetabolismPoint]:
        return map(MetabolismPoint, self.years, self.values)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(MetabolismPoint, self.years[index], self.values[index]))
        return MetabolismPoint(self.years[index], self.values[index])


@dataclass(frozen=True)
class GrowthRate:
    """Arithmetic growth over a period, per-year and cumulative.

    ``r_per_year`` is the linear rate (end - start)/(start * years);
    ``cumulative`` is the total relative change (end - start)/start, so
    ``cumulative == r_per_year * t_years``.
    """

    start_value: float
    end_value: float
    t_years: int
    r_per_year: float
    cumulative: float


@dataclass(frozen=True)
class AllometricFit:
    """Log-log power-law fit of a dependent item on an explanatory item."""

    log_prefactor: float
    se_log_prefactor: float
    exponent: float
    se_exponent: float
    r_squared: float
    f_statistic: float
    n: int
    classification: AllometryClass
    test_alpha: float
    p_exponent: float
    exact_fit: bool = False


@dataclass(frozen=True)
class Crossing:
    """Two series trading places between two observation years."""

    start_year: int
    end_year: int
    crossing_year: float


@dataclass(frozen=True)
class CostProfile:
    """Per-item descriptives; items not reported in every year are listed."""

    by_item: Mapping[str, Descriptives]
    omitted: tuple[str, ...]


def trend_fit(ledger: LedgerSeries, item: str) -> RegressionFit:
    """OLS trend of one item against calendar year.

    Raises:
        DomainError: the fitted line leaves the float range, as a steep trend
            of values near 1e306 does once its intercept is taken at year 0.
    """
    values = extract_series(ledger, item)
    years = Series(values.years, tuple(map(float, values.years)))
    try:
        return ols_fit(years, values)
    except DomainError:  # the one ols_fit raises on a year trend: an overflow
        raise DomainError(f"trend of {item} overflows a float") from None


def metabolism_index(
    ledger: LedgerSeries,
    numerator: str = "cost_of_personnel",
    denominator: str = "total_revenue",
) -> ShareSeries:
    """Yearly share of ``numerator`` over ``denominator``, in percent.

    Raises:
        DomainError: in some year the denominator is not positive, or the
            share overflows a float.
    """
    num = extract_series(ledger, numerator)
    den = extract_series(ledger, denominator)
    shares = []
    for year, n_value, d_value in zip(num.years, num.values, den.values):
        if d_value <= 0:
            raise DomainError(f"{denominator} is not positive in {year}")
        share = 100.0 * n_value / d_value
        if not math.isfinite(share):
            raise DomainError(f"share of {numerator} in {denominator} is not finite in {year}")
        shares.append(share)
    return ShareSeries(num.years, tuple(shares))


def arithmetic_growth(series: Series, start: int, end: int) -> GrowthRate:
    """Arithmetic growth of a series between two observed years.

    Raises:
        DomainError: the years are not in order, the start value is not
            positive, or the relative change overflows a float.
    """
    if start >= end:
        raise DomainError(f"start year {start} must be before end year {end}")
    start_value = series.value_at(start)
    end_value = series.value_at(end)
    if start_value <= 0:
        raise DomainError(f"value at start year {start} must be positive")
    t_years = end - start
    change = (end_value - start_value) / start_value
    if not math.isfinite(change):
        raise DomainError(f"growth is not finite in {start}-{end}")
    return GrowthRate(
        start_value=start_value,
        end_value=end_value,
        t_years=t_years,
        r_per_year=change / t_years,
        cumulative=change,
    )


def classify_allometry(
    exponent: float, se_exponent: float, n: int, alpha: float = 0.05
) -> AllometryClass:
    """Classify a power-law exponent against proportional growth.

    Growth is isometric unless a two-sided t-test rejects exponent == 1 at
    ``alpha`` (df n-2). With a zero standard error (exact fit) the exponent
    is compared to 1 directly, with tolerance 1e-12.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must be in (0, 1)")
    if n < 3:
        raise InsufficientDataError(f"classification needs n >= 3, got {n}")
    if se_exponent < 0:
        raise DomainError("se_exponent must be non-negative")
    if se_exponent == 0:
        if abs(exponent - 1.0) <= _ISOMETRY_ATOL:
            return AllometryClass.ISOMETRIC
    else:
        t_stat = (exponent - 1.0) / se_exponent
        if abs(t_stat) <= t_critical(alpha, n - 2):
            return AllometryClass.ISOMETRIC
    if exponent > 1.0:
        return AllometryClass.POSITIVE_ALLOMETRIC
    return AllometryClass.NEGATIVE_ALLOMETRIC


def allometric_fit(
    ledger: LedgerSeries,
    dependent_item: str = "cost_of_personnel",
    explanatory_item: str = "total_revenue",
    *,
    alpha: float = 0.05,
) -> AllometricFit:
    """Fit dependent = prefactor * explanatory^exponent on log-log scale.

    Both series must be strictly positive over the ledger. The exponent's
    standard error drives the allometry classification at ``alpha``, which
    ``classify_allometry`` checks once the data have been fitted.
    """
    dep = extract_series(ledger, dependent_item)
    exp_ = extract_series(ledger, explanatory_item)
    for series, item in ((dep, dependent_item), (exp_, explanatory_item)):
        if any(map(le, series.values, repeat(0.0))):
            year = next(year for year, value in series.items() if value <= 0)
            raise DomainError(f"{item} is not positive in {year}; log-log fit impossible")
    fit = ols_fit(
        Series(exp_.years, tuple(map(math.log, exp_.values))),
        Series(dep.years, tuple(map(math.log, dep.values))),
    )
    return AllometricFit(
        log_prefactor=fit.intercept,
        se_log_prefactor=fit.se_intercept,
        exponent=fit.slope,
        se_exponent=fit.se_slope,
        r_squared=fit.r_squared,
        f_statistic=fit.f_statistic,
        n=fit.n,
        classification=classify_allometry(fit.slope, fit.se_slope, fit.n, alpha),
        test_alpha=alpha,
        p_exponent=fit.p_slope,
        exact_fit=fit.exact_fit,
    )


def crossover_years(a: Series, b: Series) -> tuple[Crossing, ...]:
    """Find where series a and b trade places (sign changes of a - b).

    Zero differences count as sign boundaries; a touch at an observation
    year is reported once, at that year exactly. Crossing positions are
    linearly interpolated between annual observations.
    """
    if a.years != b.years:
        raise AlignmentError("series must share the same years")
    if len(a) < 2:
        raise InsufficientDataError("crossover detection needs at least 2 points")
    diffs = list(map(sub, a.values, b.values))
    # Each difference's sign: 1, -1 or 0 (also for NaN); a crossing is where it changes.
    signs = list(map(sub, map(gt, diffs, repeat(0.0)), map(lt, diffs, repeat(0.0))))
    crossings: list[Crossing] = []
    for i in compress(range(len(diffs) - 1), map(ne, signs, signs[1:])):
        y0, y1 = a.years[i], a.years[i + 1]
        # Where a difference overflows, a quarter of each value keeps it
        # finite; a power of two scales the interpolation's ratio exactly.
        f = 0.25 if math.isinf(diffs[i]) or math.isinf(diffs[i + 1]) else 1.0
        d0, d1 = (f * a.values[j] - f * b.values[j] for j in (i, i + 1))
        at = y0 + d0 / (d0 - d1) * (y1 - y0)
        previous = crossings[-1] if crossings else None
        if previous is not None and previous.end_year == y0 and previous.crossing_year == at:
            continue  # same touch point seen from the adjacent pair
        crossings.append(Crossing(y0, y1, at))
    return tuple(crossings)


def mean_cost_profile(ledger: LedgerSeries) -> CostProfile:
    """Descriptives of every cost item reported in all of the ledger's records."""
    if not ledger.years:
        raise InsufficientDataError("no records in the requested period")
    by_item: dict[str, Descriptives] = {}
    omitted: list[str] = []
    for item in COST_ITEMS:
        values = ledger.columns[item]
        if None in values:
            omitted.append(item)
            continue
        by_item[item] = descriptives(values)
    return CostProfile(by_item=by_item, omitted=tuple(omitted))
