"""Simple linear regression with full inference, self-contained.

The engine is closed-form OLS computed on a mean-centered regressor for
numerical stability (calendar years against statement-scale values produce
~1e10 intercepts); results are reported in the uncentered parameterization.
Two-sided t and upper-tail F probabilities share one regularized incomplete
beta function evaluated by continued fraction, so the F(1, d) = t(d)^2
duality holds to the last bit. Both tails hand it x and 1 - x computed
separately, so a probability close to 1 keeps its complement's precision.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

from .errors import (
    AlignmentError,
    ConvergenceError,
    DegenerateRegressorError,
    DomainError,
    InsufficientDataError,
)
from .ledger import Series

# Continued-fraction convergence: relative tolerance and iteration cap.
_BETA_TOL = 1e-14
_BETA_MAX_ITER = 300

# x and 1 - x handed to betainc separately each carry a rounding error or
# two; a larger gap means they do not describe the same point.
_BETA_XY_TOL = 2.0**-50

# t_critical stops after a Newton step smaller than this fraction of t: the
# error left by such a step is of the order of its square, below double
# precision, while steps of this size still clear the noise that lgamma
# cancellation puts into the tail at df around 1e7.
_T_STEP_TOL = 1e-9
_T_MAX_ITER = 100

# Odeh & Evans (1974, Applied Statistics AS 70): upper-tail normal deviate
# for Hill's start, absolute error below 1.5e-8.
_AS70_P = (-0.322232431088, -1.0, -0.342242088547, -0.0204231210245, -0.453642210148e-4)
_AS70_Q = (0.0993484626060, 0.588581570495, 0.531103462366, 0.103537752850, 0.38560700634e-2)

# Residual sum of squares below this fraction of the response variance is
# treated as an exact fit (pure floating-point noise).
_EXACT_FIT_RSS_FRACTION = 1e-24


@dataclass(frozen=True)
class Descriptives:
    """Count, mean, sample standard deviation (n-1), min and max."""

    n: int
    mean: float
    sd: float
    minimum: float
    maximum: float


@dataclass(frozen=True)
class RegressionFit:
    """Full result of a simple OLS regression.

    ``degenerate`` marks a constant response (slope forced to zero);
    ``exact_fit`` marks a noiseless relation (standard errors are zero and
    p-values are reported as zero instead of dividing by zero).
    """

    n: int
    intercept: float
    slope: float
    se_intercept: float
    se_slope: float
    standardized_slope: float
    r_squared: float
    f_statistic: float
    p_slope: float
    p_f: float
    residuals: tuple[float, ...]
    degenerate: bool = False
    exact_fit: bool = False


def _scale_exponent(minimum: float, maximum: float) -> int:
    """The k that brings values bounded by ``minimum`` and ``maximum`` into (-1, 1) times 2^-k.

    k is 0 when every value is 0. Scaling by a power of two is exact, so
    results computed on the scaled values and scaled back by 2^k are those of
    exact-range arithmetic, while no square of a scaled value overflows
    (above about 1e154) or underflows (below about 1e-154).
    """
    return math.frexp(max(-minimum, maximum))[1]


def descriptives(values: Sequence[float]) -> Descriptives:
    """Summarize a sequence: mean, sample sd (0 when n == 1), min, max."""
    n = len(values)
    if n == 0:
        raise InsufficientDataError("descriptives need at least one value")
    minimum = min(values)
    maximum = max(values)
    k = _scale_exponent(minimum, maximum)
    scaled = [math.ldexp(v, -k) for v in values]
    # fsum/n can land an ulp outside [min, max]; the true mean never does.
    mean = min(max(math.fsum(scaled) / n, math.ldexp(minimum, -k)), math.ldexp(maximum, -k))
    if n == 1:
        sd = 0.0
    else:
        # d * d, not d ** 2: C pow need not round correctly, and the product's
        # exact rounding keeps sd exactly proportional to power-of-two scaling.
        sd = math.sqrt(math.fsum(d * d for d in (v - mean for v in scaled)) / (n - 1))
    return Descriptives(n=n, mean=math.ldexp(mean, k), sd=math.ldexp(sd, k), minimum=minimum, maximum=maximum)


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz method).

    Raises:
        ConvergenceError: no convergence within ``_BETA_MAX_ITER`` terms.
    """
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        coef = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + coef * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + coef / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        coef = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + coef * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + coef / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_TOL:
            return h
    raise ConvergenceError(
        f"incomplete beta continued fraction did not converge in {_BETA_MAX_ITER} "
        f"iterations (a={a!r}, b={b!r}, x={x!r})"
    )


def betainc(a: float, b: float, x: float, y: float | None = None) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Uses the continued-fraction expansion with the symmetry switch at
    x = (a + 1)/(a + b + 2). ``y`` is 1 - x; a caller that can compute it
    without cancellation passes it in (DiDonato & Morris 1992, ACM TOMS 708),
    because ``1.0 - x`` keeps no relative precision when x is close to 1.
    """
    if a <= 0 or b <= 0:
        raise DomainError("betainc needs a > 0 and b > 0")
    if x < 0 or x > 1:
        raise DomainError("betainc needs 0 <= x <= 1")
    if x == 0:
        return 0.0
    if y is None:
        y = 1.0 - x
    elif not 0.0 <= y <= 1.0 or abs(x + y - 1.0) > _BETA_XY_TOL:
        raise DomainError("betainc needs y = 1 - x")
    if y == 0:
        return 1.0
    # Take each logarithm from whichever of x and y is small, hence exact.
    if x <= 0.5:
        ln_x, ln_y = math.log(x), math.log1p(-x)
    else:
        ln_x, ln_y = math.log1p(-y), math.log(y)
    ln_front = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * ln_x + b * ln_y
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, y) / b


def p_value_t(t: float, df: int) -> float:
    """Two-sided tail probability P(|T| >= |t|) for Student t with df."""
    if df < 1:
        raise DomainError("p_value_t needs df >= 1")
    if not math.isfinite(t):
        raise DomainError("p_value_t needs a finite statistic")
    if t == 0:
        return 1.0
    t2 = t * t
    return betainc(df / 2.0, 0.5, df / (df + t2), t2 / (df + t2))


def p_value_f(f: float, df1: int, df2: int) -> float:
    """Upper-tail probability P(F >= f) for the F distribution."""
    if df1 < 1 or df2 < 1:
        raise DomainError("p_value_f needs df1 >= 1 and df2 >= 1")
    if not math.isfinite(f) or f < 0:
        raise DomainError("p_value_f needs a finite statistic >= 0")
    if f == 0:
        return 1.0
    g = df1 * f
    return betainc(df2 / 2.0, df1 / 2.0, df2 / (df2 + g), g / (df2 + g))


def _hill_start(alpha: float, df: int) -> float:
    """Hill's approximation to the two-sided t critical value, for df >= 3.

    G. W. Hill, "Algorithm 396: Student's t-quantiles", CACM 13(10), 1970,
    with the normal deviate of alpha/2 from Odeh & Evans (AS 70).
    """
    n = float(df)
    a = 1.0 / (n - 0.5)
    b = 48.0 / (a * a)
    c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
    d = ((94.5 / (b + c) - 3.0) / b + 1.0) * math.sqrt(a * math.pi / 2.0) * n
    # (d * alpha) ** (2 / n), in logarithms so that a tiny alpha cannot underflow.
    y = math.exp(2.0 / n * (math.log(d) + math.log(alpha)))
    if y <= 0.05 + a:
        # Far tail: expansion in powers of y.
        y = ((1.0 / (((n + 6.0) / (n * y) - 0.089 * d - 0.822) * (n + 2.0) * 3.0)
              + 0.5 / (n + 4.0)) * y - 1.0) * (n + 1.0) / (n + 2.0) + 1.0 / y
        return math.sqrt(n * y)
    # Expansion about the normal deviate x of alpha/2 (x < 0).
    w = math.sqrt(2.0 * (math.log(2.0) - math.log(alpha)))
    p, q = _AS70_P, _AS70_Q
    x = -w - ((((p[4] * w + p[3]) * w + p[2]) * w + p[1]) * w + p[0]) / (
        (((q[4] * w + q[3]) * w + q[2]) * w + q[1]) * w + q[0]
    )
    y = x * x
    if df < 5:
        c += 0.3 * (n - 4.5) * (x + 0.6)
    c = (((0.05 * d * x - 5.0) * x - 7.0) * x - 2.0) * x + b + c
    y = (((((0.4 * y + 6.3) * y + 36.0) * y + 94.5) / c - y - 3.0) / b + 1.0) * x
    return math.sqrt(n * math.expm1(a * y * y))


def t_critical(alpha: float, df: int) -> float:
    """Two-sided critical value: the t with P(|T| >= t) = alpha.

    Exact for df 1 and 2. Otherwise Newton steps on the closed-form t
    density from Hill's start, inside a bracket that falls back to bisection
    whenever a step leaves it or fails to halve the step before.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError("t_critical needs 0 < alpha < 1")
    if df < 1:
        raise DomainError("t_critical needs df >= 1")
    # For alpha above 1/2 every form works from 1 - alpha, which is exact.
    if df == 1:
        if alpha <= 0.5:
            return 1.0 / math.tan(0.5 * math.pi * alpha)
        return math.tan(0.5 * math.pi * (1.0 - alpha))
    if df == 2:
        return (1.0 - alpha) * math.sqrt(2.0 / (alpha * (2.0 - alpha)))
    log_density = (
        math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0) - 0.5 * math.log(df * math.pi)
    )
    t = _hill_start(alpha, df)
    lo, hi = 0.0, math.inf
    step = math.inf
    for _ in range(_T_MAX_ITER):
        # The residual falls as t grows. Above alpha = 1/2 it is taken on the
        # central probability P(|T| < t), whose small value keeps its precision.
        if alpha <= 0.5:
            residual = p_value_t(t, df) - alpha
        else:
            t2 = t * t
            residual = (1.0 - alpha) - betainc(0.5, df / 2.0, t2 / (df + t2), df / (df + t2))
        if residual > 0:
            lo = t
        else:
            hi = t
        # -d residual / dt = 2 f(t); an underflowed density gives no step.
        slope = 2.0 * math.exp(log_density - 0.5 * (df + 1) * math.log1p(t * t / df))
        t_next = t + residual / slope if slope > 0 else math.inf
        # Bisect when a step leaves the bracket or fails to halve the one before.
        if abs(t_next - t) > _T_STEP_TOL * t and (
            not lo < t_next < hi or abs(t_next - t) > 0.5 * step
        ):
            t_next = 0.5 * (lo + hi) if hi < math.inf else 2.0 * t
        step = abs(t_next - t)
        if step <= _T_STEP_TOL * t:
            return t_next
        t = t_next
    raise ConvergenceError(f"t_critical did not converge (alpha={alpha!r}, df={df})")


def significance_stars(p: float) -> str:
    """Star rule for tables: *** p<0.001, ** p<0.01, * p<0.05."""
    if p < 0.001:
        return "***"
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""


def ols_fit(x: Series, y: Series) -> RegressionFit:
    """Fit y = intercept + slope * x by ordinary least squares.

    Both series must share the same year set. Inference (standard errors,
    standardized coefficient, R^2, F, two-sided p-values) comes with the
    fit; residuals are returned in year order.

    Raises:
        AlignmentError: the year sets differ.
        InsufficientDataError: fewer than 3 points.
        DegenerateRegressorError: x has zero variance.
    """
    if x.years != y.years:
        raise AlignmentError("x and y must share the same years")
    n = len(x)
    if n < 3:
        raise InsufficientDataError(f"ols_fit needs at least 3 points, got {n}")
    # Fit y times 2^-k on x times 2^-h, whose values all lie in (-1, 1), and
    # scale back: the levels by 2^k, the slope and its se by 2^(k-h).
    k = _scale_exponent(min(y.values), max(y.values))
    h = _scale_exponent(min(x.values), max(x.values))
    fit = _ols_unit([math.ldexp(v, -h) for v in x.values], [math.ldexp(v, -k) for v in y.values])
    return replace(
        fit,
        intercept=math.ldexp(fit.intercept, k),
        slope=math.ldexp(fit.slope, k - h),
        se_intercept=math.ldexp(fit.se_intercept, k),
        se_slope=math.ldexp(fit.se_slope, k - h),
        residuals=tuple(math.ldexp(r, k) for r in fit.residuals),
    )


def _ols_unit(xs: list[float], ys: list[float]) -> RegressionFit:
    """``ols_fit`` of ``ys`` on ``xs`` once both are checked and scaled."""
    n = len(ys)
    x_mean = math.fsum(xs) / n
    y_mean = math.fsum(ys) / n
    dx = [v - x_mean for v in xs]
    dy = [v - y_mean for v in ys]
    sxx = math.fsum(d * d for d in dx)
    if sxx == 0.0:
        raise DegenerateRegressorError("explanatory variable is constant")
    syy = math.fsum(d * d for d in dy)
    df = n - 2

    if min(ys) == max(ys):
        # Constant response: slope is zero with certainty, no signal to explain.
        residuals = tuple(dy)
        sse = math.fsum(r * r for r in residuals)
        sigma2 = sse / df
        return RegressionFit(
            n=n,
            intercept=y_mean,
            slope=0.0,
            se_intercept=math.sqrt(sigma2 * (1.0 / n + x_mean * x_mean / sxx)),
            se_slope=math.sqrt(sigma2 / sxx),
            standardized_slope=0.0,
            r_squared=0.0,
            f_statistic=0.0,
            p_slope=1.0,
            p_f=1.0,
            residuals=residuals,
            degenerate=True,
        )

    sxy = math.fsum(a * b for a, b in zip(dx, dy))
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    residuals = tuple(b - slope * a for a, b in zip(dx, dy))
    sse = math.fsum(r * r for r in residuals)

    if sse <= _EXACT_FIT_RSS_FRACTION * syy:
        return RegressionFit(
            n=n,
            intercept=intercept,
            slope=slope,
            se_intercept=0.0,
            se_slope=0.0,
            standardized_slope=math.copysign(1.0, slope),
            r_squared=1.0,
            f_statistic=math.inf,
            p_slope=0.0,
            p_f=0.0,
            residuals=residuals,
            exact_fit=True,
        )

    sigma2 = sse / df
    se_slope = math.sqrt(sigma2 / sxx)
    se_intercept = math.sqrt(sigma2 * (1.0 / n + x_mean * x_mean / sxx))
    r = sxy / math.sqrt(sxx * syy)
    r = max(-1.0, min(1.0, r))
    t_stat = slope / se_slope
    f_stat = t_stat * t_stat
    # p_value_f(f_stat, 1, df) would call betainc with the very arguments
    # p_value_t passes, so the F tail is the t tail to the bit.
    p_slope = p_value_t(t_stat, df)
    return RegressionFit(
        n=n,
        intercept=intercept,
        slope=slope,
        se_intercept=se_intercept,
        se_slope=se_slope,
        standardized_slope=r,
        r_squared=r * r,
        f_statistic=f_stat,
        p_slope=p_slope,
        p_f=p_slope,
        residuals=residuals,
    )
