"""Differential test of the t/F tails and ``t_critical`` against scipy.

scipy is a test-only oracle: the library stays stdlib-only, and this module
is skipped where scipy is not installed. The grid crosses df from 1 to 1e7
with alpha from 1e-12 to 1 - 1e-6; each point gives a t and an F quantile
whose arguments feed every function under test.

Bounds are relative and set per df region. Up to df 1000 they are 1e-12.
Above it the beta front factor exp(lgamma(a + b) - lgamma(a) - lgamma(b) ...)
loses digits to cancellation between lgamma values of order a log a, and
the bounds are the errors measured there (worst 4.2e-12 at df 1998, 4.9e-9
at 1e6 and 1.7e-8 at 1e7, all on p_value_t/p_value_f at alpha 0.1), rounded
up.

Where the reference probability is above 1/2, it is taken as one minus the
smaller tail from ``scipy.special.betainc``: ``stats.t.sf`` is off by up to
8e-12 near the median at df 1, and ``stats.t.isf`` by up to 3e-11 for alpha
near 1 (both measured against 40-digit mpmath), so for alpha above 1/2 the
critical value comes from ``betaincinv`` on the central probability.
"""

import math

import pytest

special = pytest.importorskip("scipy.special")
scipy_stats = pytest.importorskip("scipy.stats")

from ecometab.stats import betainc, p_value_f, p_value_t, t_critical  # noqa: E402

DFS = (1, 2, 3, 5, 10, 17, 100, 1998, 10**6, 10**7)
ALPHAS = (1e-12, 1e-6, 1e-3, 0.01, 0.05, 0.1, 0.5, 0.9, 0.999, 0.999999)
F_NUMERATOR_DFS = (1, 2, 5, 17)
LARGE_DF_BOUNDS = {1998: 1e-11, 10**6: 1e-8, 10**7: 5e-8}

GRID = [(df, alpha) for df in DFS for alpha in ALPHAS]


def bound(df):
    return 1e-12 if df <= 1000 else LARGE_DF_BOUNDS[df]


def relative_error(value, reference):
    return abs(value / reference - 1.0)


def t_point(df, alpha):
    """The t quantile of the grid point with its beta arguments x and 1 - x."""
    t = float(scipy_stats.t.isf(alpha / 2, df))
    t2 = t * t
    return t, df / (df + t2), t2 / (df + t2)


def f_point(df1, df2, alpha):
    f = float(scipy_stats.f.isf(alpha, df1, df2))
    g = df1 * f
    return f, df2 / (df2 + g), g / (df2 + g)


def beta_cases(df, alpha):
    """(a, b, x, 1 - x) for both tails of the grid point's t and F quantiles."""
    _, x, y = t_point(df, alpha)
    cases = [(df / 2, 0.5, x, y), (0.5, df / 2, y, x)]
    for df1 in F_NUMERATOR_DFS:
        _, x, y = f_point(df1, df, alpha)
        cases += [(df / 2, df1 / 2, x, y), (df1 / 2, df / 2, y, x)]
    return cases


@pytest.mark.parametrize("df,alpha", GRID)
def test_betainc_matches_scipy(df, alpha):
    for a, b, x, y in beta_cases(df, alpha):
        # scipy is handed x alone, so only the side where 1 - x is exact.
        if x <= 0.5:
            err = relative_error(betainc(a, b, x, y), special.betainc(a, b, x))
            assert err <= bound(df), (a, b, x, err)


@pytest.mark.parametrize("df,alpha", GRID)
def test_p_value_t_matches_scipy(df, alpha):
    t, _, y = t_point(df, alpha)
    if alpha <= 0.5:
        reference = 2.0 * scipy_stats.t.sf(t, df)
    else:
        reference = 1.0 - special.betainc(0.5, df / 2, y)
    err = relative_error(p_value_t(t, df), reference)
    assert err <= bound(df), err


@pytest.mark.parametrize("df,alpha", GRID)
def test_p_value_f_matches_scipy(df, alpha):
    for df1 in F_NUMERATOR_DFS:
        f, _, y = f_point(df1, df, alpha)
        if alpha <= 0.5:
            reference = scipy_stats.f.sf(f, df1, df)
        else:
            reference = 1.0 - special.betainc(df1 / 2, df / 2, y)
        err = relative_error(p_value_f(f, df1, df), reference)
        assert err <= bound(df), (df1, err)


@pytest.mark.parametrize("df,alpha", GRID)
def test_t_critical_matches_scipy(df, alpha):
    if alpha <= 0.5:
        reference = scipy_stats.t.isf(alpha / 2, df)
    else:
        y = special.betaincinv(0.5, df / 2, 1.0 - alpha)
        reference = math.sqrt(df * y / (1.0 - y))
    err = relative_error(t_critical(alpha, df), reference)
    assert err <= bound(df), err

