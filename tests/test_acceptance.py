"""Acceptance gate.

One test per criterion, each at its stated tolerance, printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them). The
golden-data test runs only when a real CNR ledger file is supplied via the
``ECOMETAB_CNR_DATA`` environment variable or ``tests/data/cnr_income_statement.csv``.
"""

import json
import math
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from ecometab.cli import ReportConfig, render_report_text, run_report
from ecometab.ledger import (
    LIRE_PER_EURO,
    Currency,
    Series,
    extract_series,
    normalize_ledger,
    parse_ledger,
)
from ecometab.metabolism import (
    AllometryClass,
    allometric_fit,
    arithmetic_growth,
    classify_allometry,
    metabolism_index,
    trend_fit,
)
from ecometab.stats import ols_fit, p_value_f, p_value_t, t_critical
import oracles
from helpers import ledger_of, power_law_ledger, random_ledger, record, write_ledger_file

CNR_DATA = Path(os.environ.get(
    "ECOMETAB_CNR_DATA", Path(__file__).parent / "data" / "cnr_income_statement.csv"
))


def _gate(number, label, problems):
    status = "PASS" if not problems else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {label}")
    assert not problems, f"criterion {number} ({label}): " + "; ".join(problems)


def _check(problems, condition, message):
    if not condition:
        problems.append(message)


def test_criterion_1_ols_identity_suite():
    problems = []
    for seed in range(100):
        rng = random.Random(seed)
        years = tuple(range(1997, 2016))
        x = Series(years, tuple(float(y) for y in years))
        level = 1e9 * (0.5 + rng.random())
        slope = 1e8 * (rng.random() - 0.3)
        y = Series(years, tuple(
            level + slope * i + 2e8 * (rng.random() - 0.5) for i in range(19)
        ))
        fit = ols_fit(x, y)
        scale = max(abs(v) for v in y.values) * fit.n
        _check(problems, abs(math.fsum(fit.residuals)) <= 1e-9 * scale,
               f"seed {seed}: residual sum")
        pearson = statistics.correlation(list(x.values), list(y.values))
        _check(problems,
               abs(fit.standardized_slope - pearson) <= 1e-10 * abs(pearson),
               f"seed {seed}: standardized slope vs Pearson r")
        _check(problems,
               abs(fit.r_squared - fit.standardized_slope**2)
               <= 1e-10 * fit.r_squared,
               f"seed {seed}: r_squared identity")
        f_ident = (fit.slope / fit.se_slope) ** 2
        _check(problems, abs(fit.f_statistic - f_ident) <= 1e-10 * f_ident,
               f"seed {seed}: F identity")
        _check(problems, abs(fit.p_f - fit.p_slope) <= 1e-8 * fit.p_slope,
               f"seed {seed}: p_f vs p_slope")
    _gate(1, "OLS identity suite over 100 seeded datasets", problems)


def test_criterion_2_published_f_t_consistency():
    problems = []
    triples = [
        (14680572.412, 2431297.386, 36.46),
        (14908079.764, 1448131.099, 105.98),
        (12621066.402, 1921361.958, 43.15),
    ]
    for slope, se, f_printed in triples:
        f_from_t = (slope / se) ** 2
        _check(problems, abs(f_from_t - f_printed) <= 0.01,
               f"(slope {slope}, se {se}) gives F {f_from_t:.4f}, printed {f_printed}")
    _gate(2, "published trend-table F values match (slope/se)^2 within 0.01", problems)


def test_criterion_3_p_value_oracle_grid():
    problems = []
    statistics_grid = (0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 7.5, 10.0)
    for df in (1, 5, 17, 100):
        for s in statistics_grid:
            t_err = abs(p_value_t(s, df) - oracles.p_t_two_sided(s, df))
            _check(problems, t_err <= 1e-6, f"p_value_t({s}, {df}) off by {t_err:.2e}")
            f_err = abs(p_value_f(s, 1, df) - oracles.p_f_upper(s, 1, df))
            _check(problems, f_err <= 1e-6, f"p_value_f({s}, 1, {df}) off by {f_err:.2e}")
    _gate(3, "p-values agree with quadrature oracle to 1e-6 on the grid", problems)


def test_criterion_4_allometric_recovery():
    problems = []
    fit = allometric_fit(power_law_ledger(prefactor=3.5, exponent=1.61))
    _check(problems, abs(fit.exponent - 1.61) <= 1e-9,
           f"exponent {fit.exponent!r} not within 1e-9 of 1.61")
    _check(problems, fit.classification is AllometryClass.POSITIVE_ALLOMETRIC,
           f"classification {fit.classification}")

    identity = ledger_of([
        record(1997 + i, revenue=120.0 * (1 + 0.07 * i), personnel=120.0 * (1 + 0.07 * i),
               total_cost=200.0) for i in range(19)
    ])
    iso = allometric_fit(identity)
    _check(problems, abs(iso.exponent - 1.0) <= 1e-12,
           f"identity exponent {iso.exponent!r}")
    _check(problems, iso.classification is AllometryClass.ISOMETRIC,
           f"identity classification {iso.classification}")
    _gate(4, "allometric recovery: exponent 1.61 positive, identity isometric", problems)


def test_criterion_5_classification_cases():
    problems = []
    _check(problems,
           classify_allometry(1.61, 0.15, 19, 0.05) is AllometryClass.POSITIVE_ALLOMETRIC,
           "(1.61, 0.15) not positive allometric")
    _check(problems,
           classify_allometry(0.8, 0.3, 19, 0.05) is AllometryClass.ISOMETRIC,
           "(0.8, 0.3) not isometric")
    crit_impl = t_critical(0.05, 17)
    crit_oracle = oracles.t_critical(0.05, 17)
    _check(problems, abs(crit_impl - crit_oracle) <= 1e-6,
           f"critical value {crit_impl} vs oracle {crit_oracle}")
    _check(problems, abs((1.61 - 1.0) / 0.15) > crit_oracle, "t(1.61, 0.15) below oracle crit")
    _check(problems, abs((0.8 - 1.0) / 0.3) < crit_oracle, "t(0.8, 0.3) above oracle crit")
    _gate(5, "classification decisions cross-checked against the oracle", problems)


def test_criterion_6_currency_invariance():
    problems = []
    itl = random_ledger(seed=1902, currency=Currency.ITL)
    eur = normalize_ledger(itl)

    for a, b in zip(metabolism_index(itl), metabolism_index(eur)):
        _check(problems,
               abs(a.share_percent - b.share_percent) <= 1e-9 * abs(b.share_percent),
               f"share differs in {a.year}")
    for item in ("total_revenue", "cost_of_personnel", "total_cost"):
        g_itl = arithmetic_growth(extract_series(itl, item), 1997, 2015)
        g_eur = arithmetic_growth(extract_series(eur, item), 1997, 2015)
        _check(problems,
               abs(g_itl.cumulative - g_eur.cumulative) <= 1e-9 * abs(g_eur.cumulative),
               f"{item}: cumulative growth differs")
        _check(problems,
               abs(g_itl.r_per_year - g_eur.r_per_year) <= 1e-9 * abs(g_eur.r_per_year),
               f"{item}: per-year growth differs")
        t_itl = trend_fit(itl, item)
        t_eur = trend_fit(eur, item)
        for field in ("standardized_slope", "r_squared", "f_statistic"):
            v_itl, v_eur = getattr(t_itl, field), getattr(t_eur, field)
            _check(problems, abs(v_itl - v_eur) <= 1e-9 * abs(v_eur),
                   f"{item}: {field} differs")
        expected = t_itl.slope / LIRE_PER_EURO
        _check(problems, abs(t_eur.slope - expected) <= 1e-9 * abs(expected),
               f"{item}: slope not scaled by 1/{LIRE_PER_EURO}")
    a_itl = allometric_fit(itl)
    a_eur = allometric_fit(eur)
    _check(problems,
           abs(a_itl.exponent - a_eur.exponent) <= 1e-9 * abs(a_eur.exponent),
           "allometric exponent differs")
    _check(problems, a_itl.classification is a_eur.classification,
           "allometric classification differs")
    _gate(6, "currency normalization invariance at 1e-9, slopes scaled exactly", problems)


def test_criterion_7_metabolism_growth_consistency(tmp_path):
    problems = []
    for seed in range(20):
        ledger = random_ledger(seed=seed)
        points = metabolism_index(ledger)
        num = arithmetic_growth(extract_series(ledger, "cost_of_personnel"), 1997, 2015)
        den = arithmetic_growth(extract_series(ledger, "total_revenue"), 1997, 2015)
        share_ratio = points[-1].share_percent / points[0].share_percent
        predicted = (1.0 + num.cumulative) / (1.0 + den.cumulative)
        _check(problems, abs(share_ratio - predicted) <= 1e-9 * abs(predicted),
               f"seed {seed}: ratio {share_ratio} vs {predicted}")

    reference = (1.0 + 1.6787) / (1.0 + 1.1872)
    _check(problems, abs(reference - 1.2247) <= 5e-5,
           f"reference ratio computes to {reference}")
    path = write_ledger_file(tmp_path / "ledger.csv", random_ledger(seed=0))
    text = render_report_text(run_report(ReportConfig(input_path=path)))
    _check(problems, "1.2247" in text, "report cross-check section lacks 1.2247")
    _gate(7, "share ratio equals growth ratio; 1.2247 reference printed", problems)


@pytest.mark.skipif(not CNR_DATA.exists(), reason="CNR dataset not supplied")
def test_criterion_8_golden_cnr_dataset():
    problems = []
    with open(CNR_DATA, encoding="utf-8", newline="") as stream:
        ledger = parse_ledger(stream, organization="CNR").window((1997, 2015))

    expected_trend = {
        "total_revenue": (14680572.412, 2431297.386, 0.83, 0.66, 36.46),
        "cost_of_personnel": (14908079.764, 1448131.099, 0.93, 0.84, 105.98),
        "total_cost": (12621066.402, 1921361.958, 0.85, 0.70, 43.15),
    }
    for item, (slope, se, std, r2, f) in expected_trend.items():
        fit = trend_fit(ledger, item)
        _check(problems, abs(fit.slope - slope) <= 0.5, f"{item}: slope {fit.slope}")
        _check(problems, abs(fit.se_slope - se) <= 0.5, f"{item}: se {fit.se_slope}")
        _check(problems, abs(fit.standardized_slope - std) <= 0.005,
               f"{item}: std coef {fit.standardized_slope}")
        _check(problems, abs(fit.r_squared - r2) <= 0.005, f"{item}: R2 {fit.r_squared}")
        _check(problems, abs(fit.f_statistic - f) <= 0.01, f"{item}: F {fit.f_statistic}")

    expected_growth = {
        "total_revenue": 118.72, "cost_of_personnel": 167.87, "total_cost": 127.44,
    }
    for item, cumulative_pct in expected_growth.items():
        rate = arithmetic_growth(extract_series(ledger, item), 1997, 2015)
        _check(problems, abs(100.0 * rate.cumulative - cumulative_pct) <= 0.01,
               f"{item}: cumulative {100.0 * rate.cumulative}")

    fit = allometric_fit(ledger)
    _check(problems, abs(fit.exponent - 1.61) <= 0.01, f"exponent {fit.exponent}")
    _check(problems, abs(fit.r_squared - 0.86) <= 0.01, f"R2 {fit.r_squared}")

    points = metabolism_index(ledger)
    _check(problems, abs(points[0].share_percent - 47.0) <= 1.0,
           f"M(1997) = {points[0].share_percent}")
    _check(problems, points[-1].share_percent > 65.0,
           f"M(2015) = {points[-1].share_percent}")
    _gate(8, "golden CNR dataset reproduces the published tables", problems)


def test_criterion_9_cli_determinism_and_diagnostics(tmp_path):
    problems = []
    path = write_ledger_file(tmp_path / "ledger.csv", random_ledger(seed=5))
    runs = [
        subprocess.run(
            [sys.executable, "-m", "ecometab", "report", "--input", str(path),
             "--format", "json"],
            capture_output=True,
        )
        for _ in range(2)
    ]
    _check(problems, runs[0].returncode == 0, "report exited nonzero")
    _check(problems, runs[0].stdout == runs[1].stdout, "JSON outputs differ")
    json.loads(runs[0].stdout)  # must be well-formed

    bad = tmp_path / "bad.csv"
    bad.write_text(
        "year,currency,total_revenue,cost_of_personnel,total_cost,salary\n"
        "1997,EUR,1.0,0.5,1.0,0.3\n"
        "1998,EUR,1.0,0.5,1.0,oops\n"
    )
    result = subprocess.run(
        [sys.executable, "-m", "ecometab", "report", "--input", str(bad)],
        capture_output=True, text=True,
    )
    _check(problems, result.returncode != 0, "malformed input exited zero")
    _check(problems, "row 3" in result.stderr, "diagnostic lacks row number")
    _check(problems, "salary" in result.stderr, "diagnostic lacks column name")
    _gate(9, "CLI JSON determinism and parse diagnostics", problems)
