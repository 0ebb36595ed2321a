"""The ledger and its cost shares as columns.

A parsed ledger is built straight from its converted columns and windowed
by slicing them; a hand-built one from its records. Both must read the same
as the records they hold, window to the records inside the window, and the
shares ``metabolism_index`` returns must read as the ``MetabolismPoint``s
built from the same columns.
"""

import csv
import io
import random
from dataclasses import asdict

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from ecometab import report as report_module
from ecometab.cli import render_report_text, report_to_csv, report_to_json
from ecometab.errors import EmptyPeriodError
from ecometab.ledger import COLUMNS, MONEY_ITEMS, LedgerSeries, Series, parse_ledger
from ecometab.metabolism import MetabolismPoint, ShareSeries, crossover_years, metabolism_index
from ecometab.report import Report, ReportConfig, run_report
from helpers import VARIANT_KINDS, random_ledger, variant_ledger, write_ledger_file


def _shuffled_text(records, seed):
    """The records in the input format, rows in a seeded random order."""
    rows = [[str(r.year), r.currency.value,
             *("" if getattr(r, name) is None else repr(getattr(r, name)) for name in MONEY_ITEMS)]
            for r in records]
    random.Random(seed).shuffle(rows)
    stream = io.StringIO()
    csv.writer(stream, lineterminator="\n").writerows([COLUMNS, *rows])
    return stream.getvalue()


def _contents(ledger):
    """Everything a ledger reads as, floats by repr, which tells -0.0 from 0.0."""
    return (ledger.organization, ledger.years, repr(ledger.columns),
            [repr(record) for record in ledger.records], len(ledger))


def _window(ledger, period):
    try:
        return _contents(ledger.window(period))
    except EmptyPeriodError as exc:
        return "error", str(exc)


# A fixed profile, so that every run tries the same ledgers and windows.
@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate))
@given(seed=st.integers(0, 50), kind=st.sampled_from(VARIANT_KINDS),
       n_years=st.integers(3, 30), first_year=st.integers(1900, 2100),
       order=st.integers(0, 2**32), starts=st.lists(st.integers(-8, 40), min_size=4, max_size=4),
       lengths=st.lists(st.integers(0, 45), min_size=4, max_size=4))
@example(seed=1, kind="gap", n_years=19, first_year=1997, order=7,
         starts=[0, 4, -5, 30], lengths=[18, 4, 9, 3])  # all, inside, straddling, outside
@example(seed=2, kind="blank", n_years=5, first_year=2000, order=3,
         starts=[-1, 1, 4, -9], lengths=[6, 0, 5, 8])  # covering, one year, the last, before
def test_parsed_and_hand_built_ledgers_agree(seed, kind, n_years, first_year, order,
                                            starts, lengths):
    built = variant_ledger(seed, kind, n_years, first_year)
    records = built.records
    parsed = parse_ledger(io.StringIO(_shuffled_text(records, order)), built.organization)
    again = LedgerSeries(built.organization, records)
    assert _contents(parsed) == _contents(again) == _contents(built)
    assert parsed == again == built
    for start, length in zip(starts, lengths):
        period = (first_year + start, first_year + start + length)
        inside = tuple(r for r in records if period[0] <= r.year <= period[1])
        expected = (_contents(LedgerSeries(built.organization, inside)) if inside
                    else ("error", f"no records in period {period[0]}-{period[1]}"))
        assert _window(parsed, period) == _window(again, period) == expected


def test_parsed_and_hand_built_ledgers_hash_equal(tmp_path):
    built = variant_ledger(6, "blank")
    parsed = parse_ledger(io.StringIO(_shuffled_text(built.records, 1)), built.organization)
    again = LedgerSeries(built.organization, built.records)
    assert hash(parsed) == hash(again) == hash(built)
    assert len({parsed, again, built}) == 1
    inside = tuple(r for r in built.records if 2000 <= r.year <= 2010)
    assert hash(parsed.window((2000, 2010))) == hash(LedgerSeries(built.organization, inside))
    report = run_report(ReportConfig(input_path=write_ledger_file(tmp_path / "l.csv", built)))
    assert hash(report) == hash(Report(report.ledger, report.config))
    assert {report: 1}[Report(report.ledger, report.config)] == 1


def test_a_window_covering_every_year_is_the_ledger_itself():
    ledger = random_ledger(seed=3)
    assert ledger.window((1997, 2015)) is ledger
    assert ledger.window((1000, 3000)) is ledger


def _points(ledger, numerator, denominator):
    return [MetabolismPoint(year, 100.0 * n / d) for year, n, d
            in zip(ledger.years, ledger.columns[numerator], ledger.columns[denominator])]


@pytest.mark.parametrize("numerator, denominator", [
    ("cost_of_personnel", "total_revenue"), ("other_costs", "total_cost")])
def test_shares_read_as_the_points_of_their_columns(numerator, denominator):
    ledger = variant_ledger(4, "gap", n_years=12, first_year=2001)
    shares = metabolism_index(ledger, numerator, denominator)
    expected = _points(ledger, numerator, denominator)
    assert isinstance(shares, ShareSeries) and isinstance(shares, Series)
    assert len(shares) == len(expected)
    assert list(shares) == expected
    assert shares[0] == expected[0] and shares[-1] == expected[-1]
    for part in (slice(None), slice(2, 5), slice(-3, None), slice(None, None, -2), slice(5, 2)):
        assert shares[part] == tuple(expected[part])
    assert [asdict(point) for point in shares] == [asdict(point) for point in expected]
    with pytest.raises(IndexError):
        shares[len(expected)]


def test_crossover_years_reads_shares_as_series():
    ledger = random_ledger(seed=5, n_years=30, first_year=1990)
    salary = metabolism_index(ledger, "salary")
    other = metabolism_index(ledger, "other_costs")
    as_series = [Series(tuple(p.year for p in points), tuple(p.share_percent for p in points))
                 for points in (salary, other)]
    crossings = crossover_years(salary, other)
    assert len(crossings) == 8
    assert crossings == crossover_years(*as_series)


def test_a_report_and_its_renderers_compute_the_shares_once(tmp_path, monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[1:])
        return metabolism_index(*args, **kwargs)

    monkeypatch.setattr(report_module, "metabolism_index", spy)
    path = write_ledger_file(tmp_path / "ledger.csv", random_ledger(seed=21))
    report = run_report(ReportConfig(input_path=path))
    for render in (report_to_json, render_report_text, report_to_csv):
        render(report)
    assert calls == [("cost_of_personnel", "total_revenue"), ("other_costs", "total_revenue")]
