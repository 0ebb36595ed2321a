import csv
import io
import math
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ecometab.errors import (
    DomainError,
    EmptyPeriodError,
    MissingDataError,
    ParseError,
)
from ecometab.ledger import (
    COLUMNS,
    LIRE_PER_EURO,
    MONEY_ITEMS,
    NONNEGATIVE_ITEMS,
    REQUIRED_COLUMNS,
    Currency,
    FiscalRecord,
    LedgerSeries,
    Series,
    extract_series,
    normalize_currency,
    normalize_ledger,
    parse_ledger,
    validate_ledger,
    write_ledger,
)
from helpers import csv_text, full_row, ledger_of, lira_text, random_ledger, record
from oracles import row_parse_ledger


def parse(text, **kwargs):
    return parse_ledger(io.StringIO(text), **kwargs)


class TestParse:
    def test_lira_rows_are_converted(self):
        text = csv_text([
            full_row(1997, "ITL", LIRE_PER_EURO, LIRE_PER_EURO, LIRE_PER_EURO, 0.0),
            full_row(1998, "EUR", 1.0, 1.0, 1.0, 0.0),
        ])
        ledger = parse(text)
        assert len(ledger) == 2
        assert all(r.currency is Currency.EUR for r in ledger)
        assert ledger.records[0].total_revenue == pytest.approx(1.0, rel=1e-12)
        assert ledger.records[1].total_revenue == 1.0

    def test_blank_optionals_stay_absent(self):
        ledger = parse(csv_text([full_row(2000, "EUR", 10.0, 4.0, 9.0, 1.0)]))
        rec = ledger.records[0]
        assert rec.salary is None
        assert rec.surplus_or_loss is None
        assert rec.other_costs == 1.0

    def test_rows_are_sorted_by_year(self):
        ledger = parse(csv_text([
            full_row(2001, "EUR", 2.0, 1.0, 2.0, 0.5),
            full_row(1999, "EUR", 1.0, 0.5, 1.0, 0.2),
        ]))
        assert ledger.years == (1999, 2001)

    def test_duplicate_year_is_an_error(self):
        text = csv_text([
            full_row(1997, "EUR", 1.0, 0.5, 1.0, 0.1),
            full_row(1997, "EUR", 2.0, 0.6, 2.0, 0.1),
        ])
        with pytest.raises(ParseError, match="duplicate year 1997"):
            parse(text)

    def test_malformed_number_names_row_and_column(self):
        text = csv_text([
            full_row(1997, "EUR", 1.0, 0.5, 1.0, 0.1),
            full_row(1998, "EUR", "12.5x", 0.5, 1.0, 0.1),
        ])
        with pytest.raises(ParseError, match=r"row 3.*total_revenue"):
            parse(text)

    def test_unknown_currency_code(self):
        with pytest.raises(ParseError, match="unknown currency code 'USD'"):
            parse(csv_text([full_row(1997, "USD", 1.0, 0.5, 1.0, 0.1)]))

    def test_missing_required_column(self):
        header = [c for c in MONEY_ITEMS if c != "total_revenue"]
        text = "year,currency," + ",".join(header) + "\n1997,EUR" + ",1" * len(header) + "\n"
        with pytest.raises(ParseError, match="missing required column 'total_revenue'"):
            parse(text)

    def test_blank_required_cell(self):
        with pytest.raises(ParseError, match=r"row 2, column 'cost_of_personnel'"):
            parse(csv_text([full_row(1997, "EUR", 1.0, "", 1.0, 0.1)]))

    def test_unknown_column_is_rejected(self):
        with pytest.raises(ParseError, match="unknown column 'servces'"):
            parse("year,currency,total_revenue,cost_of_personnel,total_cost,servces\n")

    def test_negative_money_is_rejected(self):
        with pytest.raises(ParseError, match=r"row 2.*salary"):
            parse(csv_text([full_row(1997, "EUR", 1.0, 0.5, 1.0, 0.1, salary=-2.0)]))

    def test_negative_surplus_is_allowed(self):
        ledger = parse(csv_text([full_row(1997, "EUR", 1.0, 0.5, 1.2, 0.1, surplus=-0.2)]))
        assert ledger.records[0].surplus_or_loss == -0.2

    def test_no_data_rows(self):
        with pytest.raises(ParseError, match="no data rows"):
            parse(",".join(["year", "currency", "total_revenue",
                            "cost_of_personnel", "total_cost"]) + "\n")

    def test_custom_delimiter(self):
        text = csv_text([full_row(1997, "EUR", 1.0, 0.5, 1.0, 0.1)], delimiter=";")
        ledger = parse(text, delimiter=";")
        assert ledger.records[0].total_revenue == 1.0

    @pytest.mark.parametrize("delimiter", ["", ";;", "\t\t", "\0", '"', "\n", "\r"])
    def test_delimiter_of_other_than_one_character(self, delimiter):
        # csv.reader raises TypeError on the first three, on every Python version;
        # of the others each version takes some: the parsers refuse all of them.
        text = csv_text([full_row(1997, "EUR", 1.0, 0.5, 1.0, 0.1)])
        for parser in (parse_ledger, row_parse_ledger):
            with pytest.raises(ParseError, match="unusable delimiter"):
                parser(io.StringIO(text), delimiter=delimiter)


class TestHostileInput:
    def test_byte_order_mark_is_ignored(self):
        text = lira_text(random_ledger(seed=4, n_years=8))
        assert parse("\ufeff" + text) == parse(text)

    def test_undecodable_bytes_are_a_parse_error(self):
        data = csv_text([full_row(1997, "EUR", 1.0, 0.5, 1.0, 0.1)]).encode("utf-8")
        stream = io.TextIOWrapper(io.BytesIO(data.replace(b"0.5", b"0.5\xe9")),
                                  encoding="utf-8", newline="")
        with pytest.raises(ParseError, match="not valid utf-8"):
            parse_ledger(stream)

    def test_oversized_field_is_a_parse_error_naming_the_row(self):
        huge = "1" * (csv.field_size_limit() + 1)
        text = csv_text([full_row(1997, "EUR", 1.0, 0.5, 1.0, 0.1),
                         full_row(1998, "EUR", huge, 0.5, 1.0, 0.1)])
        with pytest.raises(ParseError, match=r"row 3: field larger than field limit"):
            parse(text)

    @pytest.mark.parametrize("cell", ["1_000", "\uff11\uff12", "\u0661\u0662.5"],
                             ids=["underscore", "fullwidth", "arabic-indic"])
    def test_money_cell_must_be_ascii_without_underscores(self, cell):
        text = csv_text([full_row(1997, "EUR", 1.0, 0.5, 1.0, 0.1),
                         full_row(1998, "EUR", 1.0, 0.5, 1.0, 0.1, services=cell)])
        with pytest.raises(ParseError, match=r"row 3, column 'services': malformed number"):
            parse(text)

    @pytest.mark.parametrize("cell", ["1_998", "\uff11\uff19\uff19\uff18"],
                             ids=["underscore", "fullwidth"])
    def test_year_must_be_ascii_without_underscores(self, cell):
        text = csv_text([full_row(1997, "EUR", 1.0, 0.5, 1.0, 0.1),
                         full_row(cell, "EUR", 1.0, 0.5, 1.0, 0.1)])
        with pytest.raises(ParseError, match=r"row 3, column 'year': malformed year"):
            parse(text)

    @pytest.mark.parametrize("cell", ["0", "10000", str(10**200)],
                             ids=["zero", "five-digit", "huge"])
    def test_year_must_lie_in_1_to_9999(self, cell):
        text = csv_text([full_row(1997, "EUR", 1.0, 0.5, 1.0, 0.1),
                         full_row(cell, "EUR", 1.0, 0.5, 1.0, 0.1)])
        with pytest.raises(ParseError, match=r"row 3, column 'year': year '\d+' outside 1-9999$"):
            parse(text)

    def test_years_1_and_9999_are_accepted(self):
        text = csv_text([full_row(1, "EUR", 1.0, 0.5, 1.0, 0.1),
                         full_row(9999, "EUR", 1.0, 0.5, 1.0, 0.1)])
        assert parse(text).years == (1, 9999)


_finite = st.floats(allow_nan=False, allow_infinity=False)
_amount = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


@st.composite
def lira_ledgers(draw):
    """All-lira ledgers with arbitrary finite amounts and unreported items."""
    years = sorted(draw(st.sets(st.integers(1800, 2200), min_size=1, max_size=6)))
    records = []
    for year in years:
        amounts = {}
        for name in MONEY_ITEMS:
            value = draw(_amount if name in NONNEGATIVE_ITEMS else _finite)
            if name in REQUIRED_COLUMNS or draw(st.booleans()):
                amounts[name] = value
        records.append(FiscalRecord(year=year, currency=Currency.ITL, **amounts))
    return LedgerSeries("lira", tuple(records))


def _bits(ledger):
    """Every field of every record, floats by their exact bit pattern."""
    return [
        tuple(v.hex() if isinstance(v, float) else v
              for v in (getattr(r, f.name) for f in fields(r)))
        for r in ledger.records
    ]


@given(lira_ledgers())
def test_parsed_lira_ledger_equals_normalized_ledger_bit_for_bit(ledger):
    out = io.StringIO()
    write_ledger(ledger, out)
    parsed = parse(out.getvalue(), organization=ledger.organization)
    expected = normalize_ledger(ledger)
    assert parsed.organization == expected.organization
    assert _bits(parsed) == _bits(expected)


def _outcome(stream):
    try:
        result = parse_ledger(stream)
    except ParseError:
        return
    assert isinstance(result, LedgerSeries)


@given(st.binary(max_size=600))
def test_arbitrary_bytes_give_a_ledger_or_a_parse_error(data):
    _outcome(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))


_odd_cells = st.sampled_from([
    "", " ", "1_997", "\uff11\uff19\uff19\uff17", "eur", "USD", "-0.0", "-2", "1e999",
    "nan", "inf", "1_000", "\u0661", "1,5", "\ufeff", '"', '"1.0"', "\x00", "\n", "year",
]) | st.text(max_size=8)


def _valid_cell(column):
    if column == "year":
        return st.integers(1990, 2020).map(str)
    if column == "currency":
        return st.sampled_from(["EUR", "ITL"])
    return _amount.map(repr)


@given(st.data())
def test_near_valid_text_gives_a_ledger_or_a_parse_error(data):
    """Well-formed ledgers with an odd column, cell or row length here and there."""
    optional = [c for c in COLUMNS if c not in REQUIRED_COLUMNS]
    header = list(data.draw(st.permutations(REQUIRED_COLUMNS)))
    header += data.draw(st.lists(st.sampled_from(optional), max_size=4, unique=True))
    if data.draw(st.integers(0, 9)) == 0:
        header.append(data.draw(st.sampled_from(COLUMNS + ("bogus",))))
    rows = []
    for _ in range(data.draw(st.integers(0, 6))):
        cells = [data.draw(_valid_cell(column)) for column in header]
        if data.draw(st.integers(0, 3)) == 0:
            cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(_odd_cells)
        if data.draw(st.integers(0, 9)) == 0:
            cells = cells[:-1]
        rows.append(",".join(cells))
    bom = "\ufeff" if data.draw(st.booleans()) else ""
    _outcome(io.StringIO(bom + ",".join(header) + "\n" + "\n".join(rows) + "\n"))


class TestRoundTrip:
    def test_parse_write_parse_is_identity(self):
        ledger = random_ledger(seed=11)
        out = io.StringIO()
        write_ledger(ledger, out)
        reparsed = parse(out.getvalue(), organization=ledger.organization)
        assert reparsed == ledger

    def test_round_trip_preserves_absent_fields(self):
        ledger = parse(csv_text([full_row(2000, "EUR", 10.0, 4.0, 9.0, 1.0)]))
        out = io.StringIO()
        write_ledger(ledger, out)
        assert parse(out.getvalue()).records == ledger.records


class TestNormalizeCurrency:
    def test_lira_conversion_matches_fixed_rate(self):
        rec = record(1997, LIRE_PER_EURO, LIRE_PER_EURO, LIRE_PER_EURO,
                     currency=Currency.ITL)
        out = normalize_currency(rec)
        assert out.currency is Currency.EUR
        assert out.total_revenue == 1.0

    def test_euro_record_unchanged(self):
        rec = record(2005, 5.0, 2.0, 4.0)
        assert normalize_currency(rec) is rec

    def test_zero_stays_zero(self):
        rec = record(1997, 0.0, 0.0, 0.0, currency=Currency.ITL)
        assert normalize_currency(rec).total_revenue == 0.0

    @given(st.floats(min_value=0.0, max_value=1e15, allow_nan=False))
    def test_idempotent(self, value):
        rec = record(1997, value, value, value, currency=Currency.ITL)
        once = normalize_currency(rec)
        assert normalize_currency(once) == once

    @given(st.floats(min_value=1e-3, max_value=1e15, allow_nan=False))
    def test_scale_consistency(self, value):
        rec = record(1997, value, value, value, currency=Currency.ITL)
        back = normalize_currency(rec).total_revenue * LIRE_PER_EURO
        assert back == pytest.approx(value, rel=1e-12)

    def test_normalize_ledger_converts_all(self):
        ledger = random_ledger(seed=3, currency=Currency.ITL)
        normalized = normalize_ledger(ledger)
        assert all(r.currency is Currency.EUR for r in normalized)
        assert normalized.records[0].total_revenue == pytest.approx(
            ledger.records[0].total_revenue / LIRE_PER_EURO, rel=1e-15
        )


class TestSeriesInvariants:
    def test_ledger_rejects_unsorted_years(self):
        with pytest.raises(DomainError):
            ledger_of([record(2001, 1, 1, 1), record(2000, 1, 1, 1)])

    def test_ledger_rejects_mixed_currency(self):
        with pytest.raises(DomainError):
            ledger_of([record(2000, 1, 1, 1),
                       record(2001, 1, 1, 1, currency=Currency.ITL)])

    def test_series_rejects_duplicate_years(self):
        with pytest.raises(DomainError):
            Series((2000, 2000), (1.0, 2.0))

    def test_series_rejects_values_of_another_length(self):
        with pytest.raises(DomainError, match="differ in length"):
            Series((1997, 1998), (1.0,))


class TestExtractSeries:
    def test_full_period_has_one_point_per_record(self):
        ledger = random_ledger(seed=5)
        series = extract_series(ledger, "total_revenue")
        assert len(series) == len(ledger) == 19
        assert series.years == ledger.years

    def test_singleton_range(self):
        ledger = random_ledger(seed=5)
        series = extract_series(ledger.window((2003, 2003)), "cost_of_personnel")
        assert series.years == (2003,)

    def test_missing_item_names_years(self):
        records = [
            record(1997, 1.0, 0.5, 1.0, salary=0.3),
            record(1998, 1.0, 0.5, 1.0, salary=0.3),
            record(1999, 1.0, 0.5, 1.0),
            record(2000, 1.0, 0.5, 1.0, salary=0.3),
            record(2001, 1.0, 0.5, 1.0, salary=0.3),
        ]
        with pytest.raises(MissingDataError, match="1999"):
            extract_series(ledger_of(records), "salary")

    def test_empty_period(self):
        with pytest.raises(EmptyPeriodError, match="^no records in period 1950-1960$"):
            random_ledger(seed=5).window((1950, 1960))
        # A ledger built by hand may hold no records at all.
        with pytest.raises(EmptyPeriodError):
            extract_series(ledger_of([]), "total_revenue")

    def test_unknown_item(self):
        with pytest.raises(DomainError, match="unknown item"):
            extract_series(random_ledger(seed=5), "headcount")

    def test_period_is_an_intersection_window(self):
        ledger = random_ledger(seed=5, n_years=10, first_year=2000)
        assert ledger.window((1997, 2015)) == ledger

    def test_ledger_window_is_inclusive(self):
        ledger = random_ledger(seed=5, n_years=10, first_year=2000)
        assert ledger.window((2002, 2004)).years == (2002, 2003, 2004)
        assert ledger.window((1990, 2000)).years == (2000,)
        with pytest.raises(TypeError):
            ledger.window(None)


class TestValidateLedger:
    def test_exact_decomposition_has_no_finding(self):
        ledger = random_ledger(seed=9)
        kinds = {f.kind for f in validate_ledger(ledger)}
        assert "personnel_decomposition_mismatch" not in kinds

    def test_decomposition_mismatch_is_flagged(self):
        rec = record(2000, 10.0, 10.0, 10.0, salary=5.0, social_security_taxes=2.0,
                     severance_pay=1.0, personnel_other_costs=1.0)
        findings = validate_ledger(ledger_of([rec]))
        assert [f.kind for f in findings] == ["personnel_decomposition_mismatch"]
        assert findings[0].year == 2000

    def test_year_gap_is_flagged(self):
        ledger = ledger_of([record(1999, 1, 1, 1), record(2001, 1, 1, 1)])
        findings = validate_ledger(ledger)
        assert [f.kind for f in findings] == ["year_gap"]
        assert "2000" in findings[0].message

    def test_negative_value_is_flagged(self):
        rec = FiscalRecord(year=2000, currency=Currency.EUR, total_revenue=1.0,
                           cost_of_personnel=1.0, total_cost=1.0, services=-1.0)
        findings = validate_ledger(ledger_of([rec]))
        assert [f.kind for f in findings] == ["negative_value"]

    def test_validation_never_mutates(self):
        ledger = random_ledger(seed=9)
        before = ledger.records
        validate_ledger(ledger)
        assert ledger.records == before


def test_record_item_accessor_rejects_non_money_fields():
    rec = record(2000, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        rec.item("year")
    assert rec.item("total_revenue") == 1.0
    assert math.isclose(rec.item("cost_of_personnel"), 1.0)
