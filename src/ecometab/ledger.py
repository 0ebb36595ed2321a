"""Income-statement data model and delimited-text ingestion.

Input files are delimited text (comma by default, UTF-8) with a header row
of exact lowercase column names:

    year,currency,total_revenue,cost_of_personnel,salary,
    social_security_taxes,severance_pay,personnel_other_costs,
    materials_and_products,services,leased_assets_third_parties,
    other_costs,total_cost,surplus_or_loss

``currency`` is ``EUR`` or ``ITL``; pre-euro lira amounts are converted at
the fixed ECB rate of 1936.27 lire per euro. A blank cell means "not
reported" and is never conflated with zero. Numbers and years are ASCII
digits: a ``.`` decimal separator, no thousands separators, no ``_``
digit grouping. Years run from 1 to 9999. A leading UTF-8 byte-order mark
is ignored.

All types here are immutable after construction and safe to share across
threads; parsing is single-threaded per stream.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from enum import Enum

from .errors import DomainError, EmptyPeriodError, MissingDataError, ParseError

# Fixed ECB conversion rate: 1 euro = 1936.27 Italian lire.
LIRE_PER_EURO = 1936.27

# Relative tolerance for the personnel-components decomposition check.
DECOMPOSITION_RTOL = 1e-6

# Accepted years: datetime.MINYEAR to datetime.MAXYEAR, without importing it.
_MIN_YEAR, _MAX_YEAR = 1, 9999


class Currency(Enum):
    EUR = "EUR"
    ITL = "ITL"


# Canonical column order of the input/output file format.
COLUMNS = (
    "year",
    "currency",
    "total_revenue",
    "cost_of_personnel",
    "salary",
    "social_security_taxes",
    "severance_pay",
    "personnel_other_costs",
    "materials_and_products",
    "services",
    "leased_assets_third_parties",
    "other_costs",
    "total_cost",
    "surplus_or_loss",
)

REQUIRED_COLUMNS = ("year", "currency", "total_revenue", "cost_of_personnel", "total_cost")

# Every monetary item, in canonical order.
MONEY_ITEMS = COLUMNS[2:]
_MONEY_ITEM_SET = frozenset(MONEY_ITEMS)

# Monetary items that must be non-negative (all but the bottom line).
NONNEGATIVE_ITEMS = tuple(i for i in MONEY_ITEMS if i != "surplus_or_loss")

# Items that are costs (candidates for the mean-cost profile).
COST_ITEMS = (
    "cost_of_personnel",
    "salary",
    "social_security_taxes",
    "severance_pay",
    "personnel_other_costs",
    "materials_and_products",
    "services",
    "leased_assets_third_parties",
    "other_costs",
    "total_cost",
)

# Top-level cost items (the components of the personnel cost excluded).
MAIN_COST_ITEMS = (
    "cost_of_personnel",
    "materials_and_products",
    "services",
    "leased_assets_third_parties",
    "other_costs",
)

PERSONNEL_COMPONENTS = (
    "salary",
    "social_security_taxes",
    "severance_pay",
    "personnel_other_costs",
)


@dataclass(frozen=True)
class FiscalRecord:
    """One fiscal year's income-statement items in a declared currency.

    Optional items are ``None`` when the statement does not report them.
    ``surplus_or_loss`` is the only monetary field allowed to be negative.
    """

    year: int
    currency: Currency
    total_revenue: float
    cost_of_personnel: float
    total_cost: float
    salary: float | None = None
    social_security_taxes: float | None = None
    severance_pay: float | None = None
    personnel_other_costs: float | None = None
    materials_and_products: float | None = None
    services: float | None = None
    leased_assets_third_parties: float | None = None
    other_costs: float | None = None
    surplus_or_loss: float | None = None

    def item(self, name: str) -> float | None:
        """Return a monetary item by column name (``None`` if not reported)."""
        if name not in _MONEY_ITEM_SET:
            raise DomainError(f"unknown item {name!r}")
        return getattr(self, name)


@dataclass(frozen=True)
class LedgerSeries:
    """Year-ordered income statements of one organization, one currency."""

    organization: str
    records: tuple[FiscalRecord, ...]

    def __post_init__(self):
        for prev, cur in zip(self.records, self.records[1:]):
            if cur.year <= prev.year:
                raise DomainError(
                    f"records must have strictly increasing years "
                    f"({prev.year} followed by {cur.year})"
                )
        currencies = {r.currency for r in self.records}
        if len(currencies) > 1:
            raise DomainError("records mix currencies; normalize before building a series")

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[FiscalRecord]:
        return iter(self.records)

    @property
    def years(self) -> tuple[int, ...]:
        return tuple(r.year for r in self.records)

    def window(self, period: tuple[int, int]) -> "LedgerSeries":
        """The records inside an inclusive (first, last) year window.

        Raises:
            EmptyPeriodError: no record falls inside the window.
        """
        start, end = period
        records = tuple(r for r in self.records if start <= r.year <= end)
        if not records:
            raise EmptyPeriodError(f"no records in period {start}-{end}")
        return LedgerSeries(self.organization, records)


@dataclass(frozen=True)
class Series:
    """Ordered (year, value) pairs for one item."""

    years: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.years) != len(self.values):
            raise DomainError("years and values differ in length")
        for prev, cur in zip(self.years, self.years[1:]):
            if cur <= prev:
                raise DomainError("years must be strictly increasing")

    def __len__(self) -> int:
        return len(self.years)

    def items(self) -> Iterator[tuple[int, float]]:
        return zip(self.years, self.values)

    def value_at(self, year: int) -> float:
        try:
            return self.values[self.years.index(year)]
        except ValueError:
            raise MissingDataError(f"no value for year {year}") from None


@dataclass(frozen=True)
class ValidationFinding:
    """One non-fatal issue found while checking a ledger."""

    kind: str
    year: int | None
    message: str


def normalize_currency(record: FiscalRecord) -> FiscalRecord:
    """Convert a record to euros; euro records are returned unchanged."""
    if record.currency is Currency.EUR:
        return record
    converted = {
        name: record.item(name) / LIRE_PER_EURO
        for name in MONEY_ITEMS
        if record.item(name) is not None
    }
    return replace(record, currency=Currency.EUR, **converted)


def normalize_ledger(ledger: LedgerSeries) -> LedgerSeries:
    """Convert every record of a ledger to euros."""
    return LedgerSeries(ledger.organization, tuple(normalize_currency(r) for r in ledger.records))


def _parse_number(cell: str, row: int, column: str) -> float:
    # float() also takes "1_000" and non-ASCII digits; the file format does not.
    if not cell.isascii() or "_" in cell:
        raise ParseError(f"malformed number {cell!r}", row=row, column=column)
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(f"malformed number {cell!r}", row=row, column=column) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite number {cell!r}", row=row, column=column)
    return value


def _parse_year(cell: str, row: int) -> int:
    # int() also takes "1_997" and non-ASCII digits; the file format does not.
    if cell.isascii() and "_" not in cell:
        try:
            year = int(cell)
        except ValueError:
            pass
        else:
            if _MIN_YEAR <= year <= _MAX_YEAR:
                return year
            raise ParseError(
                f"year {cell!r} outside {_MIN_YEAR}-{_MAX_YEAR}", row=row, column="year"
            )
    raise ParseError(f"malformed year {cell!r}", row=row, column="year")


def _read_rows(reader) -> Iterator[list[str]]:
    """Yield a csv reader's rows; undecodable or unreadable input is a ParseError."""
    while True:
        try:
            cells = next(reader)
        except StopIteration:
            return
        except UnicodeDecodeError as exc:
            # Decoding runs ahead of the reader in blocks, so the row is unknown.
            raise ParseError(f"input is not valid {exc.encoding}: {exc.reason}") from None
        except csv.Error as exc:
            raise ParseError(str(exc), row=reader.line_num) from None
        yield cells


def parse_ledger(
    stream: io.TextIOBase, organization: str = "", delimiter: str = ","
) -> LedgerSeries:
    """Parse a delimited income-statement file into a euro-normalized ledger.

    Args:
        stream: text stream with a header row followed by one row per year.
        organization: label stored on the resulting series.
        delimiter: field separator (comma by default).

    Returns:
        A ``LedgerSeries`` sorted by year with every record converted to EUR.

    Raises:
        ParseError: malformed number or year, unknown currency code, duplicate
            year, negative value in a non-negative item, missing required
            column, or undecodable or unreadable input, naming the offending
            row and column where known.
    """
    try:
        reader = csv.reader(stream, delimiter=delimiter)
    except ValueError as exc:  # from Python 3.13 on: a line break or the quote
        raise ParseError(f"unusable delimiter {delimiter!r}: {exc}") from None
    rows = _read_rows(reader)
    header = next(rows, None)
    if header is None:
        raise ParseError("empty input: missing header row")
    if header:
        header[0] = header[0].removeprefix("\ufeff")
    header = [name.strip() for name in header]
    seen: set[str] = set()
    for name in header:
        if name not in COLUMNS:
            raise ParseError(f"unknown column {name!r}", row=1)
        if name in seen:
            raise ParseError(f"duplicate column '{name}'", row=1)
        seen.add(name)
    for name in REQUIRED_COLUMNS:
        if name not in seen:
            raise ParseError(f"missing required column '{name}'", row=1)

    required = [(name, header.index(name)) for name in REQUIRED_COLUMNS]
    year_at = header.index("year")
    currency_at = header.index("currency")
    money = [
        (name, header.index(name), name in NONNEGATIVE_ITEMS)
        for name in MONEY_ITEMS
        if name in seen
    ]

    records: list[FiscalRecord] = []
    years: set[int] = set()
    for row_no, cells in enumerate(rows, start=2):
        cells = [cell.strip() for cell in cells]
        if not any(cells):
            continue
        if len(cells) != len(header):
            raise ParseError(
                f"expected {len(header)} fields, found {len(cells)}", row=row_no
            )

        for name, at in required:
            if not cells[at]:
                raise ParseError("missing required value", row=row_no, column=name)
        year = _parse_year(cells[year_at], row_no)
        if year in years:
            raise ParseError(f"duplicate year {year}", row=row_no, column="year")
        years.add(year)
        try:
            currency = Currency(cells[currency_at])
        except ValueError:
            raise ParseError(
                f"unknown currency code {cells[currency_at]!r}", row=row_no, column="currency"
            ) from None

        # Lira amounts are converted cell by cell, with the same division
        # normalize_currency makes, so each row builds one euro record.
        lire = currency is Currency.ITL
        amounts: dict[str, float] = {}
        for name, at, nonnegative in money:
            cell = cells[at]
            if not cell:
                continue
            value = _parse_number(cell, row_no, name)
            if nonnegative and value < 0:
                raise ParseError(f"negative value {value!r}", row=row_no, column=name)
            amounts[name] = value / LIRE_PER_EURO if lire else value
        records.append(FiscalRecord(year=year, currency=Currency.EUR, **amounts))

    if not records:
        raise ParseError("no data rows")
    records.sort(key=lambda r: r.year)
    return LedgerSeries(organization, tuple(records))


def write_ledger(ledger: LedgerSeries, stream: io.TextIOBase, delimiter: str = ",") -> None:
    """Write a ledger in the canonical input format (round-trips exactly)."""
    writer = csv.writer(stream, delimiter=delimiter, lineterminator="\n")
    writer.writerow(COLUMNS)
    for record in ledger.records:
        row: list[str] = [str(record.year), record.currency.value]
        for name in MONEY_ITEMS:
            value = record.item(name)
            row.append("" if value is None else repr(value))
        writer.writerow(row)


def extract_series(ledger: LedgerSeries, item: str) -> Series:
    """Select one item as a (year, value) series; every record must report it.

    Window the ledger first (``LedgerSeries.window``) to select a year range.
    """
    if item not in _MONEY_ITEM_SET:
        raise DomainError(f"unknown item {item!r}")
    records = ledger.records
    if not records:
        raise EmptyPeriodError("no records in period")
    values = tuple(getattr(r, item) for r in records)
    if None in values:
        missing = [r.year for r, value in zip(records, values) if value is None]
        raise MissingDataError(
            f"'{item}' not reported for years: {', '.join(str(y) for y in missing)}"
        )
    return Series(tuple(r.year for r in records), values)


def validate_ledger(ledger: LedgerSeries) -> list[ValidationFinding]:
    """Check a ledger for soft issues; never mutates or raises.

    Findings cover personnel-decomposition mismatches beyond tolerance,
    negative values in non-negative items, and gaps in the year sequence.
    """
    findings: list[ValidationFinding] = []
    for record in ledger.records:
        for name in NONNEGATIVE_ITEMS:
            value = getattr(record, name)
            if value is not None and value < 0:
                findings.append(
                    ValidationFinding(
                        "negative_value", record.year, f"{name} is negative ({value!r})"
                    )
                )
        components = [getattr(record, name) for name in PERSONNEL_COMPONENTS]
        if None not in components:
            # Left to right, as sum() did before Python 3.12 compensated it:
            # the total is printed, so it must not change with the version.
            total = 0.0
            for component in components:
                total += component
            reference = record.cost_of_personnel
            if abs(total - reference) > DECOMPOSITION_RTOL * abs(reference):
                findings.append(
                    ValidationFinding(
                        "personnel_decomposition_mismatch",
                        record.year,
                        f"personnel components sum to {total!r}, "
                        f"cost_of_personnel is {reference!r}",
                    )
                )
    for prev, cur in zip(ledger.records, ledger.records[1:]):
        if cur.year - prev.year > 1:
            gap = ", ".join(str(y) for y in range(prev.year + 1, cur.year))
            findings.append(
                ValidationFinding("year_gap", prev.year, f"missing years: {gap}")
            )
    return findings
