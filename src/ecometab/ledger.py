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

Parsing is column-at-a-time: the rows are read once, and each column is
checked and converted whole by C-level built-ins; only a file that fails a
check is walked row by row, and of all faults the first in file order is raised.
A ``LedgerSeries`` holds its ``years`` and ``columns``, sorted by year once
in the parse; its ``FiscalRecord``s are built only when first asked for.
All types here are immutable after construction and safe to share across
threads; parsing is single-threaded per stream.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Iterator
from dataclasses import dataclass, fields, replace
from enum import Enum
from functools import cached_property
from itertools import compress, repeat
from operator import add, attrgetter, gt, itemgetter, le, lt, mul, ne, sub, truediv

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


_DIVISORS = {Currency.EUR.value: 1.0, Currency.ITL.value: LIRE_PER_EURO}  # amount / divisor: euros


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


@dataclass(frozen=True, init=False)
class LedgerSeries:
    """Year-ordered income statements of one organization, in one currency, held as columns.

    ``columns`` holds each money item's values in year order, ``None`` where
    unreported (read only); ``records`` are built from them on first access.
    """

    organization: str
    years: tuple[int, ...]
    columns: dict[str, tuple[float | None, ...]]
    currency: Currency

    def __init__(self, organization: str, records: tuple[FiscalRecord, ...]):
        years = tuple(map(attrgetter("year"), records))
        if not all(map(lt, years, years[1:])):
            prev, cur = next((p, c) for p, c in zip(years, years[1:]) if c <= p)
            raise DomainError(f"records must have strictly increasing years "
                              f"({prev} followed by {cur})")
        currencies = tuple(map(attrgetter("currency"), records))
        if any(map(ne, currencies, currencies[1:])):
            raise DomainError("records mix currencies; normalize before building a series")
        columns = {name: tuple(map(attrgetter(name), records)) for name in MONEY_ITEMS}
        vars(self).update(organization=organization, years=years, columns=columns,
                          currency=currencies[0] if records else Currency.EUR)

    @classmethod
    def _of_columns(cls, organization, years, columns, currency=Currency.EUR) -> LedgerSeries:
        """A ledger of columns already checked, its records left to first access."""
        ledger = object.__new__(cls)
        vars(ledger).update(organization=organization, years=years, columns=columns,
                            currency=currency)
        return ledger

    def __hash__(self) -> int:
        return hash((self.organization, self.years, *self.columns.values(), self.currency))

    def __len__(self) -> int:
        return len(self.years)

    def __iter__(self) -> Iterator[FiscalRecord]:
        return iter(self.records)

    @cached_property
    def records(self) -> tuple[FiscalRecord, ...]:
        return tuple(map(FiscalRecord, self.years, repeat(self.currency),
                         *(self.columns[field.name] for field in fields(FiscalRecord)[2:])))

    def window(self, period: tuple[int, int]) -> "LedgerSeries":
        """The records inside an inclusive (first, last) year window; ``self`` if that is all.

        Raises:
            EmptyPeriodError: no record falls inside the window.
        """
        start, end = period
        # The window's bounds in ``years``: C-level counts of the years before each.
        first = sum(map(lt, self.years, repeat(start)))
        stop = sum(map(le, self.years, repeat(end)))
        if first >= stop:
            raise EmptyPeriodError(f"no records in period {start}-{end}")
        if stop - first == len(self.years):
            return self
        columns = {name: column[first:stop] for name, column in self.columns.items()}
        return self._of_columns(self.organization, self.years[first:stop], columns, self.currency)


@dataclass(frozen=True)
class Series:
    """Ordered (year, value) pairs for one item."""

    years: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.years) != len(self.values):
            raise DomainError("years and values differ in length")
        if not all(map(lt, self.years, self.years[1:])):
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


def _parse_number(cell: str, row: int, column: str, nonnegative: bool) -> float | None:
    if not cell:
        return None
    # float() also takes "1_000" and non-ASCII digits; the file format does not.
    if not cell.isascii() or "_" in cell:
        raise ParseError(f"malformed number {cell!r}", row=row, column=column)
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(f"malformed number {cell!r}", row=row, column=column) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite number {cell!r}", row=row, column=column)
    if nonnegative and value < 0:
        raise ParseError(f"negative value {value!r}", row=row, column=column)
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


def _converted(cells, convert) -> list | None:
    """``convert`` of every cell; ``None`` if one is not ASCII, holds a ``_`` or fails."""
    joined = "".join(cells)
    if joined.isascii() and "_" not in joined:
        try:
            return list(map(convert, cells))
        except ValueError:
            pass
    return None


def _amounts(cells: list[str], nonnegative: bool, divisors: list[float]) -> tuple | None:
    """Each amount over its row's divisor, ``None`` if blank; ``None`` if a cell is at fault."""
    present = cells if "" not in cells else list(compress(cells, cells))
    values = _converted(present, float)
    # Signs are read before the division, which can round a tiny negative to -0.0.
    if (values is None or not all(map(math.isfinite, values))
            or nonnegative and min(values, default=0.0) < 0):
        return None
    if present is cells:
        return tuple(map(truediv, values, divisors))
    amounts = map(truediv, values, compress(divisors, cells))
    return tuple(next(amounts) if cell else None for cell in cells)


def _raise_first_fault(columns: dict[str, list[str]], rows: list[int],
                       stop: ParseError | None) -> None:
    """Raise the fault a row-by-row parse meets first; ``stop`` if no row read is at fault."""
    seen: set[int] = set()
    for i, row in enumerate(rows):
        for name in REQUIRED_COLUMNS:
            if not columns[name][i]:
                raise ParseError("missing required value", row=row, column=name)
        year = _parse_year(columns["year"][i], row)
        if year in seen:
            raise ParseError(f"duplicate year {year}", row=row, column="year")
        seen.add(year)
        code = columns["currency"][i]
        if code not in _DIVISORS:
            raise ParseError(f"unknown currency code {code!r}", row=row, column="currency")
        for name in MONEY_ITEMS:
            if name in columns:
                _parse_number(columns[name][i], row, name, name in NONNEGATIVE_ITEMS)
    raise stop or AssertionError("a file that failed its column checks is at fault in no row")


def parse_ledger(
    stream: io.TextIOBase, organization: str = "", delimiter: str = ","
) -> LedgerSeries:
    """Parse a delimited income-statement file into a euro-normalized ledger.

    Args:
        stream: text stream with a header row followed by one row per year.
        organization: label stored on the resulting series.
        delimiter: field separator (comma by default): one character other
            than NUL, CR, LF and the double quote.

    Returns:
        A ``LedgerSeries`` sorted by year with every record converted to EUR.

    Raises:
        ParseError: unusable delimiter, malformed number or year, unknown
            currency code, duplicate year, negative value in a non-negative
            item, missing required column, or undecodable or unreadable
            input, naming the offending row and column where known. Of
            several faults, the first in file order is raised; within a row,
            a blank required cell comes first, then the year, a repeated
            year, the currency and the amounts in ``MONEY_ITEMS`` order.
    """
    # csv refuses a different set of these on each Python version; a non-str
    # is left to its TypeError.
    if isinstance(delimiter, str) and (len(delimiter) != 1 or delimiter in '\0\r\n"'):
        raise ParseError(f"unusable delimiter {delimiter!r}: not one character "
                         "other than NUL, CR, LF and '\"'")
    reader = csv.reader(stream, delimiter=delimiter)
    # One loop reads the header and the cells of each data row that holds
    # anything, into one list, up to the first row of the wrong width or
    # reader error: ``stop``, raised only if no row before it is at fault.
    header, cells_read, row_numbers, stop = None, [], [], None
    try:
        header = next(reader, None)
        width = len(header or ())
        for row_no, cells in enumerate(reader, start=2):
            if "".join(cells).strip():
                if len(cells) != width:
                    stop = ParseError(f"expected {width} fields, found {len(cells)}", row=row_no)
                    break
                cells_read += cells
                row_numbers.append(row_no)
    except UnicodeDecodeError as exc:
        # Decoding runs ahead of the reader in blocks, so the row is unknown.
        stop = ParseError(f"input is not valid {exc.encoding}: {exc.reason}")
    except csv.Error as exc:
        stop = ParseError(str(exc), row=reader.line_num)
    if header is None:
        raise stop or ParseError("empty input: missing header row")
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
    if not row_numbers:
        raise stop or ParseError("no data rows")

    # Each column is checked whole; only a file that fails a check is walked
    # row by row, for the fault a row-by-row parse meets first.
    columns = {name: list(map(str.strip, cells_read[i::width])) for i, name in enumerate(header)}
    years, codes = _converted(columns["year"], int), columns["currency"]
    # Lira amounts are divided by the rate, as normalize_currency does; euros by 1.0, exactly.
    divisors = list(map(_DIVISORS.get, codes, repeat(1.0)))
    amounts = {name: _amounts(columns[name], name in NONNEGATIVE_ITEMS, divisors)
               for name in MONEY_ITEMS if name in columns}
    if (stop or any("" in columns[name] for name in REQUIRED_COLUMNS)
            or years is None or min(years) < _MIN_YEAR or max(years) > _MAX_YEAR
            or len(set(years)) < len(years) or not _DIVISORS.keys() >= set(codes)
            or None in amounts.values()):
        _raise_first_fault(columns, row_numbers, stop)
    columns = {name: amounts.get(name) or (None,) * len(years) for name in MONEY_ITEMS}
    if not all(map(lt, years, years[1:])):  # sorted by year, only when out of order
        pick = itemgetter(*sorted(range(len(years)), key=years.__getitem__))
        years, columns = pick(years), {name: pick(column) for name, column in columns.items()}
    return LedgerSeries._of_columns(organization, tuple(years), columns)


def write_ledger(ledger: LedgerSeries, stream: io.TextIOBase, delimiter: str = ",") -> None:
    """Write a ledger in the canonical input format (round-trips exactly)."""
    writer = csv.writer(stream, delimiter=delimiter, lineterminator="\n")
    writer.writerow(COLUMNS)
    amounts = [["" if value is None else repr(value) for value in ledger.columns[name]]
               for name in MONEY_ITEMS]
    writer.writerows(zip(map(str, ledger.years), repeat(ledger.currency.value), *amounts))


def extract_series(ledger: LedgerSeries, item: str) -> Series:
    """Select one item as a (year, value) series; every record must report it.

    Window the ledger first (``LedgerSeries.window``) to select a year range.
    """
    if item not in _MONEY_ITEM_SET:
        raise DomainError(f"unknown item {item!r}")
    if not ledger.years:
        raise EmptyPeriodError("no records in period")
    values = ledger.columns[item]
    if None in values:
        missing = [year for year, value in zip(ledger.years, values) if value is None]
        raise MissingDataError(f"'{item}' not reported for years: {', '.join(map(str, missing))}")
    return Series(ledger.years, values)


def validate_ledger(ledger: LedgerSeries) -> list[ValidationFinding]:
    """Check a ledger for soft issues; never mutates or raises.

    Findings cover personnel-decomposition mismatches beyond tolerance,
    negative values in non-negative items, and gaps in the year sequence.
    """
    years, columns = ledger.years, ledger.columns
    negative = [name for name in NONNEGATIVE_ITEMS  # None and 0 are never negative
                if any(map(gt, repeat(0.0), filter(None, columns[name])))]
    # Left to right from 0.0, as sum() did before Python 3.12 compensated it:
    # the total is printed, so it must not change with the version. An
    # unreported value is NaN here, and a NaN total or reference no mismatch.
    nan_for_none = {None: math.nan}.get  # nan_for_none(v, v)
    totals, reference = repeat(0.0), columns["cost_of_personnel"]
    for name in PERSONNEL_COMPONENTS:
        totals = map(add, totals, map(nan_for_none, columns[name], columns[name]))
    totals, reference = list(totals), list(map(nan_for_none, reference, reference))
    mismatched = list(map(gt, map(abs, map(sub, totals, reference)),
                          map(mul, repeat(DECOMPOSITION_RTOL), map(abs, reference))))
    findings = []
    if negative or any(mismatched):  # record by record, each in check order
        for i, year in enumerate(years):
            for name in negative:
                value = columns[name][i]
                if value is not None and value < 0:
                    findings.append(ValidationFinding(
                        "negative_value", year, f"{name} is negative ({value!r})"))
            if mismatched[i]:
                findings.append(ValidationFinding(
                    "personnel_decomposition_mismatch", year,
                    f"personnel components sum to {totals[i]!r}, "
                    f"cost_of_personnel is {reference[i]!r}"))
    for prev, cur in zip(years, years[1:]):
        if cur - prev > 1:
            gap = ", ".join(str(y) for y in range(prev + 1, cur))
            findings.append(ValidationFinding("year_gap", prev, f"missing years: {gap}"))
    return findings
