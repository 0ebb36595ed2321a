"""Independent numerical oracles for the test suite.

None of these share code with the library: tail probabilities come from
adaptive Simpson quadrature of the densities, regression coefficients from
direct grid refinement of the residual sum of squares, and moments from
plain two-pass summation or exact rational arithmetic. The ledger parser
checks a file row by row, the reference for the library's column-at-a-time
parser, and the validation checks a ledger record by record; both share the
library's data types, column lists and tolerance, not its parsing or
checking code.
"""

import csv
import decimal
import io
import math
from collections.abc import Iterator
from fractions import Fraction

from ecometab.errors import ParseError
from ecometab.ledger import (
    COLUMNS,
    DECOMPOSITION_RTOL,
    LIRE_PER_EURO,
    MONEY_ITEMS,
    NONNEGATIVE_ITEMS,
    PERSONNEL_COMPONENTS,
    REQUIRED_COLUMNS,
    Currency,
    FiscalRecord,
    LedgerSeries,
    ValidationFinding,
)

_MIN_YEAR, _MAX_YEAR = 1, 9999


def adaptive_simpson(f, a, b, tol=1e-12):
    """Integrate f over [a, b] by adaptive Simpson with Richardson correction."""

    def recurse(a, fa, m, fm, b, fb, whole, tol, depth):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = f(lm)
        frm = f(rm)
        left = (m - a) * (fa + 4.0 * flm + fm) / 6.0
        right = (b - m) * (fm + 4.0 * frm + fb) / 6.0
        if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return recurse(a, fa, lm, flm, m, fm, left, tol / 2.0, depth - 1) + recurse(
            m, fm, rm, frm, b, fb, right, tol / 2.0, depth - 1
        )

    if a == b:
        return 0.0
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = (b - a) * (fa + 4.0 * fm + fb) / 6.0
    return recurse(a, fa, m, fm, b, fb, whole, tol, 60)


def t_density(u, df):
    ln = (
        math.lgamma((df + 1.0) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
        - ((df + 1.0) / 2.0) * math.log1p(u * u / df)
    )
    return math.exp(ln)


def p_t_two_sided(t, df):
    """P(|T| >= |t|) as 1 - 2 * integral of the density over [0, |t|]."""
    if t == 0:
        return 1.0
    inner = adaptive_simpson(lambda u: t_density(u, df), 0.0, abs(t), tol=1e-13)
    return max(0.0, 1.0 - 2.0 * inner)


def _f_integrand(v, df1, df2, ln_beta):
    # F-density integrand after substituting statistic = v**2; smooth at 0.
    if v == 0.0:
        if df1 == 1:
            return 2.0 * math.exp(0.5 * math.log(df1 / df2) - ln_beta)
        return 0.0
    ln = (
        math.log(2.0)
        + (df1 / 2.0) * math.log(df1 / df2)
        + (df1 - 1.0) * math.log(v)
        - ((df1 + df2) / 2.0) * math.log1p(df1 * v * v / df2)
        - ln_beta
    )
    return math.exp(ln)


def p_f_upper(f, df1, df2):
    """P(F >= f) as 1 - integral of the density over [0, f]."""
    if f == 0:
        return 1.0
    ln_beta = math.lgamma(df1 / 2.0) + math.lgamma(df2 / 2.0) - math.lgamma((df1 + df2) / 2.0)
    inner = adaptive_simpson(
        lambda v: _f_integrand(v, df1, df2, ln_beta), 0.0, math.sqrt(f), tol=1e-13
    )
    return max(0.0, 1.0 - inner)


def t_critical(alpha, df):
    """Two-sided critical value found by bisection on the quadrature p-value."""
    lo, hi = 0.0, 1.0
    while p_t_two_sided(hi, df) > alpha:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if p_t_two_sided(mid, df) > alpha:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, lo):
            break
    return 0.5 * (lo + hi)


def grid_ols(xs, ys, rounds=40):
    """Least squares by direct grid refinement of the residual sum of squares.

    Searches over (level at the regressor mean, slope) so the surface is
    well scaled, shrinking the grid around the best cell each round.
    Returns (intercept, slope) in the uncentered parameterization.
    """
    n = len(xs)
    x_mean = sum(xs) / n
    xc = [x - x_mean for x in xs]

    def sse(level, slope):
        return math.fsum((y - (level + slope * d)) ** 2 for y, d in zip(ys, xc))

    y_span = (max(ys) - min(ys)) or 1.0
    x_span = (max(xc) - min(xc)) or 1.0
    level = sum(ys) / n
    slope = 0.0
    half_level = y_span + 1.0
    half_slope = 10.0 * y_span / x_span + 1.0
    steps = 16
    for _ in range(rounds):
        best = (math.inf, level, slope)
        for i in range(-steps, steps + 1):
            cand_level = level + half_level * i / steps
            for j in range(-steps, steps + 1):
                cand_slope = slope + half_slope * j / steps
                value = sse(cand_level, cand_slope)
                if value < best[0]:
                    best = (value, cand_level, cand_slope)
        _, level, slope = best
        half_level = half_level / steps * 1.5
        half_slope = half_slope / steps * 1.5
        if half_level < 1e-14 * max(1.0, abs(level)) and half_slope < 1e-14 * max(
            1.0, abs(slope)
        ):
            break
    return level - slope * x_mean, slope


def two_pass_mean_sd(values):
    """Plain two-pass mean and sample standard deviation."""
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var)


def exact_mean_sd(values):
    """Mean and sample standard deviation in exact rational arithmetic, each rounded once.

    The square root is taken to 60 significant digits before that rounding.
    """
    n = len(values)
    exact = list(map(Fraction, values))
    mean = sum(exact) / n
    if n == 1:
        return float(mean), 0.0
    var = sum((v - mean) ** 2 for v in exact) / (n - 1)
    with decimal.localcontext() as context:
        context.prec = 60
        sd = (decimal.Decimal(var.numerator) / decimal.Decimal(var.denominator)).sqrt()
    return float(mean), float(sd)


def brute_force_crossings(years, deltas):
    """Sign-scan over all consecutive pairs; zero counts as a boundary.

    Returns interpolated crossing positions. Adjacent pairs can only share a
    position when a series touches zero exactly at an observation year, so a
    repeat of the previous position is the same touch seen twice.
    """

    def sign(v):
        return (v > 0) - (v < 0)

    found = []
    for i in range(len(deltas) - 1):
        if sign(deltas[i]) == sign(deltas[i + 1]):
            continue
        at = years[i] + deltas[i] / (deltas[i] - deltas[i + 1]) * (years[i + 1] - years[i])
        if found and found[-1] == at:
            continue
        found.append(at)
    return found


# ---------------------------------------------------------------------------
# Row-at-a-time ledger parser, the reference of the differential parse test:
# it checks each row in full before reading the next, so its first error is
# the first fault in file order, and within a row the first in check order.

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


def row_parse_ledger(
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
    # csv refuses a different set of these on each Python version; a non-str
    # is left to its TypeError.
    if isinstance(delimiter, str) and (len(delimiter) != 1 or delimiter in '\0\r\n"'):
        raise ParseError(f"unusable delimiter {delimiter!r}: not one character "
                         "other than NUL, CR, LF and '\"'")
    reader = csv.reader(stream, delimiter=delimiter)
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


# ---------------------------------------------------------------------------
# Record-at-a-time validation, the reference of the differential validation
# test: each record's negative items in column order, then its personnel
# decomposition; the gaps between years after every record.

def row_validate_ledger(ledger: LedgerSeries) -> list[ValidationFinding]:
    """The soft findings of ``validate_ledger``, checked one record at a time."""
    findings = []
    for rec in ledger.records:
        for name in NONNEGATIVE_ITEMS:
            value = getattr(rec, name)
            if value is not None and value < 0:
                findings.append(ValidationFinding(
                    "negative_value", rec.year, f"{name} is negative ({value!r})"))
        components = [getattr(rec, name) for name in PERSONNEL_COMPONENTS]
        reference = rec.cost_of_personnel
        if None in components or reference is None:
            continue
        total = 0.0
        for value in components:  # left to right, uncompensated
            total = total + value
        if abs(total - reference) > DECOMPOSITION_RTOL * abs(reference):
            findings.append(ValidationFinding(
                "personnel_decomposition_mismatch", rec.year,
                f"personnel components sum to {total!r}, cost_of_personnel is {reference!r}"))
    for prev, cur in zip(ledger.records, ledger.records[1:]):
        missing = list(range(prev.year + 1, cur.year))
        if missing:
            findings.append(ValidationFinding(
                "year_gap", prev.year, "missing years: " + ", ".join(map(str, missing))))
    return findings
