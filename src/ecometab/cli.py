"""Command-line front end and output formats.

Every subcommand reads one ``Report`` (``report.py``): ``report`` every
section, ``figures`` those its figures read and the others only their own,
whose analyses alone run and name themselves in an error. Each section is
defined once, in ``_SECTIONS``: its JSON, CSV and text, in the full report
and as its own subcommand. Text tables are a pure view; JSON carries every
number at full precision, so display rounding never feeds back into
computation. Output is deterministic: the same input file and configuration
produce byte-identical results. Figure files are all-or-nothing.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import os
import sys
from collections.abc import Mapping
from itertools import chain, repeat
from operator import ge, itemgetter

from .errors import DomainError, EcometabError
from .ledger import (
    MAIN_COST_ITEMS,
    MONEY_ITEMS,
    PERSONNEL_COMPONENTS,
    ValidationFinding,
    extract_series,
)
from .metabolism import AllometricFit, CostProfile, Crossing, GrowthRate, ShareSeries
from .report import (
    TREND_ITEMS,
    Report,
    ReportConfig,
    growth_over,
    load_ledger,
    run_report,
)
from .stats import RegressionFit, p_value_t, significance_stars

FIGURE_IDS = ("fig1", "fig2", "fig3", "fig4", "figA1", "figA2", "figA3")
OUTPUT_FORMATS = ("text", "json", "csv")

# Published CNR cumulative growth rates 1997-2015 (cost of personnel and
# total revenue), kept as a fixed reference line in the cross-check section.
_REFERENCE_CUM_PERSONNEL = 1.6787
_REFERENCE_CUM_REVENUE = 1.1872


# ---------------------------------------------------------------------------
# Rendering


def _fields(result) -> dict:
    """A result's fields by name in declaration order: its own ``__dict__``, shared.

    A frozen dataclass without slots keeps exactly its fields there, in
    declaration order, as long as it sets no attribute outside its fields;
    no result type does. Callers only read the dict. Tuples, such as a fit's
    residuals, are passed on as they are; the one Enum field, an allometric
    fit's classification, becomes its value.
    """
    if isinstance(result, AllometricFit):
        return {**vars(result), "classification": result.classification.value}
    return vars(result)


_SCALARS = frozenset((str, int, float, bool, type(None)))


@functools.cache
def _encode_at(depth: int):
    """json's C encoder, laying out a flat container's items as at ``depth``.

    Given no ``indent``, json encodes in C; the item separator then writes the
    newline and indentation that ``indent=2`` puts between items at ``depth``.
    json is imported here, once per process, so a text or CSV run skips it.
    """
    import json

    separators = (",\n" + "  " * (depth + 1), ": ")
    return json.JSONEncoder(sort_keys=True, separators=separators).encode


def _emit(value, depth: int, out) -> None:
    """Pass ``value``'s ``indent=2`` JSON at ``depth`` to ``out`` in pieces."""
    if isinstance(value, dict):
        children, brackets = value.values(), "{}"
    elif isinstance(value, (list, tuple, ShareSeries)):
        children, brackets = value, "[]"
    else:  # a scalar, or a type json rejects with its own TypeError
        out(_encode_at(depth)(value))
        return
    if not children:
        out(brackets)
        return
    if isinstance(value, ShareSeries):  # its points, in json's key order, a column at a time
        _emit_columns(["share_percent", "year"], [value.values, value.years], depth, out)
        return
    outer, inner = "\n" + "  " * depth, "\n" + "  " * (depth + 1)
    out(brackets[0] + inner)
    if set(map(type, children)) <= _SCALARS:
        out(_encode_at(depth)(value)[1:-1])
    else:
        # One C call encodes every key and scalar child, a 0 standing in for
        # each other child; that 0 is then replaced by the child's own JSON.
        if brackets == "{}":
            items = sorted(value.items())  # json's order, kept by the C encoder
            children = [child for _, child in items]
            shell = {key: child if type(child) in _SCALARS else 0 for key, child in items}
        else:
            shell = [child if type(child) in _SCALARS else 0 for child in children]
        pieces = _encode_at(depth)(shell)[1:-1].split("," + inner)
        for i, (piece, child) in enumerate(zip(pieces, children)):
            if i:
                out("," + inner)
            if type(child) in _SCALARS:
                out(piece)
            else:
                out(piece[:-1])
                _emit(child, depth + 1, out)
    out(outer + brackets[1])


def _emit_columns(keys: list[str], columns: list, depth: int, out) -> None:
    """Pass the JSON list of the records whose sorted ``keys`` hold these ``columns`` to ``out``.

    Each column of numbers is encoded in one C call and split at its ",\\n"s.
    """
    encode, inner = _encode_at(-1), "\n" + "  " * (depth + 1)  # encode separates by ",\n"
    parts = []  # per key, the text before each value, then the values; then each end
    for n, (key, column) in enumerate(zip(keys, columns)):
        parts.append(repeat(("," if n else "{") + inner + "  " + encode(key) + ": "))
        parts.append(encode(column)[1:-1].split(",\n"))
    parts.append(repeat(inner + "}"))
    out("[" + inner + ("," + inner).join(map("".join, zip(*parts))) + "\n" + "  " * depth + "]")


def _json(payload) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2)`` plus a newline, byte for byte.

    json encodes in C only without ``indent``, so each container is encoded
    in C calls and laid out by their separators: a flat one in one call, any
    other as one call's shell with each container child in its own calls,
    and a ``ShareSeries``'s points a column of values at a time.
    """
    parts: list[str] = []
    _emit(payload, 0, parts.append)
    parts.append("\n")
    return "".join(parts)


def _csv(header: list[str], *blocks) -> str:
    """The header, then each block of rows, as ``csv.writer`` writes them with "\\n" line ends."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for rows in ([header], *blocks):
        rows = list(rows)
        cells = list(chain.from_iterable(rows))
        # The writer quotes a cell holding the delimiter, the quote or a line break, and
        # an empty lone cell; before 3.11 it refuses a NUL. Without these, it joins them.
        if (set(map(type, cells)) <= {str} and min(map(len, rows), default=2) > 1
                and not any(char in "".join(cells) for char in ',"\r\n\0')):
            buffer.write("\n".join([*map(",".join, rows), ""]))
        else:
            writer.writerows(rows)
    return buffer.getvalue()


def _field_rows(result, *prefix: str):
    """A result's ``[*prefix, field, value]`` rows at full precision, residuals left out."""
    for field, value in _fields(result).items():
        if field != "residuals":
            yield [*prefix, field, repr(value)]


def _table_json(table: Mapping) -> dict:
    return {key: _fields(result) for key, result in table.items()}


def _table_rows(table: Mapping, *prefix: str):
    return (row for key, result in table.items() for row in _field_rows(result, *prefix, key))


def _share_rows(shares: ShareSeries, *prefix: str):
    return zip(*map(repeat, prefix), map(str, shares.years), map(repr, shares.values))


def _p_text(p: float) -> str:
    return "<0.001" if p < 0.001 else f"{p:.3f}"


def _t_test_p(value: float, se: float, n: int, exact_fit: bool) -> float:
    """Two-sided p of ``value / se`` on n - 2 df: 0 for an exact fit, 1 if se is 0."""
    if exact_fit:
        return 0.0
    if se == 0:
        return 1.0
    return p_value_t(value / se, n - 2)


def _number_text(value: float, decimals: int = 3) -> str:
    """``value`` to ``decimals`` places; from 1e15 on, where fixed point runs long, as ``e``."""
    return f"{value:.{decimals}{'e' if abs(value) >= 1e15 else 'f'}}"


def _coef_text(value: float, se: float, p: float) -> str:
    return f"{_number_text(value)}{significance_stars(p)} ({_number_text(se)})"


def _columns(first, *others) -> str:
    """Columns of cells as indented lines: the first left-aligned, the others right-aligned."""
    cells = [map(str.ljust, first, repeat(max(map(len, first))))]
    cells += [map(str.rjust, column, repeat(max(map(len, column)))) for column in others]
    return "  " + "\n  ".join(map(str.rstrip, map("  ".join, zip(*cells))))


def render_table(fits: Mapping[str, RegressionFit]) -> str:
    """Render OLS fits as a text table: estimate, (se), stars, std.coef, R2, F (p)."""
    rows = [("item", "intercept (se)", "slope (se)", "std.coef", "R2", "F (p)")]
    for item, fit in fits.items():
        flags = []
        if fit.degenerate:
            flags.append("degenerate")
        if fit.exact_fit:
            flags.append("exact fit")
        rows.append((
            item + (f" [{', '.join(flags)}]" if flags else ""),
            _coef_text(fit.intercept, fit.se_intercept,
                       _t_test_p(fit.intercept, fit.se_intercept, fit.n, fit.exact_fit)),
            _coef_text(fit.slope, fit.se_slope, fit.p_slope),
            f"{fit.standardized_slope:.2f}",
            f"{fit.r_squared:.2f}",
            f"{fit.f_statistic:.2f} ({_p_text(fit.p_f)})",
        ))
    return _columns(*zip(*rows)) + "\n"


def _render_growth_text(growth: Mapping[str, GrowthRate]) -> str:
    rows = [("item", "start_value", "end_value", "t_years", "r_per_year", "cumulative_pct")]
    for item, rate in growth.items():
        rows.append((
            item,
            _number_text(rate.start_value),
            _number_text(rate.end_value),
            str(rate.t_years),
            _number_text(rate.r_per_year, 6),
            _number_text(100.0 * rate.cumulative, 2),
        ))
    return _columns(*zip(*rows)) + "\n"


def _render_allometric_text(fit: AllometricFit, dependent: str, explanatory: str) -> str:
    std_coef = math.copysign(math.sqrt(fit.r_squared), fit.exponent)
    lna_p = _t_test_p(fit.log_prefactor, fit.se_log_prefactor, fit.n, fit.exact_fit)
    lines = [
        f"  model: ln({dependent}) on ln({explanatory}), n = {fit.n}",
        f"  log prefactor (se): {_coef_text(fit.log_prefactor, fit.se_log_prefactor, lna_p)}",
        f"  exponent (se):      {_coef_text(fit.exponent, fit.se_exponent, fit.p_exponent)}",
        f"  std.coef {std_coef:.2f}   R2 {fit.r_squared:.2f}   "
        f"F {fit.f_statistic:.2f} ({_p_text(fit.p_exponent)})",
        f"  classification: {fit.classification.value} (alpha = {fit.test_alpha:g})"
        + ("  [exact fit]" if fit.exact_fit else ""),
    ]
    return "\n".join(lines) + "\n"


def _render_shares_text(columns: list[tuple[str, ShareSeries]]) -> str:
    """A year column, then a named column of shares per series, as ``_number_text`` to 2 places."""
    years, texts = ["year", *map(str, columns[0][1].years)], []
    for name, shares in columns:
        specs = map((".2f", ".2e").__getitem__, map(ge, map(abs, shares.values), repeat(1e15)))
        texts.append([name, *map(format, shares.values, specs)])
    return _columns(years, *texts) + "\n"


def _render_crossings_text(crossings: tuple[Crossing, ...]) -> str:
    if not crossings:
        return "  none\n"
    lines = [
        f"  between {c.start_year} and {c.end_year}, crossing at {c.crossing_year:.2f}"
        for c in crossings
    ]
    return "\n".join(lines) + "\n"


def _render_mean_costs_text(profile: CostProfile) -> str:
    rows = [("item", "n", "mean", "sd", "min", "max")]
    for item, d in profile.by_item.items():
        rows.append((item, str(d.n), *map(_number_text, (d.mean, d.sd, d.minimum, d.maximum))))
    text = _columns(*zip(*rows)) + "\n"
    if profile.omitted:
        text += f"  omitted (not reported every year): {', '.join(profile.omitted)}\n"
    return text


def _ratio_text(numerator: float, denominator: float) -> str:
    """``numerator / denominator`` to 4 decimals, as ``.4e`` from 1e6; ``n/a`` if not finite."""
    ratio = numerator / denominator if denominator else math.nan
    style = "e" if abs(ratio) >= 1e6 else "f"
    return f"{ratio:.4{style}}" if math.isfinite(ratio) else "n/a"


def _growth_factor(report: Report, item: str) -> float:
    """1 + the item's cumulative growth over the window; NaN where it has none."""
    # The report already holds the growth of every trend item over the window.
    try:
        growth = report.growth_table.get(item) or growth_over(report.window, item)
    except DomainError:  # a start value that is not positive, or an overflow
        return math.nan
    return 1.0 + growth.cumulative


def _render_cross_checks(report: Report) -> str:
    years, shares = report.metabolism_series.years, report.metabolism_series.values
    config = report.config
    predicted = _ratio_text(*(_growth_factor(report, item)
                              for item in (config.numerator_item, config.denominator_item)))
    reference = (1.0 + _REFERENCE_CUM_PERSONNEL) / (1.0 + _REFERENCE_CUM_REVENUE)
    lines = [
        f"  M({years[-1]})/M({years[0]}) = {_ratio_text(shares[-1], shares[0])}",
        f"  (1 + growth of {config.numerator_item})/(1 + growth of {config.denominator_item})"
        f" = {predicted}",
        f"  reference, published CNR cumulative rates 1997-2015:"
        f" (1 + {_REFERENCE_CUM_PERSONNEL})/(1 + {_REFERENCE_CUM_REVENUE}) = {reference:.4f}",
    ]
    return "\n".join(lines) + "\n"


def _render_findings_text(findings: tuple[ValidationFinding, ...]) -> str:
    if not findings:
        return "  none\n"
    lines = []
    for finding in findings:
        year = f" (year {finding.year})" if finding.year is not None else ""
        lines.append(f"  - {finding.kind}{year}: {finding.message}")
    return "\n".join(lines) + "\n"


# The report's sections. Each one's function takes the report and ``whole``, true
# in the full report and false in its subcommand, and returns its JSON payload and
# text body as thunks and its CSV rows as an iterator, so a format builds only what
# it prints. ``prefix * whole`` gives the full report's section (and item) cells.


def _table_section(table: Mapping, render, prefix: tuple):
    return lambda: _table_json(table), _table_rows(table, *prefix), lambda: render(table)


def _trend(report: Report, whole: bool):
    return _table_section(report.trend_table, render_table, ("trend",) * whole)


def _growth(report: Report, whole: bool):
    return _table_section(report.growth_table, _render_growth_text, ("growth",) * whole)


def _allometric(report: Report, whole: bool):
    fit, config = report.allometric_table, report.config
    return (lambda: _fields(fit), _field_rows(fit, *("allometric", config.numerator_item) * whole),
            lambda: _render_allometric_text(fit, config.numerator_item, config.denominator_item))


def _metabolism(report: Report, whole: bool):
    """The shares; the whole report puts other_costs' beside them, in every format."""
    config = report.config
    columns = [(config.numerator_item if whole else "share_percent", report.metabolism_series)]
    if whole:
        columns.append(("other_costs", report.other_costs_share))
    return (lambda: {"numerator": config.numerator_item, "denominator": config.denominator_item,
                     **dict(zip(("points", "other_costs_points"), map(itemgetter(1), columns)))},
            chain.from_iterable(_share_rows(shares, *("metabolism", label) * whole)
                                for label, shares in columns),
            lambda: _render_shares_text(columns))


def _crossings(report: Report, whole: bool):
    crossings = report.crossings
    rows = ((["crossings", f"{c.start_year}-{c.end_year}", "crossing_year"] if whole
             else [c.start_year, c.end_year]) + [repr(c.crossing_year)] for c in crossings)
    return lambda: list(map(_fields, crossings)), rows, lambda: _render_crossings_text(crossings)


def _mean_costs(report: Report, whole: bool):
    profile = report.mean_costs
    return (lambda: {"items": _table_json(profile.by_item), "omitted": list(profile.omitted)},
            _table_rows(profile.by_item, *("mean_costs",) * whole),
            lambda: _render_mean_costs_text(profile))


def _validation(report: Report, whole: bool):
    findings = report.validation_findings
    return (lambda: list(map(_fields, findings)),
            ([*("validation",) * whole, f.kind, str(f.year), f.message] for f in findings),
            lambda: _render_findings_text(findings))


# Each section under its JSON key, in CSV order: its subcommand (None for the
# whole report's only), that subcommand's CSV header, its text title as a
# format string over ``vars(config)``, and its function.
_SECTIONS = {
    "trend": ("trend", ["item", "field", "value"],
              "Trend regressions (OLS on calendar year)", _trend),
    "growth": ("growth", ["item", "field", "value"], "Arithmetic growth rates", _growth),
    "allometric": ("allometric", ["field", "value"], "Allometric relation", _allometric),
    "metabolism": ("metabolism", ["year", "share_percent"],
                   "Cost share of {denominator_item} (percent)", _metabolism),
    "crossings": ("crossover", ["start_year", "end_year", "crossing_year"],
                  "Share crossovers", _crossings),
    "mean_costs": (None, None, "Mean cost profile {period[0]}-{period[1]}", _mean_costs),
    "validation": ("validate", ["kind", "year", "message"], "Validation findings", _validation),
}


def render_report_text(report: Report) -> str:
    ledger = report.ledger
    config = report.config
    start, end = config.period
    text = (f"Ledger: {ledger.organization or '(unnamed)'} "
            f"({len(ledger)} records, window {start}-{end}, EUR)\n")
    # Each section body ends in one newline; a blank line precedes each title.
    for key in sorted(_SECTIONS, key="validation".__ne__):  # validation first
        *_, title, section = _SECTIONS[key]
        text += f"\n{title.format_map(vars(config))}\n{section(report, True)[2]()}"
    return text + f"\nCross-checks\n{_render_cross_checks(report)}"


def report_to_json(report: Report) -> str:
    """Full-precision JSON with fixed key order; byte-deterministic."""
    return _json({key: section(report, True)[0]() for key, (*_, section) in _SECTIONS.items()})


def report_to_csv(report: Report) -> str:
    """Long-format CSV: section,item,field,value at full precision."""
    return _csv(["section", "item", "field", "value"],
                *(section(report, True)[1] for *_, section in _SECTIONS.values()))


# ---------------------------------------------------------------------------
# Figure data files


def _figure_rows(report: Report, figure_id: str) -> tuple[list[str], list[list[str]]]:
    if figure_id == "fig1":
        return ["item", "mean"], [
            [item, repr(d.mean)] for item, d in report.mean_costs.by_item.items()
        ]
    if figure_id == "fig4":
        names = ["m_personnel_percent", "m_other_costs_percent"]
        columns = [report.metabolism_series, report.other_costs_share]
    else:
        names = {
            "fig2": ["total_revenue", "cost_of_personnel"],
            "fig3": ["total_revenue", "total_cost"],
            "figA1": [i for i in MAIN_COST_ITEMS if i in report.mean_costs.by_item],
            "figA2": list(PERSONNEL_COMPONENTS),
            "figA3": ["cost_of_personnel", "other_costs"],
        }.get(figure_id)
        if names is None:
            raise DomainError(
                f"unknown figure id '{figure_id}' (expected one of {', '.join(FIGURE_IDS)})"
            )
        columns = [extract_series(report.window, item) for item in names]
    rows = [[str(year), *map(repr, values)]
            for year, *values in zip(columns[0].years, *(c.values for c in columns))]
    return ["year", *names], rows


def _write_figures(report: Report, figure_ids, output_dir: str | os.PathLike[str]) -> list:
    """Write each figure's data as ``<figure_id>.csv``, all or nothing.

    Every figure is rendered before a file is opened, and every one is
    written into a staging directory, made for this call inside
    ``output_dir``, before the first is renamed into place. A file already at
    a figure's path is first renamed aside into the staging directory; a
    directory there is left where it is, and the rename over it fails. On an
    ``OSError`` the figure files this call put in place are removed and the
    old files renamed back, so the directory is as it was; on success the old
    files are removed. Either way the staging directory then goes, and no
    file this call did not create is touched, whatever its name. An error
    names the output directory or a figure's file, never the staging
    directory, whose name is random. Returns each figure's ``pathlib.Path``.
    """
    # Here, so that a cold ``report`` imports neither.
    import tempfile
    from pathlib import Path

    output_dir = Path(output_dir)
    staged = [
        (f"{figure_id}.csv", _csv(*_figure_rows(report, figure_id)))
        for figure_id in dict.fromkeys(figure_ids)
    ]
    try:
        stage = Path(tempfile.mkdtemp(prefix=".ecometab-", dir=output_dir))
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(output_dir)) from exc
    placed: list[str] = []
    set_aside: list[str] = []
    try:
        for name, text in staged:
            with open(stage / name, "w", encoding="utf-8", newline="") as stream:
                stream.write(text)
        for name, _ in staged:
            path = output_dir / name
            if path.is_symlink() or (path.exists() and not path.is_dir()):
                os.replace(path, stage / f"{name}.bak")
                set_aside.append(name)
            os.replace(stage / name, path)
            placed.append(name)
    except OSError as exc:
        error = OSError(exc.errno, exc.strerror, os.fspath(output_dir / name))
        for name in placed:
            (output_dir / name).unlink(missing_ok=True)
        for name in set_aside:
            os.replace(stage / f"{name}.bak", output_dir / name)
        for name, _ in staged:
            (stage / name).unlink(missing_ok=True)
        stage.rmdir()
        raise error from exc
    for name in set_aside:
        (stage / f"{name}.bak").unlink()
    stage.rmdir()
    return [output_dir / name for name, _ in staged]


def emit_figure_data(report: Report, figure_id: str, output_dir: str | os.PathLike[str]):
    """Write one figure's data as ``<figure_id>.csv``, all or nothing; returns its ``Path``."""
    return _write_figures(report, (figure_id,), output_dir)[0]


# ---------------------------------------------------------------------------
# Command-line interface


class _ArgumentParser(argparse.ArgumentParser):
    """Raises usage errors, so ``main`` reports them like any other failure."""

    def error(self, message):
        # Some messages quote arguments verbatim; escape what would end the line.
        raise EcometabError("".join(c if c.isprintable() else ascii(c)[1:-1] for c in message))


def _path(text: str) -> str:
    # open() raises ValueError, not OSError, on a name with a NUL byte.
    if "\0" in text:
        raise argparse.ArgumentTypeError("path contains a NUL byte")
    return text


def _common_parser() -> argparse.ArgumentParser:
    """The options every subcommand takes, for its ``parents``."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--input", required=True, type=_path, help="ledger file to analyze")
    parser.add_argument("--from", dest="year_from", type=int, default=1997,
                        help="first year of the analysis window (default 1997)")
    parser.add_argument("--to", dest="year_to", type=int, default=2015,
                        help="last year of the analysis window (default 2015)")
    parser.add_argument("--alpha", type=float, default=0.05,
                        help="significance level for the allometry test (default 0.05)")
    parser.add_argument("--format", dest="output_format", choices=OUTPUT_FORMATS,
                        default="text", help="output format (default text)")
    parser.add_argument("--numerator", default="cost_of_personnel",
                        help="share numerator / allometric dependent item")
    parser.add_argument("--denominator", default="total_revenue",
                        help="share denominator / allometric explanatory item")
    parser.add_argument("--delimiter", default=",", help="input field delimiter")
    return parser


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="ecometab",
        description="Economic-metabolism analysis of income-statement time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "report": "run every analysis and print the full report",
        "trend": "OLS trend of items against calendar year",
        "metabolism": "yearly cost share of revenue",
        "growth": "arithmetic growth rates over the window",
        "allometric": "log-log power-law fit with growth classification",
        "crossover": "years where the cost shares trade places",
        "figures": "write figure-data CSV files",
        "validate": "report soft data issues in the ledger",
    }
    common = _common_parser()
    for name, help_text in descriptions.items():
        command = sub.add_parser(name, help=help_text, parents=[common])
        if name in ("trend", "growth"):
            command.add_argument("--item", dest="items", action="append",
                                 choices=MONEY_ITEMS,
                                 help="item to analyze (repeatable; default: "
                                      "total_revenue, cost_of_personnel, total_cost)")
        if name == "figures":
            command.add_argument("--figure", dest="figures", action="append",
                                 choices=FIGURE_IDS,
                                 help="figure id to emit (repeatable; default: all)")
            command.add_argument("--out-dir", dest="output_dir", type=_path,
                                 default=".",
                                 help="directory for figure-data files (default: .)")
    return parser


def _run_command(command: str, config: ReportConfig, args: argparse.Namespace) -> str:
    if command == "report":
        render = {"json": report_to_json, "csv": report_to_csv, "text": render_report_text}
        return render[args.output_format](run_report(config))
    report = Report(load_ledger(config), config)
    if command == "figures":
        paths = _write_figures(report, args.figures or FIGURE_IDS, args.output_dir)
        return "".join(f"{path}\n" for path in paths)
    for key, (subcommand, header, _, section) in _SECTIONS.items():
        if subcommand == command:
            payload, rows, text = section(report, False)
            if args.output_format == "json":
                return _json({key: payload()})
            return _csv(header, rows) if args.output_format == "csv" else text()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = ReportConfig(
            input_path=args.input,
            period=(args.year_from, args.year_to),
            numerator_item=args.numerator,
            denominator_item=args.denominator,
            alpha=args.alpha,
            delimiter=args.delimiter,
            trend_items=tuple(getattr(args, "items", None) or TREND_ITEMS),
        )
        sys.stdout.write(_run_command(args.command, config, args))
        return 0
    except (EcometabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
