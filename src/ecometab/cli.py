"""Command-line front end and output formats.

Subcommands run either the full report (``report.py``) or one analysis over
the ledger's window and emit text tables, machine-readable JSON/CSV, or
figure-data files. A subcommand's JSON and CSV are its section of the full
report's. Text tables are a pure view; JSON carries every number at full
precision, so display rounding never feeds back into computation. Output is
deterministic: the same input file and configuration produce byte-identical
results. Figure files are all-or-nothing: each is written to a temp file,
and only when every one is written are they renamed into place.
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
from itertools import chain

from .errors import DomainError, EcometabError
from .ledger import (
    MAIN_COST_ITEMS,
    MONEY_ITEMS,
    PERSONNEL_COMPONENTS,
    LedgerSeries,
    ValidationFinding,
    extract_series,
    validate_ledger,
)
from .metabolism import (
    AllometricFit,
    CostProfile,
    Crossing,
    GrowthRate,
    MetabolismPoint,
    allometric_fit,
    crossover_years,
    metabolism_index,
    trend_fit,
)
from .report import (
    TREND_ITEMS,
    Report,
    ReportConfig,
    growth_over,
    load_ledger,
    run_report,
    share_series,
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
    elif isinstance(value, (list, tuple)):
        children, brackets = value, "[]"
    else:  # a scalar, or a type json rejects with its own TypeError
        out(_encode_at(depth)(value))
        return
    if not children:
        out(brackets)
        return
    outer, inner = "\n" + "  " * depth, "\n" + "  " * (depth + 1)
    types = set(map(type, children))
    if (brackets == "[]" and types == {dict} and all(children)
            and set(map(type, chain.from_iterable(map(dict.values, children)))) <= _SCALARS):
        # A list of flat records, encoded at the records' depth. ensure_ascii
        # escapes every newline in a string, so each "},\n" closes a record:
        # move the list's own separators and brackets out one level.
        deeper = "\n" + "  " * (depth + 2)
        text = _encode_at(depth + 1)(value)
        out("[" + inner + "{" + deeper)
        out(text[2:-2].replace("}," + deeper + "{", inner + "}," + inner + "{" + deeper))
        out(inner + "}" + outer + "]")
        return
    out(brackets[0] + inner)
    if types <= _SCALARS:
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


def _json(payload) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2)`` plus a newline, byte for byte.

    json encodes in C only without ``indent``, so each container is encoded
    in one C call and laid out by its separators: a flat one whole, a list
    of flat records whole, any other with its container children left to
    their own calls.
    """
    parts: list[str] = []
    _emit(payload, 0, parts.append)
    parts.append("\n")
    return "".join(parts)


def _csv(header: list[str], rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


# Section emitters: the full report passes its section (and item) as the
# row prefix; a subcommand's JSON and CSV are the same sections without it.


def _field_rows(result, *prefix: str):
    """A result's ``[*prefix, field, value]`` rows at full precision, residuals left out."""
    return (
        [*prefix, field, repr(value)]
        for field, value in _fields(result).items()
        if field != "residuals"
    )


def _table_json(table: Mapping) -> dict:
    return {key: _fields(result) for key, result in table.items()}


def _table_rows(table: Mapping, *prefix: str):
    return (row for key, result in table.items() for row in _field_rows(result, *prefix, key))


def _share_rows(points: tuple[MetabolismPoint, ...], *prefix: str):
    return ([*prefix, str(p.year), repr(p.share_percent)] for p in points)


def _finding_rows(findings: tuple[ValidationFinding, ...], *prefix: str):
    return ([*prefix, f.kind, str(f.year), f.message] for f in findings)


def _metabolism_json(config: ReportConfig, points: tuple[MetabolismPoint, ...]) -> dict:
    return {
        "numerator": config.numerator_item,
        "denominator": config.denominator_item,
        "points": [_fields(p) for p in points],
    }


def _p_text(p: float) -> str:
    return "<0.001" if p < 0.001 else f"{p:.3f}"


def _t_test_p(value: float, se: float, n: int, exact_fit: bool) -> float:
    """Two-sided p of ``value / se`` on n - 2 df: 0 for an exact fit, 1 if se is 0."""
    if exact_fit:
        return 0.0
    if se == 0:
        return 1.0
    return p_value_t(value / se, n - 2)


def _coef_text(value: float, se: float, p: float, decimals: int = 3) -> str:
    return f"{value:.{decimals}f}{significance_stars(p)} ({se:.{decimals}f})"


def _columns(rows: list[tuple[str, ...]]) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [row[0].ljust(widths[0])]
        cells += [cell.rjust(width) for cell, width in zip(row[1:], widths[1:])]
        lines.append("  " + "  ".join(cells).rstrip())
    return "\n".join(lines)


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
    return _columns(rows) + "\n"


def _render_growth_text(growth: Mapping[str, GrowthRate]) -> str:
    rows = [("item", "start_value", "end_value", "t_years", "r_per_year", "cumulative_pct")]
    for item, rate in growth.items():
        rows.append((
            item,
            f"{rate.start_value:.3f}",
            f"{rate.end_value:.3f}",
            str(rate.t_years),
            f"{rate.r_per_year:.6f}",
            f"{100.0 * rate.cumulative:.2f}",
        ))
    return _columns(rows) + "\n"


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


def _render_shares_text(columns: list[tuple[str, tuple[MetabolismPoint, ...]]]) -> str:
    """A year column, then one named column of shares per series over the same years."""
    rows = [("year", *(name for name, _ in columns))]
    for points in zip(*(points for _, points in columns)):
        rows.append((str(points[0].year), *(f"{p.share_percent:.2f}" for p in points)))
    return _columns(rows) + "\n"


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
        rows.append((item, str(d.n), f"{d.mean:.3f}", f"{d.sd:.3f}",
                     f"{d.minimum:.3f}", f"{d.maximum:.3f}"))
    text = _columns(rows) + "\n"
    if profile.omitted:
        text += f"  omitted (not reported every year): {', '.join(profile.omitted)}\n"
    return text


def _render_cross_checks(report: Report) -> str:
    points = report.metabolism_series
    first, last = points[0], points[-1]
    config = report.config
    # The report already holds the growth of every trend item over the window.
    growth_num, growth_den = (
        report.growth_table[item] if item in report.growth_table
        else growth_over(report.window, item)
        for item in (config.numerator_item, config.denominator_item)
    )
    share_ratio = last.share_percent / first.share_percent
    predicted = (1.0 + growth_num.cumulative) / (1.0 + growth_den.cumulative)
    reference = (1.0 + _REFERENCE_CUM_PERSONNEL) / (1.0 + _REFERENCE_CUM_REVENUE)
    lines = [
        f"  M({last.year})/M({first.year}) = {share_ratio:.4f}",
        f"  (1 + growth of {config.numerator_item})/(1 + growth of {config.denominator_item})"
        f" = {predicted:.4f}",
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


def render_report_text(report: Report) -> str:
    ledger = report.ledger
    config = report.config
    start, end = config.period
    sections = [
        ("Validation findings", _render_findings_text(report.validation_findings)),
        ("Trend regressions (OLS on calendar year)", render_table(report.trend_table)),
        ("Arithmetic growth rates", _render_growth_text(report.growth_table)),
        ("Allometric relation", _render_allometric_text(
            report.allometric_table, config.numerator_item, config.denominator_item
        )),
        (f"Cost share of {config.denominator_item} (percent)", _render_shares_text([
            (config.numerator_item, report.metabolism_series),
            ("other_costs", report.other_costs_share),
        ])),
        ("Share crossovers", _render_crossings_text(report.crossings)),
        (f"Mean cost profile {start}-{end}", _render_mean_costs_text(report.mean_costs)),
        ("Cross-checks", _render_cross_checks(report)),
    ]
    header = (f"Ledger: {ledger.organization or '(unnamed)'} "
              f"({len(ledger)} records, window {start}-{end}, EUR)\n")
    # Each section body ends in one newline; a blank line precedes each title.
    return header + "".join(f"\n{title}\n{body}" for title, body in sections)


def report_to_json(report: Report) -> str:
    """Full-precision JSON with fixed key order; byte-deterministic."""
    return _json({
        "trend": _table_json(report.trend_table),
        "growth": _table_json(report.growth_table),
        "allometric": _fields(report.allometric_table),
        "metabolism": {
            **_metabolism_json(report.config, report.metabolism_series),
            "other_costs_points": [_fields(p) for p in report.other_costs_share],
        },
        "crossings": [_fields(c) for c in report.crossings],
        "mean_costs": {
            "items": _table_json(report.mean_costs.by_item),
            "omitted": list(report.mean_costs.omitted),
        },
        "validation": [_fields(f) for f in report.validation_findings],
    })


def _report_rows(report: Report):
    numerator = report.config.numerator_item
    yield from _table_rows(report.trend_table, "trend")
    yield from _table_rows(report.growth_table, "growth")
    yield from _field_rows(report.allometric_table, "allometric", numerator)
    yield from _share_rows(report.metabolism_series, "metabolism", numerator)
    yield from _share_rows(report.other_costs_share, "metabolism", "other_costs")
    for c in report.crossings:
        yield ["crossings", f"{c.start_year}-{c.end_year}", "crossing_year", repr(c.crossing_year)]
    yield from _table_rows(report.mean_costs.by_item, "mean_costs")
    yield from _finding_rows(report.validation_findings, "validation")


def report_to_csv(report: Report) -> str:
    """Long-format CSV: section,item,field,value at full precision."""
    return _csv(["section", "item", "field", "value"], _report_rows(report))


# ---------------------------------------------------------------------------
# Figure data files


def _figure_rows(report: Report, figure_id: str) -> tuple[list[str], list[list[str]]]:
    if figure_id == "fig1":
        return ["item", "mean"], [
            [item, repr(d.mean)] for item, d in report.mean_costs.by_item.items()
        ]
    if figure_id == "fig4":
        names = ["m_personnel_percent", "m_other_costs_percent"]
        columns = [share_series(report.metabolism_series), share_series(report.other_costs_share)]
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
    rows = [
        [str(year), *(repr(value) for value in values)]
        for year, *values in zip(columns[0].years, *(c.values for c in columns))
    ]
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
    file this call did not create is touched, whatever its name. Returns each
    figure's ``pathlib.Path``.
    """
    # Here, so that a cold ``report`` imports neither.
    import tempfile
    from pathlib import Path

    output_dir = Path(output_dir)
    staged = [
        (f"{figure_id}.csv", _csv(*_figure_rows(report, figure_id)))
        for figure_id in dict.fromkeys(figure_ids)
    ]
    stage = Path(tempfile.mkdtemp(prefix=".ecometab-", dir=output_dir))
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
    except OSError:
        for name in placed:
            (output_dir / name).unlink(missing_ok=True)
        for name in set_aside:
            os.replace(stage / f"{name}.bak", output_dir / name)
        for name, _ in staged:
            (stage / name).unlink(missing_ok=True)
        stage.rmdir()
        raise
    for name in set_aside:
        (stage / f"{name}.bak").unlink()
    stage.rmdir()
    return [output_dir / f"{figure_id}.csv" for figure_id in figure_ids]


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


def _analysis(command: str, ledger: LedgerSeries, config: ReportConfig, args):
    """One analysis: (JSON payload, CSV header, CSV rows, text).

    Validation covers the whole ledger, as in the report; every other
    analysis runs on the window.
    """
    if command == "validate":
        findings = tuple(validate_ledger(ledger))
        return ({"validation": [_fields(f) for f in findings]}, ["kind", "year", "message"],
                _finding_rows(findings), lambda: _render_findings_text(findings))
    window = ledger.window(config.period)
    numerator, denominator = config.numerator_item, config.denominator_item
    if command in ("trend", "growth"):
        analyze, render = ((trend_fit, render_table) if command == "trend"
                           else (growth_over, _render_growth_text))
        table = {item: analyze(window, item) for item in args.items or TREND_ITEMS}
        return ({command: _table_json(table)}, ["item", "field", "value"],
                _table_rows(table), lambda: render(table))
    if command == "allometric":
        fit = allometric_fit(window, numerator, denominator, alpha=config.alpha)
        return ({"allometric": _fields(fit)}, ["field", "value"], _field_rows(fit),
                lambda: _render_allometric_text(fit, numerator, denominator))
    points = metabolism_index(window, numerator, denominator)
    if command == "metabolism":
        return ({"metabolism": _metabolism_json(config, points)},
                ["year", "share_percent"], _share_rows(points),
                lambda: _render_shares_text([("share_percent", points)]))
    other = metabolism_index(window, "other_costs", denominator)
    crossings = crossover_years(share_series(points), share_series(other))
    return ({"crossings": [_fields(c) for c in crossings]},
            ["start_year", "end_year", "crossing_year"],
            ([c.start_year, c.end_year, repr(c.crossing_year)] for c in crossings),
            lambda: _render_crossings_text(crossings))


def _run_command(command: str, config: ReportConfig, args: argparse.Namespace) -> str:
    if command == "report":
        render = {"json": report_to_json, "csv": report_to_csv, "text": render_report_text}
        return render[args.output_format](run_report(config))
    if command == "figures":
        paths = _write_figures(run_report(config), args.figures or FIGURE_IDS, args.output_dir)
        return "".join(f"{path}\n" for path in paths)
    payload, header, rows, text = _analysis(command, load_ledger(config), config, args)
    if args.output_format == "json":
        return _json(payload)
    if args.output_format == "csv":
        return _csv(header, rows)
    return text()


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
        )
        sys.stdout.write(_run_command(args.command, config, args))
        return 0
    except (EcometabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
