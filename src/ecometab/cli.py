"""Command-line front end and report assembly.

Subcommands run either the full report or one analysis over a ledger file
and emit text tables, machine-readable JSON/CSV, or figure-data files.
Text tables are a pure view; JSON carries every number at full precision,
so display rounding never feeds back into computation. Output is
deterministic: the same input file and configuration produce byte-identical
results. Figure files are written atomically (temp file, then rename).
"""

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Mapping

from .errors import DomainError, EcometabError
from .ledger import (
    MAIN_COST_ITEMS,
    MONEY_ITEMS,
    PERSONNEL_COMPONENTS,
    LedgerSeries,
    Series,
    ValidationFinding,
    extract_series,
    parse_ledger,
    validate_ledger,
)
from .metabolism import (
    AllometricFit,
    CostProfile,
    Crossing,
    GrowthRate,
    MetabolismPoint,
    allometric_fit,
    arithmetic_growth,
    crossover_years,
    mean_cost_profile,
    metabolism_index,
    trend_fit,
)
from .stats import RegressionFit, p_value_t, significance_stars

TREND_ITEMS = ("total_revenue", "cost_of_personnel", "total_cost")
# A fit's CSV fields: every field but the per-observation residuals.
_FIT_CSV_FIELDS = tuple(f.name for f in fields(RegressionFit) if f.name != "residuals")
FIGURE_IDS = ("fig1", "fig2", "fig3", "fig4", "figA1", "figA2", "figA3")
OUTPUT_FORMATS = ("text", "json", "csv")

# Published CNR cumulative growth rates 1997-2015 (cost of personnel and
# total revenue), kept as a fixed reference line in the cross-check section.
_REFERENCE_CUM_PERSONNEL = 1.6787
_REFERENCE_CUM_REVENUE = 1.1872


@dataclass(frozen=True)
class ReportConfig:
    """Everything a report run needs besides the data itself."""

    input_path: Path
    period: tuple[int, int] = (1997, 2015)
    numerator_item: str = "cost_of_personnel"
    denominator_item: str = "total_revenue"
    alpha: float = 0.05
    output_format: str = "text"
    output_dir: Path | None = None
    delimiter: str = ","

    def __post_init__(self):
        if self.period[0] >= self.period[1]:
            raise DomainError(
                f"period start {self.period[0]} must be before end {self.period[1]}"
            )
        if not 0.0 < self.alpha < 1.0:
            raise DomainError("alpha must be in (0, 1)")
        if self.output_format not in OUTPUT_FORMATS:
            raise DomainError(f"unknown output format '{self.output_format}'")
        if len(self.delimiter) != 1:
            raise DomainError(f"delimiter must be one character, got {self.delimiter!r}")


@dataclass(frozen=True)
class Report:
    """All analyses over one ledger, ready for rendering."""

    trend_table: Mapping[str, RegressionFit]
    growth_table: Mapping[str, GrowthRate]
    allometric_table: AllometricFit
    metabolism_series: tuple[MetabolismPoint, ...]
    other_costs_share: tuple[MetabolismPoint, ...]
    crossings: tuple[Crossing, ...]
    mean_costs: CostProfile
    validation_findings: tuple[ValidationFinding, ...]
    ledger: LedgerSeries
    config: ReportConfig


def _load_ledger(config: ReportConfig) -> LedgerSeries:
    with open(config.input_path, encoding="utf-8", newline="") as stream:
        return parse_ledger(
            stream, organization=Path(config.input_path).stem, delimiter=config.delimiter
        )


def _growth_over_period(
    ledger: LedgerSeries, item: str, period: tuple[int, int]
) -> GrowthRate:
    series = extract_series(ledger, item, period)
    return arithmetic_growth(series, series.years[0], series.years[-1])


def run_report(config: ReportConfig) -> Report:
    """Run every analysis; any failure names the analysis that caused it."""
    ledger = _load_ledger(config)
    period = config.period

    def step(name, fn):
        try:
            return fn()
        except EcometabError as exc:
            raise EcometabError(f"{name}: {exc}") from exc

    trend_table = {
        item: step(f"trend[{item}]", lambda item=item: trend_fit(ledger, item, period))
        for item in TREND_ITEMS
    }
    growth_table = {
        item: step(
            f"growth[{item}]", lambda item=item: _growth_over_period(ledger, item, period)
        )
        for item in TREND_ITEMS
    }
    allometric_table = step(
        "allometric",
        lambda: allometric_fit(
            ledger, config.numerator_item, config.denominator_item, period, config.alpha
        ),
    )
    metabolism_series = step(
        "metabolism",
        lambda: metabolism_index(
            ledger, config.numerator_item, config.denominator_item, period
        ),
    )
    other_costs_share = step(
        "metabolism[other_costs]",
        lambda: metabolism_index(ledger, "other_costs", config.denominator_item, period),
    )
    crossings = step(
        "crossover",
        lambda: crossover_years(
            _share_series(metabolism_series), _share_series(other_costs_share)
        ),
    )
    mean_costs = step("mean_costs", lambda: mean_cost_profile(ledger, period))
    return Report(
        trend_table=trend_table,
        growth_table=growth_table,
        allometric_table=allometric_table,
        metabolism_series=metabolism_series,
        other_costs_share=other_costs_share,
        crossings=crossings,
        mean_costs=mean_costs,
        validation_findings=tuple(validate_ledger(ledger)),
        ledger=ledger,
        config=config,
    )


def _share_series(points: tuple[MetabolismPoint, ...]) -> Series:
    return Series(tuple(p.year for p in points), tuple(p.share_percent for p in points))


# ---------------------------------------------------------------------------
# Rendering


def _fields(result) -> dict:
    """A result's fields by name in declaration order, shared, not copied.

    Enum members become their values; tuples, such as a fit's residuals,
    are passed on as they are.
    """
    payload = {}
    for field in fields(result):
        value = getattr(result, field.name)
        payload[field.name] = value.value if isinstance(value, Enum) else value
    return payload


def _json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _csv(header: list[str], rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _p_text(p: float) -> str:
    return "<0.001" if p < 0.001 else f"{p:.3f}"


def _intercept_p(fit: RegressionFit) -> float:
    if fit.exact_fit:
        return 0.0
    if fit.se_intercept == 0:
        return 1.0
    return p_value_t(fit.intercept / fit.se_intercept, fit.n - 2)


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


def render_table(fits: Mapping[str, RegressionFit], output_format: str = "text") -> str:
    """Render OLS fits as a table: estimate, (se), stars, std.coef, R2, F (p)."""
    if output_format == "json":
        return _json({item: _fields(fit) for item, fit in fits.items()})
    if output_format == "csv":
        return _csv(["item", "field", "value"], (
            [item, field, repr(getattr(fit, field))]
            for item, fit in fits.items() for field in _FIT_CSV_FIELDS
        ))
    if output_format != "text":
        raise DomainError(f"unknown output format '{output_format}'")
    rows = [("item", "intercept (se)", "slope (se)", "std.coef", "R2", "F (p)")]
    for item, fit in fits.items():
        flags = []
        if fit.degenerate:
            flags.append("degenerate")
        if fit.exact_fit:
            flags.append("exact fit")
        rows.append((
            item + (f" [{', '.join(flags)}]" if flags else ""),
            _coef_text(fit.intercept, fit.se_intercept, _intercept_p(fit)),
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
    lna_p = 0.0 if fit.exact_fit else (
        1.0 if fit.se_log_prefactor == 0
        else p_value_t(fit.log_prefactor / fit.se_log_prefactor, fit.n - 2)
    )
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


def _render_metabolism_text(report: Report) -> str:
    rows = [("year", report.config.numerator_item, "other_costs")]
    other = {p.year: p.share_percent for p in report.other_costs_share}
    for point in report.metabolism_series:
        rows.append((str(point.year), f"{point.share_percent:.2f}", f"{other[point.year]:.2f}"))
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
    growth_num = _growth_over_period(report.ledger, config.numerator_item, (first.year, last.year))
    growth_den = _growth_over_period(report.ledger, config.denominator_item, (first.year, last.year))
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
    parts = [
        f"Ledger: {ledger.organization or '(unnamed)'} "
        f"({len(ledger)} records, window {start}-{end}, EUR)",
        "",
        "Validation findings",
        _render_findings_text(report.validation_findings).rstrip("\n"),
        "",
        "Trend regressions (OLS on calendar year)",
        render_table(report.trend_table, "text").rstrip("\n"),
        "",
        "Arithmetic growth rates",
        _render_growth_text(report.growth_table).rstrip("\n"),
        "",
        "Allometric relation",
        _render_allometric_text(
            report.allometric_table, config.numerator_item, config.denominator_item
        ).rstrip("\n"),
        "",
        f"Cost share of {config.denominator_item} (percent)",
        _render_metabolism_text(report).rstrip("\n"),
        "",
        "Share crossovers",
        _render_crossings_text(report.crossings).rstrip("\n"),
        "",
        f"Mean cost profile {start}-{end}",
        _render_mean_costs_text(report.mean_costs).rstrip("\n"),
        "",
        "Cross-checks",
        _render_cross_checks(report).rstrip("\n"),
    ]
    return "\n".join(parts) + "\n"


def report_to_json(report: Report) -> str:
    """Full-precision JSON with fixed key order; byte-deterministic."""
    return _json({
        "trend": {item: _fields(fit) for item, fit in report.trend_table.items()},
        "growth": {item: _fields(rate) for item, rate in report.growth_table.items()},
        "allometric": _fields(report.allometric_table),
        "metabolism": {
            "numerator": report.config.numerator_item,
            "denominator": report.config.denominator_item,
            "points": [_fields(p) for p in report.metabolism_series],
            "other_costs_points": [_fields(p) for p in report.other_costs_share],
        },
        "crossings": [_fields(c) for c in report.crossings],
        "mean_costs": {
            "items": {item: _fields(d) for item, d in report.mean_costs.by_item.items()},
            "omitted": list(report.mean_costs.omitted),
        },
        "validation": [_fields(f) for f in report.validation_findings],
    })


def _report_rows(report: Report):
    numerator = report.config.numerator_item
    for item, fit in report.trend_table.items():
        for field in _FIT_CSV_FIELDS:
            yield ["trend", item, field, repr(getattr(fit, field))]
    for item, rate in report.growth_table.items():
        for field, value in _fields(rate).items():
            yield ["growth", item, field, repr(value)]
    for field, value in _fields(report.allometric_table).items():
        yield ["allometric", numerator, field, repr(value)]
    for point in report.metabolism_series:
        yield ["metabolism", numerator, str(point.year), repr(point.share_percent)]
    for point in report.other_costs_share:
        yield ["metabolism", "other_costs", str(point.year), repr(point.share_percent)]
    for crossing in report.crossings:
        yield ["crossings", f"{crossing.start_year}-{crossing.end_year}",
               "crossing_year", repr(crossing.crossing_year)]
    for item, d in report.mean_costs.by_item.items():
        for field, value in _fields(d).items():
            yield ["mean_costs", item, field, repr(value)]
    for finding in report.validation_findings:
        yield ["validation", finding.kind, str(finding.year), finding.message]


def report_to_csv(report: Report) -> str:
    """Long-format CSV: section,item,field,value at full precision."""
    return _csv(["section", "item", "field", "value"], _report_rows(report))


# ---------------------------------------------------------------------------
# Figure data files


def _figure_rows(report: Report, figure_id: str) -> tuple[list[str], list[list[str]]]:
    ledger = report.ledger
    period = report.config.period

    def column(item: str) -> Series:
        return extract_series(ledger, item, period)

    if figure_id == "fig1":
        header = ["item", "mean"]
        rows = [[item, repr(d.mean)] for item, d in report.mean_costs.by_item.items()]
        return header, rows
    if figure_id == "fig2":
        items = ["total_revenue", "cost_of_personnel"]
    elif figure_id == "fig3":
        items = ["total_revenue", "total_cost"]
    elif figure_id == "fig4":
        header = ["year", "m_personnel_percent", "m_other_costs_percent"]
        other = {p.year: p.share_percent for p in report.other_costs_share}
        rows = [
            [str(p.year), repr(p.share_percent), repr(other[p.year])]
            for p in report.metabolism_series
        ]
        return header, rows
    elif figure_id == "figA1":
        items = [i for i in MAIN_COST_ITEMS if i in report.mean_costs.by_item]
    elif figure_id == "figA2":
        items = list(PERSONNEL_COMPONENTS)
    elif figure_id == "figA3":
        items = ["cost_of_personnel", "other_costs"]
    else:
        raise DomainError(
            f"unknown figure id '{figure_id}' (expected one of {', '.join(FIGURE_IDS)})"
        )
    series = [column(item) for item in items]
    years = series[0].years
    header = ["year"] + items
    rows = [
        [str(year)] + [repr(s.values[i]) for s in series]
        for i, year in enumerate(years)
    ]
    return header, rows


def emit_figure_data(report: Report, figure_id: str, output_dir: Path) -> Path:
    """Write one figure's data as ``<figure_id>.csv``; returns the path.

    The file is written to a temporary name and renamed into place, so a
    failure never leaves a partial file behind.
    """
    text = _csv(*_figure_rows(report, figure_id))
    output_dir = Path(output_dir)
    path = output_dir / f"{figure_id}.csv"
    tmp_path = output_dir / f".{figure_id}.csv.tmp"
    try:
        with open(tmp_path, "w", encoding="utf-8", newline="") as stream:
            stream.write(text)
        os.replace(tmp_path, path)
    except OSError:
        tmp_path.unlink(missing_ok=True)
        raise
    return path


# ---------------------------------------------------------------------------
# Command-line interface


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, type=Path, help="ledger file to analyze")
    parser.add_argument("--from", dest="year_from", type=int, default=1997,
                        help="first year of the analysis window (default 1997)")
    parser.add_argument("--to", dest="year_to", type=int, default=2015,
                        help="last year of the analysis window (default 2015)")
    parser.add_argument("--alpha", type=float, default=0.05,
                        help="significance level for the allometry test (default 0.05)")
    parser.add_argument("--format", dest="output_format", choices=OUTPUT_FORMATS,
                        default="text", help="output format (default text)")
    parser.add_argument("--out-dir", dest="output_dir", type=Path,
                        help="directory for figure-data files (figures command)")
    parser.add_argument("--numerator", default="cost_of_personnel",
                        help="share numerator / allometric dependent item")
    parser.add_argument("--denominator", default="total_revenue",
                        help="share denominator / allometric explanatory item")
    parser.add_argument("--delimiter", default=",", help="input field delimiter")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    for name, help_text in descriptions.items():
        command = sub.add_parser(name, help=help_text)
        _add_common_arguments(command)
        if name in ("trend", "growth"):
            command.add_argument("--item", dest="items", action="append",
                                 choices=MONEY_ITEMS,
                                 help="item to analyze (repeatable; default: "
                                      "total_revenue, cost_of_personnel, total_cost)")
        if name == "figures":
            command.add_argument("--figure", dest="figures", action="append",
                                 choices=FIGURE_IDS,
                                 help="figure id to emit (repeatable; default: all)")
    return parser


def _config_from_args(args: argparse.Namespace) -> ReportConfig:
    return ReportConfig(
        input_path=args.input,
        period=(args.year_from, args.year_to),
        numerator_item=args.numerator,
        denominator_item=args.denominator,
        alpha=args.alpha,
        output_format=args.output_format,
        output_dir=args.output_dir,
        delimiter=args.delimiter,
    )


def _fits_output(payload_key: str, fits: Mapping[str, RegressionFit],
                 output_format: str) -> str:
    if output_format == "json":
        return _json({payload_key: {i: _fields(f) for i, f in fits.items()}})
    return render_table(fits, output_format)


def _run_command(command: str, config: ReportConfig, args: argparse.Namespace) -> str:
    if command == "report":
        report = run_report(config)
        if config.output_format == "json":
            return report_to_json(report)
        if config.output_format == "csv":
            return report_to_csv(report)
        return render_report_text(report)

    if command == "figures":
        report = run_report(config)
        output_dir = config.output_dir or Path(".")
        ids = tuple(args.figures) if getattr(args, "figures", None) else FIGURE_IDS
        for figure_id in ids:
            _figure_rows(report, figure_id)  # validate everything before writing
        paths = [emit_figure_data(report, figure_id, output_dir) for figure_id in ids]
        return "".join(f"{path}\n" for path in paths)

    ledger = _load_ledger(config)

    if command == "validate":
        findings = validate_ledger(ledger)
        return _render_findings_text(tuple(findings))

    if command == "trend":
        items = tuple(getattr(args, "items", None) or TREND_ITEMS)
        fits = {item: trend_fit(ledger, item, config.period) for item in items}
        return _fits_output("trend", fits, config.output_format)

    if command == "growth":
        items = tuple(getattr(args, "items", None) or TREND_ITEMS)
        growth = {item: _growth_over_period(ledger, item, config.period) for item in items}
        if config.output_format == "json":
            return _json({"growth": {i: _fields(g) for i, g in growth.items()}})
        if config.output_format == "csv":
            return _csv(["item", "field", "value"], (
                [item, field, repr(value)]
                for item, rate in growth.items() for field, value in _fields(rate).items()
            ))
        return _render_growth_text(growth)

    if command == "metabolism":
        points = metabolism_index(
            ledger, config.numerator_item, config.denominator_item, config.period
        )
        if config.output_format == "json":
            return _json({"metabolism": {
                "numerator": config.numerator_item,
                "denominator": config.denominator_item,
                "points": [_fields(p) for p in points],
            }})
        if config.output_format == "csv":
            return _csv(["year", "share_percent"],
                        ([p.year, repr(p.share_percent)] for p in points))
        rows = [("year", "share_percent")]
        rows += [(str(p.year), f"{p.share_percent:.2f}") for p in points]
        return _columns(rows) + "\n"

    if command == "allometric":
        fit = allometric_fit(
            ledger, config.numerator_item, config.denominator_item,
            config.period, config.alpha,
        )
        if config.output_format == "json":
            return _json({"allometric": _fields(fit)})
        if config.output_format == "csv":
            return _csv(["field", "value"],
                        ([field, repr(value)] for field, value in _fields(fit).items()))
        return _render_allometric_text(fit, config.numerator_item, config.denominator_item)

    if command == "crossover":
        personnel = metabolism_index(
            ledger, config.numerator_item, config.denominator_item, config.period
        )
        other = metabolism_index(ledger, "other_costs", config.denominator_item, config.period)
        crossings = crossover_years(_share_series(personnel), _share_series(other))
        if config.output_format == "json":
            return _json({"crossings": [_fields(c) for c in crossings]})
        if config.output_format == "csv":
            return _csv(["start_year", "end_year", "crossing_year"], (
                [c.start_year, c.end_year, repr(c.crossing_year)] for c in crossings
            ))
        return _render_crossings_text(crossings)

    raise DomainError(f"unknown command '{command}'")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        sys.stdout.write(_run_command(args.command, config, args))
        return 0
    except (EcometabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
