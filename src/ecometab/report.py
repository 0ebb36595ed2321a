"""Report assembly: every analysis over one window of one ledger.

A ``Report`` holds a parsed ledger and its configuration; each section
runs its analysis through ``step``, on the window cut once from the ledger,
when it is first read. ``run_report`` reads every section in report order;
a subcommand reads only its own. Rendering lives in ``cli.py``.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

from .errors import DomainError, EcometabError
from .ledger import (
    LedgerSeries,
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
    ShareSeries,
    allometric_fit,
    arithmetic_growth,
    crossover_years,
    mean_cost_profile,
    metabolism_index,
    trend_fit,
)
from .stats import RegressionFit

TREND_ITEMS = ("total_revenue", "cost_of_personnel", "total_cost")


@dataclass(frozen=True)
class ReportConfig:
    """Everything a report run needs besides the data itself."""

    input_path: str | os.PathLike[str]
    period: tuple[int, int] = (1997, 2015)
    numerator_item: str = "cost_of_personnel"
    denominator_item: str = "total_revenue"
    alpha: float = 0.05
    delimiter: str = ","
    trend_items: tuple[str, ...] = TREND_ITEMS  # the trend and growth tables' rows

    def __post_init__(self):
        if self.period[0] >= self.period[1]:
            raise DomainError(
                f"period start {self.period[0]} must be before end {self.period[1]}"
            )
        if not 0.0 < self.alpha < 1.0:
            raise DomainError("alpha must be in (0, 1)")


# The report's sections in report order: ``run_report`` reads them in this
# order, so a failing report stops at the same analysis every time.
SECTIONS = ("trend_table", "growth_table", "allometric_table", "metabolism_series",
            "other_costs_share", "crossings", "mean_costs", "validation_findings")


def step(name: str, analysis, *args, **kwargs):
    """``analysis(*args, **kwargs)``; an error names the analysis: ``<name>: <message>``."""
    try:
        return analysis(*args, **kwargs)
    except EcometabError as exc:
        raise EcometabError(f"{name}: {exc}") from exc


@dataclass(frozen=True)
class Report:
    """The analyses of one ledger, each run through ``step`` when its section is first read.

    ``window`` is the ledger's records inside ``config.period``, the data of
    every analysis but validation, which covers the whole ledger. A section
    looks its analysis up by name when it runs, so rebinding one reaches it.
    """

    ledger: LedgerSeries
    config: ReportConfig

    @cached_property
    def window(self) -> LedgerSeries:
        return self.ledger.window(self.config.period)

    @cached_property
    def trend_table(self) -> Mapping[str, RegressionFit]:
        return {item: step(f"trend[{item}]", trend_fit, self.window, item)
                for item in self.config.trend_items}

    @cached_property
    def growth_table(self) -> Mapping[str, GrowthRate]:
        return {item: step(f"growth[{item}]", growth_over, self.window, item)
                for item in self.config.trend_items}

    @cached_property
    def allometric_table(self) -> AllometricFit:
        return step("allometric", allometric_fit, self.window, self.config.numerator_item,
                    self.config.denominator_item, alpha=self.config.alpha)

    @cached_property
    def metabolism_series(self) -> ShareSeries:
        return step("metabolism", metabolism_index, self.window, self.config.numerator_item,
                    self.config.denominator_item)

    @cached_property
    def other_costs_share(self) -> ShareSeries:
        return step("metabolism[other_costs]", metabolism_index, self.window, "other_costs",
                    self.config.denominator_item)

    @cached_property
    def crossings(self) -> tuple[Crossing, ...]:
        return step("crossover", crossover_years, self.metabolism_series, self.other_costs_share)

    @cached_property
    def mean_costs(self) -> CostProfile:
        return step("mean_costs", mean_cost_profile, self.window)

    @cached_property
    def validation_findings(self) -> tuple[ValidationFinding, ...]:
        return tuple(validate_ledger(self.ledger))


def _stem(path: str | os.PathLike[str]) -> str:
    """``pathlib.PurePath(path).stem`` of a path that names a file, without pathlib.

    The final component loses its last suffix: ``a.b.csv`` becomes ``a.b``,
    while ``ledger.`` and ``.hidden`` have none to lose.
    """
    name = os.path.basename(os.fspath(path))
    i = name.rfind(".")
    return name[:i] if 0 < i < len(name) - 1 else name


def load_ledger(config: ReportConfig) -> LedgerSeries:
    """Parse the configured file; the organization is named after the file's stem."""
    with open(config.input_path, encoding="utf-8", newline="") as stream:
        return parse_ledger(stream, organization=_stem(config.input_path),
                            delimiter=config.delimiter)


def growth_over(ledger: LedgerSeries, item: str) -> GrowthRate:
    """Arithmetic growth of ``item`` from the ledger's first year to its last."""
    series = extract_series(ledger, item)
    return arithmetic_growth(series, series.years[0], series.years[-1])


def run_report(config: ReportConfig) -> Report:
    """Run every analysis in report order; any failure names the analysis that caused it."""
    report = Report(load_ledger(config), config)
    for section in SECTIONS:
        getattr(report, section)
    return report
