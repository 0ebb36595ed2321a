"""Report assembly: every analysis over one window of one ledger.

``run_report`` parses the ledger file, cuts it to the configured year window
once, and runs each analysis on that window. Rendering lives in ``cli.py``.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from dataclasses import dataclass

from .errors import DomainError, EcometabError
from .ledger import (
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

    def __post_init__(self):
        if self.period[0] >= self.period[1]:
            raise DomainError(
                f"period start {self.period[0]} must be before end {self.period[1]}"
            )
        if not 0.0 < self.alpha < 1.0:
            raise DomainError("alpha must be in (0, 1)")
        if len(self.delimiter) != 1:
            raise DomainError(f"delimiter must be one character, got {self.delimiter!r}")


@dataclass(frozen=True)
class Report:
    """All analyses over one ledger, ready for rendering.

    ``ledger`` is the whole parsed file; ``window`` is its records inside
    ``config.period``, the data every analysis ran on.
    """

    trend_table: Mapping[str, RegressionFit]
    growth_table: Mapping[str, GrowthRate]
    allometric_table: AllometricFit
    metabolism_series: tuple[MetabolismPoint, ...]
    other_costs_share: tuple[MetabolismPoint, ...]
    crossings: tuple[Crossing, ...]
    mean_costs: CostProfile
    validation_findings: tuple[ValidationFinding, ...]
    ledger: LedgerSeries
    window: LedgerSeries
    config: ReportConfig


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
        return parse_ledger(
            stream, organization=_stem(config.input_path), delimiter=config.delimiter
        )


def growth_over(ledger: LedgerSeries, item: str) -> GrowthRate:
    """Arithmetic growth of ``item`` from the ledger's first year to its last."""
    series = extract_series(ledger, item)
    return arithmetic_growth(series, series.years[0], series.years[-1])


def share_series(points: tuple[MetabolismPoint, ...]) -> Series:
    return Series(tuple(p.year for p in points), tuple(p.share_percent for p in points))


def run_report(config: ReportConfig) -> Report:
    """Run every analysis; any failure names the analysis that caused it."""
    ledger = load_ledger(config)
    window = ledger.window(config.period)
    numerator, denominator = config.numerator_item, config.denominator_item

    def step(name, analysis, *args, **kwargs):
        try:
            return analysis(*args, **kwargs)
        except EcometabError as exc:
            raise EcometabError(f"{name}: {exc}") from exc

    trend_table = {item: step(f"trend[{item}]", trend_fit, window, item) for item in TREND_ITEMS}
    growth_table = {
        item: step(f"growth[{item}]", growth_over, window, item) for item in TREND_ITEMS
    }
    allometric_table = step(
        "allometric", allometric_fit, window, numerator, denominator, alpha=config.alpha
    )
    metabolism_series = step("metabolism", metabolism_index, window, numerator, denominator)
    other_costs_share = step(
        "metabolism[other_costs]", metabolism_index, window, "other_costs", denominator
    )
    crossings = step(
        "crossover",
        crossover_years,
        share_series(metabolism_series),
        share_series(other_costs_share),
    )
    mean_costs = step("mean_costs", mean_cost_profile, window)
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
        window=window,
        config=config,
    )
