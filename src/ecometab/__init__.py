"""Economic-metabolism analysis of research-organization income statements.

Ingests annual income-statement time series (euro or pre-euro lira),
fits OLS trends with full inference, computes cost shares of revenue,
arithmetic growth rates, and log-log allometric fits with a growth
classification, and emits publication-style tables and figure data.
"""

from __future__ import annotations

from .errors import (
    AlignmentError,
    ConvergenceError,
    DegenerateRegressorError,
    DomainError,
    EcometabError,
    EmptyPeriodError,
    InsufficientDataError,
    MissingDataError,
    ParseError,
)
from .ledger import (
    COLUMNS,
    COST_ITEMS,
    LIRE_PER_EURO,
    MONEY_ITEMS,
    Currency,
    FiscalRecord,
    LedgerSeries,
    Series,
    ValidationFinding,
    extract_series,
    normalize_currency,
    normalize_ledger,
    parse_ledger,
    validate_ledger,
    write_ledger,
)
from .metabolism import (
    AllometricFit,
    AllometryClass,
    CostProfile,
    Crossing,
    GrowthRate,
    MetabolismPoint,
    allometric_fit,
    arithmetic_growth,
    classify_allometry,
    crossover_years,
    mean_cost_profile,
    metabolism_index,
    trend_fit,
)
from .stats import (
    Descriptives,
    RegressionFit,
    betainc,
    descriptives,
    ols_fit,
    p_value_f,
    p_value_t,
    significance_stars,
    t_critical,
)
from .report import Report, ReportConfig, run_report
from .cli import emit_figure_data, render_report_text, render_table, report_to_json

__version__ = "0.1.0"
