"""Regeneration of the paper's tables and figures."""

from .aggregate import (LongitudinalStudy, MeanWithCi, mean_with_ci,
                        t_critical_95)
from ..core.report import format_table
from .render import (
    bar_chart,
    series_chart,
    sparkline,
    stacked_shares,
)
from .figures import (
    FigureResult,
    fig5a,
    fig5b,
    fig6,
    fig7,
    fig8,
    fig9,
    fig13,
    fig16,
    fig17,
    per_as_figure,
)
from .tables import TableResult, table1, table2
from .experiments import (
    ALL_ARTIFACTS,
    FOCUS_ASES,
    Study,
    regenerate,
    run_longitudinal_study,
)
from .flightreport import flight_report, flight_report_data, load_trace

__all__ = [
    "LongitudinalStudy",
    "MeanWithCi",
    "mean_with_ci",
    "t_critical_95",
    "bar_chart",
    "format_table",
    "series_chart",
    "sparkline",
    "stacked_shares",
    "FigureResult",
    "fig5a",
    "fig5b",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig13",
    "fig16",
    "fig17",
    "per_as_figure",
    "TableResult",
    "table1",
    "table2",
    "ALL_ARTIFACTS",
    "FOCUS_ASES",
    "Study",
    "regenerate",
    "run_longitudinal_study",
    "flight_report",
    "flight_report_data",
    "load_trace",
]
