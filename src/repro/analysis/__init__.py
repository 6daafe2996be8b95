"""Analysis helpers: normalisation and ASCII rendering."""

from repro.analysis.metrics import (
    MeasuredBar,
    extrapolate_transient_overhead,
    normalized_performance,
)
from repro.analysis.tables import ascii_bar_chart, format_table

__all__ = [
    "MeasuredBar",
    "normalized_performance",
    "extrapolate_transient_overhead",
    "format_table",
    "ascii_bar_chart",
]
