"""Metrics: post-run analysis, cluster footprint, replication, reports."""

from .analysis import (
    BalanceStats,
    OffloadStats,
    QueueStats,
    balance_stats,
    offload_stats,
    queue_stats,
)
from .footprint import FootprintResult, footprint_from_curve
from .replication import Replicated, compare
from .timeline import device_timeline, legend
from .report import (
    ascii_bar_chart,
    format_series,
    format_table,
    percent_reduction,
)

__all__ = [
    "BalanceStats",
    "FootprintResult",
    "OffloadStats",
    "QueueStats",
    "Replicated",
    "balance_stats",
    "compare",
    "offload_stats",
    "queue_stats",
    "ascii_bar_chart",
    "device_timeline",
    "footprint_from_curve",
    "format_series",
    "format_table",
    "legend",
    "percent_reduction",
]
