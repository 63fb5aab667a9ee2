"""Experiment harness and per-figure experiment implementations."""

from .harness import register_metric_sources
from .microbench import (
    TABLE1_PAPER,
    TABLE2_PAPER,
    measure_load_latency,
    measure_transfer_latency,
    table1_rows,
    table2_rows,
)
from .recovery_exp import (
    RECOVERY_SCHEMES,
    RecoveryTimeline,
    run_recovery_experiment,
)
from .report import banner, format_series, format_table, improvement_pct

__all__ = [
    "register_metric_sources",
    "TABLE1_PAPER",
    "TABLE2_PAPER",
    "measure_load_latency",
    "measure_transfer_latency",
    "table1_rows",
    "table2_rows",
    "RECOVERY_SCHEMES",
    "RecoveryTimeline",
    "run_recovery_experiment",
    "banner",
    "format_series",
    "format_table",
    "improvement_pct",
]
