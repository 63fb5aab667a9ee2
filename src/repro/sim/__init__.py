"""Simulation substrate: event loop, resources, latency calibration, stats."""

from .core import (
    Event,
    Process,
    SchedulerHook,
    SimError,
    Simulator,
    Timeout,
)
from .latency import CACHE_LINE, CostModel, LatencyConfig
from .resources import Pipe, RWLock
from .rng import WorkloadRng, ZipfGenerator
from .stats import (
    LatencyRecorder,
    TimeSeries,
    percentile,
)

__all__ = [
    "Event",
    "Process",
    "SchedulerHook",
    "SimError",
    "Simulator",
    "Timeout",
    "CACHE_LINE",
    "CostModel",
    "LatencyConfig",
    "Pipe",
    "RWLock",
    "WorkloadRng",
    "ZipfGenerator",
    "LatencyRecorder",
    "TimeSeries",
    "percentile",
]
