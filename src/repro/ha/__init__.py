"""Fleet-scale high availability: scenarios, policies, timelines.

``repro.ha`` layers fleet behaviour over the sharing protocol: rolling
crashes under live load, node join/leave with warm PolarRecv attach,
fusion-failover storms, and graceful degradation through a
deterministic retry/timeout/backoff policy with a circuit breaker.

Import note: the package root stays light — it re-exports only the leaf
``policy`` and ``timeline`` modules eagerly and resolves the scenario
engine (which imports the bench harness, and through it the core)
lazily on first attribute access. Nothing in ``core`` imports from here:
the node's :class:`BackoffPolicy` lives in :mod:`repro.core.fusion`.
"""

from __future__ import annotations

from .policy import BackoffPolicy, CircuitBreaker
from .timeline import AvailabilityTimeline, Phase

__all__ = [
    "BackoffPolicy",
    "CircuitBreaker",
    "AvailabilityTimeline",
    "Phase",
    "run_rolling_crash",
    "run_join_leave",
    "run_failover_storm",
    "run_degraded_mode",
]

_SCENARIO_EXPORTS = frozenset(
    {
        "run_rolling_crash",
        "run_join_leave",
        "run_failover_storm",
        "run_degraded_mode",
    }
)


def __getattr__(name: str):
    if name in _SCENARIO_EXPORTS:
        from . import scenarios

        return getattr(scenarios, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
