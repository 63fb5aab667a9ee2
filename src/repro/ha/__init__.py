"""Fleet-scale high availability: scenarios, policies, timelines.

``repro.ha`` layers fleet behaviour over the sharing protocol: rolling
crashes under live load, node join/leave with warm PolarRecv attach,
fusion-failover storms, and graceful degradation through a
deterministic retry/timeout/backoff policy with a circuit breaker.

Import note: the package root stays light — it re-exports only the leaf
``policy`` and ``timeline`` modules. Import the scenario engine (which
imports the bench harness, and through it the core) as
``repro.ha.scenarios``. Nothing in ``core`` imports from here: the
node's :class:`BackoffPolicy` lives in :mod:`repro.core.fusion`.
"""

from __future__ import annotations

from .policy import BackoffPolicy, CircuitBreaker
from .timeline import AvailabilityTimeline, Phase

__all__ = [
    "BackoffPolicy",
    "CircuitBreaker",
    "AvailabilityTimeline",
    "Phase",
]
