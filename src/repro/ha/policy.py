"""Deterministic retry/timeout/backoff policy for fusion/DBP RPCs.

The node side of the sharing protocol talks to the buffer fusion server
over RPCs that can be lost (server restart, partition, fusion-server
death). This module packages the degradation behaviour as data:

* :class:`BackoffPolicy` — capped exponential backoff with a per-op
  total time budget. Each lost RPC burns the timeout plus a backoff
  that doubles up to a cap; once the attempt or time budget is spent
  the caller surfaces a typed
  :class:`~repro.core.fusion.RpcExhaustedError` instead of retrying
  forever. It is defined beside that error in :mod:`repro.core.fusion`
  (the sharing node is its user; ``core`` imports nothing from ``ha``)
  and re-exported here.
* :class:`CircuitBreaker` — the fleet-level graceful-degradation gate.
  After ``failure_threshold`` consecutive exhausted RPCs the breaker
  opens: writes are shed to a drainable backlog (degraded read-only
  mode) instead of burning full timeout budgets against a dead shard.
  After ``cooldown_ns`` of simulated time a single probe is allowed
  (half-open); its outcome closes or re-opens the breaker.

Everything is driven by simulated time passed in by the caller — no
wall clocks, no global randomness (REPRO001) — so every HA scenario is
a deterministic function of its seed.

>>> policy = BackoffPolicy(timeout_ns=1e6, base_backoff_ns=5e5, max_attempts=4)
>>> [policy.next_wait_ns(k, 0.0) for k in (1, 2, 3, 4)]
[1500000.0, 2000000.0, 3000000.0, None]
"""

from __future__ import annotations

from ..core.fusion import BackoffPolicy
from ..obs.probes import PROBES

__all__ = ["BackoffPolicy", "CircuitBreaker"]

# Breaker state as a gauge level: half-open publishes between the two
# extremes so a dashboard shows the probe phase distinctly.
_STATE_LEVELS = {"closed": 0.0, "half_open": 0.5, "open": 1.0}


class CircuitBreaker:
    """Consecutive-failure circuit breaker over simulated time.

    States: ``closed`` (normal), ``open`` (shedding), ``half_open``
    (one probe in flight). The caller passes ``now_ns`` (its simulator
    clock) into every transition method; the breaker itself holds no
    clock, keeping it reproducible and REPRO001-clean.

    >>> breaker = CircuitBreaker(failure_threshold=2, cooldown_ns=1000)
    >>> breaker.on_failure(now_ns=0); breaker.state
    'closed'
    >>> breaker.on_failure(now_ns=10); breaker.state
    'open'
    >>> breaker.allows(now_ns=500)
    False
    >>> breaker.allows(now_ns=1500), breaker.state
    (True, 'half_open')
    >>> breaker.on_success(); breaker.state
    'closed'
    """

    def __init__(
        self,
        failure_threshold: int = 2,
        cooldown_ns: float = 20_000_000.0,
        name: str = "breaker",
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        self.failure_threshold = failure_threshold
        self.cooldown_ns = cooldown_ns
        self.name = name
        self.state = "closed"
        self.opens = 0
        self.probes = 0
        self._consecutive = 0
        self._opened_at_ns = 0.0

    def _set_state(self, state: str) -> None:
        self.state = state
        mp = PROBES.metrics
        if mp is not None:
            mp.gauge("ha.breaker_open", _STATE_LEVELS[state], breaker=self.name)

    def allows(self, now_ns: float) -> bool:
        """Whether an op may be attempted now; may go half-open."""
        if self.state == "closed":
            return True
        if self.state == "half_open":
            # One probe at a time: further ops stay shed until it lands.
            return False
        if now_ns - self._opened_at_ns >= self.cooldown_ns:
            self._set_state("half_open")
            self.probes += 1
            return True
        return False

    def on_success(self) -> None:
        """An attempted op succeeded; a half-open probe closes the breaker."""
        self._consecutive = 0
        if self.state == "half_open":
            self._set_state("closed")

    def on_failure(self, now_ns: float) -> None:
        """An attempted op exhausted its RPC budget."""
        self._consecutive += 1
        if self.state == "half_open" or self._consecutive >= self.failure_threshold:
            if self.state != "open":
                self.opens += 1
            self._set_state("open")
            self._consecutive = 0
            self._opened_at_ns = now_ns
