"""The fault injector and the crash-point hook.

Every crash-vulnerable instant in the engine is marked by a **named
crash point**: a call to :func:`crash_point` (or, on paths that also
need torn-write behaviour, ``PROBES.injector.point(name, torn=...)``).
With no injector installed the hook is a no-op — the injector lives in
the same probe slot (:data:`repro.obs.probes.PROBES`) as the other four
instruments; with one installed it counts the
hit, records it in the trace, and — if the injector is armed at exactly
this (point, hit) — simulates the power failing *right there* by raising
:class:`InjectedCrash` out of the engine code.

Determinism is the whole design: points are identified by ``(name,
hit_index)``, so "crash at the 3rd LRU relink" is a stable coordinate
across runs of the same seeded workload. Torn behaviour (a partial page
write, a partial cache-line flush) draws from the injector's own seeded
RNG, never from global state.

The injector also models *service* faults that do not kill the caller:
:meth:`FaultInjector.fail_rpcs` arms a named RPC to fail the next N
calls, which is how fusion-server failover (timeout/retry/backoff on
the node side) is exercised.
"""

from __future__ import annotations

import random
from types import TracebackType
from typing import Callable, Optional

from ..obs.probes import PROBES

__all__ = ["FaultInjector", "InjectedCrash", "crash_point"]

# Sentinel count for an RPC outage: fails every call until restored.
# Negative so it can never collide with a valid fail_rpcs() count.
_UNLIMITED = -1


class InjectedCrash(Exception):
    """The simulated power failed at a named crash point.

    Deliberately *not* derived from the engine's error types: nothing in
    the engine may catch and survive it — it must always propagate to
    the harness, exactly like a real power loss ends the process.
    """

    def __init__(self, point: str, hit: int) -> None:
        super().__init__(f"injected crash at {point!r} (hit {hit})")
        self.point = point
        self.hit = hit


class FaultInjector:
    """Counts crash-point hits; crashes at an armed (point, hit) pair.

    >>> injector = FaultInjector().arm("demo.point", hit=2)
    >>> with injector:
    ...     crash_point("demo.point")   # first hit: recorded, survives
    ...     crash_point("demo.point")   # armed hit: the power fails here
    Traceback (most recent call last):
        ...
    repro.faults.injector.InjectedCrash: injected crash at 'demo.point' (hit 2)
    >>> injector.trace
    [('demo.point', 1), ('demo.point', 2)]
    >>> PROBES.injector is None         # the context manager uninstalled
    True

    Modes, freely combined:

    * **trace** (always on): every hit is appended to :attr:`trace` as
      ``(name, hit_index)`` — the enumeration pass of the sweep.
    * **crash-at-point**: :meth:`arm` fires at the Nth hit of one name.
    * **crash-after-total**: :meth:`arm_after_total` fires at the Nth
      hit counted across *all* points.
    * **RPC faults**: :meth:`fail_rpcs` makes a named RPC fail its next
      N calls (the caller raises its own domain error and retries).
    """

    def __init__(self, seed: int = 0xFA17) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.hits: dict[str, int] = {}
        self.trace: list[tuple[str, int]] = []
        self.fired: Optional[tuple[str, int]] = None
        self.rpc_failures_injected = 0
        self._armed: Optional[tuple[str, int]] = None
        self._armed_total: Optional[int] = None
        self._total_hits = 0
        self._rpc_failures: dict[str, int] = {}

    # -- arming --------------------------------------------------------------------

    def arm(self, name: str, hit: int = 1) -> "FaultInjector":
        """Crash at the ``hit``-th time (1-based) ``name`` is reached."""
        if hit < 1:
            raise ValueError("hit index is 1-based")
        self._armed = (name, hit)
        return self

    def arm_after_total(self, total_hits: int) -> "FaultInjector":
        """Crash at the ``total_hits``-th crash point reached overall."""
        if total_hits < 1:
            raise ValueError("total hit index is 1-based")
        self._armed_total = total_hits
        return self

    def resume_after(self, hits: dict[str, int]) -> "FaultInjector":
        """Count on from ``hits`` (point name -> hits so far): the workload
        already ran, unobserved, up to a boundary where a passive
        injector had counted exactly these.

        (point, hit) coordinates and :meth:`arm_after_total` keep their
        meaning from then on; :attr:`trace` starts at the boundary, and
        :attr:`rng` — drawn from only when a torn crash fires — is
        untouched.
        """
        self.hits = dict(hits)
        self._total_hits = sum(hits.values())
        return self

    def disarm(self) -> None:
        self._armed = None
        self._armed_total = None

    def fail_rpcs(self, name: str, count: int) -> "FaultInjector":
        """Make the named RPC fail its next ``count`` calls."""
        if count < 0:
            raise ValueError("failure count must be non-negative")
        self._rpc_failures[name] = count
        return self

    def outage_rpcs(self, name: str) -> "FaultInjector":
        """Make the named RPC fail *every* call until :meth:`restore_rpcs`.

        Models a dead service (fusion-server death) rather than a lossy
        link: callers exhaust their retry budgets against it, which is
        what drives the circuit breaker in the HA degraded-mode
        scenarios.
        """
        self._rpc_failures[name] = _UNLIMITED
        return self

    def restore_rpcs(self, name: str) -> None:
        """End an RPC outage (or cancel remaining armed failures)."""
        self._rpc_failures.pop(name, None)

    # -- the hot-path hooks ---------------------------------------------------------

    def point(
        self,
        name: str,
        torn: Optional[Callable[[random.Random], None]] = None,
    ) -> None:
        """Record a hit of ``name``; crash here if armed for it.

        ``torn``, when provided, is the point's partial-effect callback:
        it runs (with the injector's RNG) only when the crash actually
        fires at this hit, leaving genuinely torn state behind — e.g. a
        sector-granular partial page image — before the crash raises.
        """
        count = self.hits.get(name, 0) + 1
        self.hits[name] = count
        self._total_hits += 1
        self.trace.append((name, count))
        fire = self._armed == (name, count) or self._armed_total == self._total_hits
        if fire:
            self.fired = (name, count)
            if torn is not None:
                torn(self.rng)
            raise InjectedCrash(name, count)

    def take_rpc_failure(self, name: str) -> bool:
        """Whether this call of the named RPC should fail (and consume it)."""
        remaining = self._rpc_failures.get(name, 0)
        if remaining == 0:
            return False
        if remaining != _UNLIMITED:
            self._rpc_failures[name] = remaining - 1
        self.rpc_failures_injected += 1
        return True

    # -- installation ----------------------------------------------------------------

    def __enter__(self) -> "FaultInjector":
        return PROBES.install("injector", self)

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        PROBES.uninstall("injector", self)


def crash_point(name: str, hits: int = 1) -> None:
    """Hot-path hook: one slot load + None check when inactive.

    ``hits`` consecutive hits of ``name`` are recorded one by one, for a
    loop whose iterations between two state changes collapse into one
    call (``clflush`` over the absent lines of a range): hit counts, the
    trace and the ``(point, hit)`` an armed crash fires at are exactly
    what ``hits`` separate calls produce.

    >>> with FaultInjector().arm("demo.line", hit=3) as injector:
    ...     crash_point("demo.line", hits=5)
    Traceback (most recent call last):
        ...
    repro.faults.injector.InjectedCrash: injected crash at 'demo.line' (hit 3)
    >>> injector.trace
    [('demo.line', 1), ('demo.line', 2), ('demo.line', 3)]
    """
    injector = PROBES.injector
    if injector is not None:
        if hits < 0:
            raise ValueError("hit count must be non-negative")
        for _ in range(hits):
            injector.point(name)
