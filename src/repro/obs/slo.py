"""SLO burn-rate alerting and health timelines over scraped metrics.

Consumes what :mod:`repro.obs.metrics` publishes — nothing else. Three
layers:

* :class:`SLObjective` / :class:`SLOMonitor` — multi-window burn-rate
  alerting in the SRE-workbook style: an error budget (``1 -
  objective``) is burned by bad ops; an alert fires when both a fast
  window (pages fast on hard outages) and a slow window (suppresses
  one-off blips) burn faster than their thresholds, and clears when the
  fast window calms down. Because burn is measured over *served* ops,
  an alert can clear mid-incident when traffic stops entirely and
  re-fire on the next failure — exactly how production burn alerts
  behave, and why scenarios assert alignment over the whole run rather
  than one contiguous alert per incident.
* :class:`HealthTimeline` — per-entity healthy/degraded/wedged
  intervals derived *post-hoc* from the scraped series: a node or
  shard is wedged while its ``ha.failover_inflight`` gauge is up,
  degraded while a circuit breaker is open, and the fleet aggregates
  the worst of everything plus the bad-op rate.
* :func:`check_alignment` — the scenario oracle: alerts must fire
  during injected degradation, stay silent in steady state, and clear
  after recovery. Phases are duck-typed (``kind`` / ``start_ns`` /
  ``end_ns``) so this module never imports :mod:`repro.ha` — the
  dependency points the other way.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Protocol

from .metrics import LabelItems, MetricsPipeline, ScrapeWindow, Series

__all__ = [
    "Alert",
    "BREAKER_GAUGE",
    "FAILOVER_GAUGE",
    "HEALTH_STATES",
    "HealthInterval",
    "HealthTimeline",
    "SLObjective",
    "SLOMonitor",
    "check_alignment",
]

#: Gauge a failover/crash handler holds at 1 while a shard has no primary.
FAILOVER_GAUGE = "ha.failover_inflight"
#: Gauge a circuit breaker publishes: 0 closed, 0.5 half-open, 1 open.
BREAKER_GAUGE = "ha.breaker_open"

#: Ordered worst-last so ``max`` by index picks the sickest state.
HEALTH_STATES = ("healthy", "degraded", "wedged")


class PhaseLike(Protocol):
    """What :func:`check_alignment` needs from an availability phase."""

    @property
    def kind(self) -> str: ...

    @property
    def start_ns(self) -> int: ...

    @property
    def end_ns(self) -> Optional[int]: ...


@dataclass(frozen=True)
class SLObjective:
    """An availability objective over a result-labeled op-count series.

    The defaults encode "99.9% of fleet ops succeed", judged over the
    ``fleet.ops`` series the HA scenarios publish: ``ok``/``drained``
    spend no budget, ``failed``/``shed`` burn it. Window sizes are in
    scrape intervals; burn thresholds follow the workbook shape (a
    fast-and-slow pair must both exceed their threshold to page).
    """

    name: str = "fleet-availability"
    objective: float = 0.999
    series: str = "fleet.ops"
    result_label: str = "result"
    good_results: tuple[str, ...] = ("ok", "drained")
    bad_results: tuple[str, ...] = ("failed", "shed")
    fast_windows: int = 3
    slow_windows: int = 30
    fast_burn: float = 14.0
    slow_burn: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError("objective must be in (0, 1)")
        if self.fast_windows < 1 or self.slow_windows < self.fast_windows:
            raise ValueError("need 1 <= fast_windows <= slow_windows")

    @property
    def error_budget(self) -> float:
        return 1.0 - self.objective


@dataclass
class Alert:
    """One fired burn-rate alert; ``cleared_at_ns`` None while active."""

    objective: str
    fired_at_ns: float
    fast_burn: float
    slow_burn: float
    cleared_at_ns: Optional[float] = None

    @property
    def active(self) -> bool:
        return self.cleared_at_ns is None

    def to_dict(self) -> dict[str, Any]:
        return {
            "objective": self.objective,
            "fired_at_ns": self.fired_at_ns,
            "cleared_at_ns": self.cleared_at_ns,
            "fast_burn": round(self.fast_burn, 3),
            "slow_burn": round(self.slow_burn, 3),
        }


class SLOMonitor:
    """Multi-window burn-rate alerting, fed one scrape window at a time.

    Attach to a pipeline (:meth:`attach`) or feed
    :meth:`record_window` directly:

    >>> monitor = SLOMonitor(SLObjective(fast_windows=1, slow_windows=2))
    >>> bad = ScrapeWindow(100.0, {("fleet.ops", (("result", "failed"),)): 5.0})
    >>> monitor.record_window(bad)
    >>> monitor.firing is not None, len(monitor.alerts)
    (True, 1)
    >>> monitor.record_window(ScrapeWindow(200.0, {}))
    >>> monitor.firing is None, monitor.alerts[0].cleared_at_ns
    (True, 200.0)
    """

    def __init__(self, objective: Optional[SLObjective] = None) -> None:
        self.objective = objective if objective is not None else SLObjective()
        self.alerts: list[Alert] = []
        self.ticks = 0
        self.good_total = 0.0
        self.bad_total = 0.0
        self._recent: deque[tuple[float, float]] = deque(
            maxlen=self.objective.slow_windows
        )
        self._firing: Optional[Alert] = None

    @property
    def firing(self) -> Optional[Alert]:
        return self._firing

    def attach(self, pipeline: MetricsPipeline) -> "SLOMonitor":
        pipeline.add_listener(self.record_window)
        return self

    def record_window(self, window: ScrapeWindow) -> None:
        obj = self.objective
        good = sum(
            window.total(obj.series, (obj.result_label, result))
            for result in obj.good_results
        )
        bad = sum(
            window.total(obj.series, (obj.result_label, result))
            for result in obj.bad_results
        )
        self.ticks += 1
        self.good_total += good
        self.bad_total += bad
        self._recent.append((good, bad))
        fast = self.burn_rate(obj.fast_windows)
        slow = self.burn_rate(obj.slow_windows)
        if self._firing is None:
            if fast >= obj.fast_burn and slow >= obj.slow_burn:
                self._firing = Alert(obj.name, window.t_ns, fast, slow)
                self.alerts.append(self._firing)
        else:
            self._firing.fast_burn = max(self._firing.fast_burn, fast)
            self._firing.slow_burn = max(self._firing.slow_burn, slow)
            if fast < obj.fast_burn:
                self._firing.cleared_at_ns = window.t_ns
                self._firing = None

    def burn_rate(self, windows: int) -> float:
        """Budget-burn multiple over the last ``windows`` scrapes.

        ``(bad / served) / error_budget`` — 1.0 means burning exactly at
        budget; an idle stretch (nothing served) burns nothing.
        """
        recent = list(self._recent)[-windows:]
        good = sum(g for g, _ in recent)
        bad = sum(b for _, b in recent)
        served = good + bad
        if served <= 0.0:
            return 0.0
        return (bad / served) / self.objective.error_budget

    def to_dict(self) -> dict[str, Any]:
        return {
            "objective": self.objective.name,
            "target": self.objective.objective,
            "ticks": self.ticks,
            "good_total": self.good_total,
            "bad_total": self.bad_total,
            "alerts": [alert.to_dict() for alert in self.alerts],
        }

    def summary_lines(self) -> list[str]:
        served = self.good_total + self.bad_total
        ratio = self.good_total / served * 100.0 if served else 100.0
        lines = [
            f"  slo: {ratio:.3f}% good ({self.bad_total:.0f} bad / {served:.0f} served), "
            f"{len(self.alerts)} alert(s)"
        ]
        for alert in self.alerts:
            cleared = (
                f"cleared {alert.cleared_at_ns / 1e6:.3f} ms"
                if alert.cleared_at_ns is not None
                else "STILL FIRING"
            )
            lines.append(
                f"    alert fired {alert.fired_at_ns / 1e6:.3f} ms "
                f"(fast x{alert.fast_burn:.1f}, slow x{alert.slow_burn:.1f}), "
                f"{cleared}"
            )
        return lines


def check_alignment(
    monitor: SLOMonitor,
    phases: Iterable[PhaseLike],
    scrape_interval_ns: float,
) -> list[str]:
    """Alert-vs-availability-timeline oracle; returns problems (empty = ok).

    Rules, in the order a reviewer would ask them:

    * injected degradation (any bad op) must produce at least one alert;
    * a clean run (zero bad ops) must stay silent;
    * no alert may fire at or before the first non-``up`` phase starts;
    * every alert must fire inside some non-``up`` phase, allowing the
      slow window's width of detection lag past the phase end;
    * every alert must have cleared by end of run (recovery observed).
    """
    problems: list[str] = []
    alerts = monitor.alerts
    if monitor.bad_total > 0 and not alerts:
        problems.append(
            f"{monitor.bad_total:.0f} bad op(s) burned budget but no alert fired"
        )
    if monitor.bad_total == 0 and alerts:
        problems.append(f"{len(alerts)} alert(s) fired on a clean run")
    non_up = [phase for phase in phases if phase.kind != "up"]
    grace_ns = monitor.objective.slow_windows * scrape_interval_ns
    first_start = min((phase.start_ns for phase in non_up), default=None)
    for alert in alerts:
        fired = alert.fired_at_ns
        if first_start is None:
            break  # the clean-run rule above already flagged these
        if fired <= first_start:
            problems.append(
                f"alert fired at {fired:.0f} ns, before the first "
                f"degradation began at {first_start} ns"
            )
            continue
        covered = any(
            phase.start_ns < fired
            and fired
            <= (phase.end_ns if phase.end_ns is not None else fired) + grace_ns
            for phase in non_up
        )
        if not covered:
            problems.append(
                f"alert fired at {fired:.0f} ns outside every degraded phase "
                f"(+{grace_ns:.0f} ns detection grace)"
            )
        if alert.cleared_at_ns is None:
            problems.append(
                f"alert fired at {fired:.0f} ns never cleared by end of run"
            )
    return problems


# -- health timelines ---------------------------------------------------------


@dataclass(frozen=True)
class HealthInterval:
    """One contiguous stretch of one entity's health state."""

    entity: str
    state: str
    start_ns: float
    end_ns: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "entity": self.entity,
            "state": self.state,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
        }


def _render_entity(labels: LabelItems) -> str:
    return ",".join(f"{key}={value}" for key, value in labels) or "fleet"


class _Stepper:
    """Step-function view of a series: value as of a timestamp."""

    __slots__ = ("_samples", "_index", "_value")

    def __init__(self, series: Series) -> None:
        self._samples = list(series.samples)
        self._index = 0
        self._value = 0.0

    def value_at(self, t_ns: float) -> float:
        while self._index < len(self._samples) and self._samples[self._index][0] <= t_ns:
            self._value = self._samples[self._index][1]
            self._index += 1
        return self._value


class HealthTimeline:
    """Per-entity healthy/degraded/wedged intervals from scraped series.

    Entities are the label sets seen on ``ha.failover_inflight``
    (wedged while > 0) and ``ha.breaker_open`` (degraded while > 0)
    gauges, plus the synthetic ``fleet`` entity, which is wedged while
    *any* failover is in flight, degraded while any breaker is open or
    the bad-op rate is nonzero, and healthy otherwise. Intervals change
    state only at scrape stamps, so the timeline is as exact as the
    scrape interval.
    """

    def __init__(self, intervals: list[HealthInterval]) -> None:
        self.intervals = intervals

    @classmethod
    def derive(cls, pipeline: MetricsPipeline) -> "HealthTimeline":
        obj = SLObjective()
        wedge: dict[LabelItems, Series] = {}
        breaker: dict[LabelItems, Series] = {}
        bad_rates: list[Series] = []
        horizon = pipeline.epoch_ns
        stamps: set[float] = set()
        for series in pipeline.all_series():
            last = series.last()
            if last is not None:
                horizon = max(horizon, last[0])
            relevant = True
            if series.name == FAILOVER_GAUGE:
                wedge[series.labels] = series
            elif series.name == BREAKER_GAUGE:
                breaker[series.labels] = series
            elif series.name == obj.series and any(
                (obj.result_label, result) in series.labels
                for result in obj.bad_results
            ):
                bad_rates.append(series)
            else:
                relevant = False
            if relevant:
                stamps.update(t for t, _ in series.samples)
        entities: list[tuple[str, Optional[LabelItems]]] = [("fleet", None)]
        for labels in sorted(set(wedge) | set(breaker)):
            entities.append((_render_entity(labels), labels))
        ticks = sorted(stamps)
        intervals: list[HealthInterval] = []
        for entity, labels in entities:
            if labels is None:
                wedge_steps = [_Stepper(s) for s in wedge.values()]
                breaker_steps = [_Stepper(s) for s in breaker.values()]
                rate_steps = [_Stepper(s) for s in bad_rates]
            else:
                wedge_steps = [_Stepper(wedge[labels])] if labels in wedge else []
                breaker_steps = [_Stepper(breaker[labels])] if labels in breaker else []
                rate_steps = []
            state = "healthy"
            start = pipeline.epoch_ns
            for tick in ticks:
                if any(step.value_at(tick) > 0.0 for step in wedge_steps):
                    now_state = "wedged"
                elif any(step.value_at(tick) > 0.0 for step in breaker_steps) or any(
                    step.value_at(tick) > 0.0 for step in rate_steps
                ):
                    now_state = "degraded"
                else:
                    now_state = "healthy"
                if now_state != state:
                    if tick > start:
                        intervals.append(HealthInterval(entity, state, start, tick))
                    state = now_state
                    start = tick
            end = max(horizon, start)
            if end > start or not ticks:
                intervals.append(HealthInterval(entity, state, start, end))
        return cls(intervals)

    def entities(self) -> list[str]:
        seen: dict[str, None] = {}
        for interval in self.intervals:
            seen.setdefault(interval.entity)
        return list(seen)

    def states(self, entity: str) -> list[HealthInterval]:
        return [i for i in self.intervals if i.entity == entity]

    def worst(self, entity: str) -> str:
        rank = 0
        for interval in self.states(entity):
            rank = max(rank, HEALTH_STATES.index(interval.state))
        return HEALTH_STATES[rank]

    def to_dict(self) -> dict[str, Any]:
        return {
            "entities": {
                entity: [i.to_dict() for i in self.states(entity)]
                for entity in self.entities()
            }
        }

    def summary_lines(self) -> list[str]:
        """One arc per entity, in entity order: each state and its start."""
        return [
            f"  health {entity}: "
            + " -> ".join(
                f"{i.state} @{i.start_ns / 1e6:.3f}ms" for i in self.states(entity)
            )
            for entity in sorted(self.entities())
        ]
