"""Live metrics: labeled sim-time series on a fixed scrape interval.

The pipeline is the live half of ``repro.obs``: where the tracer and
span tracer record *what happened* for post-hoc analysis, the metrics
pipeline answers *what did the fleet look like over time* — windowed
rates, window-exact percentiles, and sampled gauges, all stamped at
exact multiples of a **simulated-time** scrape interval.

Installation mirrors :mod:`repro.obs.trace`: the same probe slot holds
the installed pipeline and every instrumented site does

.. code-block:: python

    mp = PROBES.metrics
    if mp is not None:
        mp.gauge("pipe.backlog_ns", pipe.backlog_ns, pipe=pipe.name)

so a disabled pipeline costs one slot load plus a ``None`` check.
Scrapes are *pulled* by whoever advances simulated time (the charge
settler, the HA fleet) via :meth:`MetricsPipeline.maybe_scrape`;
the pipeline never advances the clock and never emits trace events, so
installing it cannot shift a byte-pinned availability timeline.

Three instrument kinds feed one series store:

* :meth:`~MetricsPipeline.count` — accumulated per scrape window and
  published as a rate in events/second. An idle window publishes a
  single zero sample after the last nonzero one (the "zero edge"),
  then goes silent, so series stay compact over quiet stretches.
* :meth:`~MetricsPipeline.observe` — window-exact p50/p99/p999 over the
  samples observed inside the window, published under a ``q`` label;
  empty windows publish nothing.
* :meth:`~MetricsPipeline.gauge` — last-value-wins levels, sampled at
  scrape time and published only when the value changed (the first
  scrape after an :meth:`~MetricsPipeline.anchor` always publishes).

Counter *sources* (:meth:`MetricsPipeline.add_counter_source`) adapt
the cumulative :class:`~repro.obs.counters.CounterRegistry` world:
each scrape diffs a snapshot against the previous one and feeds the
deltas through the rate path above.

Every scrape publishes complete values with single assignments — a
reader (or a crash sweep) can never observe torn half-published state;
:meth:`MetricsPipeline.check_consistent` asserts the published
invariants (strictly increasing stamps, finite values) after injected
crashes.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from ..sim.stats import percentile
from .probes import PROBES

__all__ = [
    "LabelItems",
    "MetricsError",
    "MetricsPipeline",
    "QUANTILES",
    "ScrapeWindow",
    "Series",
    "SeriesKey",
    "format_metrics_dashboard",
    "series_id",
]

#: Sorted ``(key, value)`` pairs — the canonical form of a label set.
LabelItems = tuple[tuple[str, str], ...]
#: ``(name, labels)`` — how the pipeline indexes a series.
SeriesKey = tuple[str, LabelItems]

#: The quantiles every observation window publishes, as ``q`` labels.
QUANTILES: tuple[tuple[str, float], ...] = (
    ("p50", 50.0),
    ("p99", 99.0),
    ("p999", 99.9),
)


class MetricsError(Exception):
    """A published series violated the scrape invariants."""


def _label_items(labels: Mapping[str, object]) -> LabelItems:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def series_id(name: str, labels: LabelItems) -> str:
    """Stable display id: ``name{k=v,...}`` with label keys sorted.

    >>> series_id("fleet.ops", (("node", "n0"), ("result", "ok")))
    'fleet.ops{node=n0,result=ok}'
    >>> series_id("obs.trace_dropped", ())
    'obs.trace_dropped'
    """
    if not labels:
        return name
    inner = ",".join(f"{key}={value}" for key, value in labels)
    return f"{name}{{{inner}}}"


class Series:
    """One labeled time series: ``(t_ns, value)`` samples in a bounded ring.

    Overflow drops the *oldest* sample and is counted in
    :attr:`dropped` rather than silently discarded — the same
    accounting discipline as the tracer's event rings.
    """

    __slots__ = ("name", "labels", "samples", "dropped", "_capacity")

    def __init__(self, name: str, labels: LabelItems, capacity: int) -> None:
        self.name = name
        self.labels = labels
        self.samples: deque[tuple[float, float]] = deque(maxlen=capacity)
        self.dropped = 0
        self._capacity = capacity

    @property
    def id(self) -> str:
        return series_id(self.name, self.labels)

    def add(self, t_ns: float, value: float) -> None:
        if len(self.samples) == self._capacity:
            self.dropped += 1
        self.samples.append((t_ns, value))

    def last(self) -> Optional[tuple[float, float]]:
        return self.samples[-1] if self.samples else None

    def values(self) -> list[float]:
        return [value for _, value in self.samples]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Series({self.id!r}, {len(self.samples)} samples)"


@dataclass(frozen=True)
class ScrapeWindow:
    """One scrape's windowed counts, handed to listeners (the SLO monitor).

    ``counts`` holds the raw per-window amounts (not rates) for every
    count-instrument series touched inside the window; untouched series
    are simply absent (an absent key is a zero).
    """

    t_ns: float
    counts: Mapping[SeriesKey, float]

    def total(self, name: str, label: Optional[tuple[str, str]] = None) -> float:
        """Sum of window counts for ``name``, optionally filtered to
        series carrying the given ``(key, value)`` label pair."""
        out = 0.0
        for (series_name, labels), amount in self.counts.items():
            if series_name != name:
                continue
            if label is not None and label not in labels:
                continue
            out += amount
        return out


@dataclass
class _CounterSource:
    """A cumulative snapshot scraped into windowed deltas."""

    prefix: str
    snapshot: Callable[[], Mapping[str, float]]
    labels: LabelItems
    previous: dict[str, float]


class MetricsPipeline:
    """Labeled series scraped at exact multiples of a sim-time interval.

    Used as a context manager, installation is scoped exactly like the
    tracer's:

    >>> with MetricsPipeline(scrape_interval_ns=100.0) as mp:
    ...     PROBES.metrics is mp
    ...     mp.count("ops", 3.0, node="n0")
    ...     mp.maybe_scrape(50.0)    # first call only aligns the clock
    ...     mp.maybe_scrape(250.0)   # catches up: scrapes at 100 and 200
    True
    0
    2
    >>> PROBES.metrics is None
    True
    >>> [(s.id, list(s.samples)) for s in mp.all_series()]
    [('ops{node=n0}', [(100.0, 30000000.0), (200.0, 0.0)])]
    """

    def __init__(
        self,
        scrape_interval_ns: float = 100_000.0,
        max_samples_per_series: int = 1 << 12,
    ) -> None:
        if scrape_interval_ns <= 0:
            raise ValueError("scrape interval must be positive")
        if max_samples_per_series <= 0:
            raise ValueError("series capacity must be positive")
        self.scrape_interval_ns = float(scrape_interval_ns)
        self.max_samples_per_series = max_samples_per_series
        self.epoch_ns = 0.0
        self.scrapes = 0
        self.samples_published = 0
        self._next_due_ns = -1.0  # < 0: not yet aligned to the grid
        self._series: dict[SeriesKey, Series] = {}
        self._gauges: dict[SeriesKey, float] = {}
        self._gauge_published: dict[SeriesKey, float] = {}
        self._window_counts: dict[SeriesKey, float] = {}
        self._rate_last: dict[SeriesKey, float] = {}
        self._window_samples: dict[SeriesKey, list[float]] = {}
        self._sources: list[_CounterSource] = []
        self._listeners: list[Callable[[ScrapeWindow], None]] = []

    # -- instruments (only reached when the pipeline is installed) ---------------

    def gauge(self, name: str, value: float, **labels: object) -> None:
        """Set a level; sampled at scrape time, published on change."""
        self._gauges[(name, _label_items(labels))] = float(value)

    def count(self, name: str, amount: float = 1.0, **labels: object) -> None:
        """Accumulate into the current window; published as a rate."""
        key = (name, _label_items(labels))
        self._window_counts[key] = self._window_counts.get(key, 0.0) + amount

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Record a sample; published as window-exact p50/p99/p999."""
        key = (name, _label_items(labels))
        self._window_samples.setdefault(key, []).append(float(value))

    def add_counter_source(
        self,
        prefix: str,
        snapshot: Callable[[], Mapping[str, float]],
        **labels: object,
    ) -> None:
        """Scrape a cumulative counter snapshot into windowed rates.

        ``snapshot`` is called at every scrape; each key's increase
        since the previous scrape is credited to the window of series
        ``prefix + key`` carrying ``labels``.
        """
        self._sources.append(
            _CounterSource(prefix, snapshot, _label_items(labels), dict(snapshot()))
        )

    def add_listener(self, listener: Callable[[ScrapeWindow], None]) -> None:
        """Call ``listener`` with every :class:`ScrapeWindow`, even idle ones."""
        self._listeners.append(listener)

    def remove_listener(self, listener: Callable[[ScrapeWindow], None]) -> None:
        """Detach a listener (scenarios attach a fresh monitor per run)."""
        self._listeners.remove(listener)

    # -- the scrape clock --------------------------------------------------------

    def maybe_scrape(self, now_ns: float) -> int:
        """Catch the pipeline up to ``now_ns``; returns scrapes taken.

        Whoever advances simulated time calls this. One scrape fires at
        every interval multiple in ``(last_due, now_ns]``, each stamped
        at its exact grid point — never at ``now_ns`` itself, so the
        published timeline is independent of *when* time advances were
        observed, only of what happened inside each window. The very
        first call only aligns the clock to the next grid point.
        """
        if now_ns < self._next_due_ns:
            return 0
        if self._next_due_ns < 0.0:
            self._next_due_ns = self._align_after(now_ns)
            return 0
        taken = 0
        while now_ns >= self._next_due_ns:
            self._scrape_at(self._next_due_ns)
            self._next_due_ns += self.scrape_interval_ns
            taken += 1
        return taken

    def anchor(self, now_ns: float) -> None:
        """Start a fresh measurement epoch at ``now_ns``.

        Discards partial windows (their samples belong to no epoch),
        forgets zero edges, re-baselines every counter source, and
        re-publishes every gauge at the next scrape. Drivers call this
        where they rebind the span clock.
        """
        self.epoch_ns = now_ns
        self._next_due_ns = self._align_after(now_ns)
        self._window_counts.clear()
        self._window_samples.clear()
        self._rate_last.clear()
        self._gauge_published.clear()
        for source in self._sources:
            source.previous = dict(source.snapshot())

    def flush(self, now_ns: float) -> None:
        """Final catch-up plus one closing scrape on the next grid point.

        Drains whatever partial window is open at end of run; the
        closing scrape stays on the grid so every stamp in the timeline
        remains an exact interval multiple.
        """
        self.maybe_scrape(now_ns)
        if self._next_due_ns < 0.0:
            self._next_due_ns = self._align_after(now_ns)
        self._scrape_at(self._next_due_ns)
        self._next_due_ns += self.scrape_interval_ns

    def _align_after(self, now_ns: float) -> float:
        """The first grid point strictly after ``now_ns``."""
        interval = self.scrape_interval_ns
        return math.floor(now_ns / interval + 1.0) * interval

    # -- one scrape --------------------------------------------------------------

    def _scrape_at(self, t_ns: float) -> None:
        window = self._window_counts
        self._window_counts = {}
        # Cumulative counter sources -> window deltas (sorted for a
        # deterministic publish order regardless of snapshot dict order).
        for source in self._sources:
            current = source.snapshot()
            previous = source.previous
            for counter_name in sorted(current):
                delta = float(current[counter_name]) - previous.get(counter_name, 0.0)
                if delta != 0.0:
                    key = (source.prefix + counter_name, source.labels)
                    window[key] = window.get(key, 0.0) + delta
            source.previous = dict(current)
        # Self-observation: drop/abandon accounting from the other hooks.
        self._scrape_obs()
        # Gauges: publish on change (or first publish this epoch).
        published = self._gauge_published
        for key, value in self._gauges.items():
            if key not in published or published[key] != value:
                self._publish(key, t_ns, value)
                published[key] = value
        # Rates: window count / interval, one zero edge after the last
        # nonzero sample, then silence until the next nonzero window.
        interval_s = self.scrape_interval_ns / 1e9
        for key, amount in window.items():
            rate = amount / interval_s
            if amount != 0.0 or self._rate_last.get(key, 0.0) != 0.0:
                self._publish(key, t_ns, rate)
                self._rate_last[key] = rate
        for key, last_rate in list(self._rate_last.items()):
            if last_rate != 0.0 and key not in window:
                self._publish(key, t_ns, 0.0)
                self._rate_last[key] = 0.0
        # Window-exact percentiles over this window's observations.
        samples = self._window_samples
        self._window_samples = {}
        for (name, labels), values in samples.items():
            values.sort()
            for q_label, q in QUANTILES:
                q_key = (name, tuple(sorted(labels + (("q", q_label),))))
                self._publish(q_key, t_ns, percentile(values, q))
        self.scrapes += 1
        frozen = ScrapeWindow(t_ns, window)
        for listener in self._listeners:
            listener(frozen)

    def _scrape_obs(self) -> None:
        """Surface the other hooks' drop accounting as gauges.

        Published lazily: a drop counter that never leaves zero creates
        no series, but once nonzero it is tracked (including back to
        zero after a ring clear) like any other gauge.
        """
        tracer = PROBES.tracer
        if tracer is not None:
            self._gauge_nonzero("obs.trace_dropped", float(tracer.total_dropped))
        spans = PROBES.spans
        if spans is not None:
            self._gauge_nonzero("obs.spans_abandoned", float(spans.abandoned_total))
            self._gauge_nonzero("obs.span_costs_dropped", float(spans.dropped_costs))
        self._gauge_nonzero("obs.metrics_dropped", float(self.total_dropped))

    def _gauge_nonzero(self, name: str, value: float) -> None:
        key: SeriesKey = (name, ())
        if value != 0.0 or key in self._gauges:
            self._gauges[key] = value

    def _publish(self, key: SeriesKey, t_ns: float, value: float) -> None:
        series = self._series.get(key)
        if series is None:
            series = Series(key[0], key[1], self.max_samples_per_series)
            self._series[key] = series
        series.add(t_ns, round(value, 6))
        self.samples_published += 1

    # -- inspection --------------------------------------------------------------

    def all_series(self) -> list[Series]:
        """Every published series, ordered by ``(name, labels)``."""
        return [self._series[key] for key in sorted(self._series)]

    def get(self, name: str, **labels: object) -> Optional[Series]:
        return self._series.get((name, _label_items(labels)))

    @property
    def total_dropped(self) -> int:
        return sum(series.dropped for series in self._series.values())

    def check_consistent(self) -> None:
        """Assert no scrape published torn state.

        Every series must carry strictly increasing stamps and finite
        values. A scrape is a sequence of complete-value single
        assignments, so even an injected crash mid-run leaves every
        published sample whole — the fault sweeps call this after each
        crash to prove it.
        """
        for key in sorted(self._series):
            series = self._series[key]
            last_t = -math.inf
            for t_ns, value in series.samples:
                if t_ns <= last_t:
                    raise MetricsError(
                        f"{series.id}: non-monotonic stamp {t_ns} after {last_t}"
                    )
                if not (math.isfinite(t_ns) and math.isfinite(value)):
                    raise MetricsError(
                        f"{series.id}: non-finite sample ({t_ns}, {value})"
                    )
                last_t = t_ns

    def to_json(self) -> str:
        """Canonical JSON timeline — byte-stable for golden pinning."""
        ordered = self.all_series()
        payload = {
            "scrape_interval_ns": self.scrape_interval_ns,
            "scrapes": self.scrapes,
            "samples": self.samples_published,
            "dropped_samples": {s.id: s.dropped for s in ordered if s.dropped},
            "series": {s.id: [[t, v] for t, v in s.samples] for s in ordered},
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    # -- installation ------------------------------------------------------------

    def __enter__(self) -> "MetricsPipeline":
        return PROBES.install("metrics", self)

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        PROBES.uninstall("metrics", self)


# Rows of a metrics dashboard; the rest are counted, not drawn.
_DASHBOARD_SERIES = 40


def format_metrics_dashboard(pipeline: MetricsPipeline, title: str) -> str:
    """Render a scraped pipeline as per-series ASCII sparklines.

    One row per series (sorted by id, capped at ``_DASHBOARD_SERIES``):
    sparkline over the sampled window, last value, peak, and sample
    count. The header states the scrape interval and totals, so a
    dashboard is self-describing about its own resolution.
    """

    def cell(value: float) -> str:
        return f"{int(value):,}" if float(value).is_integer() else f"{value:.3f}"

    blocks = " ▁▂▃▄▅▆▇█"
    all_series = pipeline.all_series()
    rule = "=" * max(64, len(title) + 4)
    lines = [
        f"\n{rule}\n  {title}\n{rule}",
        (
            f"interval={pipeline.scrape_interval_ns / 1e3:.0f} us  "
            f"scrapes={pipeline.scrapes}  "
            f"samples={pipeline.samples_published}  "
            f"series={len(all_series)}  "
            f"dropped={pipeline.total_dropped}"
        ),
    ]
    shown = all_series[:_DASHBOARD_SERIES]
    width = max((len(series.id) for series in shown), default=0)
    for series in shown:
        values = series.values()
        peak = max((abs(v) for v in values), default=0.0)
        chars = "".join(
            blocks[min(8, int(9 * abs(value) / peak))] if peak else " "
            for value in values[-60:]
        )
        last = values[-1] if values else 0.0
        lines.append(
            f"{series.id.ljust(width)} [{chars}] "
            f"last={cell(last)} peak={cell(peak)} n={len(values)}"
        )
    if len(all_series) > len(shown):
        lines.append(f"... {len(all_series) - len(shown)} more series elided")
    return "\n".join(lines)
