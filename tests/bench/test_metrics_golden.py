"""The scraped metrics timeline of a fixed HA scenario is byte-stable.

The rolling-crash scenario runs under its own
:class:`~repro.obs.metrics.MetricsPipeline` at the default 100 us
scrape interval, and the full telemetry document — every series'
stamped samples plus the SLO monitor's fired-alert sequence, both read
from the :class:`~repro.ha.scenarios.FleetResult` — is serialized as
canonical JSON and pinned under
``benchmarks/results/metrics_timeline_golden.json``. Re-running must
reproduce the pinned file **byte for byte**, and the same run under a
caller's pipeline must publish the same document.

Where the availability-timeline golden locks *what the fleet did*,
this one locks *what the telemetry said about it*: scrape grid
alignment, counter-source deltas, zero-edge compaction, gauge
change-detection, window-exact quantiles, and burn-rate alert fire /
clear stamps. A new instrumented call site, a changed label, or a
drifted scrape all show up as a one-line diff here.

Regenerate after an intentional behaviour change with::

    PYTHONPATH=src python -m tests.bench.test_metrics_golden
"""

import json
from pathlib import Path

import pytest

from repro.db.txn import Transaction
from repro.ha.scenarios import run_rolling_crash
from repro.obs.metrics import MetricsPipeline
from repro.obs.slo import HealthTimeline

PINNED = (
    Path(__file__).parent.parent.parent
    / "benchmarks"
    / "results"
    / "metrics_timeline_golden.json"
)


def _fresh_ids(run):
    saved = Transaction._next_id
    Transaction._next_id = 1
    try:
        return run()
    finally:
        Transaction._next_id = max(saved, Transaction._next_id)


def _document(seed: int, alerts: list, metrics: dict) -> str:
    payload = {"scenario": "rolling-crash", "seed": seed, "alerts": alerts, "metrics": metrics}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _golden_metrics_json() -> str:
    """The document of the scenario's own pipeline, read off its result."""
    doc = _fresh_ids(run_rolling_crash).to_dict()
    return _document(doc["seed"], doc["slo"]["alerts"], doc["metrics"])


def generate(path: Path = PINNED) -> Path:
    path.parent.mkdir(exist_ok=True)
    path.write_text(_golden_metrics_json())
    return path


@pytest.mark.skipif(not PINNED.exists(), reason="pinned metrics timeline missing")
def test_metrics_timeline_byte_identical_to_pinned():
    assert _golden_metrics_json().encode() == PINNED.read_bytes()


def test_a_callers_pipeline_publishes_the_same_document():
    """Under a caller's pipeline the run keeps no pipeline or health of
    its own; the caller's pipeline publishes the series, the SLO state
    and (derived from it) the health arcs the run's own pipeline does."""
    own = _fresh_ids(run_rolling_crash)
    pipeline = MetricsPipeline()
    with pipeline:
        result = _fresh_ids(run_rolling_crash)
    pipeline.check_consistent()
    assert result.metrics is None and result.health is None
    assert json.loads(pipeline.to_json()) == own.to_dict()["metrics"]
    assert result.slo.to_dict() == own.slo.to_dict()
    assert HealthTimeline.derive(pipeline).to_dict() == own.health.to_dict()


@pytest.mark.skipif(not PINNED.exists(), reason="pinned metrics timeline missing")
def test_pinned_alert_sequence_shape():
    doc = json.loads(PINNED.read_text())
    alerts = doc["alerts"]
    # two injected crashes -> two fire/clear cycles, in stamp order
    assert len(alerts) == 2
    for alert in alerts:
        assert alert["cleared_at_ns"] is not None
        assert alert["cleared_at_ns"] > alert["fired_at_ns"]
        assert alert["fast_burn"] >= 14.0
    assert alerts[0]["fired_at_ns"] < alerts[1]["fired_at_ns"]


@pytest.mark.skipif(not PINNED.exists(), reason="pinned metrics timeline missing")
def test_pinned_timeline_shape():
    doc = json.loads(PINNED.read_text())
    metrics = doc["metrics"]
    assert metrics["scrape_interval_ns"] == 100_000.0
    assert metrics["scrapes"] > 0
    assert metrics["dropped_samples"] == {}
    series = metrics["series"]
    # the op-result rates and the failover gauge must both be present
    assert "fleet.ops{result=ok}" in series
    assert "fleet.ops{result=failed}" in series
    gauge_ids = [sid for sid in series if sid.startswith("ha.failover_inflight")]
    assert gauge_ids, "failover gauge never published"
    for samples in series.values():
        stamps = [t for t, _ in samples]
        assert stamps == sorted(stamps)
        assert all(t % metrics["scrape_interval_ns"] == 0 for t in stamps)


if __name__ == "__main__":
    print(f"pinned metrics timeline -> {generate()}")
