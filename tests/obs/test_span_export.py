"""Unit tests for the Chrome-trace / CSV span export."""

import json

from repro.hardware.memory import AccessMeter
from repro.obs.export import to_chrome_trace, write_chrome_trace
from repro.obs.spans import SpanTracer


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


def _tracer():
    clock = FakeClock()
    meter = AccessMeter()
    tracer = SpanTracer(clock=clock)
    root = tracer.begin("txn", "t", worker=3)
    child = tracer.begin("mtr", "m")
    clock.now = 2000.0
    tracer.end(child)
    # Charged-only: no wall width, latency deferred to the next settle.
    charged = tracer.begin("wal_append", "group_commit", meter=meter)
    meter.charge_ns(450.0)
    tracer.end(charged)
    clock.now = 3000.0
    tracer.end(root)
    return tracer, root, child, charged


def test_chrome_trace_structure():
    tracer, root, child, charged = _tracer()
    doc = to_chrome_trace(tracer, process_name="unit")
    meta, *events = doc["traceEvents"]
    assert meta == {
        "ph": "M",
        "name": "process_name",
        "pid": 0,
        "tid": 0,
        "args": {"name": "unit"},
    }
    by_id = {event["args"]["span_id"]: event for event in events}
    root_ev = by_id[root.span_id]
    assert (root_ev["cat"], root_ev["name"]) == ("txn", "t")
    assert root_ev["ts"] == 0.0
    assert root_ev["dur"] == 3.0  # 3000 ns → 3 us
    assert root_ev["args"]["worker"] == 3
    assert "parent_id" not in root_ev["args"]
    # Children ride the root ancestor's track.
    child_ev = by_id[child.span_id]
    assert child_ev["tid"] == root.span_id
    assert child_ev["args"]["parent_id"] == root.span_id


def test_charged_only_spans_get_charged_dur_and_flag():
    tracer, root, _, charged = _tracer()
    events = to_chrome_trace(tracer)["traceEvents"]
    ev = next(e for e in events if e.get("cat") == "wal_append")
    assert ev["args"]["charged"] is True
    assert ev["dur"] == 0.45  # charged 450 ns rendered as width
    assert ev["tid"] == root.span_id


def test_abandoned_status_exported():
    tracer = SpanTracer()
    tracer.begin("txn", "crashed")
    tracer.abandon_open()
    events = to_chrome_trace(tracer)["traceEvents"]
    assert events[1]["args"]["status"] == "abandoned"


def test_write_chrome_trace_is_canonical_json(tmp_path):
    tracer, *_ = _tracer()
    path = tmp_path / "trace.json"
    write_chrome_trace(path, tracer)
    text = path.read_text()
    assert text.endswith("\n")
    payload = json.loads(text)
    assert payload == to_chrome_trace(tracer)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    assert text == canonical
