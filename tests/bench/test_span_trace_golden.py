"""The Perfetto export of a fixed workload is byte-stable.

A deterministic sharing workload (fixed seeds, fixed topology) is run
under the span tracer and exported as Chrome trace JSON. The output is
pinned under ``benchmarks/results/span_trace_golden.json``: re-running
the workload must reproduce the pinned file **byte for byte**. This
locks down every layer at once — simulator determinism, span ids and
parenting, charged-duration arithmetic, and the canonical JSON encoding
(sorted keys, no wall-clock or ``id()`` leakage).

Regenerate after an intentional span-semantics change with::

    PYTHONPATH=src python -m tests.bench.test_span_trace_golden
"""

import json
from pathlib import Path

import pytest

from repro.db.txn import Transaction
from repro.obs import SpanTracer
from repro.obs.export import to_chrome_trace, write_chrome_trace
from repro.obs.world import build_sharing_setup
from repro.workloads.driver import SharingDriver
from repro.workloads.sysbench import SysbenchWorkload

PINNED = (
    Path(__file__).parent.parent.parent
    / "benchmarks"
    / "results"
    / "span_trace_golden.json"
)

NODES = 2
ROWS = 200


def _golden_workload_trace() -> SpanTracer:
    """The fixed workload: 2 nodes, 2 workers each, point updates."""
    workload = SysbenchWorkload(rows=ROWS, n_nodes=NODES)
    setup = build_sharing_setup("cxl", NODES, workload)
    # Transaction ids are a process-global counter and land in span
    # fields; pin them so the export does not depend on test order.
    saved = Transaction._next_id
    Transaction._next_id = 1
    try:
        with SpanTracer() as tracer:
            SharingDriver(
                setup.sim,
                setup.nodes,
                setup.hosts,
                workload.sharing_txn_fn("point_update"),
                shared_pct=50,
                cost=setup.cost,
                workers_per_node=2,
                warmup_txns=1,
                measure_txns=2,
            ).run()
    finally:
        Transaction._next_id = max(saved, Transaction._next_id)
    return tracer


def generate(path: Path = PINNED) -> Path:
    path.parent.mkdir(exist_ok=True)
    write_chrome_trace(path, _golden_workload_trace(), process_name="repro")
    return path


@pytest.mark.skipif(not PINNED.exists(), reason="pinned span trace not generated")
def test_span_trace_byte_identical_to_pinned(tmp_path):
    regenerated = tmp_path / "span_trace_golden.json"
    write_chrome_trace(regenerated, _golden_workload_trace(), process_name="repro")
    assert regenerated.read_bytes() == PINNED.read_bytes()


@pytest.mark.skipif(not PINNED.exists(), reason="pinned span trace not generated")
def test_pinned_span_trace_is_valid_chrome_trace():
    doc = json.loads(PINNED.read_text())
    events = doc["traceEvents"]
    assert doc["displayTimeUnit"] == "ns"
    assert events[0]["ph"] == "M"  # process_name metadata record
    spans = [event for event in events if event["ph"] == "X"]
    assert spans, "no complete events in the pinned trace"
    for event in spans:
        for field in ("name", "cat", "ts", "dur", "pid", "tid", "args"):
            assert field in event, (field, event)
        assert event["dur"] >= 0
    # Several mechanism categories must be present in the fixed workload.
    cats = {event["cat"] for event in spans}
    for kind in ("txn", "mtr", "lock_wait", "cache_flush", "wal_append"):
        assert kind in cats, f"missing {kind} events"


def test_export_matches_in_memory_document(tmp_path):
    tracer = _golden_workload_trace()
    path = tmp_path / "trace.json"
    write_chrome_trace(path, tracer)
    assert json.loads(path.read_text()) == to_chrome_trace(tracer)


if __name__ == "__main__":
    print(f"pinned span trace -> {generate()}")
