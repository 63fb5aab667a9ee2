"""Cross-check: span fields agree with the mechanism-counter views.

Spans and counters observe the same protocol events through different
plumbing — spans via begin/end at the call site, counters via the
tracer/meter counting inside the mechanism. On a figure-13 style
point-update slice the two views must agree exactly, or one of them is
double- (or under-) accounting:

* CXL: the summed ``nbytes`` of ``cache_flush`` spans equals the
  ``sharing.flush_bytes`` trace counter (dirty lines × 64 B), and the
  ``rpc`` spans (``request_page`` + ``reshare``) sum to the
  ``fusion_rpcs`` meter count.
* RDMA: the summed ``nbytes`` of ``cache_flush`` spans equals the
  ``rdma.write_bytes`` trace counter (whole 16 KB pages), and one
  ``rpc``/``register`` span exists per ``dbp_rpcs`` meter count.
"""

from repro.obs import SpanTracer, Tracer
from repro.obs.world import build_sharing_setup
from repro.workloads.driver import SharingDriver
from repro.workloads.sysbench import SysbenchWorkload

NODES = 2
ROWS = 400


def _traced_run(system, **kwargs):
    workload = SysbenchWorkload(rows=ROWS, n_nodes=NODES)
    setup = build_sharing_setup(system, NODES, workload, **kwargs)
    for node in setup.nodes:
        node.engine.meter.reset()
    with Tracer() as tracer, SpanTracer() as spans:
        driver = SharingDriver(
            setup.sim,
            setup.nodes,
            setup.hosts,
            workload.sharing_txn_fn("point_update"),
            shared_pct=60,
            cost=setup.cost,
            workers_per_node=4,
            warmup_txns=1,
            measure_txns=4,
        )
        result = driver.run()
    return result, tracer, spans


def _span_nbytes(spans, kind):
    return sum(
        span.fields.get("nbytes", 0)
        for span in spans.spans()
        if span.kind == kind and span.status == "closed"
    )


def _span_count(spans, kind, name):
    return sum(
        1
        for span in spans.spans()
        if span.kind == kind and span.name == name and span.status == "closed"
    )


def test_cxl_flush_and_rpc_spans_match_counters():
    result, tracer, spans = _traced_run("cxl")
    flush_bytes = tracer.counters.get("sharing.flush_bytes")
    assert flush_bytes > 0
    assert _span_nbytes(spans, "cache_flush") == flush_bytes

    # Every fusion RPC carries a span: page fetches and directory
    # reshares are the two RPC kinds the node issues on this slice.
    fusion_rpcs = result.counters.get("fusion_rpcs", 0)
    assert fusion_rpcs > 0
    requests = _span_count(spans, "rpc", "request_page")
    reshares = _span_count(spans, "rpc", "reshare")
    assert requests > 0 and reshares > 0
    assert requests + reshares == fusion_rpcs


def test_rdma_flush_and_rpc_spans_match_counters():
    result, tracer, spans = _traced_run("rdma", lbp_fraction=0.3)
    write_bytes = tracer.counters.get("rdma.write_bytes")
    assert write_bytes > 0
    assert _span_nbytes(spans, "cache_flush") == write_bytes

    dbp_rpcs = result.counters.get("dbp_rpcs", 0)
    assert dbp_rpcs > 0
    assert _span_count(spans, "rpc", "register") == dbp_rpcs
