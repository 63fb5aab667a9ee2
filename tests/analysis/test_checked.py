"""CheckedRun and the failover primitive: the one battery every harness uses.

The harness clients (sweeps, stress, scale, HA, explore) are covered by
their own suites; these tests pin the contract they all rely on —
ownership, crash semantics, one seeded violation per instrument and one
of a watched node's log order — plus
the structural guard that no harness grows a private copy again.
"""

import re
from pathlib import Path

import pytest

from repro.analysis.checked import CheckedRun, LogOrderError, fail_over
from repro.analysis.memsan import MemSan, MemSanError
from repro.faults.sweep import (
    _STORM_CRASH,
    _build_sharing,
    _crash_sharing_node,
    _run_sharing_ops,
    _sharing_ops,
    _sharing_prephase,
)
from repro.hardware.memory import AccessMeter
from repro.obs import InvariantViolationError
from repro.obs.metrics import MetricsError, MetricsPipeline
from repro.obs.probes import PROBES
from repro.obs.spans import SpanTracer
from repro.obs.trace import Tracer

from ..conftest import swap_durable_records

SRC = Path(__file__).parent.parent.parent / "src" / "repro"
HOOKS = ("tracer", "spans", "metrics", "memsan")


def _nothing_installed():
    return all(getattr(PROBES, hook) is None for hook in HOOKS)


def _all():
    return CheckedRun(trace=True, spans=True, metrics=True, memsan=True)


def test_installs_and_owns_all_four_then_uninstalls():
    with _all() as run:
        owned = (run.tracer, run.spans, run.metrics, run.memsan)
        assert all(getattr(PROBES, hook) is own for hook, own in zip(HOOKS, owned))
    assert _nothing_installed()
    run.check()
    assert run.trace_stats is not None and run.span_stats is not None


def test_unrequested_instruments_stay_uninstalled():
    with CheckedRun(spans=True) as run:
        assert PROBES.spans is run.spans
        assert PROBES.tracer is None and PROBES.metrics is None
        assert PROBES.memsan is None
    assert (run.tracer, run.metrics, run.memsan) == (None, None, None)


def test_outer_instrument_is_left_installed_and_unchecked():
    with Tracer() as outer:
        # A violation in the caller's trace is the caller's to find.
        outer.emit("fusion", "invalidate_push", page=5, writer="n1", target="n0")
        outer.emit("sharing", "page_access", node="n0", page=5,
                   saw_invalid=False, registered=False)
        with _all() as run:
            assert run.tracer is None and PROBES.tracer is outer
            assert run.spans is not None
        assert PROBES.tracer is outer
        run.check()
        assert run.trace_stats is None


def test_everything_is_uninstalled_when_the_body_raises():
    with pytest.raises(ZeroDivisionError):
        with _all():
            1 / 0
    assert _nothing_installed()


def test_caller_supplied_detector_is_installed_and_owned():
    detector = MemSan()
    with CheckedRun(memsan=detector) as run:
        assert PROBES.memsan is detector and run.memsan is detector
    with MemSan():
        with pytest.raises(RuntimeError, match="already installed"):
            CheckedRun(memsan=detector).__enter__()


def test_crashed_abandons_open_spans_and_scrapes_at_the_crash_instant():
    with CheckedRun(spans=True, metrics=True) as run:
        run.metrics.maybe_scrape(0.0)  # align the grid
        run.spans.begin("txn", "dies-mid-flight")
        run.metrics.count("ops", 2.0)
        run.crashed(250_000.0)
        assert [span.status for span in run.spans.spans()] == ["abandoned"]
        series = run.metrics.get("ops")
        assert [t for t, _ in series.samples] == [100_000.0, 200_000.0]
    with pytest.raises(InvariantViolationError):
        run.check()  # abandoned spans are a violation unless allowed
    run.check(allow_abandoned=True)
    assert run.span_stats.abandoned == 1


def test_crashed_reaches_outer_instruments_too():
    with SpanTracer() as outer_spans, MetricsPipeline() as outer_metrics:
        outer_metrics.maybe_scrape(0.0)
        outer_spans.begin("txn", "t")
        with CheckedRun(spans=True, metrics=True) as run:
            run.crashed(100_000.0)
        assert [span.status for span in outer_spans.spans()] == ["abandoned"]
        assert outer_metrics.scrapes == 1


def _seed_trace(run):
    run.tracer.emit("fusion", "invalidate_push", page=5, writer="n1", target="n0")
    run.tracer.emit("sharing", "page_access", node="n0", page=5,
                    saw_invalid=False, registered=False)


def _seed_spans(run):
    run.spans.begin("txn", "never-ended")


def _seed_metrics(run):
    run.metrics._publish(("ops", ()), 200.0, 1.0)
    run.metrics._publish(("ops", ()), 100.0, 1.0)


def _seed_memsan(run):
    run.memsan.watch_region("pool")
    for node in ("n0", "n1"):
        with run.memsan.actor(node):
            run.memsan.cache_store(f"{node}$", "pool", 5)


@pytest.mark.parametrize(
    "seed, error",
    [
        (_seed_trace, InvariantViolationError),
        (_seed_spans, InvariantViolationError),
        (_seed_metrics, MetricsError),
        (_seed_memsan, MemSanError),
    ],
)
def test_check_raises_for_a_seeded_violation_of_each_instrument(seed, error):
    with _all() as run:
        seed(run)
    with pytest.raises(error):
        run.check()


def test_check_raises_for_a_watched_node_whose_durable_log_is_out_of_order():
    setup = _build_sharing()
    model = _sharing_prephase(setup)
    with _all() as run:
        run.watch(setup)
        _run_sharing_ops(setup, _sharing_ops(), model, {}, [0])
    run.check()
    writer = setup.nodes[0]
    swap_durable_records(writer.engine.redo_log, 3, 4)
    _seed_memsan(run)  # the log check comes before MemSan's, which stays last
    with pytest.raises(LogOrderError, match=f"node {writer.node_id}: durable redo log"):
        run.check()


def _storm_failover(n_shards):
    """Crash the sweep's canonical writer, fail it over once; returns the
    primitive's counts and every page the failover wrote to storage."""
    setup = _build_sharing(n_shards=n_shards)
    model = _sharing_prephase(setup)
    written = []
    with CheckedRun(memsan=True) as run:
        run.watch(setup)
        assert _crash_sharing_node(run, setup, model, 7, *_STORM_CRASH) == 0
        real_write = setup.page_store.write_page
        setup.page_store.write_page = lambda page_id, image: (
            written.append(page_id), real_write(page_id, image))
        dead = setup.nodes[0]
        counts = fail_over(
            setup, dead, AccessMeter(), actor="failover", inherits=dead.node_id
        )
    run.check()
    return counts, written


def test_sharded_failover_retires_the_same_pages_as_unsharded():
    (rebuilt_1, retired_1), written_1 = _storm_failover(1)
    (rebuilt_2, retired_2), written_2 = _storm_failover(2)
    assert (rebuilt_1, retired_1) == (rebuilt_2, retired_2)
    assert rebuilt_1 > 0 and retired_1 > 0
    # Shard-wise retirement visits the pages in another order, never
    # another set (the filters partition the page ids).
    assert sorted(written_1) == sorted(written_2)
    assert len(written_1) == rebuilt_1 + retired_1


_PRIVATE_BATTERY = re.compile(
    r"assert_(trace|span)_invariants\(|\.check_consistent\(\)|\.abandon_open\(\)"
)


def test_no_harness_keeps_a_private_copy_of_the_battery():
    harnesses = [SRC / "analysis" / "explore.py"]
    for package in ("faults", "ha", "parallel", "bench"):
        harnesses.extend(sorted((SRC / package).glob("*.py")))
    offenders = [
        f"{path.relative_to(SRC)}:{number}"
        for path in harnesses
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if _PRIVATE_BATTERY.search(line)
    ]
    assert not offenders, f"use repro.analysis.checked.CheckedRun: {offenders}"
