"""MemSan protocol self-tests: seeded mutations must be detected.

Each test builds a small two-node multi-primary cluster, runs the same
deterministic read/write interleaving, and checks the detector's
verdict:

* unmutated protocol        -> zero reports (clean-verdict regression),
* skip clflush on release   -> ``unflushed-write-at-release``,
* skip invalid-flag push    -> ``stale-cached-read``,
* clear flag before invalidating -> ``cleared-flag-before-invalidate``.

The third mutation is the reason this detector exists: the node still
invalidates its cache lines (just *after* clearing the flag), so every
functional oracle sees correct data — only the happens-before state
knows the flag was cleared while a stale copy was live. The 200-seed
randomized version of the clean verdict lives in
``tests/core/test_sharing_stress.py``; the crash/failover coordinates
in ``tests/faults``.
"""

import pytest

from repro.analysis.memsan import MemSan
from repro.obs.world import build_sharing_setup
from repro.workloads.sysbench import SysbenchWorkload

TABLE = "sbtest_shared"
KEY = 5  # first leaf
ROWS = 120


@pytest.fixture()
def setup():
    workload = SysbenchWorkload(rows=ROWS, n_nodes=2)
    return build_sharing_setup("cxl", 2, workload)


def run_interleaving(setup) -> MemSan:
    """reader select -> writer update -> reader select, under MemSan."""
    ms = MemSan()
    ms.watch_setup(setup)
    writer, reader = setup.nodes[0], setup.nodes[1]
    sim = setup.sim
    with ms:
        assert sim.run_process(reader.point_select(TABLE, KEY)) is not None
        assert sim.run_process(writer.point_update(TABLE, KEY, "k", 4242))
        sim.run_process(reader.point_select(TABLE, KEY))
    return ms


def rules(ms: MemSan) -> set[str]:
    return {report.rule for report in ms.reports}


def test_unmutated_protocol_is_clean(setup):
    ms = run_interleaving(setup)
    assert ms.reports == []
    assert ms.accesses_checked > 0


def test_mutation_skip_flush_is_detected(setup):
    # The writer releases its write lock without flushing dirty lines.
    # No functional assertion on the reader here: under this mutation
    # the data really is stale, which is the point.
    setup.nodes[0].engine.buffer_pool._mutate_skip_flush = True
    ms = run_interleaving(setup)
    assert "unflushed-write-at-release" in rules(ms)
    report = next(
        r for r in ms.reports if r.rule == "unflushed-write-at-release"
    )
    assert report.actor == setup.nodes[0].node_id
    assert "clflush" in report.missing_edge


def test_mutation_skip_invalidate_is_detected(setup):
    # The fusion server marks the page dirty but never pushes the
    # invalid flag; the reader serves its cached lines.
    assert setup.fusion is not None
    setup.fusion._mutate_skip_invalidate = True
    ms = run_interleaving(setup)
    assert "stale-cached-read" in rules(ms)
    report = next(r for r in ms.reports if r.rule == "stale-cached-read")
    assert report.actor == setup.nodes[1].node_id
    assert report.other == setup.nodes[0].node_id


def test_mutation_clear_flag_before_invalidate_is_detected(setup):
    # The reader observes the invalid flag but clears it *before*
    # invalidating its cached lines. It still invalidates right after,
    # so the data it returns is correct — the bug is invisible to the
    # functional oracle and only the happens-before state catches it.
    setup.nodes[1].engine.buffer_pool._mutate_clear_before_invalidate = True
    ms = run_interleaving(setup)
    assert rules(ms) == {"cleared-flag-before-invalidate"}
    # Correctness oracle stays green under this mutation:
    row = setup.sim.run_process(
        setup.nodes[1].point_select(TABLE, KEY)
    )
    assert row["k"] == 4242


# What each seeded mutation reports — (rule, line, actor, other), in order —
# recorded before the per-page checks went from scanning all 256 lines to
# visiting the held-lines index; the index must find the same lines, ascending.
MUTATION_REPORTS = {
    "skip_flush": [
        ("unflushed-write-at-release", 512, "node0", "node0"),
        ("unflushed-write-at-release", 525, "node0", "node0"),
        ("read-write-race", 512, "node1", "node0"),
        ("read-write-race", 525, "node1", "node0"),
    ],
    "skip_invalidate": [("stale-cached-read", 512, "node1", "node0")] * 3
    + [("stale-cached-read", 525, "node1", "node0")] * 2,
    "clear_before_invalidate": [
        ("cleared-flag-before-invalidate", 512, "node1", "node0"),
        ("cleared-flag-before-invalidate", 525, "node1", "node0"),
    ],
}


@pytest.mark.parametrize("mutation", MUTATION_REPORTS)
def test_mutation_reports_are_pinned(setup, mutation):
    if mutation == "skip_invalidate":
        setup.fusion._mutate_skip_invalidate = True
    else:
        node = setup.nodes[0 if mutation == "skip_flush" else 1]
        setattr(node.engine.buffer_pool, f"_mutate_{mutation}", True)
    ms = run_interleaving(setup)
    assert [(r.rule, r.line, r.actor, r.other) for r in ms.reports] == MUTATION_REPORTS[mutation]
    assert ms.accesses_checked == 85 and ms.reports_dropped == 0


def test_mutations_are_off_by_default(setup):
    for node in setup.nodes:
        pool = node.engine.buffer_pool
        assert pool._mutate_skip_flush is False
        assert pool._mutate_clear_before_invalidate is False
    assert setup.fusion._mutate_skip_invalidate is False


# -- clean-verdict regressions per subsystem -------------------------------
#
# MemSan found no real ordering bug in core/sharing.py or
# core/recovery.py (the 200-seed stress, the fig13 slice and the crash
# sweep all run clean); these pin that verdict per subsystem so a future
# reordering that breaks it fails loudly and locally.


def test_clean_verdict_recycle_and_eviction(setup):
    ms = MemSan()
    ms.watch_setup(setup)
    writer, reader = setup.nodes[0], setup.nodes[1]
    sim = setup.sim
    with ms:
        for key in (KEY, KEY + 1, KEY + 2):
            sim.run_process(reader.point_select(TABLE, key))
            sim.run_process(writer.point_update(TABLE, key, "k", 7 + key))
        setup.fusion.recycle(2, writer.engine.meter, setup.lock_service)
        for node in setup.nodes:
            node.engine.buffer_pool.scan_and_reclaim_removed()
        for key in (KEY, KEY + 1, KEY + 2):
            row = sim.run_process(reader.point_select(TABLE, key))
            assert row["k"] == 7 + key
    assert ms.reports == []
    assert ms.accesses_checked > 0


def test_clean_verdict_range_scan_continuation(setup):
    # Range scans read sibling leaves via the lock-free btree descent
    # plus per-leaf get_page protocol checks; must stay race-free.
    ms = MemSan()
    ms.watch_setup(setup)
    writer, reader = setup.nodes[0], setup.nodes[1]
    sim = setup.sim
    with ms:
        sim.run_process(writer.point_update(TABLE, KEY, "k", 99))
        rows = sim.run_process(reader.range_select(TABLE, 1, 40))
        assert len(rows) == 40
    assert ms.reports == []


def test_clean_verdict_rdma_baseline():
    workload = SysbenchWorkload(rows=ROWS, n_nodes=2)
    setup = build_sharing_setup("rdma", 2, workload)
    ms = MemSan()
    ms.watch_setup(setup)
    writer, reader = setup.nodes[0], setup.nodes[1]
    sim = setup.sim
    with ms:
        sim.run_process(reader.point_select(TABLE, KEY))
        sim.run_process(writer.point_update(TABLE, KEY, "k", 1234))
        row = sim.run_process(reader.point_select(TABLE, KEY))
        assert row["k"] == 1234
    assert ms.reports == []
    assert ms.accesses_checked > 0
