"""fig_scale: multi-primary sharing scaled from 2 to 32 nodes.

The paper's sharing figures (11/12) fix the fleet at 8 nodes and sweep
the shared fraction; this family fixes the workload *shape* and sweeps
the fleet size instead, for both the CXL software-coherency system and
the RDMA (PolarDB-MP) baseline. Each scale point is one self-contained
cluster build + driver run with the full monitoring stack installed —
MemSan, trace invariants, and span invariants must be green at every
point, or the point fails.

Workload shape (why these curves mean what they claim):

* **Warmup scan** — every node's first transaction reads across the
  whole shared table, so every node *registers* on (roughly) every
  leaf. A broadcast invalidation protocol pays O(fleet) flag pushes per
  write release forever after.
* **Group-local steady state** — nodes then pair up: each node updates
  its own key block and point-reads its partner's. The set of nodes
  *currently caching* any leaf is a small constant, independent of the
  fleet size.

With the per-page sharer directory, CXL flag pushes per write release
track the second number (current sharers), not the first (registrants),
so the per-release invalidation cost stays flat as the fleet grows —
that is the scalability claim ``fig_scale`` pins. The CXL fusion tier
is sharded ``n_nodes // 4`` ways (:func:`shards_for`) so the metadata
service scales alongside the fleet.

Every scale point is an independent :class:`~repro.parallel.runner.WorkUnit`
(``repro.bench.scale:run_scale_point``), so the curve shards across
processes; ``benchmarks/test_fig_scale.py`` runs it one worker per core.
"""

from __future__ import annotations

from ..analysis.checked import CheckedRun
from ..parallel.runner import WorkUnit, raise_for_failures, run_units
from ..sim.rng import WorkloadRng
from ..workloads.base import Op
from ..workloads.driver import SharingDriver
from ..workloads.sysbench import SysbenchWorkload
from .harness import build_sharing_setup, counter_snapshot, register_metric_sources

__all__ = [
    "SCALE_NODES",
    "SCALE_SYSTEMS",
    "shards_for",
    "peer_of",
    "node_keys",
    "make_scale_txn_fn",
    "run_scale_point",
    "run_scale_curve",
]

SCALE_NODES = (2, 4, 8, 16, 32)
SCALE_SYSTEMS = ("rdma", "cxl")

_ROWS = 120
_SCAN_STRIDE = 7
_UPDATES_PER_TXN = 4
_PEER_READS_PER_TXN = 4


def shards_for(n_nodes: int) -> int:
    """Fusion shards for a fleet: one shard per four nodes, minimum one.

    >>> [shards_for(n) for n in (2, 4, 8, 16, 32)]
    [1, 1, 2, 4, 8]
    """
    return max(1, n_nodes // 4)


def peer_of(node_index: int, n_nodes: int) -> int:
    """The node whose key block this node cross-reads (pairs: 0↔1, 2↔3…).

    A node left without a partner (odd fleet) reads its own block.

    >>> [peer_of(i, 4) for i in range(4)]
    [1, 0, 3, 2]
    >>> peer_of(2, 3)
    2
    """
    peer = node_index ^ 1
    return peer if peer < n_nodes else node_index


def node_keys(node_index: int, n_nodes: int, rows: int) -> range:
    """Contiguous sysbench key block (keys are 1-based) owned by a node.

    Blocks tile the table exactly: no gaps, no overlap.

    >>> node_keys(0, 4, 120)
    range(1, 31)
    >>> node_keys(3, 4, 120)
    range(91, 121)
    >>> sum(len(node_keys(i, 5, 121)) for i in range(5))
    121
    """
    low = node_index * rows // n_nodes + 1
    high = (node_index + 1) * rows // n_nodes + 1
    return range(low, high)


def make_scale_txn_fn(n_nodes: int):
    """Build the fig_scale transaction function for one cluster.

    The first transaction each node runs (its warmup) is the global
    scan; after that, every transaction is ``_UPDATES_PER_TXN`` updates
    on the node's own key block plus ``_PEER_READS_PER_TXN`` point
    reads of its partner's block. The shared-percentage argument the
    driver passes is ignored — the blocks, not a coin flip, decide
    what is shared here.
    """
    scanned: set[int] = set()

    def txn(rng: WorkloadRng, node_index: int, shared_pct: float) -> list[Op]:
        del shared_pct
        if node_index not in scanned:
            scanned.add(node_index)
            return [
                Op("select", "sbtest_shared", key)
                for key in range(1, _ROWS + 1, _SCAN_STRIDE)
            ]
        mine = node_keys(node_index, n_nodes, _ROWS)
        theirs = node_keys(peer_of(node_index, n_nodes), n_nodes, _ROWS)
        ops = [
            Op(
                "update",
                "sbtest_shared",
                mine[rng.uniform_int(0, len(mine) - 1)],
                field="k",
                value=rng.uniform_int(0, 4095),
            )
            for _ in range(_UPDATES_PER_TXN)
        ]
        ops.extend(
            Op("select", "sbtest_shared", theirs[rng.uniform_int(0, len(theirs) - 1)])
            for _ in range(_PEER_READS_PER_TXN)
        )
        return ops

    return txn


def run_scale_point(system: str, n_nodes: int, seed: int = 7) -> dict:
    """Run one (system, fleet-size) point under the full monitoring stack.

    Returns a flat dict of the point's coordinates, throughput, and the
    mechanism counters the curve assertions need. The point is one
    :class:`~repro.analysis.checked.CheckedRun`: a race, a trace
    violation, or a malformed span tree fails it, at every scale.
    """
    n_shards = shards_for(n_nodes) if system == "cxl" else 1
    with CheckedRun(trace=True, spans=True, metrics=True, memsan=True) as run:
        workload = SysbenchWorkload(rows=_ROWS, n_nodes=n_nodes)
        setup = build_sharing_setup(
            system, n_nodes, workload, seed=seed, n_shards=n_shards
        )
        run.watch(setup)
        register_metric_sources(setup)
        driver = SharingDriver(
            setup.sim,
            setup.nodes,
            setup.hosts,
            make_scale_txn_fn(n_nodes),
            shared_pct=100.0,
            rng=WorkloadRng(seed=seed),
            workers_per_node=2,
            warmup_txns=1,
            measure_txns=2,
        )
        result = driver.run()
        counters = counter_snapshot(setup)
        run.flush(setup.sim.now)
    run.check()
    ms = run.memsan
    writes = max(1.0, counters.get("lock.write_acquires", 0.0))
    if system == "cxl":
        invalidations = counters.get("fusion_stats.invalidations_pushed", 0.0)
    else:
        invalidations = counters.get("dbp_stats.invalidation_messages", 0.0)
    return {
        "system": system,
        "n_nodes": n_nodes,
        "n_shards": n_shards,
        "tps": result.tps,
        "qps": result.qps,
        "p95_latency_ns": result.p95_latency_ns,
        "write_acquires": counters.get("lock.write_acquires", 0.0),
        "invalidations": invalidations,
        "invalidations_per_release": invalidations / writes,
        "reshares": counters.get("fusion_stats.reshares", 0.0),
        "fusion_rpcs": counters.get("fusion_stats.rpcs", 0.0),
        "dbp_rpcs": counters.get("dbp_stats.rpcs", 0.0),
        "lines_flushed": counters.get("sharing.lines_flushed", 0.0),
        "interconnect_bytes": counters.get("bytes_moved.interconnect", 0.0),
        "memsan_reports": len(ms.reports) if ms is not None else 0,
    }


def run_scale_curve(nodes=SCALE_NODES, seed: int = 7, jobs: int = 1) -> list[dict]:
    """Run the whole curve; returns one dict per (system, n_nodes) point.

    ``jobs > 1`` (``0`` = one per core, capped at the point count)
    shards the points across a spawn pool — each point is a fresh
    interpreter with its own MemSan, so the merged result is
    byte-identical to a serial run (see :mod:`repro.parallel.runner`).
    Results are ordered system-major, fleet-size-minor.
    """
    units = [
        WorkUnit(
            "repro.bench.scale:run_scale_point",
            (system, n_nodes, seed),
            label=f"{system}/{n_nodes}",
            repro=(
                "PYTHONPATH=src python -c \"from repro.bench.scale import "
                f"run_scale_point; print(run_scale_point('{system}', "
                f"{n_nodes}, seed={seed}))\""
            ),
        )
        for system in SCALE_SYSTEMS
        for n_nodes in nodes
    ]
    results = run_units(units, jobs=jobs)
    raise_for_failures(results, what="fig_scale curve")
    return [result.value for result in results]
