"""CXL-MemSan over the figure-13 point-update slice.

The 200-seed stress test drives randomized schedules through
``sim.run_process`` one operation at a time; this benchmark is the
*concurrent* complement: the figure-13 sharing workload with 8 workers
per node interleaving at every simulator yield, on both the software-
coherent CXL system and the RDMA baseline, entirely under the race
detector. Acceptance (ISSUE.md): zero reports, and the detector must
actually have observed the protocol (accesses checked, for both
systems).

``python -m repro.bench memsan`` runs this file; the conftest fixture
installs a session-wide detector so the figures named with it
(``python -m repro.bench memsan fig11``) run under it too.
"""

from contextlib import ExitStack

from repro.analysis.memsan import RDMA_PAGES, MemSan
from repro.bench.report import banner
from repro.obs.probes import PROBES
from repro.obs.world import build_sharing_setup
from repro.workloads.driver import SharingDriver
from repro.workloads.sysbench import SysbenchWorkload

NODES = 4
ROWS = 800
SHARE = (20, 60, 100)

SYSTEMS = (
    ("PolarCXLMem", "cxl", {}),
    ("RDMA LBP-30%", "rdma", {"lbp_fraction": 0.3}),
)


def _run_one(setup, workload, pct) -> None:
    driver = SharingDriver(
        setup.sim,
        setup.nodes,
        setup.hosts,
        workload.sharing_txn_fn("point_update"),
        shared_pct=pct,
        cost=setup.cost,
        workers_per_node=8,
        warmup_txns=1,
        measure_txns=3,
    )
    driver.run()


def _sweep() -> dict[str, dict]:
    """Per-system detector verdicts, as deltas.

    Under ``repro.bench memsan`` one session-wide detector is installed
    (benchmarks/conftest.py) and both systems share it, so per-system
    numbers are the *difference* in accesses/reports/lines across each
    system's run; standalone, a fresh detector is installed per system
    and the deltas equal its totals.
    """
    verdicts: dict[str, dict] = {}
    for label, system, kwargs in SYSTEMS:
        with ExitStack() as stack:
            ms = PROBES.memsan or stack.enter_context(MemSan())
            accesses0 = ms.accesses_checked
            reports0 = len(ms.reports) + ms.reports_dropped
            lines0 = ms.tracked_lines()
            workload = SysbenchWorkload(
                rows=ROWS, n_nodes=NODES, key_dist="zipf", zipf_theta=0.9
            )
            # Built under the installed detector: the shared CXL region
            # is watched automatically (page hooks for rdma).
            setup = build_sharing_setup(system, NODES, workload, **kwargs)
            for pct in SHARE:
                _run_one(setup, workload, pct)
        verdicts[label] = {
            "accesses": ms.accesses_checked - accesses0,
            "new_reports": ms.reports[reports0 - ms.reports_dropped :],
            "report_count": len(ms.reports) + ms.reports_dropped - reports0,
            "regions_grown": {
                region
                for region, count in ms.tracked_lines().items()
                if count > lines0.get(region, 0)
            },
        }
    return verdicts


def test_memsan_fig13_slice(benchmark, report):
    verdicts = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    lines = [banner("Figure 13 slice under CXL-MemSan")]
    for label, verdict in verdicts.items():
        lines.append(
            f"{label:14s} accesses checked: {verdict['accesses']:>9,}  "
            f"race reports: {verdict['report_count']}"
        )
        for race in verdict["new_reports"][:8]:
            lines.append(f"  {race}")
    report("memsan_fig13", "\n".join(lines))

    for label, verdict in verdicts.items():
        assert verdict["accesses"] > 0, f"{label}: detector observed nothing"
        assert not verdict["report_count"], f"{label}: " + "; ".join(
            map(str, verdict["new_reports"])
        )
    # Both granularities were really exercised: line-level state for the
    # CXL protocol, page-level for the RDMA baseline.
    cxl, rdma = verdicts["PolarCXLMem"], verdicts["RDMA LBP-30%"]
    assert any(region != RDMA_PAGES for region in cxl["regions_grown"])
    assert RDMA_PAGES in rdma["regions_grown"]
