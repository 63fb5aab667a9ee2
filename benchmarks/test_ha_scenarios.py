"""Fleet HA scenarios as a reportable experiment (``--ha``).

Runs all five fleet scenarios — rolling crashes, graceful leave + warm
join, fusion failover storm, degraded read-only mode, sharded fusion
failover — under the full monitoring stack and reports the availability timelines plus the
recovery-mechanism comparison the join/leave scenario produces: a fresh
primary inheriting the warm CXL buffer pool versus full ARIES-style
recovery over CXL (polarrecv), RDMA-assisted recovery, and the
vanilla local-SSD baseline. The paper's §3.2/§3.3 claim, fleet-sized:
membership change on a shared CXL pool costs a warm attach, not a
recovery.
"""

from repro.bench.report import banner, format_table
from repro.ha.scenarios import SCENARIOS


def _run_all() -> dict:
    return {name: run() for name, run in sorted(SCENARIOS.items())}


def test_ha_scenarios(benchmark, report):
    results = benchmark.pedantic(_run_all, rounds=1, iterations=1)

    lines = [banner("Fleet HA scenarios (availability timelines)")]
    summary_rows = []
    for name, result in results.items():
        tl = result.timeline
        lines.append("")
        lines.extend(result.summary_lines())
        summary_rows.append(
            [
                name,
                f"{tl.elapsed_ns / 1e6:.3f}",
                f"{tl.downtime_ns / 1e6:.3f}",
                f"{tl.degraded_ns / 1e6:.3f}",
                f"{tl.availability * 100:.2f}%",
                result.failovers,
                result.oracle_checks,
            ]
        )
    lines.append(banner("Summary"))
    lines.append(
        format_table(
            [
                "scenario",
                "sim ms",
                "down ms",
                "degraded ms",
                "availability",
                "failovers",
                "oracle checks",
            ],
            summary_rows,
        )
    )

    join = results["join-leave"]
    baselines = join.detail["baseline_recovery_ms"]
    lines.append(banner("Membership change: warm CXL attach vs recovery"))
    lines.append(
        format_table(
            ["mechanism", "ms to serving", "storage reads"],
            [
                ["warm CXL attach (join)", f"{join.detail['attach_ms']:.3f}", 0],
                [
                    "polarrecv (CXL recovery)",
                    f"{baselines['polarrecv']:.3f}",
                    "metadata only",
                ],
                ["rdma-assisted recovery", f"{baselines['rdma']:.3f}", "pages"],
                ["vanilla ARIES (SSD)", f"{baselines['vanilla']:.3f}", "pages"],
            ],
        )
    )
    report("ha_scenarios", "\n".join(lines))

    for name, result in results.items():
        assert result.memsan_reports == 0, name
        assert result.oracle_checks > 0, name
    assert baselines["polarrecv"] < baselines["rdma"] < baselines["vanilla"]
    assert join.detail["attach_ms"] < baselines["rdma"]
