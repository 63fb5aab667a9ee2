"""Figure 10: crash-recovery timelines for the three schemes.

Each run drives one instance through three acts on the simulation
clock: (1) steady-state workload, (2) a process kill plus the scheme's
recovery (PolarRecv / RDMA-assisted replay / vanilla replay), whose
metered cost elapses as simulated downtime, (3) the workload again,
where the buffer pool's warmth decides how fast throughput returns.
The per-bucket query-completion series is the figure's curve.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.probes import PROBES
from ..obs.world import build_pooling_setup, recover_instance
from ..sim.settle import ChargeSettler
from ..sim.stats import TimeSeries
from ..workloads.driver import InstanceCtx, PoolingDriver
from ..workloads.sysbench import SysbenchWorkload

__all__ = ["RecoveryTimeline", "run_recovery_experiment", "RECOVERY_SCHEMES"]

RECOVERY_SCHEMES = {
    "polarrecv": "cxl",
    "rdma": "rdma",
    "vanilla": "dram",
}

# Width of one timeline bucket: 5 ms of simulated time.
_BUCKET_NS = 5_000_000


@dataclass
class RecoveryTimeline:
    """One scheme's crash-recovery timeline."""

    scheme: str
    mix: str
    series: list[tuple[float, float]]  # (seconds, QPS)
    crash_time_s: float
    recovery_seconds: float
    pre_crash_qps: float
    warmup_seconds: float  # time after recovery to reach 90% of pre-crash QPS
    detail: object = None  # RecoveryStats or ReplayStats

    @property
    def downtime_plus_warmup_seconds(self) -> float:
        return self.recovery_seconds + self.warmup_seconds


def run_recovery_experiment(
    scheme: str,
    mix: str = "read_write",
    rows: int = 24_000,
    workers: int = 8,
    phase1_txns: int = 3,
    phase2_txns: int = 24,
    seed: int = 7,
) -> RecoveryTimeline:
    """Run one scheme × workload crash-recovery timeline.

    Runs with any installed metrics pipeline suspended: this experiment
    owns a private simulator, and publishing its clock into a pipeline
    anchored to a caller's simulation (the join-leave scenario's
    baselines) would interleave two timelines in one series.
    """
    with PROBES.suspended("metrics"):
        return _run_recovery_experiment(
            scheme, mix, rows, workers, phase1_txns, phase2_txns, seed
        )


def _run_recovery_experiment(
    scheme: str,
    mix: str,
    rows: int,
    workers: int,
    phase1_txns: int,
    phase2_txns: int,
    seed: int,
) -> RecoveryTimeline:
    if scheme not in RECOVERY_SCHEMES:
        raise ValueError(f"unknown recovery scheme {scheme!r}")
    system = RECOVERY_SCHEMES[scheme]
    workload = SysbenchWorkload(rows=rows)
    setup = build_pooling_setup(system, 1, workload, seed=seed)
    sim = setup.sim
    ictx = setup.instances[0]
    timeline = TimeSeries(_BUCKET_NS)

    # Act 1: steady state.
    driver1 = PoolingDriver(
        sim,
        [ictx],
        workload.txn_fn(mix),
        workers_per_instance=workers,
        warmup_txns=1,
        measure_txns=phase1_txns,
        timeline=timeline,
    )
    res1 = driver1.run()
    pre_crash_qps = res1.qps
    crash_ns = sim.now

    # Act 2: crash + recovery.
    ictx.engine.crash()
    engine, detail = recover_instance(setup, 0)
    # The recovery work elapses as simulated downtime — serially, the
    # way a replay actually reads pages.
    settler = ChargeSettler(sim, engine.meter, setup.host.pipes)
    sim.run_process(settler.settle_serial())
    recovery_seconds = (sim.now - crash_ns) / 1e9
    ictx2 = InstanceCtx(engine=engine, host=setup.host, rng=ictx.rng.fork(99))

    # Act 3: back in business; warmth decides the ramp.
    driver2 = PoolingDriver(
        sim,
        [ictx2],
        workload.txn_fn(mix),
        workers_per_instance=workers,
        warmup_txns=0,
        measure_txns=phase2_txns,
        timeline=timeline,
    )
    driver2.run()

    series = timeline.series(until_ns=sim.now)
    warmup_seconds = _warmup_time(
        series, (crash_ns / 1e9) + recovery_seconds, pre_crash_qps
    )
    return RecoveryTimeline(
        scheme=scheme,
        mix=mix,
        series=series,
        crash_time_s=crash_ns / 1e9,
        recovery_seconds=recovery_seconds,
        pre_crash_qps=pre_crash_qps,
        warmup_seconds=warmup_seconds,
        detail=detail,
    )


def _warmup_time(
    series: list[tuple[float, float]], restart_s: float, target_qps: float
) -> float:
    """Seconds after restart until throughput reaches 90% of pre-crash.

    The per-bucket series aliases against the transaction period, so the
    detector compares a 4-bucket moving average against the threshold.
    """
    threshold = 0.9 * target_qps
    window = 4
    candidates = [(t, qps) for t, qps in series if t >= restart_s]
    for i in range(len(candidates)):
        chunk = candidates[i : i + window]
        if not chunk:
            break
        avg = sum(q for _, q in chunk) / len(chunk)
        if avg >= threshold:
            return max(0.0, candidates[i][0] - restart_s)
    if candidates:
        return max(0.0, candidates[-1][0] - restart_s)
    return 0.0
