"""Differential layer: parallel runs must merge byte-identical to serial.

The guarantee: ``--jobs N`` changes wall-clock, never results. Each
stress case runs the same seeds twice — serial golden, then on a spawn
pool — and compares the *canonical serialized bytes*, not just semantic
equality. Forced-failure cases prove a red run surfaces the exact
seed/coordinate plus a working one-line serial repro.
"""

import shlex

from repro.faults.sweep import sweep_workload_points
from repro.parallel.__main__ import main as parallel_main
from repro.parallel.stress import run_sharing_stress

def test_stress_40_seeds_parallel_bytes_match_serial():
    kwargs = dict(system="cxl", n_seeds=40, shard_size=10, base_seed=1000)
    serial = run_sharing_stress(jobs=1, **kwargs)
    parallel = run_sharing_stress(jobs=4, **kwargs)
    assert serial.ok, serial.failures
    assert serial.to_json() == parallel.to_json()
    # The shards did real work, merged in seed order.
    assert [shard.seed_start for shard in parallel.shards] == [
        1000, 1010, 1020, 1030,
    ]
    totals = parallel.totals()
    assert totals["accesses"] > 40 and totals["memsan_accesses"] > 40


def test_stress_metrics_counters_parallel_bytes_match_serial():
    # Every stress seed runs under its own MetricsPipeline; the scrape
    # and sample totals are part of the merged counters, so serial and
    # --jobs runs must agree on the telemetry byte for byte — a scrape
    # taken in one mode but not the other is a determinism bug.
    kwargs = dict(system="cxl", n_seeds=8, shard_size=4, base_seed=500)
    serial = run_sharing_stress(jobs=1, **kwargs)
    parallel = run_sharing_stress(jobs=2, **kwargs)
    assert serial.ok, serial.failures
    assert serial.to_json() == parallel.to_json()
    totals = serial.totals()
    assert totals["metrics_scrapes"] > 0
    assert totals["metrics_samples"] > 0
    assert totals["metrics_scrapes"] == parallel.totals()["metrics_scrapes"]


def test_forced_failure_surfaces_seed_and_serial_repro():
    report = run_sharing_stress(
        system="cxl", n_seeds=10, shard_size=5, jobs=4, fail_seed=1007
    )
    assert not report.ok
    (failure,) = report.failures
    # The exact seed, and the exact one-line serial command for its shard.
    assert failure.startswith("seed 1007: ")
    assert (
        "[repro: PYTHONPATH=src python -m repro.parallel stress "
        "--system cxl --base-seed 1005 --seeds 5 --shard-size 5 --jobs 1]"
        in failure
    )
    # Every other shard and seed still ran and merged deterministically.
    assert [shard.seed_start for shard in report.shards] == [1000, 1005]
    assert report.shards[0].ok and not report.shards[1].ok
    # The advertised repro line actually works: replay that shard
    # serially (without the forced failure) through the CLI entry point.
    repro_argv = shlex.split(failure.split("[repro: ", 1)[1].rstrip("]"))
    assert repro_argv[:4] == ["PYTHONPATH=src", "python", "-m", "repro.parallel"]
    code = parallel_main(repro_argv[4:] + ["--json", "/dev/null"])
    assert code == 0


def test_failing_sweep_coordinate_surfaces_in_report():
    # A coordinate whose armed point never fires is a red outcome naming
    # the exact (point, hit); the CLI's single-coordinate mode is the
    # repro path for it.
    report = sweep_workload_points(only=("bogus.point", 1))
    (outcome,) = report.outcomes
    assert not outcome.ok and outcome.point == "bogus.point"
    code = parallel_main(
        [
            "sweep",
            "--scenario",
            "workload",
            "--point",
            "bogus.point",
            "--hit",
            "1",
            "--json",
            "/dev/null",
        ]
    )
    assert code == 1
