"""CLI: regenerate the paper's tables and figures.

Usage::

    python -m repro.bench list          # show available experiments
    python -m repro.bench table1 fig7   # run selected experiments
    python -m repro.bench all           # run everything

Each experiment is a pytest-benchmark test under ``benchmarks/``; this
command locates the repository's ``benchmarks/`` directory and runs the
matching files with output enabled. Reports also land in
``benchmarks/results/``.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

EXPERIMENTS = {
    "table1": "test_table1_latency.py",
    "table2": "test_table2_transfer.py",
    "fig1": "test_fig1_lbp_sweep.py",
    "fig3": "test_fig3_cxl_vs_dram.py",
    "fig7": "test_fig7_pooling_point_select.py",
    "fig8": "test_fig8_pooling_range_select.py",
    "fig9": "test_fig9_pooling_read_write.py",
    "fig10": "test_fig10_recovery.py",
    "fig11": "test_fig11_sharing_point_update.py",
    "fig12": "test_fig12_sharing_read_write.py",
    "fig13": "test_fig13_breakdown.py",
    "fig_scale": "test_fig_scale.py",
    "table3": "test_table3_tpcc_tatp.py",
    "ablations": "test_ablations.py",
    "counters": "test_counters_amplification.py",
    "spans": "test_spans_breakdown.py",
    "memsan": "test_memsan_fig13.py",
    "ha": "test_ha_scenarios.py",
}


def _benchmarks_dir() -> pathlib.Path:
    """Find benchmarks/ next to the repository's pyproject.toml."""
    for base in [pathlib.Path.cwd()] + list(pathlib.Path.cwd().parents):
        candidate = base / "benchmarks"
        if (base / "pyproject.toml").exists() and candidate.is_dir():
            return candidate
    # Fallback: relative to the installed source tree (editable install).
    here = pathlib.Path(__file__).resolve()
    for base in here.parents:
        candidate = base / "benchmarks"
        if candidate.is_dir():
            return candidate
    raise SystemExit(
        "could not locate the benchmarks/ directory; run from the repo root"
    )


def main(argv: list[str]) -> int:
    # --counters: also run the mechanism-counter export (trace-verified
    # bytes-moved amplification) alongside whatever was selected.
    with_counters = "--counters" in argv
    argv = [arg for arg in argv if arg != "--counters"]
    # --spans: install a SpanTracer inside the benchmark process (via
    # REPRO_BENCH_SPANS, consumed by benchmarks/conftest.py) so every
    # selected experiment also prints its span-derived latency breakdown.
    with_spans = "--spans" in argv
    argv = [arg for arg in argv if arg != "--spans"]
    # --memsan: install the CXL-MemSan race detector inside the
    # benchmark process (via REPRO_BENCH_MEMSAN, consumed by
    # benchmarks/conftest.py); any race report fails the run.
    with_memsan = "--memsan" in argv
    argv = [arg for arg in argv if arg != "--memsan"]
    # --ha: also run the fleet HA scenarios (availability timelines and
    # the warm-attach vs recovery comparison) alongside the selection.
    with_ha = "--ha" in argv
    argv = [arg for arg in argv if arg != "--ha"]
    # --metrics: install a live MetricsPipeline inside the benchmark
    # process (via REPRO_BENCH_METRICS, consumed by
    # benchmarks/conftest.py and per-point harnesses); experiments emit
    # canonical JSON metric timelines plus ASCII sparkline dashboards.
    with_metrics = "--metrics" in argv
    argv = [arg for arg in argv if arg != "--metrics"]
    # --jobs N: shard the selected experiment files across N concurrent
    # pytest processes (0 = one per core). Each experiment file is
    # self-contained, so file-level sharding preserves every number;
    # outputs are buffered and printed per shard to stay readable.
    jobs = 1
    if "--jobs" in argv:
        index = argv.index("--jobs")
        jobs = int(argv[index + 1])
        del argv[index : index + 2]
    if jobs == 0:
        jobs = os.cpu_count() or 1
    if not argv and with_ha:
        argv = ["ha"]
    if not argv and with_counters:
        argv = ["counters"]
    if not argv and with_spans:
        argv = ["spans"]
    if not argv and with_memsan:
        argv = ["memsan"]
    if not argv or argv[0] in ("-h", "--help", "list"):
        print("experiments:")
        for name, filename in EXPERIMENTS.items():
            print(f"  {name:10s} benchmarks/{filename}")
        print("\nusage: python -m repro.bench [--counters] [--spans] [--memsan] [--ha] [--metrics] [--jobs N] <experiment>... | all")
        return 0
    names = list(EXPERIMENTS) if argv == ["all"] else argv
    if with_counters and "counters" not in names:
        names.append("counters")
    if with_spans and "spans" not in names:
        names.append("spans")
    if with_memsan and "memsan" not in names:
        names.append("memsan")
    if with_ha and "ha" not in names:
        names.append("ha")
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        raise SystemExit(f"unknown experiment(s): {', '.join(unknown)}")
    bench_dir = _benchmarks_dir()
    files = [str(bench_dir / EXPERIMENTS[name]) for name in names]
    env = dict(os.environ)
    if with_spans or "spans" in names:
        env["REPRO_BENCH_SPANS"] = "1"
    if with_memsan or "memsan" in names:
        env["REPRO_BENCH_MEMSAN"] = "1"
    if with_metrics:
        env["REPRO_BENCH_METRICS"] = "1"
    # fig_scale parallelizes *within* its file (one work unit per scale
    # point); hand it the --jobs value since file-level sharding cannot
    # split a single experiment.
    env["REPRO_BENCH_JOBS"] = str(jobs)

    def pytest_command(selected: list[str]) -> list[str]:
        return [
            sys.executable,
            "-m",
            "pytest",
            *selected,
            "--benchmark-only",
            "-q",
            "-s",
        ]

    if jobs > 1 and len(files) > 1:
        import tempfile

        shards = [files[i::jobs] for i in range(jobs) if files[i::jobs]]
        procs = []
        for shard in shards:
            handle = tempfile.TemporaryFile("w+")
            procs.append(
                (
                    subprocess.Popen(
                        pytest_command(shard),
                        env=env,
                        stdout=handle,
                        stderr=subprocess.STDOUT,
                    ),
                    handle,
                )
            )
        code = 0
        for proc, handle in procs:
            code = max(code, proc.wait())
            handle.seek(0)
            sys.stdout.write(handle.read())
            handle.close()
        return code
    return subprocess.call(pytest_command(files), env=env)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
