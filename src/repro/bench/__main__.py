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

import argparse
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


def _experiment(name: str) -> str:
    # A type, not choices=: argparse checks an empty nargs="*" list
    # against choices= and rejects it.
    if name not in EXPERIMENTS and name not in ("all", "list"):
        raise argparse.ArgumentTypeError(
            f"unknown experiment {name!r} (known: {', '.join(EXPERIMENTS)})"
        )
    return name


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
        epilog="experiments:\n"
        + "\n".join(
            f"  {name:10s} benchmarks/{file}" for name, file in EXPERIMENTS.items()
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        type=_experiment,
        metavar="experiment",
        help="experiment names, 'all', or 'list' (the default)",
    )
    # --metrics adds "metrics" to pytest's --instruments, and
    # benchmarks/conftest.py installs one session-wide MetricsPipeline.
    # --jobs shards whole experiment files, which are self-contained, so
    # every number is the same at any --jobs.
    parser.add_argument(
        "--metrics", action="store_true", help="sample every run's metrics"
    )
    parser.add_argument(
        "--jobs", type=int, default=1, help="pytest processes (0 = one per core)"
    )
    return parser


def main(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code:
            raise
        return 0  # --help
    names = args.experiments
    if not names or "list" in names:
        parser.print_help()
        return 0
    if "all" in names:
        names = list(EXPERIMENTS)
    jobs = args.jobs or os.cpu_count() or 1
    bench_dir = _benchmarks_dir()
    files = [str(bench_dir / EXPERIMENTS[name]) for name in names]
    # Naming spans / memsan installs that instrument for the whole
    # pytest session (benchmarks/conftest.py), so every experiment
    # selected with it also runs under it.
    instruments = [name for name in ("spans", "memsan") if name in names]
    if args.metrics:
        instruments.append("metrics")

    def pytest_command(selected: list[str]) -> list[str]:
        return [
            sys.executable,
            "-m",
            "pytest",
            *selected,
            "--benchmark-only",
            "-q",
            "-s",
            f"--instruments={','.join(instruments)}",
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
    return subprocess.call(pytest_command(files))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
