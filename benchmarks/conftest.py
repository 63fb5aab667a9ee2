"""Shared helpers for the per-figure benchmarks.

Every benchmark regenerates one of the paper's tables or figures,
prints it (visible with ``-s``), saves it under ``benchmarks/results/``
and asserts the paper's qualitative shape. Absolute numbers belong to
the authors' testbed; shapes are what the reproduction owes.

``python -m repro.bench`` asks this process for instruments with the
``--instruments`` option registered below (``spans`` / ``memsan`` when
that experiment is named, ``metrics`` under ``--metrics``); the autouse
fixture below installs them session-wide through one
:class:`~repro.analysis.checked.CheckedRun`, so every selected benchmark
runs under them.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
INSTRUMENTS = ("spans", "memsan", "metrics")


def pytest_addoption(parser):
    parser.addoption(
        "--instruments",
        default="",
        help=f"comma-separated instruments for the whole session: {', '.join(INSTRUMENTS)}",
    )


def save_report(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(text)


@pytest.fixture
def report():
    return save_report


@pytest.fixture(scope="session", autouse=True)
def _bench_instruments(request):
    """Install the requested instruments for the whole run.

    Drivers anchor a metrics pipeline to their simulator at every run
    start (a fresh measurement epoch per experiment), so one
    session-wide pipeline can follow many back-to-back simulations.
    Per-point harnesses that want a single-simulation timeline
    (``fig_scale``, the HA scenarios) install their own fresh pipeline
    instead when none is installed. ``build_sharing_setup`` registers
    every shared CXL region with an installed MemSan, so all selected
    experiments run under race detection; any report fails the session
    at teardown. An instrument the caller already installed is left to
    the caller.
    """
    from repro.analysis.checked import CheckedRun

    named = set(filter(None, request.config.getoption("instruments").split(",")))
    if unknown := named.difference(INSTRUMENTS):
        raise pytest.UsageError(f"unknown instruments {sorted(unknown)}")
    with CheckedRun(
        spans="spans" in named, metrics="metrics" in named, memsan="memsan" in named
    ) as run:
        yield run
        pipeline = run.metrics
        if pipeline is not None:
            print(
                f"[metrics] {pipeline.scrapes} scrape(s), "
                f"{pipeline.samples_published} sample(s) across "
                f"{len(pipeline.all_series())} series, "
                f"{pipeline.total_dropped} dropped"
            )
        if run.memsan is not None:
            run.memsan.check()
