"""Shared helpers for the per-figure benchmarks.

Every benchmark regenerates one of the paper's tables or figures,
prints it (visible with ``-s``), saves it under ``benchmarks/results/``
and asserts the paper's qualitative shape. Absolute numbers belong to
the authors' testbed; shapes are what the reproduction owes.

``python -m repro.bench`` asks this process for instruments through
the environment (``REPRO_BENCH_SPANS`` / ``REPRO_BENCH_MEMSAN`` when
``spans`` / ``memsan`` is named, ``REPRO_BENCH_METRICS`` under
``--metrics``); the autouse fixtures below install each one
session-wide, so every selected benchmark runs under it.
"""

from __future__ import annotations

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def save_report(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(text)


@pytest.fixture
def report():
    return save_report


@pytest.fixture(scope="session", autouse=True)
def _bench_span_tracer():
    """Install a SpanTracer for the whole run when ``spans`` is named."""
    if os.environ.get("REPRO_BENCH_SPANS") != "1":
        yield None
        return
    from repro.obs.probes import PROBES
    from repro.obs.spans import SpanTracer

    if PROBES.spans is not None:  # the caller already installed one
        yield PROBES.spans
        return
    with SpanTracer() as tracer:
        yield tracer


@pytest.fixture
def span_tracer():
    """The installed SpanTracer, or None when spans were not requested."""
    from repro.obs.probes import PROBES

    return PROBES.spans


@pytest.fixture(scope="session", autouse=True)
def _bench_metrics():
    """Install a MetricsPipeline when --metrics asked for one.

    Drivers anchor the pipeline to their simulator at every run start
    (a fresh measurement epoch per experiment), so one session-wide
    pipeline can follow many back-to-back simulations. Per-point
    harnesses that want a single-simulation timeline (``fig_scale``,
    the HA scenarios) install their own fresh pipeline instead when
    none is installed.
    """
    if os.environ.get("REPRO_BENCH_METRICS") != "1":
        yield None
        return
    from repro.obs.metrics import MetricsPipeline
    from repro.obs.probes import PROBES

    if PROBES.metrics is not None:  # the caller already installed one
        yield PROBES.metrics
        return
    with MetricsPipeline() as pipeline:
        yield pipeline
        print(
            f"[metrics] {pipeline.scrapes} scrape(s), "
            f"{pipeline.samples_published} sample(s) across "
            f"{len(pipeline.all_series())} series, "
            f"{pipeline.total_dropped} dropped"
        )


@pytest.fixture(scope="session", autouse=True)
def _bench_memsan():
    """Install CXL-MemSan for the whole run when ``memsan`` is named.

    ``build_sharing_setup`` registers every shared CXL region with the
    installed detector, so all selected experiments run under race
    detection; any report fails the session at teardown.
    """
    if os.environ.get("REPRO_BENCH_MEMSAN") != "1":
        yield None
        return
    from repro.analysis.memsan import MemSan
    from repro.obs.probes import PROBES

    if PROBES.memsan is not None:  # the caller already installed one
        yield PROBES.memsan
        return
    with MemSan() as ms:
        yield ms
        ms.check()
