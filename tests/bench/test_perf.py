"""The perf-regression harness itself: equivalence, benches, CLI.

Speed is judged by the end-to-end benchmark (``benchmarks/e2e``); the
harness's own ratio gate (``--min-speedup``, default 1.5) stays
available from ``python -m repro.bench perf``. Here the pieces run at
small scale with that gate off: what must hold on any box, however
stalled, is that the differentials pass, every bench runs and returns a
rate, and the report has its shape.
"""

import json

from repro.bench.perf import (
    bench_event_loop,
    bench_metered_access,
    bench_page_burst,
    bench_tracer_overhead,
    check_equivalence,
    main,
)


def test_check_equivalence_passes():
    # Optimized metering charges byte-identical ns/counters/transfers
    # to the frozen pre-optimization reference implementations (the
    # pooled access mix, then the sharing path's lock cycles).
    check_equivalence(n_accesses=5_000)


def test_individual_benches_return_rates():
    assert bench_event_loop(2_000, optimized=True) > 0
    assert bench_event_loop(2_000, optimized=False) > 0
    assert bench_metered_access(2_000, optimized=True) > 0
    assert bench_metered_access(2_000, optimized=False) > 0
    assert bench_page_burst(500, optimized=True) > 0
    assert bench_page_burst(500, optimized=False) > 0
    off, on = bench_tracer_overhead(2_000)
    assert off > 0 and on > 0


def test_perf_cli_writes_report(tmp_path):
    out = tmp_path / "BENCH_perf.json"
    # run_perf opens with check_equivalence() and check_kernel_order().
    code = main(["--quick", "--min-speedup", "0", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == 1 and report["quick"] is True
    for key in ("event_loop", "event_burst", "metered_access", "page_burst"):
        assert report[key]["speedup"] > 0
        assert report[key]["reference_per_sec"] > 0
    for key in ("tracer_overhead", "spans_overhead", "memsan_overhead", "metrics_overhead"):
        rates = [v for k, v in report[key].items() if k.endswith("_per_sec")]
        assert len(rates) == 2 and min(rates) > 0
    assert report["sweep_parallel"]["merged_identical"] is True
    assert report["explore"]["clean"] is True
    fig7 = report["fig7_slice"]
    assert fig7["qps"] > 0 and fig7["events_scheduled"] > 0


def test_perf_cli_rejects_unknown_options(tmp_path):
    import pytest

    with pytest.raises(SystemExit, match="unknown perf option"):
        main(["--frobnicate"])
