"""CLI: run fleet HA scenarios under the live telemetry pipeline.

::

    python -m repro.obs rolling-crash degraded-mode
    python -m repro.obs --json all
    python -m repro.obs --interval-ns 50000 failover-storm
    python -m repro.obs --quick join-leave   # skip recovery baselines

Each scenario runs with a fresh :class:`~repro.obs.metrics.MetricsPipeline`
installed at the chosen sim-time scrape interval, so one invocation
prints the full observability story: the per-series sparkline
dashboard, the SLO monitor's burn-rate alerts (checked against the
availability timeline by the scenario oracle), and the derived
per-entity health timelines. ``--json`` emits one canonical JSON
document per scenario instead — metric timelines, SLO state, and
health intervals under sorted keys, byte-stable for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from ..bench.report import format_metrics_dashboard
from ..ha.__main__ import build_parser as build_ha_parser, selected
from ..ha.scenarios import SCENARIOS
from .metrics import MetricsPipeline
from .slo import HealthTimeline


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Fleet HA scenarios under live telemetry: sim-time "
        "metric scrapes, SLO burn-rate alerting, and per-shard health "
        "timelines.",
        parents=[build_ha_parser()],
        add_help=False,  # the -h comes with the scenario grammar
    )
    parser.add_argument(
        "--interval-ns",
        type=float,
        default=100_000.0,
        help="sim-time scrape interval in ns (default 100000 = 100 us)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    failed = 0
    for name, kwargs in selected(args):
        pipeline = MetricsPipeline(scrape_interval_ns=args.interval_ns)
        try:
            with pipeline:
                result = SCENARIOS[name](**kwargs)
            pipeline.check_consistent()
        except Exception as exc:  # surfaced per-scenario, keep going
            print(f"{name}: FAILED — {exc}", file=sys.stderr)
            failed += 1
            continue
        health = HealthTimeline.derive(pipeline)
        if args.json:
            payload = {
                "scenario": name,
                "seed": result.seed,
                "metrics": json.loads(pipeline.to_json()),
                "slo": result.slo,
                "health": health.to_dict(),
            }
            print(json.dumps(payload, sort_keys=True, indent=2))
        else:
            print(f"{name} (seed {result.seed}):")
            for line in result.summary_lines():
                print(line)
            print(format_metrics_dashboard(pipeline, title=f"{name} metrics"))
            for line in health.summary_lines():
                print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
