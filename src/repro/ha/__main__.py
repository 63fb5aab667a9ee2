"""CLI: run fleet HA scenarios.

::

    python -m repro.ha rolling-crash join-leave
    python -m repro.ha --json all
    python -m repro.ha --quick join-leave   # skip recovery baselines

Every scenario runs under the full monitoring stack — MemSan, trace
invariants, span crash-abandon checks, the committed-state oracle and
its own metrics pipeline (100 us sim-time scrapes), whose SLO alerts
must align with the availability timeline; a non-zero exit means one of
them (or the scenario script itself) failed. Each scenario prints its
summary (phases, oracle counts, SLO verdict, alerts, health arcs) and
the sparkline dashboard; ``--json`` prints its canonical document
instead: metric series, SLO state, health intervals and availability
timeline under sorted keys, byte-stable for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from ..obs.metrics import format_metrics_dashboard
from .scenarios import SCENARIOS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.ha",
        description="Fleet HA scenarios (rolling crashes, join/leave, "
        "failover storms, graceful degradation) under MemSan, the "
        "committed-state oracle and live telemetry: sim-time metric "
        "scrapes, SLO burn-rate alerting and per-shard health timelines.",
    )
    parser.add_argument(
        "scenarios",
        nargs="+",
        choices=sorted(SCENARIOS) + ["all"],
        help="scenario names, or 'all'",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the seed")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="skip the ARIES/RDMA recovery baselines in join-leave",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print canonical JSON instead of the summary and dashboard",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    names = sorted(SCENARIOS) if "all" in args.scenarios else args.scenarios
    failed = 0
    for name in names:
        kwargs: dict = {}
        if args.seed is not None:
            kwargs["seed"] = args.seed
        if name == "join-leave" and args.quick:
            kwargs["with_baselines"] = False
        try:
            result = SCENARIOS[name](**kwargs)
        except Exception as exc:  # surfaced per-scenario, keep going
            print(f"{name}: FAILED — {exc}", file=sys.stderr)
            failed += 1
            continue
        if args.json:
            print(json.dumps(result.to_dict(), sort_keys=True, indent=2))
        else:
            for line in result.summary_lines():
                print(line)
            print(format_metrics_dashboard(result.metrics, title=f"{name} metrics"))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
