"""CLI: run fleet HA scenarios.

::

    python -m repro.ha rolling-crash join-leave
    python -m repro.ha --json all
    python -m repro.ha --quick join-leave   # skip recovery baselines

Every scenario always runs under the full monitoring stack — MemSan,
trace invariants, span crash-abandon checks, and the committed-state
oracle; a non-zero exit means one of them (or the scenario script
itself) failed. ``--json`` prints each scenario's availability timeline
as canonical JSON instead of the summary lines.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .scenarios import SCENARIOS


def build_parser() -> argparse.ArgumentParser:
    """The scenario grammar; ``python -m repro.obs`` extends it."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.ha",
        description="Fleet HA scenarios (rolling crashes, join/leave, "
        "failover storms, graceful degradation) under MemSan and the "
        "committed-state oracle.",
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
        help="print canonical JSON instead of the summary lines",
    )
    return parser


def selected(args: argparse.Namespace) -> list[tuple[str, dict]]:
    """The scenarios ``args`` names, each with its keyword arguments."""
    names = sorted(SCENARIOS) if "all" in args.scenarios else args.scenarios
    runs = []
    for name in names:
        kwargs: dict = {}
        if args.seed is not None:
            kwargs["seed"] = args.seed
        if name == "join-leave" and args.quick:
            kwargs["with_baselines"] = False
        runs.append((name, kwargs))
    return runs


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    failed = 0
    for name, kwargs in selected(args):
        try:
            result = SCENARIOS[name](**kwargs)
        except Exception as exc:  # surfaced per-scenario, keep going
            print(f"{name}: FAILED — {exc}", file=sys.stderr)
            failed += 1
            continue
        if args.json:
            print(result.timeline.to_json(), end="")
        else:
            print(f"{name} (seed {result.seed}):")
            for line in result.summary_lines():
                print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
