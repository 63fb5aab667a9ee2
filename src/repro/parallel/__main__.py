"""CLI for the crash sweeps and the sharded sharing stress.

::

    python -m repro.parallel sweep  --scenario all
    python -m repro.parallel sweep  --scenario workload --point \\
        mtr.write.applied --hit 3          # replay one coordinate
    python -m repro.parallel stress --system cxl --seeds 200 --jobs 4

The sweeps run serially: a whole sweep costs less than one spawn
worker. Only ``stress`` takes ``--jobs``. Canonical JSON goes to stdout
(or ``--json PATH``); the human summary goes to stderr; the exit code is
non-zero iff any coordinate, seed, or convergence check failed.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from ..faults.sweep import SCENARIOS, SweepReport, report_to_json
from .stress import run_sharing_stress


def _emit(blob: str, json_path: Optional[str]) -> None:
    if json_path:
        with open(json_path, "w") as handle:
            handle.write(blob)
    else:
        sys.stdout.write(blob)


def _cmd_sweep(args: argparse.Namespace) -> int:
    if (args.point is None) != (args.hit is None):
        print("--point and --hit must be given together", file=sys.stderr)
        return 2
    only = (args.point, args.hit) if args.point is not None else None
    if only and args.scenario == "all":
        print("--point/--hit need a single --scenario", file=sys.stderr)
        return 2
    names = list(SCENARIOS) if args.scenario == "all" else [args.scenario]
    blobs = []
    ok = True
    for name in names:
        report: SweepReport = SCENARIOS[name](
            seed=args.seed,
            max_hits_per_point=args.max_hits,
            limit=args.limit,
            only=only,
        )
        blobs.append(report_to_json(report))
        bad = report.failures()
        print(
            f"{report.scenario}: {len(report.outcomes)} coordinate(s), "
            f"{len(bad)} failing",
            file=sys.stderr,
        )
        for outcome in bad:
            print(
                f"  FAIL {outcome.point}#{outcome.hit}: "
                f"{outcome.detail or 'did not crash'}",
                file=sys.stderr,
            )
        ok = ok and not bad
    _emit("".join(blobs), args.json)
    return 0 if ok else 1


def _cmd_stress(args: argparse.Namespace) -> int:
    report = run_sharing_stress(
        system=args.system,
        n_seeds=args.seeds,
        shard_size=args.shard_size,
        jobs=args.jobs,
        base_seed=args.base_seed,
    )
    print(
        f"stress {report.system}: {report.n_seeds} seed(s) in "
        f"{len(report.shards)} shard(s), {len(report.failures)} failure(s), "
        f"totals {report.totals()}",
        file=sys.stderr,
    )
    for failure in report.failures:
        print(f"  FAIL {failure}", file=sys.stderr)
    _emit(report.to_json(), args.json)
    return 0 if report.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.parallel", description=__doc__
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="crash-anywhere / failover sweeps")
    sweep.add_argument(
        "--scenario",
        choices=[*SCENARIOS, "all"],
        default="all",
        help="which sweep to run (default: all)",
    )
    sweep.add_argument("--seed", type=int, default=7)
    sweep.add_argument("--max-hits", type=int, default=2, dest="max_hits")
    sweep.add_argument(
        "--limit", type=int, default=None, help="sweep only the first N coordinates"
    )
    sweep.add_argument("--point", default=None, help="replay one crash point")
    sweep.add_argument("--hit", type=int, default=None, help="its hit count")
    sweep.add_argument("--json", default=None, help="write JSON report here")
    sweep.set_defaults(func=_cmd_sweep)

    stress = sub.add_parser("stress", help="sharded sharing coherency stress")
    stress.add_argument("--system", choices=["cxl", "rdma"], default="cxl")
    stress.add_argument("--seeds", type=int, default=200)
    stress.add_argument("--shard-size", type=int, default=50, dest="shard_size")
    stress.add_argument("--jobs", type=int, default=1, help="0 = all cores")
    stress.add_argument("--base-seed", type=int, default=1000, dest="base_seed")
    stress.add_argument("--json", default=None, help="write JSON report here")
    stress.set_defaults(func=_cmd_stress)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
