"""Compare two result files written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py A.json B.json

A is the base. Per workload and end-to-end metric it prints both medians
with their quartiles, the ratio B/A and a verdict against the metric's
bound in BENCHMARK.json: ``same``, ``worse``, ``better``, or
``unresolved`` when either side's inter-quartile spread exceeds the bound
or, for unscaled host seconds, the two sides' calibration spins differ by
more than 5 %.
Simulated results, digests, call counts and modelled-component counters
are exact for a fixed seed, so runs of the same workload, pass and seed
are compared for equality. For traced runs it also lists each layer's
self time per unit side by side, to show where a difference sits.
Exits 1 on any ``worse`` or any inequality.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import quartiles

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
CALIB_TOLERANCE = 0.05


def load(path: str) -> dict:
    """(workload, trace) -> that group's runs, in file order."""
    groups: dict = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        groups.setdefault((run["workload"], run["trace"]), []).append(run)
    return groups


def summary(values: list) -> tuple:
    """(median, q1, q3, spread as a share of the median)."""
    q1, q2, q3 = quartiles(values)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else 0.0


def verdict(metric: dict, a: tuple, b: tuple, calib_a: float, calib_b: float) -> str:
    bound = metric["bound"]
    if max(a[3], b[3]) > bound:
        return "unresolved (spread)"
    unscaled_time = metric["unit"] == "s"  # units_per_host_s is already scaled
    if unscaled_time and abs(calib_b - calib_a) / calib_a > CALIB_TOLERANCE:
        return "unresolved (calibration)"
    worse_by = (b[0] - a[0]) / a[0] if metric["better"] == "lower" else (a[0] - b[0]) / a[0]
    if worse_by > bound:
        return "worse"
    return "better" if worse_by < -bound else "same"


def compare_end_to_end(spec: dict, workload: str, runs_a: list, runs_b: list) -> int:
    bad = 0
    calib_a, calib_b = (
        statistics.median(run["provenance"]["calib_ms"] for run in runs)
        for runs in (runs_a, runs_b)
    )
    for metric in spec["end_to_end"]:
        name = metric["name"]
        a, b = (
            summary([v for run in runs for v in run["samples"][name]])
            for runs in (runs_a, runs_b)
        )
        word = verdict(metric, a, b, calib_a, calib_b)
        bad += word == "worse"
        print(
            f"{workload:26s} {name:18s} A {a[0]:.5g} [{a[1]:.5g}, {a[2]:.5g}]  "
            f"B {b[0]:.5g} [{b[1]:.5g}, {b[2]:.5g}]  "
            f"B/A {b[0] / a[0]:.3f} (base A, {metric['unit']}, bound {metric['bound']})  {word}"
        )
    return bad


def compare_exact(key: tuple, runs_a: list, runs_b: list) -> tuple:
    """(pairs of runs with the same seed, values that differ)."""
    pairs = bad = 0
    for run_a in runs_a:
        for run_b in runs_b:
            if run_a["seed"] != run_b["seed"]:
                continue
            pairs += 1
            for name in sorted(set(run_a["exact"]) & set(run_b["exact"])):
                if run_a["exact"][name] != run_b["exact"][name]:
                    bad += 1
                    print(
                        f"{key[0]} trace={key[1]} seed={run_a['seed']} {name}: "
                        f"A {run_a['exact'][name]!r} != B {run_b['exact'][name]!r}  NOT EQUAL"
                    )
    return pairs, bad


def print_layers(workload: str, run_a: dict, run_b: dict) -> None:
    for name, entry in run_a["metrics"].items():
        if name.endswith(".self_us_per_unit") and name in run_b["metrics"]:
            a, b = entry["value"], run_b["metrics"][name]["value"]
            if a or b:
                print(f"{workload:26s} {name:34s} A {a:10.1f}  B {b:10.1f}  us/unit")


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    groups_a, groups_b = load(argv[0]), load(argv[1])
    bad = compared = 0
    for key in sorted(set(groups_a) & set(groups_b)):
        runs_a, runs_b = groups_a[key], groups_b[key]
        if key[1] == 0:
            bad += compare_end_to_end(spec, key[0], runs_a, runs_b)
        else:
            print_layers(key[0], runs_a[0], runs_b[0])
        pairs, unequal = compare_exact(key, runs_a, runs_b)
        bad += unequal
        compared += 1
        failed = sum(run["failed"] for run in runs_a + runs_b)
        print(
            f"{key[0]:26s} trace={key[1]} exact metrics over {pairs} same-seed pair(s): "
            f"{f'{unequal} NOT EQUAL' if unequal else 'equal'}; failed checks: {failed}"
        )
    if not compared:
        print("no workload and pass is in both files")
        return 2
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
