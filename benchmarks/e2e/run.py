"""End-to-end benchmark of the repository: host cost of producing
simulated results, the simulated results themselves, and where the host
time went.

    python3 benchmarks/e2e/run.py --workload NAME [--seed N] [--seconds S]
                                  [--trace 0|1] [--out PATH] [--trace-out PATH]
    python3 benchmarks/e2e/run.py [--smoke] [--out PATH]     # every workload

One invocation with ``--workload`` measures one workload in this very
process (single-threaded; nothing else is started). ``--trace 0`` sets
up several times, then repeats the workload's timed call for
``--seconds`` and reports the end-to-end metrics; ``--trace 1`` sets up
once, runs ``EXACT_REPS`` plain reps and then reps under ``cProfile``,
and reports the per-layer metrics. The last line of standard output is
one JSON object; the exit code is non-zero when any output check failed.
Without ``--workload`` every workload runs, one child interpreter after
another (never two at once), untraced then traced.

Metric names, units, directions and bounds live in BENCHMARK.json; see
README.md for what each metric means and which layer should move which.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
PACKAGE = ROOT / "src" / "repro"

SETUPS = 3  # world builds per untraced run; setup_s takes their median
# Every run makes at least this many timed reps, however short --seconds
# is, and exact metrics are taken over these first ones only, so that they
# do not depend on how many reps the host had time for.
EXACT_REPS = 2

# This box's speed drifts by a quarter within seconds and sits in a slow
# or a fast mode for a whole run (other tenants). A fixed pure-Python spin
# before every rep records the box's speed; units_per_host_s is scaled by
# the run's median spin to a box on which the spin takes CALIB_REF_MS,
# which halves its run-to-run spread or better on every workload. Scaling
# rep by rep does not: spin and workload slow down at different moments.
CALIB_ITERS = 1_000_000
CALIB_REF_MS = 30.0


def calibrate() -> float:
    """One calibration spin, in ms."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIB_ITERS):
        acc += i & 7
    return (time.perf_counter() - start) * 1e3


class Spans:
    """Benchmark-level phases as spans (name, start, end, parent), kept
    in memory and written out as Chrome-trace JSON at exit."""

    def __init__(self) -> None:
        self.spans: list = []
        self._open: list = []

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1]["name"] if self._open else None,
        }
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def write_chrome_trace(self, path: str) -> None:
        events = [
            {
                "name": s["name"],
                "ph": "X",
                "ts": s["start"] * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "pid": 0,
                "tid": 0,
                "args": {"parent": s["parent"]},
            }
            for s in self.spans
        ]
        Path(path).write_text(json.dumps({"traceEvents": events}) + "\n")


def quartiles(values: list) -> tuple:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def commit() -> str:
    """HEAD's commit, read without starting git; a bare checkout has none."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


# -- metric names ------------------------------------------------------------

# name -> (key in a rep's counters or instruments, what it is divided by)
COUNTER_METRICS = {
    "sim.core.events_per_unit": ("sim.events", "unit"),
    "sim.other.lock_waits_per_unit": ("sim.lock_waits", "unit"),
    "hardware.memory.cxl_bytes_per_unit": ("bytes_moved.cxl", "unit"),
    "hardware.memory.rdma_bytes_per_unit": ("bytes_moved.rdma", "unit"),
    "hardware.cache.lines_flushed_per_unit": ("meter.lines_flushed", "unit"),
    "db.pool_evictions_per_unit": ("pool_stats.evictions", "unit"),
    "baselines.remote_fetches_per_unit": ("pool_stats.remote_fetches", "unit"),
    "storage.storage_bytes_per_unit": ("bytes_moved.storage", "unit"),
    "storage.wal_bytes_per_unit": ("bytes_moved.wal", "unit"),
    "storage.redo_records_per_unit": ("meter.redo_records", "unit"),
    "core.fusion_rpcs_per_unit": ("meter.fusion_rpcs", "unit"),
    "core.invalidations_pushed_per_unit": ("fusion_stats.invalidations_pushed", "unit"),
    "core.flag_reads_per_unit": ("meter.flag_reads", "unit"),
    "core.flag_stores_per_unit": ("meter.flag_stores", "unit"),
    "core.rpc_retries_per_unit": ("pool_stats.rpc_retries", "unit"),
    "obs.trace_events_per_unit": ("obs.trace_events", "unit"),
    "obs.spans_per_unit": ("obs.spans", "unit"),
    "obs.metrics_samples_per_unit": ("obs.metrics_samples", "unit"),
    "analysis.memsan_accesses_per_unit": ("analysis.memsan_accesses", "unit"),
    "faults.coords_per_rep": ("faults.coords", "rep"),
    "faults.distinct_points": ("faults.distinct_points", "rep"),
}
SIM_METRICS = (
    "sim_qps",
    "sim_avg_latency_us",
    "sim_p95_latency_us",
    "sim_interconnect_bytes_per_txn",
)
LAYER_SUFFIXES = ("self_us_per_unit", "self_share", "calls_per_unit")
E2E_METRICS = ("setup_s", "units_per_host_s", "peak_rss_mb")
PER_LAYER_METRICS = (
    tuple(f"{layer}.{suffix}" for layer in layers.LAYERS for suffix in LAYER_SUFFIXES)
    + (
        "runner.trace_overhead_ratio",
        "runner.calib_ms",
        "runner.instrument_overhead_ratio",
        "hardware.memory.accesses_per_unit",
        "db.pool_hit_ratio",
    )
    + tuple(COUNTER_METRICS)
    + SIM_METRICS
)


def exact_metrics(reps: list) -> dict:
    """Simulated results and modelled-component counts over ``reps``;
    both repeat exactly for a fixed seed. A metric that does not exist on
    a workload (simulated latency of a crash sweep, evictions of a pool
    that never evicts) reads 0."""
    units = sum(rep.units for rep in reps) or 1
    total: dict = {}
    for rep in reps:
        for source in (rep.counters, rep.instruments):
            for key, value in source.items():
                if not isinstance(value, str):
                    total[key] = total.get(key, 0) + value
    out = {
        name: total.get(key, 0) / (units if per == "unit" else len(reps))
        for name, (key, per) in COUNTER_METRICS.items()
    }
    hits = total.get("pool_stats.hits", 0)
    lookups = hits + total.get("pool_stats.misses", 0)
    out["db.pool_hit_ratio"] = hits / lookups if lookups else 0.0
    out.update(dict.fromkeys(SIM_METRICS, 0.0))
    sims = [rep.sim for rep in reps if rep.sim]
    txns = sum(sim["txns"] for sim in sims)
    if txns:
        elapsed_ns = sum(sim["elapsed_ns"] for sim in sims)
        out["sim_qps"] = sum(sim["queries"] for sim in sims) * 1e9 / elapsed_ns
        out["sim_avg_latency_us"] = (
            sum(sim["txns"] * sim["avg_latency_ns"] for sim in sims) / txns / 1e3
        )
        out["sim_p95_latency_us"] = max(sim["p95_latency_ns"] for sim in sims) / 1e3
        out["sim_interconnect_bytes_per_txn"] = (
            total.get("bytes_moved.interconnect", 0) / txns
        )
    return out


# -- one workload ------------------------------------------------------------


class Run:
    """One workload, one seed, one pass (untraced or traced)."""

    def __init__(self, args: argparse.Namespace, started: float) -> None:
        self.args = args
        self.traced = bool(args.trace)
        self.spans = Spans()
        if str(PACKAGE.parent) not in sys.path:
            sys.path.insert(0, str(PACKAGE.parent))
        with self.spans.span("import") as span:
            import workloads

        self.import_s = span["end"] - started
        self.wl = workloads
        self.workload = workloads.WORKLOADS[args.workload]
        self.world = None
        self.build_s: list = []
        self.reps: list = []  # reps[0] is the discarded warm-up
        self.spins_ms: list = []
        self.alive = True  # False once a rep raised: the world is unusable
        self.fold = layers.LayerFold(PACKAGE)  # every traced rep
        self.first_stats: list = []  # the first traced rep's profile

    def build(self) -> None:
        for k in range(1 if self.traced or self.args.smoke else SETUPS):
            self.world = None  # drop the previous world: peak RSS is one world
            timed = self.wl.Timed()
            with self.spans.span(f"build[{k}]"), timed:
                self.world = self.workload.build(self.args.seed)
            self.build_s.append(timed.seconds)

    def rep(self, name: str, profile=None) -> None:
        index = len(self.reps)
        self.spins_ms.append(calibrate())
        timed = self.wl.Timed(profile)
        with self.spans.span(f"{name}[{index}]"):
            try:
                rep = self.workload.rep(self.world, self.args.seed, index, timed)
            except Exception:
                # A rep that raises fails all its units. Report it and go
                # on to the result line; there is no world to continue on.
                traceback.print_exc()
                rep = self.wl.Rep(0, max(1, self.workload.expected), {}, {})
                rep.failures.append(f"{name}[{index}] raised (traceback on stderr)")
                self.alive = False
        rep.seconds = timed.seconds
        self.reps.append(rep)

    def measure(self) -> None:
        self.rep("warmup")
        deadline = time.perf_counter() + (0 if self.args.smoke else self.args.seconds)

        def more(minimum: int) -> bool:
            timed_reps = len(self.reps) - 1
            return self.alive and (timed_reps < minimum or time.perf_counter() < deadline)

        with self.spans.span("measure"):
            if not self.traced:
                while more(EXACT_REPS):
                    self.rep("rep")
                return
            while self.alive and len(self.reps) - 1 < EXACT_REPS:
                self.rep("rep")
            while more(EXACT_REPS + 1):
                profile = cProfile.Profile()
                self.rep("trace_rep", profile)
                stats = profile.getstats()
                self.fold.add(stats)
                if not self.first_stats:
                    self.first_stats = stats

    def rate(self) -> float:
        """Median units per host second over the timed reps, as measured."""
        return statistics.median(rep.units / rep.seconds for rep in self.reps[1:])

    def end_to_end(self, peak_rss_mb: float) -> dict:
        """Samples behind each end-to-end metric; its value is their median."""
        warmup_s = self.reps[0].seconds
        box_speed = statistics.median(self.spins_ms) / CALIB_REF_MS  # > 1: a slow box
        return {
            "setup_s": [self.import_s + b + warmup_s for b in self.build_s],
            "units_per_host_s": [
                rep.units / rep.seconds * box_speed for rep in self.reps[1:]
            ],
            "peak_rss_mb": [peak_rss_mb],
        }

    def per_layer(self, exact: dict, twin_seconds: list) -> dict:
        plain = self.reps[1 : 1 + EXACT_REPS]
        profiled = self.reps[1 + EXACT_REPS :]
        units = sum(rep.units for rep in profiled) or 1
        wall_s = sum(rep.seconds for rep in profiled)
        # Call counts come from the first traced rep alone: it always starts
        # from the same world state, so they repeat exactly.
        first_units = profiled[0].units or 1
        first_fold = layers.LayerFold(PACKAGE)
        first_fold.add(self.first_stats)
        metrics = {}
        for layer in layers.LAYERS:
            metrics[f"{layer}.self_us_per_unit"] = self.fold.self_s[layer] * 1e6 / units
            metrics[f"{layer}.self_share"] = self.fold.self_s[layer] / wall_s
            metrics[f"{layer}.calls_per_unit"] = first_fold.calls_in[layer] / first_units
        plain_s = statistics.median(rep.seconds for rep in plain)
        metrics["runner.trace_overhead_ratio"] = (
            statistics.median(rep.seconds for rep in profiled) / plain_s
        )
        metrics["runner.calib_ms"] = statistics.median(self.spins_ms)
        # Host time of this workload's rep over the same traffic with no
        # instrument installed; 1 on a workload that installs none.
        metrics["runner.instrument_overhead_ratio"] = (
            plain_s / statistics.median(twin_seconds) if twin_seconds else 1.0
        )
        accesses = layers.call_count(self.first_stats, self.wl.ACCESS_CODES)
        metrics["hardware.memory.accesses_per_unit"] = accesses / first_units
        metrics.update(exact)
        return metrics


def run_workload(args: argparse.Namespace, spec: dict, started: float) -> int:
    load_before = os.getloadavg()[0]
    run = Run(args, started)
    layers.check_names(
        [w["name"] for w in spec["workloads"]], list(run.wl.WORKLOADS), "workloads"
    )
    run.build()
    run.measure()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux: KB

    reps = run.reps[1:]
    attempted = sum(rep.expected for rep in reps)
    failed = sum(rep.expected - rep.units for rep in reps)
    notes = [line for rep in reps for line in rep.failures]
    exact = exact_metrics(reps[:EXACT_REPS])
    samples: dict = {}
    metrics: dict = {}  # stays empty when a rep raised: the result line says failed
    if run.alive:
        with run.spans.span("check"):
            check = run.workload.check(run.world, args.seed, run.reps)
        attempted += check.attempted
        failed += check.failed
        notes += check.notes
    if run.alive and run.traced:
        metrics = run.per_layer(exact, check.twin_rep_seconds)
        covered = sum(metrics[f"{layer}.self_share"] for layer in layers.LAYERS)
        attempted += 1
        if covered < 0.95:
            failed += 1
            notes.append(f"layer self times cover {covered:.3f} < 0.95 of the traced wall")
        exact.update(
            (name, value)
            for name, value in metrics.items()
            if name.endswith(".calls_per_unit") or name == "hardware.memory.accesses_per_unit"
        )
    elif run.alive:
        samples = run.end_to_end(peak_rss_mb)
        metrics = {name: quartiles(samples[name])[1] for name in E2E_METRICS}
    if not run.traced:
        # The digest covers every counter; a traced run lists them one by one.
        exact = {name: exact[name] for name in SIM_METRICS}
    exact["sim_digest"] = "".join(rep.digest[:16] for rep in reps[:EXACT_REPS])

    declared = {m["name"]: m for m in spec["per_layer" if run.traced else "end_to_end"]}
    if run.alive:
        layers.check_names(list(declared), list(metrics), "metrics")
    nproc = os.cpu_count() or 1
    q1, q2, q3 = quartiles(run.spins_ms)
    record = {
        "workload": args.workload,
        "trace": int(run.traced),
        "seed": args.seed,
        "seconds": args.seconds,
        "correct": run.alive and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": declared[name]["unit"]}
            for name, value in metrics.items()
        },
        "samples": samples,
        "exact": exact,
        "notes": notes,
        "provenance": {
            "commit": commit(),
            "nproc": nproc,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "load_1min": [load_before, os.getloadavg()[0]],
            "reps": len(reps),
            "unit": run.workload.unit,
            "calib_ms": q2,
            "units_per_host_s_unscaled": run.rate() if run.alive else 0.0,
            "noisy": load_before > nproc or (q3 - q1) / q2 > 0.05,
        },
    }
    print_record(record)
    if args.out:
        out = Path(args.out)
        runs = json.loads(out.read_text())["runs"] if out.exists() else []
        lines = ",\n".join(json.dumps(r, sort_keys=True) for r in runs + [record])
        out.write_text('{"runs": [\n' + lines + "\n]}\n")  # one run per line
    if args.trace_out:
        run.spans.write_chrome_trace(args.trace_out)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


def print_record(record: dict) -> None:
    """Every metric by name with its unit, then the checks."""
    samples, exact, provenance = record["samples"], record["exact"], record["provenance"]
    print(f"== {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"reps={provenance['reps']} unit={provenance['unit']}")
    for name, entry in record["metrics"].items():
        line = f"{name} = {entry['value']:.6g} {entry['unit']}"
        if len(samples.get(name, ())) > 1:
            q1, _, q3 = quartiles(samples[name])
            line += f"  (n={len(samples[name])}, q1={q1:.6g}, q3={q3:.6g})"
        print(line)
    if not record["trace"]:
        print(f"units_per_host_s_unscaled = {provenance['units_per_host_s_unscaled']:.6g} 1/s")
        for name in SIM_METRICS:
            print(f"{name} = {exact[name]:.6g} (exact; first {EXACT_REPS} reps)")
    print(f"sim_digest = {exact['sim_digest']}")
    print(f"checks: attempted={record['attempted']} failed={record['failed']} "
          f"calib_ms={provenance['calib_ms']:.3f} noisy={provenance['noisy']}")
    for note in record["notes"]:
        print(f"FAILED: {note}")


# -- every workload ----------------------------------------------------------


def run_all(args: argparse.Namespace, spec: dict) -> int:
    """One fresh single-threaded child interpreter per workload and
    pass, one after another: this box has two cores."""
    worst = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0,) if args.smoke else (0, 1):
            command = [
                sys.executable, str(HERE / "run.py"),
                "--workload", workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]
            if args.smoke:
                command.append("--smoke")
            if args.out:
                command += ["--out", args.out]
            if args.trace_out:
                command += ["--trace-out", f"{args.trace_out}.{workload}.{trace}.json"]
            env = dict(os.environ, PYTHONHASHSEED="0")
            worst = max(worst, subprocess.run(command, env=env).returncode)
    return worst


def main(argv=None) -> int:
    started = time.perf_counter()  # the set-up clock starts before `import repro`
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one set-up, the minimum reps, no traced pass")
    parser.add_argument("--out", help="append this run's full record to a JSON file")
    parser.add_argument("--trace-out", help="write the phase spans as Chrome-trace JSON")
    args = parser.parse_args(argv)
    if not PACKAGE.is_dir():
        raise SystemExit(f"{PACKAGE} not found: run from a checkout that has src/")
    layers.check_layer_map(PACKAGE)
    layers.check_names([m["name"] for m in spec["end_to_end"]], list(E2E_METRICS), "end_to_end")
    layers.check_names([m["name"] for m in spec["per_layer"]], list(PER_LAYER_METRICS), "per_layer")
    if args.workload is None:
        return run_all(args, spec)
    return run_workload(args, spec, started)


if __name__ == "__main__":
    sys.exit(main())
