"""Parallel execution for the harnesses whose units outweigh a spawn.

A spawn worker costs ~0.3 s of interpreter start and imports, so a
pool only pays where one unit costs more than that: the seeded sharing
stress (:mod:`~repro.parallel.stress`, one unit = one seed shard) and
the ``fig_scale`` fleet points (:func:`repro.bench.scale.run_scale_curve`).
Each turns its work into picklable
:class:`~repro.parallel.runner.WorkUnit` s executed by a
``multiprocessing`` spawn pool, then merges the results in unit order so
the merged report is byte-identical to a serial run (the differential
suite in ``tests/parallel/`` pins that equality). The crash sweeps and
CXL-Explore cost less than one worker in total and run serially.

Spawn safety is the load-bearing property: every worker process starts
from a fresh interpreter, so the per-process global hooks (fault
injector, tracer, span tracer, MemSan) install independently per unit —
no cross-process bleed, no shared RNG state. ``tests/parallel/
test_spawn_safety.py`` regression-tests exactly that.

CLI::

    python -m repro.parallel sweep  --scenario all
    python -m repro.parallel stress --system cxl --seeds 200 --jobs 4
"""

from .runner import (
    ParallelRunError,
    UnitResult,
    WorkUnit,
    default_jobs,
    raise_for_failures,
    run_units,
)

__all__ = [
    "ParallelRunError",
    "UnitResult",
    "WorkUnit",
    "default_jobs",
    "raise_for_failures",
    "run_units",
]
