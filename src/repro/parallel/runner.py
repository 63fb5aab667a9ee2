"""The work-unit runner: spawn pools, picklable tasks, deterministic merge.

A :class:`WorkUnit` names a task function by import path
(``"package.module:function"``) plus a picklable payload tuple. The
runner executes units either inline (``jobs <= 1``) or on a
``multiprocessing`` *spawn* pool, and always returns results sorted by
unit index — so the merged output of a parallel run is byte-identical
to a serial run of the same units. Its callers are the stress shards
and the ``fig_scale`` points, units that each outweigh the ~0.3 s a
spawn worker costs to start; smaller work runs serially without it.

Design rules that keep this deterministic and debuggable:

* **Spawn, not fork.** Every worker is a fresh interpreter: module
  globals (the injector/tracer/MemSan install hooks), RNG state, and
  memoization caches start clean per process, exactly as they would in
  a fresh serial run of that unit. Fork would silently leak the
  parent's installed hooks into every worker.
* **Tasks are import paths, not closures.** The parent never pickles
  code objects; workers resolve ``"module:function"`` themselves, so a
  unit runs the same whether it executes in-process, in a pool, or by
  hand in a REPL while debugging.
* **Failures carry their serial repro.** A unit that raises is captured
  as a failed :class:`UnitResult` holding the exception text and the
  unit's one-line serial repro command; :func:`raise_for_failures`
  surfaces both, so a red parallel run tells you exactly which seed
  shard or scale point to re-run serially.

>>> unit = WorkUnit("repro.parallel.probes:echo", (2, 3))
>>> [r.value for r in run_units([unit, unit], jobs=1)]
[(2, 3), (2, 3)]
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence

__all__ = [
    "WorkUnit",
    "UnitResult",
    "ParallelRunError",
    "default_jobs",
    "raise_for_failures",
    "resolve_task",
    "run_units",
]


class ParallelRunError(AssertionError):
    """One or more work units failed; the message lists serial repros."""


@dataclass(frozen=True)
class WorkUnit:
    """One independent task: an import path plus a picklable payload.

    ``repro`` is the one-line serial command that re-runs exactly this
    unit outside the pool; it rides along so failures are actionable.
    """

    task: str
    payload: tuple = ()
    label: str = ""
    repro: str = ""


@dataclass
class UnitResult:
    """Outcome envelope for one unit, merged in unit order."""

    index: int
    label: str
    ok: bool
    value: Any = None
    error: str = ""
    error_type: str = ""
    repro: str = ""

    def describe_failure(self) -> str:
        parts = [self.label or f"unit #{self.index}"]
        if self.error:
            parts.append(f"{self.error_type}: {self.error}")
        if self.repro:
            parts.append(f"repro: {self.repro}")
        return " | ".join(parts)


def default_jobs() -> int:
    """Worker count when the caller asks for ``--jobs 0`` (= all cores)."""
    return os.cpu_count() or 1


def resolve_task(spec: str) -> Callable[..., Any]:
    """Import ``"package.module:function"`` and return the function."""
    module_name, sep, func_name = spec.partition(":")
    if not sep or not module_name or not func_name:
        raise ParallelRunError(f"bad task spec {spec!r}, want 'module:function'")
    module = importlib.import_module(module_name)
    func = getattr(module, func_name, None)
    if not callable(func):
        raise ParallelRunError(f"task {spec!r} does not name a callable")
    return func


def _run_one(item: "tuple[int, WorkUnit]") -> UnitResult:
    """Execute one unit; never raises — failures become UnitResults.

    Module-level (not a closure) so spawn workers can unpickle it, and
    shared by the serial path so ``jobs=1`` and ``jobs=N`` runs differ
    only in which process executes each unit.
    """
    index, unit = item
    try:
        value = resolve_task(unit.task)(*unit.payload)
    except Exception as exc:
        frames = traceback.extract_tb(exc.__traceback__)
        where = f" at {frames[-1].name}:{frames[-1].lineno}" if frames else ""
        return UnitResult(
            index=index,
            label=unit.label,
            ok=False,
            error=f"{exc}{where}",
            error_type=type(exc).__name__,
            repro=unit.repro,
        )
    return UnitResult(
        index=index, label=unit.label, ok=True, value=value, repro=unit.repro
    )


def run_units(
    units: Iterable[WorkUnit], jobs: Optional[int] = 1
) -> list[UnitResult]:
    """Run every unit; return results sorted by unit index.

    ``jobs <= 1`` runs inline, in order, in this process — the golden
    serial path. ``jobs > 1`` runs on a spawn pool and sorts the
    unordered completions back into unit order, so the merged result
    list (and anything serialized from it) is byte-identical to the
    serial run. ``jobs=None`` or ``jobs=0`` means one worker per core.
    """
    items = list(enumerate(units))
    if jobs is None or jobs == 0:
        jobs = default_jobs()
    if jobs <= 1 or len(items) <= 1:
        return [_run_one(item) for item in items]
    context = multiprocessing.get_context("spawn")
    with context.Pool(processes=min(jobs, len(items))) as pool:
        results = list(pool.imap_unordered(_run_one, items))
    results.sort(key=lambda result: result.index)
    return results


def raise_for_failures(
    results: Sequence[UnitResult], what: str = "parallel run"
) -> None:
    """Raise :class:`ParallelRunError` naming every failed unit + repro."""
    bad = [result for result in results if not result.ok]
    if bad:
        lines = "\n  ".join(result.describe_failure() for result in bad)
        raise ParallelRunError(
            f"{what}: {len(bad)} of {len(results)} unit(s) failed:\n  {lines}"
        )
