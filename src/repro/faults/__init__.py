"""Deterministic fault injection (FoundationDB-style simulation testing).

The subsystem has two halves:

* :mod:`repro.faults.injector` — a :class:`FaultInjector` plus the
  module-level :func:`crash_point` hook that the engine's hot paths call
  at every crash-vulnerable instant (mini-transaction commit, page
  flush, LRU relink, per-line ``clflush``, fusion RPCs, WAL flush, and
  the interior of PolarRecv itself). When no injector is installed the
  hooks cost one attribute load and a comparison.

* :mod:`repro.faults.sweep` — the crash-anywhere sweep harness: run a
  canonical workload once to enumerate every crash point it reaches,
  then re-run it deterministically once per point, crash there, recover
  with PolarRecv, and check the recovered engine against a golden
  durable-state oracle. Import it as ``repro.faults.sweep`` (kept out of
  this namespace so engine modules can import the injector hooks without
  dragging the whole stack in).
"""

from .injector import FaultInjector, InjectedCrash, crash_point

__all__ = ["FaultInjector", "InjectedCrash", "crash_point"]
