"""Static and dynamic correctness analyses for the reproduction.

* :mod:`repro.analysis.memsan` — CXL-MemSan, a vector-clock
  happens-before race detector over the simulated software
  cache-coherency protocol.
* :mod:`repro.analysis.explore` — CXL-Explore, exhaustive schedule
  exploration of the sharing protocol with sleep-set partial-order
  reduction (``python -m repro.analysis explore``).
* :mod:`repro.analysis.lint` — the protocol-discipline AST lint
  (``python -m repro.analysis lint``), rules REPRO001–REPRO006.
* :mod:`repro.analysis.checked` — ``CheckedRun``, the one instrument
  battery every verification harness runs under, ``CommittedState``,
  the one oracle, and the sharing harnesses' one op path
  (``run_op``), crash step (``crash``) and failover (``fail_over``)
  (imported by path, not re-exported: it pulls in ``core`` and ``obs``).
"""

from .memsan import MemSan, MemSanError, RaceReport, vc_join, vc_leq

__all__ = ["MemSan", "MemSanError", "RaceReport", "vc_join", "vc_leq"]
