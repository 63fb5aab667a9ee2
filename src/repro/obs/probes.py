"""The probe slot: the instruments a metered memory access consults.

:mod:`repro.obs.trace`, :mod:`repro.obs.spans` and
:mod:`repro.analysis.memsan` each install at most one object, and the
metered access path (:mod:`repro.hardware.memory`) has to ask all three
on every load and store. They share this one slot object instead of a
module global apiece: the hooks' ``install`` / ``uninstall`` write it
and their ``active()`` return from it, so every existing call site keeps
its ``tracer = obs_active()`` idiom, while the hot path reads the single
``PROBES.any`` attribute and only looks at the individual instruments
when something is installed.

This module imports nothing from the package — it sits below the
hardware layer and below the three tools it points at — so
``hardware/memory.py`` no longer imports upward from ``analysis`` or
from the tracers. The fault injector and the metrics pipeline are never
consulted per access and keep their own globals.

>>> from repro.obs.trace import Tracer
>>> PROBES.any
False
>>> with Tracer() as tracer:
...     PROBES.tracer is tracer, PROBES.any
(True, True)
>>> PROBES.any
False
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, TypeVar

if TYPE_CHECKING:  # pragma: no cover - annotations only, no import at run time
    from ..analysis.memsan import MemSan
    from .spans import SpanTracer
    from .trace import Tracer

__all__ = ["PROBES", "ProbeSlot"]

_P = TypeVar("_P")


class ProbeSlot:
    """Which tracer, span tracer and race detector are installed."""

    __slots__ = ("tracer", "spans", "memsan", "any")

    def __init__(self) -> None:
        self.tracer: Optional[Tracer] = None
        self.spans: Optional[SpanTracer] = None
        self.memsan: Optional[MemSan] = None
        #: True while at least one of the three is installed.
        self.any = False

    def install(self, name: str, probe: _P) -> _P:
        """Install ``probe`` under ``name``; a second object is refused."""
        current = getattr(self, name)
        if current is not None and current is not probe:
            raise RuntimeError(
                f"another {type(probe).__name__} is already installed"
            )
        setattr(self, name, probe)
        self.any = True
        return probe

    def uninstall(self, name: str, probe: Optional[object] = None) -> None:
        """Empty ``name`` (idempotent); never someone else's object.

        Passing the probe asserts you are removing the one you installed.
        """
        current = getattr(self, name)
        if probe is not None and current is not None and current is not probe:
            raise RuntimeError(
                f"a different {type(probe).__name__} is installed"
            )
        setattr(self, name, None)
        self.any = not (
            self.tracer is None and self.spans is None and self.memsan is None
        )


#: The process-wide slot; there is exactly one.
PROBES = ProbeSlot()
