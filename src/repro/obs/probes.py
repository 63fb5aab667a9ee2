"""The probe slot: which of the five instruments are installed.

:class:`~repro.obs.trace.Tracer`, :class:`~repro.obs.spans.SpanTracer`,
:class:`~repro.analysis.memsan.MemSan`,
:class:`~repro.obs.metrics.MetricsPipeline` and
:class:`~repro.faults.injector.FaultInjector` each install at most one
object, and they all install it here. A tool's ``__enter__`` /
``__exit__`` call :meth:`ProbeSlot.install` / :meth:`ProbeSlot.uninstall`
— the only copy of the install contract — and every hook site in the
model reads the attribute:

.. code-block:: python

    tracer = PROBES.tracer
    if tracer is not None:
        tracer.emit("sharing", "flush", node=..., page=..., lines=...)

so a disabled instrument costs one attribute load and a ``None`` check:
no call, no kwargs dict, no formatted string. The metered access path
(:mod:`repro.hardware.memory`, :mod:`repro.hardware.cache`) reads the
single ``PROBES.any`` flag — once per access, after it has probed and
charged — and only looks at the individual instruments, to tell them
the outcome, when one *it* consults — tracer, spans or memsan — is
installed; the injector and the pipeline are never asked per access, so
they do not set it.

This module imports nothing from the package at run time: it sits below
the hardware layer and below the five tools it points at, which is what
lets every model layer reach its instruments without importing upward.

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

from contextlib import contextmanager
from typing import TYPE_CHECKING, ContextManager, Iterator, Optional, TypeVar

if TYPE_CHECKING:  # pragma: no cover - annotations only, no import at run time
    from ..analysis.memsan import MemSan
    from ..faults.injector import FaultInjector
    from .metrics import MetricsPipeline
    from .spans import Span, SpanTracer
    from .trace import Tracer

__all__ = ["PROBES", "PROBE_NAMES", "ProbeSlot"]

_P = TypeVar("_P")

#: The slot's five attribute names, one per instrument.
PROBE_NAMES = ("tracer", "spans", "memsan", "metrics", "injector")


class _NullScope:
    """The shared do-nothing context a disabled scope helper returns."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        return None


_NULL_SCOPE = _NullScope()


class ProbeSlot:
    """The installed instruments, one attribute each (``None`` = off)."""

    __slots__ = PROBE_NAMES + ("any",)

    def __init__(self) -> None:
        self.tracer: Optional[Tracer] = None
        self.spans: Optional[SpanTracer] = None
        self.memsan: Optional[MemSan] = None
        self.metrics: Optional[MetricsPipeline] = None
        self.injector: Optional[FaultInjector] = None
        #: True while the tracer, the span tracer or memsan is installed
        #: — the three the metered access path consults.
        self.any = False

    def _set(self, name: str, probe: Optional[object]) -> None:
        setattr(self, name, probe)
        self.any = not (
            self.tracer is None and self.spans is None and self.memsan is None
        )

    def install(self, name: str, probe: _P) -> _P:
        """Install ``probe`` under ``name``; a second object is refused."""
        current = getattr(self, name)
        if current is not None and current is not probe:
            raise RuntimeError(
                f"another {type(probe).__name__} is already installed"
            )
        self._set(name, probe)
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
        self._set(name, None)

    @contextmanager
    def suspended(self, name: str) -> Iterator[Optional[object]]:
        """Empty ``name`` for the duration of the block, then restore it.

        Sub-experiments that spin up their *own* simulator (the
        join-leave recovery baselines, for instance) must not publish
        into a pipeline anchored to the caller's clock — their stamps
        would interleave two timelines and break the
        strictly-monotonic-per-series invariant. The suspended object is
        untouched, so the caller's sampling resumes where it left off.
        """
        probe = getattr(self, name)
        self._set(name, None)
        try:
            yield probe
        finally:
            self._set(name, probe)

    def attached(self, span: Optional[Span]) -> ContextManager[object]:
        """Attach a cross-yield span around a synchronous segment.

        A shared no-op when span tracing is off or ``span`` is ``None``,
        so disabled call sites allocate nothing.
        """
        spans = self.spans
        if spans is None or span is None:
            return _NULL_SCOPE
        return spans.attached(span)

    def scoped_actor(self, name: str) -> ContextManager[object]:
        """Ambient-actor scope against the installed memsan, or a no-op.

        The per-segment hook used by ``MultiPrimaryNode``: cheap enough
        to sit inside generators.
        """
        memsan = self.memsan
        return _NULL_SCOPE if memsan is None else memsan.actor(name)


#: The process-wide slot; there is exactly one.
PROBES = ProbeSlot()
