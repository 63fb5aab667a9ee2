"""Probe tasks for the work-unit runner's own test suite.

These run *inside worker processes* (resolved by import path), so they
live in ``src`` rather than ``tests``: the spawn-safety regression tests
use them to observe a worker's global-hook and RNG state from the
parent, and the forced-failure differential test uses :func:`fail` to
prove a failing shard surfaces its exact unit label and serial repro.
"""

from __future__ import annotations

import os
from typing import Any, Optional

__all__ = ["echo", "fail", "probe_hooks", "probe_rng_stream", "process_id"]

# Synthetic point name for exercising the injector slot from a probe.
# Deliberately NOT in REGISTERED_POINTS: it is a diagnostic marker, not
# a crash site, so it is passed indirectly to stay out of the lint's
# crash-point registry accounting.
_PROBE_POINT = "probe.point"


def echo(*args: Any) -> tuple:
    """Return the payload unchanged (runner plumbing smoke test)."""
    return args


def fail(message: str) -> None:
    """Raise with ``message`` — the forced-failure path, by request."""
    raise AssertionError(message)


def process_id() -> int:
    """The worker's OS pid (distinguishes pool workers from the parent)."""
    return os.getpid()


def probe_hooks(install_own: bool = True) -> dict:
    """Report which global hooks are installed in *this* process.

    Spawn-safety contract: a worker starts with every hook slot empty,
    no matter what the parent has installed — and can install (and
    cleanly remove) its own. Returns the observed states so the parent
    can assert there was no cross-process bleed.
    """
    from ..faults.injector import FaultInjector
    from ..obs.probes import PROBE_NAMES, PROBES
    from ..obs.trace import Tracer

    report: dict[str, Any] = {"pid": os.getpid()}
    for name in PROBE_NAMES:
        report[f"{name}_preinstalled"] = getattr(PROBES, name) is not None
    if install_own:
        # Not a real crash site — a synthetic point name, armed only to
        # observe this process's injector slot from the parent.
        with FaultInjector(seed=1).arm(_PROBE_POINT, 1) as own:
            report["own_injector_armed"] = own._armed == (_PROBE_POINT, 1)
            report["own_injector_active"] = PROBES.injector is own
        with Tracer() as tracer:
            tracer.counters.add("probe.counter", 3)
            report["own_counter"] = tracer.counters.snapshot().get(
                "probe.counter"
            )
        report["hooks_clear_after"] = all(
            getattr(PROBES, name) is None for name in PROBE_NAMES
        )
    return report


def probe_rng_stream(seed: int, n: int, fork_salt: Optional[int] = None) -> list:
    """Draw ``n`` values from a fresh :class:`repro.sim.rng.WorkloadRng`.

    The parent draws the same stream serially and asserts equality: a
    worker's per-seed RNG stream must match the serial per-seed stream
    exactly (no hidden global-RNG coupling across processes).
    """
    from ..sim.rng import WorkloadRng

    rng = WorkloadRng(seed)
    if fork_salt is not None:
        rng = rng.fork(fork_salt)
    draws: list = []
    for i in range(n):
        draws.append(rng.uniform_int(0, 1_000_000))
        draws.append(round(rng.random(), 12))
        draws.append(rng.zipf(100, 0.99))
        draws.append(rng.choice(list(range(1 + i % 7, 9))))
    return draws
