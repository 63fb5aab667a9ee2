"""Bridging functional cost charges into simulated time.

Functional code (the engine, buffer pools, protocols) charges an
:class:`~repro.hardware.memory.AccessMeter` with latency-nanoseconds and
pending pipe transfers. A :class:`ChargeSettler` drains those charges
into the discrete-event simulation: latency becomes a timeout, transfers
become pipe occupancy (where saturation and queueing arise).

Settling *inside* a critical section — after doing the work, before
releasing a lock — is what makes lock-hold times include the work done
under the lock; the multi-primary protocol relies on this.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from ..obs.probes import PROBES
from .core import Simulator
from .resources import Pipe

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from ..obs.spans import Span

__all__ = ["ChargeSettler"]


class ChargeSettler:
    """Drains one meter's charges into simulated time and pipe traffic."""

    def __init__(
        self,
        sim: Simulator,
        meter: Any,
        pipes: dict[str, list[Pipe]],
    ) -> None:
        self.sim = sim
        self.meter = meter
        self.pipes = pipes
        self.unroutable_keys: set[str] = set()

    def settle(self, extra_ns: float = 0.0, span: Optional[Span] = None) -> Generator:
        """Process step: elapse the meter's accumulated cost.

        Per-operation base latencies (an RDMA read's ~5 µs, a storage
        read's ~150 µs) block the issuing thread, so they serialize into
        one timeout. The byte movement is then pushed through the pipes
        — FIFO bandwidth resources — whose completion reflects any
        queueing behind other threads' traffic (saturation).

        ``span`` is the caller's transaction/operation span, if span
        tracing is on: any time this settle blocks *beyond* the charged
        service time is pipe queueing, recorded retroactively as a
        ``pipe_wait`` child span (nothing is ever left open across the
        yields).
        """
        t0 = self.sim.now
        ns, transfers = self.meter.take()
        total_ns = ns + extra_ns
        if transfers:
            # Group the charges per pipe so each pipe settles with ONE
            # simulation event regardless of how many accesses fed it —
            # O(pipes) events instead of O(accesses). Occupancy is
            # accumulated per charge (integer truncation happens per
            # transfer), so the pipe tail, byte totals and completion
            # times are exactly what per-charge transfers would produce.
            pipes = self.pipes
            batches: dict[int, list] = {}
            for charge in transfers:
                total_ns += charge.base_ns
                routed = pipes.get(charge.pipe_key)
                if not routed:
                    self.unroutable_keys.add(charge.pipe_key)
                    continue
                nbytes = charge.nbytes
                for pipe in routed:
                    batch = batches.get(id(pipe))
                    if batch is None:
                        batches[id(pipe)] = [
                            pipe,
                            nbytes,
                            pipe.occupancy_ns(nbytes),
                            1,
                        ]
                    else:
                        batch[1] += nbytes
                        batch[2] += pipe.occupancy_ns(nbytes)
                        batch[3] += 1
            if total_ns > 0:
                yield self.sim.timeout(int(total_ns))
            if batches:
                yield self.sim.all_of(
                    [
                        pipe.transfer_batched(nbytes, occupancy, count)
                        for pipe, nbytes, occupancy, count in batches.values()
                    ]
                )
        elif total_ns > 0:
            yield self.sim.timeout(int(total_ns))
        if span is not None:
            spans = PROBES.spans
            if spans is not None:
                excess = (self.sim.now - t0) - int(total_ns)
                if excess > 0:
                    spans.record("pipe_wait", "settle", parent=span, ns=excess)
        # Settling is where simulated time advances for every workload,
        # scenario and sweep alike — the natural pull point for the
        # live metrics scrape clock (which never advances time itself).
        mp = PROBES.metrics
        if mp is not None:
            if transfers:
                for pipe, _, _, _ in batches.values():
                    mp.gauge("pipe.backlog_ns", pipe.backlog_ns, pipe=pipe.name)
            mp.maybe_scrape(self.sim.now)

    def settle_serial(self) -> Generator:
        """Like :meth:`settle`, but transfers run one after another.

        Sequential work — a recovery replay reading pages one by one —
        must not overlap its I/O; each transfer is issued only after the
        previous one completed.
        """
        ns, transfers = self.meter.take()
        if ns > 0:
            yield self.sim.timeout(int(ns))
        for charge in transfers:
            routed = self.pipes.get(charge.pipe_key)
            if not routed:
                self.unroutable_keys.add(charge.pipe_key)
                continue
            events = [
                pipe.transfer(charge.nbytes, int(charge.base_ns)) for pipe in routed
            ]
            yield self.sim.all_of(events)
        mp = PROBES.metrics
        if mp is not None:
            mp.maybe_scrape(self.sim.now)
