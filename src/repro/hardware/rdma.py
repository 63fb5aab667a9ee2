"""RDMA NIC model.

Captures the three properties that drive the paper's RDMA results:

* a hard per-host bandwidth ceiling (ConnectX-6: 100 Gb/s ≈ 12 GB/s) —
  the saturation point in Figures 7–9,
* a large fixed per-operation latency (Table 2: ~4.5 µs regardless of
  payload) from RTT, protocol conversion, and NIC DMA,
* an operations/second ceiling from doorbell-register contention and NIC
  cache thrashing (§2.2 item 3) — IOPS-bound workloads stop scaling even
  when bandwidth is available.

Both ceilings are FIFO pipes, so exceeding either builds queueing delay
— the linear latency climb past saturation in Figure 7's middle panel.
"""

from __future__ import annotations

from ..obs.probes import PROBES
from ..sim.core import Event, Simulator
from ..sim.latency import LatencyConfig
from ..sim.resources import Pipe

__all__ = ["RdmaNic"]


class RdmaNic:
    """One host's RDMA NIC: a data pipe plus an ops (IOPS) pipe."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        config: LatencyConfig | None = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.config = config or LatencyConfig()
        self.data_pipe = Pipe(
            sim, self.config.rdma_nic_bandwidth, name=f"{name}.data"
        )
        # Each operation "transfers" one unit through the ops pipe, whose
        # rate is the NIC's IOPS ceiling.
        self.ops_pipe = Pipe(sim, self.config.rdma_nic_max_iops, name=f"{name}.ops")

    def read_ns(self, nbytes: int) -> float:
        """Unloaded one-sided READ latency (Table 2 model)."""
        return self.config.rdma_read_ns(nbytes)

    def write_ns(self, nbytes: int) -> float:
        """Unloaded one-sided WRITE latency (Table 2 model)."""
        return self.config.rdma_write_ns(nbytes)

    def read(self, nbytes: int) -> Event:
        """Issue a READ inside the simulation; fires when data has landed."""
        self._record_op("read", nbytes, self.read_ns(nbytes))
        self.ops_pipe.transfer(1)
        return self.data_pipe.transfer(nbytes, base_ns=int(self.read_ns(nbytes)))

    def write(self, nbytes: int) -> Event:
        """Issue a WRITE inside the simulation; fires on completion."""
        self._record_op("write", nbytes, self.write_ns(nbytes))
        self.ops_pipe.transfer(1)
        return self.data_pipe.transfer(nbytes, base_ns=int(self.write_ns(nbytes)))

    def _record_op(self, op: str, nbytes: int, base_ns: float) -> None:
        """Span hook: one closed ``rpc`` span per NIC operation.

        The recorded duration is the unloaded Table 2 latency; queueing
        on the pipes shows up separately (``pipe_wait``) when the caller
        settles with a span.
        """
        spans = PROBES.spans
        if spans is not None:
            spans.record("rpc", f"rdma_{op}", ns=base_ns, nic=self.name, nbytes=nbytes)
