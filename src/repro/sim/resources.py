"""Shared resources for the simulation kernel.

Two primitives cover everything the reproduction needs:

* :class:`Pipe` — a serial bandwidth resource (an interconnect or NIC).
  Transfers are FIFO-serialized; when offered load exceeds capacity the
  pipe builds a backlog and per-transfer completion times stretch, which
  is exactly the saturation behaviour the paper's pooling experiments
  revolve around.
* :class:`RWLock` — a FIFO readers/writers lock used for distributed page
  locks in the data-sharing experiments.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from .core import Event, SimError, Simulator

__all__ = ["Pipe", "RWLock"]


class Pipe:
    """A FIFO bandwidth pipe with optional per-operation base latency.

    ``transfer(nbytes)`` returns an event that fires when the transfer
    completes. The pipe serializes transfers: a transfer begins at
    ``max(now, tail)`` where ``tail`` is when the previous transfer ends.
    Completion time additionally includes ``base_ns`` of fixed latency
    that does *not* occupy the pipe (protocol overhead, RTT).

    >>> sim = Simulator()
    >>> pipe = Pipe(sim, bytes_per_second=1e9)   # 1 GB/s = 1 ns per byte
    >>> pipe.occupancy_ns(64)
    64
    >>> done = pipe.transfer(64)
    >>> sim.run()
    >>> (sim.now, done.triggered, pipe.total_bytes, pipe.backlog_ns)
    (64, True, 64, 0)
    """

    def __init__(
        self,
        sim: Simulator,
        bytes_per_second: float,
        name: str = "pipe",
    ) -> None:
        if bytes_per_second <= 0:
            raise SimError("pipe bandwidth must be positive")
        self.sim = sim
        self.name = name
        self.bytes_per_second = float(bytes_per_second)
        self._tail: int = 0
        self.total_bytes: int = 0
        self.total_transfers: int = 0
        self._window_start: int = 0
        self._window_bytes: int = 0

    def occupancy_ns(self, nbytes: int) -> int:
        """How long ``nbytes`` occupies the pipe."""
        return int(nbytes * 1e9 / self.bytes_per_second)

    def transfer(self, nbytes: int, base_ns: int = 0) -> Event:
        """Move ``nbytes`` through the pipe; returns the completion event."""
        if nbytes < 0:
            raise SimError("negative transfer size")
        now = self.sim.now
        start = max(now, self._tail)
        occupancy = self.occupancy_ns(nbytes)
        self._tail = start + occupancy
        self.total_bytes += nbytes
        self.total_transfers += 1
        self._window_bytes += nbytes
        done = Event(self.sim)
        done.succeed(delay=(self._tail - now) + int(base_ns))
        return done

    def transfer_batched(self, nbytes: int, occupancy_ns: int, count: int = 1) -> Event:
        """Issue ``count`` back-to-back transfers as one completion event.

        ``occupancy_ns`` must be the *sum of the per-transfer occupancies*
        (``sum(occupancy_ns(n_i))``), not ``occupancy_ns(sum(n_i))`` —
        occupancy truncates to integer nanoseconds per transfer, so the
        two differ, and the batch must advance the pipe tail exactly as
        the individual transfers would have. Used by the charge settler
        to issue one simulation event per pipe instead of one per charge;
        completion time, ``total_bytes`` and ``total_transfers`` are
        identical to issuing the transfers individually at the same
        instant.
        """
        if nbytes < 0 or occupancy_ns < 0:
            raise SimError("negative batched transfer")
        now = self.sim.now
        start = now if now > self._tail else self._tail
        self._tail = start + occupancy_ns
        self.total_bytes += nbytes
        self.total_transfers += count
        self._window_bytes += nbytes
        done = Event(self.sim)
        done.succeed(delay=self._tail - now)
        return done

    @property
    def backlog_ns(self) -> int:
        """Nanoseconds of queued work currently ahead of a new transfer."""
        return max(0, self._tail - self.sim.now)

    def reset_window(self) -> None:
        """Start a fresh measurement window for :meth:`window_bandwidth`."""
        self._window_start = self.sim.now
        self._window_bytes = 0

    def window_bandwidth(self) -> float:
        """Observed bytes/second since the last :meth:`reset_window`."""
        elapsed = self.sim.now - self._window_start
        if elapsed <= 0:
            return 0.0
        return self._window_bytes * 1e9 / elapsed

    def snapshot(self) -> tuple:
        return (
            self._tail,
            self.total_bytes,
            self.total_transfers,
            self._window_start,
            self._window_bytes,
        )

    def restore(self, state: tuple) -> None:
        (
            self._tail,
            self.total_bytes,
            self.total_transfers,
            self._window_start,
            self._window_bytes,
        ) = state


class RWLock:
    """A FIFO readers/writers lock.

    Fairness policy: strict FIFO over arrival order — a waiting writer
    blocks readers that arrive after it, which is the behaviour of the
    distributed page locks in PolarDB-MP (no reader starvation of
    writers).
    """

    _READ = "r"
    _WRITE = "w"

    def __init__(self, sim: Simulator, name: str = "rwlock") -> None:
        self.sim = sim
        self.name = name
        self._readers = 0
        self._writer = False
        self._waiters: Deque[tuple[str, Event]] = deque()
        self.contended_acquires = 0

    @property
    def held(self) -> bool:
        return self._writer or self._readers > 0

    def read_would_block(self) -> bool:
        return self._writer or bool(self._waiters)

    def write_would_block(self) -> bool:
        return self._writer or self._readers > 0 or bool(self._waiters)

    def acquire_read(self) -> Event:
        event = Event(self.sim)
        if not self._writer and not self._waiters:
            self._readers += 1
            event.succeed()
        else:
            self.contended_acquires += 1
            self._waiters.append((self._READ, event))
        return event

    def acquire_write(self) -> Event:
        event = Event(self.sim)
        if not self._writer and self._readers == 0:
            self._writer = True
            event.succeed()
        else:
            self.contended_acquires += 1
            self._waiters.append((self._WRITE, event))
        return event

    def release_read(self) -> None:
        if self._readers <= 0:
            raise SimError(f"rwlock {self.name!r}: release_read with no readers")
        self._readers -= 1
        self._drain()

    def release_write(self) -> None:
        if not self._writer:
            raise SimError(f"rwlock {self.name!r}: release_write not held")
        self._writer = False
        self._drain()

    # -- failover ------------------------------------------------------------

    def force_release_write(self) -> None:
        """Release a write lock whose holder died; no-op if not write-held.

        Used by fusion-server failover: a crashed node can never run its
        unlock path, so the lock service breaks the lock on its behalf
        (after the page is rebuilt — never before).
        """
        if self._writer:
            self._writer = False
            self._drain()

    def force_release_read(self) -> None:
        """Drop one reader that died; no-op when there are no readers."""
        if self._readers > 0:
            self._readers -= 1
            self._drain()

    def _drain(self) -> None:
        if self._writer:
            return
        while self._waiters:
            kind, event = self._waiters[0]
            if kind == self._WRITE:
                if self._readers == 0:
                    self._waiters.popleft()
                    self._writer = True
                    event.succeed()
                return
            self._waiters.popleft()
            self._readers += 1
            event.succeed()
