"""Deterministic fault schedules for fleet scenarios.

A :class:`FaultSchedule` is the declarative half of a fleet HA scenario
(:mod:`repro.ha.scenarios`): an ordered list of :class:`FaultEvent`
entries, each pinned to an **op index** in the scenario's deterministic
op stream — "before op 12, crash node1 at ``cache.clflush.line``",
"before op 20, start a fusion RPC outage". The scenario engine drains
due events with :meth:`FaultSchedule.pop_due` and interprets the
actions; this module only owns ordering and validation, so a schedule
is pure data that can be printed, compared, and replayed.

Pinning faults to op indices (not timestamps) keeps schedules stable
under latency-model changes: the same seed and schedule always crash
the same node inside the same logical operation.

>>> sched = FaultSchedule([
...     FaultEvent(at_op=5, action="outage", rpc="fusion.request_page"),
...     FaultEvent(at_op=2, action="crash", node=0, point="node.update.logged"),
... ])
>>> [e.at_op for e in sched.events]   # sorted, stable
[2, 5]
>>> [e.action for e in sched.pop_due(3)]
['crash']
>>> sched.pending
1
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = ["FaultEvent", "FaultSchedule", "ACTIONS"]

# Actions a scenario engine must interpret:
#   crash    — run one designated op on `node` with the injector armed
#              at the next hit of `point` (the node dies inside it)
#   outage   — named RPC fails every call until the matching restore
#   restore  — end the named RPC outage
#   leave    — graceful departure of `node` (deregister, stop routing)
#   join     — attach a fresh primary (warm CXL attach)
ACTIONS = frozenset({"crash", "outage", "restore", "leave", "join"})


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault, due before the op at index ``at_op``."""

    at_op: int
    action: str
    node: Optional[int] = None
    point: str = ""
    rpc: str = ""
    detail: str = ""

    def __post_init__(self) -> None:
        if self.at_op < 0:
            raise ValueError("at_op must be non-negative")
        if self.action not in ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.action == "crash" and (self.node is None or not self.point):
            raise ValueError("crash events need a node and a crash point")
        if self.action in ("outage", "restore") and not self.rpc:
            raise ValueError(f"{self.action} events need an rpc name")
        if self.action == "leave" and self.node is None:
            raise ValueError("leave events need a node")


@dataclass
class FaultSchedule:
    """Op-index-ordered fault events with stable same-index ordering."""

    events: list[FaultEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Stable sort: events at the same op index apply in listed order.
        self.events = sorted(self.events, key=lambda e: e.at_op)
        self._cursor = 0

    @property
    def pending(self) -> int:
        return len(self.events) - self._cursor

    def pop_due(self, op_index: int) -> list[FaultEvent]:
        """Events with ``at_op < op_index`` not yet drained, in order."""
        due: list[FaultEvent] = []
        while (
            self._cursor < len(self.events)
            and self.events[self._cursor].at_op < op_index
        ):
            due.append(self.events[self._cursor])
            self._cursor += 1
        return due
