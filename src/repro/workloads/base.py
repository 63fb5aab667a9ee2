"""Workload plumbing shared by sysbench, TPC-C and TATP.

Workloads drive the engine in two modes:

* **single-node** — a functional transaction callable executed by the
  pooling/recovery driver; it performs engine operations (which charge
  the meter) and reports how many queries it issued.
* **multi-primary (sharing)** — a transaction is a list of :class:`Op`
  records dispatched through :class:`~repro.core.sharing.MultiPrimaryNode`
  generators, so distributed locks and coherency run in virtual time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from ..db.engine import Engine
from ..db.record import RecordCodec

__all__ = ["Op", "TxnStats", "Workload", "load_tables"]


@dataclass(frozen=True)
class Op:
    """One sharing-mode operation."""

    kind: str  # "select" | "update" | "range"
    table: str
    key: int
    field: Optional[str] = None
    value: Any = None
    count: int = 0  # rows, for range ops


@dataclass
class TxnStats:
    """What one functional transaction did."""

    queries: int = 0
    writes: int = 0


class Workload:
    """Base class; subclasses fill in schema/load and transaction mixes."""

    name = "workload"

    def schema(self) -> list[tuple[str, RecordCodec]]:
        raise NotImplementedError

    def load(self, engine: Engine) -> None:
        raise NotImplementedError

    def accessed_fraction(self, n_nodes: int) -> float:
        """Fraction of the whole dataset one node touches.

        The paper sizes each RDMA node's LBP as a percentage of "the
        node's accessed dataset" (§4.4) — partition-aware workloads
        touch far less than everything.
        """
        return 1.0


def load_tables(engine: Engine, rows_by_table: Sequence[tuple]) -> None:
    """Create tables and bulk-insert rows on a loader engine.

    Entries are ``(name, codec, rows)`` with an optional fourth element
    of secondary-index fields. Rows are inserted in key order (fast,
    split-friendly) inside batched mini-transactions; a final checkpoint
    makes everything durable so shared/recovered engines can start from
    storage.
    """
    for entry in rows_by_table:
        name, codec, rows = entry[0], entry[1], entry[2]
        index_fields = entry[3] if len(entry) > 3 else ()
        table = engine.create_table(name, codec, index_fields=index_fields)
        batch = 0
        mtr = engine.mtr()
        for key, row in rows:
            table.insert(mtr, key, row)
            batch += 1
            if batch >= 64:
                mtr.commit()
                engine.redo_log.flush()
                mtr = engine.mtr()
                batch = 0
        mtr.commit()
        engine.redo_log.flush()
    engine.checkpoint()
