"""Sysbench OLTP workloads (the paper's primary benchmark).

Standard ``sbtest`` schema — ``id`` u64 primary key, ``k`` u32, ``c``
char(120), ``pad`` char(60) — with the classic mixes:

=============== =====================================================
mix             one transaction
=============== =====================================================
point_select    1 point SELECT (sysbench counts each as one query)
range_select    1 range SELECT of ``range_size`` rows
read_only       10 point SELECTs + 4 range SELECTs
read_write      read_only + 2 UPDATEs + 1 DELETE + 1 INSERT (18 q)
write_only      2 UPDATEs + 1 DELETE + 1 INSERT (4 queries)
point_update    10 point UPDATEs (the paper's sharing workload, §4.4)
=============== =====================================================

For multi-primary sharing runs the tables follow the paper's
N+1-group layout: one private table per node plus one shared table; a
query goes to the shared table with probability ``shared_pct``.
"""

from __future__ import annotations

from typing import Callable

from ..db.engine import Engine
from ..db.record import Field, RecordCodec
from ..sim.rng import WorkloadRng
from .base import Op, TxnStats, Workload, load_tables

__all__ = ["SysbenchWorkload", "SYSBENCH_CODEC", "SYSBENCH_MIXES"]

SYSBENCH_CODEC = RecordCodec(
    [
        Field("id", 8),
        Field("k", 4),
        Field("c", 120, "bytes"),
        Field("pad", 60, "bytes"),
    ]
)

SYSBENCH_MIXES = (
    "point_select",
    "range_select",
    "read_only",
    "read_write",
    "write_only",
    "point_update",
)

_ROW_WIRE_BYTES = 200  # one row on the client wire


class SysbenchWorkload(Workload):
    """Sysbench over one or more ``sbtest`` tables."""

    name = "sysbench"

    def __init__(
        self,
        rows: int = 20_000,
        range_size: int = 100,
        key_dist: str = "uniform",
        zipf_theta: float = 0.8,
        n_nodes: int = 0,
        with_k_index: bool = False,
    ) -> None:
        """``n_nodes > 0`` switches to the sharing layout (N private
        tables + 1 shared); 0 means a single ``sbtest1`` table.

        ``with_k_index`` maintains sysbench's secondary index on ``k``
        (single-primary mode only: index SMOs allocate pages, which is
        a single-primary operation in this reproduction).
        """
        if rows < 10:
            raise ValueError("need at least 10 rows")
        if key_dist not in ("uniform", "zipf"):
            raise ValueError(f"unknown key distribution {key_dist!r}")
        if with_k_index and n_nodes > 0:
            raise ValueError("the k index is supported in single-primary mode")
        self.rows = rows
        self.range_size = range_size
        self.key_dist = key_dist
        self.zipf_theta = zipf_theta
        self.n_nodes = n_nodes
        self.with_k_index = with_k_index

    # -- schema / loading -------------------------------------------------------------

    def table_names(self) -> list[str]:
        if self.n_nodes <= 0:
            return ["sbtest1"]
        private = [f"sbtest_private_{i}" for i in range(self.n_nodes)]
        return private + ["sbtest_shared"]

    def schema(self) -> list[tuple]:
        if self.with_k_index:
            return [(name, SYSBENCH_CODEC, ("k",)) for name in self.table_names()]
        return [(name, SYSBENCH_CODEC) for name in self.table_names()]

    def accessed_fraction(self, n_nodes: int) -> float:
        """Each node touches its private table plus the shared one."""
        if self.n_nodes <= 0:
            return 1.0
        return 2.0 / (self.n_nodes + 1)

    def load(self, engine: Engine) -> None:
        def rows_for(_table: str):
            for key in range(1, self.rows + 1):
                yield key, self.loaded_row(key)

        index_fields = ("k",) if self.with_k_index else ()
        load_tables(
            engine,
            [
                (name, SYSBENCH_CODEC, rows_for(name), index_fields)
                for name in self.table_names()
            ],
        )

    @staticmethod
    def loaded_row(key: int) -> dict:
        return {
            "id": key,
            "k": key % 4096,
            "c": bytes(f"c-{key:017d}", "ascii") * 6,
            "pad": bytes(f"p-{key:08d}", "ascii") * 6,
        }

    # -- key selection ------------------------------------------------------------------

    def pick_key(self, rng: WorkloadRng) -> int:
        if self.key_dist == "zipf":
            return 1 + rng.zipf(self.rows, self.zipf_theta)
        return rng.uniform_int(1, self.rows)

    def _range_start(self, rng: WorkloadRng) -> int:
        upper = max(1, self.rows - self.range_size)
        return rng.uniform_int(1, upper)

    # -- single-node functional transactions ------------------------------------------------

    def txn_fn(self, mix: str) -> Callable[[Engine, WorkloadRng], TxnStats]:
        try:
            return getattr(self, f"txn_{mix}")
        except AttributeError:
            raise ValueError(f"unknown sysbench mix {mix!r}") from None

    def txn_point_select(self, engine: Engine, rng: WorkloadRng) -> TxnStats:
        self._point_select(engine, rng)
        return TxnStats(queries=1)

    def txn_range_select(self, engine: Engine, rng: WorkloadRng) -> TxnStats:
        self._range_select(engine, rng)
        return TxnStats(queries=1)

    def txn_read_only(self, engine: Engine, rng: WorkloadRng) -> TxnStats:
        for _ in range(10):
            self._point_select(engine, rng)
        for _ in range(4):
            self._range_select(engine, rng)
        return TxnStats(queries=14)

    def txn_read_write(self, engine: Engine, rng: WorkloadRng) -> TxnStats:
        txn = engine.begin()
        for _ in range(10):
            self._point_select(engine, rng)
        for _ in range(4):
            self._range_select(engine, rng)
        self._update_index(engine, rng)
        self._update_non_index(engine, rng)
        self._delete_insert(engine, rng)
        txn.commit()
        return TxnStats(queries=18, writes=4)

    def txn_write_only(self, engine: Engine, rng: WorkloadRng) -> TxnStats:
        txn = engine.begin()
        self._update_index(engine, rng)
        self._update_non_index(engine, rng)
        self._delete_insert(engine, rng)
        txn.commit()
        return TxnStats(queries=4, writes=4)

    def txn_point_update(self, engine: Engine, rng: WorkloadRng) -> TxnStats:
        txn = engine.begin()
        for _ in range(10):
            self._update_index(engine, rng)
        txn.commit()
        return TxnStats(queries=10, writes=10)

    # -- query primitives ---------------------------------------------------------------------

    def _table(self, engine: Engine):
        return engine.tables["sbtest1"]

    def _charge_query(self, engine: Engine, result_bytes: int) -> None:
        engine.meter.charge_ns(engine.cost.query_fixed_ns)
        if result_bytes:
            engine.meter.charge_transfer("client", result_bytes)

    def _point_select(self, engine: Engine, rng: WorkloadRng) -> None:
        mtr = engine.mtr()
        row = self._table(engine).get(mtr, self.pick_key(rng))
        mtr.commit()
        self._charge_query(engine, _ROW_WIRE_BYTES if row else 0)

    def _range_select(self, engine: Engine, rng: WorkloadRng) -> None:
        # The client only takes the row count: count the rows, charged
        # exactly as a scan that builds them, instead of building them.
        mtr = engine.mtr()
        rows = self._table(engine).btree.range_count(
            mtr, self._range_start(rng), self.range_size
        )
        mtr.commit()
        engine.meter.charge_ns(engine.cost.range_row_ns * rows)
        self._charge_query(engine, _ROW_WIRE_BYTES * rows)

    def _update_index(self, engine: Engine, rng: WorkloadRng) -> None:
        mtr = engine.mtr()
        self._table(engine).update_field(
            mtr, self.pick_key(rng), "k", rng.uniform_int(0, 4095)
        )
        mtr.commit()
        self._charge_query(engine, 0)

    def _update_non_index(self, engine: Engine, rng: WorkloadRng) -> None:
        mtr = engine.mtr()
        self._table(engine).update_field(
            mtr, self.pick_key(rng), "c", rng.bytes(120)
        )
        mtr.commit()
        self._charge_query(engine, 0)

    def _delete_insert(self, engine: Engine, rng: WorkloadRng) -> None:
        key = self.pick_key(rng)
        table = self._table(engine)
        mtr = engine.mtr()
        existed = table.delete(mtr, key)
        mtr.commit()
        self._charge_query(engine, 0)
        mtr = engine.mtr()
        if existed:
            table.insert(mtr, key, self.loaded_row(key))
        mtr.commit()
        self._charge_query(engine, 0)

    # -- multi-primary (sharing) transactions ----------------------------------------------------

    def _sharing_table(
        self, rng: WorkloadRng, node_index: int, shared_pct: float
    ) -> str:
        if self.n_nodes <= 0:
            raise RuntimeError("construct with n_nodes > 0 for sharing mode")
        if rng.random() * 100.0 < shared_pct:
            return "sbtest_shared"
        return f"sbtest_private_{node_index}"

    def sharing_txn_point_update(
        self, rng: WorkloadRng, node_index: int, shared_pct: float
    ) -> list[Op]:
        """10 point updates per transaction (paper §4.4)."""
        return [
            Op(
                "update",
                self._sharing_table(rng, node_index, shared_pct),
                self.pick_key(rng),
                field="k",
                value=rng.uniform_int(0, 4095),
            )
            for _ in range(10)
        ]

    def sharing_txn_read_write(
        self, rng: WorkloadRng, node_index: int, shared_pct: float
    ) -> list[Op]:
        """Read-write adapted for sharing: 10 selects + 4 ranges + 4
        updates. Sysbench's delete+insert pair becomes two more updates
        because page allocation is a single-primary operation in this
        reproduction (DESIGN.md §6) — the write volume is preserved."""
        ops: list[Op] = []
        for _ in range(10):
            ops.append(
                Op(
                    "select",
                    self._sharing_table(rng, node_index, shared_pct),
                    self.pick_key(rng),
                )
            )
        for _ in range(4):
            ops.append(
                Op(
                    "range",
                    self._sharing_table(rng, node_index, shared_pct),
                    self._range_start(rng),
                    count=self.range_size,
                )
            )
        for _ in range(4):
            ops.append(
                Op(
                    "update",
                    self._sharing_table(rng, node_index, shared_pct),
                    self.pick_key(rng),
                    field="k",
                    value=rng.uniform_int(0, 4095),
                )
            )
        return ops

    def sharing_txn_fn(self, mix: str):
        if mix == "point_update":
            return self.sharing_txn_point_update
        if mix == "read_write":
            return self.sharing_txn_read_write
        raise ValueError(f"unsupported sharing mix {mix!r}")
