"""The single-node database engine.

Binds a buffer pool (local DRAM, tiered RDMA, or PolarCXLMem — the
engine neither knows nor cares), a durable page store, the redo log, a
cost model and a meter into one transactional engine with tables.

Crash semantics: :meth:`crash` poisons the engine's volatile memory
regions and drops the unflushed log buffer, after which the object is
dead. Recovery constructs a *new* engine over the surviving state via
one of the recovery managers (:mod:`repro.core.recovery` /
:mod:`repro.baselines.vanilla_recovery`, vanilla or RDMA-assisted),
then :meth:`adopt_schema`
re-declares the tables (schema is code, as in any real deployment).
"""

from __future__ import annotations

from typing import Sequence

from ..hardware.memory import AccessMeter, MemoryRegion
from ..obs.probes import PROBES
from ..sim.latency import CostModel
from ..storage.checkpoint import Checkpointer
from ..storage.pagestore import PageStore
from ..storage.wal import RedoLog
from .bufferpool import BufferPool
from .constants import (
    META_MAX_TREES,
    META_OFF_FREE_PAGE_HEAD,
    META_OFF_NEXT_PAGE_ID,
    META_OFF_TREE_ROOTS,
    META_PAGE_ID,
    OFF_NEXT_LEAF,
    OFF_PAGE_TYPE,
    PT_FREE,
    PT_META,
)
from .mtr import MiniTransaction
from .record import RecordCodec
from .table import Table
from .txn import Transaction

__all__ = ["Engine", "EngineCrashedError"]


class EngineCrashedError(RuntimeError):
    """The engine was used after :meth:`Engine.crash`."""


class Engine:
    """A mini PolarDB-like transactional engine over pluggable memory."""

    def __init__(
        self,
        name: str,
        buffer_pool: BufferPool,
        page_store: PageStore,
        redo_log: RedoLog,
        meter: AccessMeter,
        cost: CostModel,
        volatile_regions: Sequence[MemoryRegion] = (),
    ) -> None:
        self.name = name
        self.buffer_pool = buffer_pool
        self.page_store = page_store
        self.redo_log = redo_log
        self.meter = meter
        self.cost = cost
        self.volatile_regions = list(volatile_regions)
        self.tables: dict[str, Table] = {}
        self._next_tree_slot = 0
        self.latched_pages: set[int] = set()
        buffer_pool.attach_redo_log(redo_log)
        self.checkpointer = Checkpointer(redo_log, buffer_pool)
        self._crashed = False

    # -- bootstrap -------------------------------------------------------------------

    def initialize(self) -> None:
        """Format a brand-new database: meta page 0, durable baseline."""
        view = self.buffer_pool.new_page(META_PAGE_ID, PT_META)
        view.write_u64(META_OFF_NEXT_PAGE_ID, 1)
        self.buffer_pool.mark_dirty(META_PAGE_ID)
        self.buffer_pool.flush_page(META_PAGE_ID)
        self.buffer_pool.unpin(META_PAGE_ID)

    def create_table(
        self,
        name: str,
        codec: RecordCodec,
        index_fields: Sequence[str] = (),
    ) -> Table:
        """Create a table, its primary index, and any secondary indexes."""
        self._check_alive()
        if name in self.tables:
            raise ValueError(f"table {name!r} exists")
        table = self._declare_table(name, codec, index_fields)
        mtr = self.mtr()
        table.create(mtr)
        mtr.commit()
        self.redo_log.flush()
        return table

    def adopt_schema(self, schema: Sequence[tuple]) -> None:
        """Re-declare tables after recovery, in original creation order.

        Entries are ``(name, codec)`` or ``(name, codec, index_fields)``.
        Tree-root page ids come from the recovered meta page, so the
        slot assignment (creation order, PK tree then indexes) must
        match — exactly like reopening any database with its schema
        catalogue.
        """
        self._check_alive()
        for entry in schema:
            name, codec = entry[0], entry[1]
            index_fields = entry[2] if len(entry) > 2 else ()
            self._declare_table(name, codec, index_fields)

    def _declare_table(
        self, name: str, codec: RecordCodec, index_fields: Sequence[str] = ()
    ) -> Table:
        slots_needed = 1 + len(index_fields)
        if self._next_tree_slot + slots_needed > META_MAX_TREES:
            raise RuntimeError("out of tree slots in the meta page")
        pk_slot = self._next_tree_slot
        index_slots = range(pk_slot + 1, pk_slot + slots_needed)
        table = Table(
            self,
            name,
            codec,
            pk_slot,
            index_fields=index_fields,
            index_slots=index_slots,
        )
        self._next_tree_slot += slots_needed
        self.tables[name] = table
        return table

    def snapshot(self) -> tuple:
        """The catalogue (tables in creation order, each tree's cached
        root) and the engine's own flags; pages, log and pool state
        belong to the store, the log and the pool."""
        tables = tuple(
            (
                name,
                table.codec,
                tuple(table.indexes),
                tuple(tree._root_page_id for tree in table.trees()),
            )
            for name, table in self.tables.items()
        )
        return (
            tables,
            frozenset(self.latched_pages),
            self.checkpointer.checkpoints_taken,
            self._crashed,
        )

    def restore(self, state: tuple) -> None:
        tables, latched, self.checkpointer.checkpoints_taken, self._crashed = state
        self.tables.clear()
        self._next_tree_slot = 0
        for name, codec, index_fields, roots in tables:
            table = self._declare_table(name, codec, index_fields)
            for tree, root in zip(table.trees(), roots):
                tree._root_page_id = root
        self.latched_pages = set(latched)

    # -- meta-page services used by the B-tree ------------------------------------------

    def allocate_page_id(self, mtr: MiniTransaction) -> int:
        """Pop the freed-page list, or extend the page-id space."""
        meta = mtr.get_page(META_PAGE_ID, for_write=True)
        free_head = meta.read_u64(META_OFF_FREE_PAGE_HEAD)
        if free_head != 0:
            freed = mtr.get_page(free_head, for_write=True)
            mtr.write_u64(meta, META_OFF_FREE_PAGE_HEAD, freed.next_leaf)
            return free_head
        page_id = meta.read_u64(META_OFF_NEXT_PAGE_ID)
        mtr.write_u64(meta, META_OFF_NEXT_PAGE_ID, page_id + 1)
        return page_id

    def free_page(self, mtr: MiniTransaction, view) -> None:
        """Return a page to the freed-page list (merge SMOs).

        The page is marked free and chained through its ``next_leaf``
        field; its buffer-pool frame stays resident until evicted.
        """
        meta = mtr.get_page(META_PAGE_ID, for_write=True)
        mtr.latch_write(view)
        head = meta.read_u64(META_OFF_FREE_PAGE_HEAD)
        mtr.write(view, OFF_PAGE_TYPE, bytes([PT_FREE]))
        mtr.write_u64(view, OFF_NEXT_LEAF, head)
        mtr.write_u64(meta, META_OFF_FREE_PAGE_HEAD, view.page_id)

    def get_tree_root(self, tree_slot: int) -> int:
        mtr = self.mtr()
        meta = mtr.get_page(META_PAGE_ID)
        root = meta.read_u64(META_OFF_TREE_ROOTS + tree_slot * 8)
        mtr.commit()
        if root == 0:
            raise RuntimeError(f"tree slot {tree_slot} has no root")
        return root

    def set_tree_root(
        self, mtr: MiniTransaction, tree_slot: int, page_id: int
    ) -> None:
        meta = mtr.get_page(META_PAGE_ID, for_write=True)
        mtr.write_u64(meta, META_OFF_TREE_ROOTS + tree_slot * 8, page_id)

    # -- work ------------------------------------------------------------------------------

    def begin(self) -> Transaction:
        self._check_alive()
        return Transaction(self)

    def mtr(self) -> MiniTransaction:
        self._check_alive()
        return MiniTransaction(self)

    def checkpoint(self) -> int:
        """Flush dirty pages and advance the checkpoint LSN."""
        self._check_alive()
        spans = PROBES.spans
        if spans is None:
            return self.checkpointer.checkpoint()
        span = spans.begin("pagestore_io", "checkpoint", meter=self.meter)
        flushed = self.checkpointer.checkpoint()
        spans.end(span, pages=flushed)
        return flushed

    # -- crash ------------------------------------------------------------------------------

    def crash(self) -> int:
        """Kill the engine: volatile memory poisoned, log buffer dropped.

        Returns the number of redo records that were lost.
        """
        self._crashed = True
        lost = self.redo_log.crash()
        for region in self.volatile_regions:
            region.power_fail()
        return lost

    @property
    def crashed(self) -> bool:
        return self._crashed

    def _check_alive(self) -> None:
        if self._crashed:
            raise EngineCrashedError(f"engine {self.name!r} has crashed")
