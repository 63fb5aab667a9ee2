"""Tables: a record codec over a B+tree primary-key index, with
optional secondary indexes.

A secondary index on an integer column is itself a B+tree keyed by
``(column value << 32) | primary key`` with the primary key as payload,
so duplicate column values coexist and index scans come back in
(value, pk) order. Index maintenance piggybacks on the row operations
inside the same mini-transaction — an indexed-column update really is a
multi-page operation, as in the engine the paper modifies.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Optional

from .btree import BTree
from .mtr import MiniTransaction
from .record import RecordCodec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import Engine

__all__ = ["Table", "SecondaryIndex"]

_PK_LIMIT = 1 << 32
_U64 = struct.Struct("<Q")


class SecondaryIndex:
    """An index over one integer column of a table."""

    def __init__(
        self, table: "Table", field: str, tree_slot: int
    ) -> None:
        codec = table.codec
        if codec.field_size(field) > 4:
            raise ValueError(
                f"indexed column {field!r} must be at most 4 bytes "
                "(the composite key packs value and primary key into u64)"
            )
        self.table = table
        self.field = field
        self.btree = BTree(table.engine, tree_slot, payload_size=8)

    def composite_key(self, value: int, pk: int) -> int:
        if not 0 <= pk < _PK_LIMIT:
            raise ValueError(f"primary key {pk} out of indexable range")
        return (int(value) << 32) | pk

    # -- maintenance (same mtr as the row operation) ------------------------------

    def on_insert(self, mtr: MiniTransaction, pk: int, row: Mapping[str, Any]) -> None:
        self.btree.insert(
            mtr, self.composite_key(row[self.field], pk), _U64.pack(pk)
        )

    def on_delete(self, mtr: MiniTransaction, pk: int, row: Mapping[str, Any]) -> None:
        self.btree.delete(mtr, self.composite_key(row[self.field], pk))

    def on_update(
        self, mtr: MiniTransaction, pk: int, old_value: int, new_value: int
    ) -> None:
        if old_value == new_value:
            return
        self.btree.delete(mtr, self.composite_key(old_value, pk))
        self.btree.insert(mtr, self.composite_key(new_value, pk), _U64.pack(pk))

    # -- queries ---------------------------------------------------------------------

    def lookup_pks(
        self, mtr: MiniTransaction, value: int, limit: int = 64
    ) -> list[int]:
        """Primary keys of rows whose column equals ``value``."""
        low = self.composite_key(value, 0)
        out = []
        for key, payload in self.btree.range_scan(mtr, low, limit):
            if (key >> 32) != value:
                break
            out.append(_U64.unpack(payload)[0])
        return out


class Table:
    """A fixed-schema table clustered on a u64 primary key."""

    def __init__(
        self,
        engine: "Engine",
        name: str,
        codec: RecordCodec,
        tree_slot: int,
        index_fields: Iterable[str] = (),
        index_slots: Iterable[int] = (),
    ) -> None:
        self.engine = engine
        self.name = name
        self.codec = codec
        self.btree = BTree(engine, tree_slot, codec.record_size)
        self.indexes: dict[str, SecondaryIndex] = {}
        for field, slot in zip(index_fields, index_slots):
            self.indexes[field] = SecondaryIndex(self, field, slot)

    def trees(self) -> list[BTree]:
        """The primary tree, then each index's, in tree-slot order."""
        return [self.btree, *(index.btree for index in self.indexes.values())]

    def create(self, mtr: MiniTransaction) -> None:
        for tree in self.trees():
            tree.create(mtr)

    # -- row operations ------------------------------------------------------------

    def insert(self, mtr: MiniTransaction, key: int, row: Mapping[str, Any]) -> None:
        self.btree.insert(mtr, key, self.codec.encode(row))
        for index in self.indexes.values():
            index.on_insert(mtr, key, row)

    def get(self, mtr: MiniTransaction, key: int) -> Optional[dict[str, Any]]:
        payload = self.btree.lookup(mtr, key)
        if payload is None:
            return None
        return self.codec.decode(payload)

    def update_field(
        self, mtr: MiniTransaction, key: int, field: str, value: Any
    ) -> bool:
        """Partial update of one column — a small, cache-line-friendly write.

        Updating an indexed column additionally moves the index entry
        (sysbench's ``update_index`` vs ``update_non_index`` cost gap).
        """
        index = self.indexes.get(field)
        if index is not None:
            old = self.get(mtr, key)
            if old is None:
                return False
            data = self.codec.encode_field(field, value)
            if not self.btree.update(
                mtr, key, data, field_offset=self.codec.field_offset(field)
            ):
                return False
            index.on_update(mtr, key, old[field], int(value))
            return True
        data = self.codec.encode_field(field, value)
        return self.btree.update(
            mtr, key, data, field_offset=self.codec.field_offset(field)
        )

    def delete(self, mtr: MiniTransaction, key: int) -> bool:
        old = self.get(mtr, key) if self.indexes else None
        if not self.btree.delete(mtr, key):
            return False
        if old is not None:
            for index in self.indexes.values():
                index.on_delete(mtr, key, old)
        return True

    def find_by(
        self, mtr: MiniTransaction, field: str, value: int, limit: int = 64
    ) -> list[dict[str, Any]]:
        """Rows with ``row[field] == value``, via the secondary index."""
        index = self.indexes.get(field)
        if index is None:
            raise KeyError(f"no index on {self.name}.{field}")
        rows = []
        for pk in index.lookup_pks(mtr, int(value), limit):
            row = self.get(mtr, pk)
            if row is not None:
                rows.append(row)
        return rows

    def range(
        self, mtr: MiniTransaction, start_key: int, count: int
    ) -> list[dict[str, Any]]:
        return [
            self.codec.decode(payload)
            for _, payload in self.btree.range_scan(mtr, start_key, count)
        ]
