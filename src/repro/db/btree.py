"""A B+tree over buffer-pool pages, with mini-transaction-protected SMOs.

Keys are u64; payloads are fixed-width per tree. Leaves use the
slot-directory layout described in :mod:`repro.db.constants`; internal
nodes hold a sorted array of (separator key, child page id) pairs where
``child[i]`` covers keys in ``[key[i], key[i+1])`` and ``key[0]`` is
treated as minus infinity.

Structure-modification operations — page splits, root growth, leaf and
internal merges, root collapse — run inside the caller's
mini-transaction: every page they touch is write-latched under
two-phase locking and every byte they change is redo-logged, so a crash
at any point either replays to the complete SMO (its mtr's records were
flushed) or leaves the persisted lock state set so PolarRecv rebuilds
the affected pages from durable state (§3.2 explicitly covers crashes
during "page splitting or merging").

Deletion policy: a leaf under a quarter full merges into an adjacent
sibling when the combined records fit one page; underfull internal
nodes merge likewise, and a single-child root collapses. Freed pages go
onto the meta page's freed-page list and are reused by later
allocations.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Optional

from .constants import (
    INTERNAL_ENTRY_BYTES,
    INTERNAL_FANOUT,
    KEY_BYTES,
    NO_FREE_SLOT,
    OFF_FIRST_FREE,
    OFF_HEAP_COUNT,
    OFF_NEXT_LEAF,
    OFF_NRECS,
    PAGE_HEADER_SIZE,
    PAGE_SIZE,
    PT_INTERNAL,
    PT_LEAF,
    SLOT_BYTES,
    leaf_capacity,
)
from .mtr import MiniTransaction
from .page import PageView

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import Engine

__all__ = ["BTree", "TreeScan", "DuplicateKeyError", "BTreeCorruptionError"]

_U16 = struct.Struct("<H")
_U64 = struct.Struct("<Q")
_ENTRY = struct.Struct("<QQ")
#: A leaf's header from OFF_NRECS on: nrecs, next_leaf, heap_count, first_free.
_LEAF_HEADER = struct.Struct("<HQHH")


class DuplicateKeyError(KeyError):
    """Insert of a key that already exists."""


class BTreeCorruptionError(RuntimeError):
    """An invariant check failed."""


class TreeScan(NamedTuple):
    """What :meth:`BTree.checked_scan` read: every record in key order, and
    the tree's shape (``depth`` counts the levels below the root, 0 for a
    root leaf)."""

    records: list[tuple[int, bytes]]
    leaves: int
    internals: int
    depth: int


class BTree:
    """One index: a B+tree rooted at a meta-page slot."""

    def __init__(self, engine: "Engine", tree_slot: int, payload_size: int) -> None:
        self.engine = engine
        self.tree_slot = tree_slot
        self.payload_size = payload_size
        self.record_size = KEY_BYTES + payload_size
        self.capacity = leaf_capacity(payload_size)
        self._root_page_id: Optional[int] = None

    # -- lifecycle -------------------------------------------------------------------

    def create(self, mtr: MiniTransaction) -> None:
        """Allocate the root leaf and register it in the meta page."""
        root = mtr.new_page(PT_LEAF, level=0)
        self.engine.set_tree_root(mtr, self.tree_slot, root.page_id)
        self._root_page_id = root.page_id

    @property
    def root_page_id(self) -> int:
        if self._root_page_id is None:
            self._root_page_id = self.engine.get_tree_root(self.tree_slot)
        return self._root_page_id

    # -- public operations ---------------------------------------------------------------

    def lookup(self, mtr: MiniTransaction, key: int) -> Optional[bytes]:
        """Return the payload for ``key``, or None."""
        leaf = self._descend_to_leaf(mtr, key)
        idx, found = self._leaf_search(leaf, key)
        if not found:
            return None
        slot = self._dir_slot(leaf, idx)
        payload = leaf.read(self._heap_offset(slot) + KEY_BYTES, self.payload_size)
        self.engine.meter.charge_ns(
            self.engine.cost.record_copy_ns_per_byte * self.payload_size
        )
        return payload

    def insert(self, mtr: MiniTransaction, key: int, payload: bytes) -> None:
        """Insert a record; raises :class:`DuplicateKeyError` if present."""
        if len(payload) != self.payload_size:
            raise ValueError(
                f"payload is {len(payload)} bytes, tree stores {self.payload_size}"
            )
        path, leaf = self._descend(mtr, key, latch_leaf=True)
        idx, found = self._leaf_search(leaf, key)
        if found:
            raise DuplicateKeyError(key)
        if self._leaf_full(leaf):
            leaf, idx = self._split_leaf(mtr, path, leaf, key)
        self._leaf_insert_at(mtr, leaf, idx, key, payload)

    def update(
        self,
        mtr: MiniTransaction,
        key: int,
        data: bytes,
        field_offset: int = 0,
    ) -> bool:
        """Overwrite ``payload[field_offset : field_offset+len(data)]``.

        Partial updates produce small redo records and touch few cache
        lines — the access pattern that cache-line-granular CXL
        synchronization exploits.
        """
        if field_offset < 0 or field_offset + len(data) > self.payload_size:
            raise ValueError("update outside the payload")
        path, leaf = self._descend(mtr, key, latch_leaf=True)
        idx, found = self._leaf_search(leaf, key)
        if not found:
            return False
        slot = self._dir_slot(leaf, idx)
        offset = self._heap_offset(slot) + KEY_BYTES + field_offset
        mtr.write(leaf, offset, data)
        self.engine.meter.charge_ns(self.engine.cost.write_apply_ns)
        return True

    def delete(self, mtr: MiniTransaction, key: int) -> bool:
        """Remove a record; returns whether it existed.

        A leaf that falls below a quarter full merges with an adjacent
        sibling when their contents fit in one page; the merge SMO runs
        inside the same mini-transaction (two-phase latched, §3.2) and
        may cascade: underfull internals merge too, and a root with a
        single child collapses, shrinking the tree.
        """
        path, leaf = self._descend(mtr, key, latch_leaf=True)
        idx, found = self._leaf_search(leaf, key)
        if not found:
            return False
        self._leaf_delete_at(mtr, leaf, idx)
        self.engine.meter.charge_ns(self.engine.cost.write_apply_ns)
        if path and leaf.nrecs < self.capacity // 4:
            self._try_merge_leaf(mtr, path, leaf)
        return True

    def range_scan(
        self, mtr: MiniTransaction, start_key: int, count: int
    ) -> list[tuple[int, bytes]]:
        """Up to ``count`` records with key >= start_key, in key order.

        Each visited leaf's heap area is read as one sequential burst —
        a scan streams through the page, so the hardware prefetcher (and
        the burst model here) hides per-line latency; only the directory
        probes pay random-access costs.
        """
        out: list[tuple[int, bytes]] = []
        record_size = self.record_size
        for heap, slots in self._leaf_runs(mtr, start_key, count):
            for (slot,) in slots:
                at = slot * record_size
                payload = heap[at + KEY_BYTES : at + record_size]
                out.append((_U64.unpack_from(heap, at)[0], payload))
        self._charge_record_copies(len(out))
        return out

    def range_count(self, mtr: MiniTransaction, start_key: int, count: int) -> int:
        """``len(self.range_scan(mtr, start_key, count))`` without building
        a record.

        Charged exactly as that scan: the same page fixes, reads and
        meter additions, in the same order, down to the final record
        copy of every row counted (``meter.ns`` is a float sum, so the
        order is part of the result)."""
        counted = 0
        for _heap, slots in self._leaf_runs(mtr, start_key, count):
            counted += len(slots)
        self._charge_record_copies(counted)
        return counted

    def _leaf_runs(
        self, mtr: MiniTransaction, start_key: int, count: int
    ) -> Iterator[tuple[bytes, list[tuple[int]]]]:
        """The leaf walk under both range consumers: per visited leaf, its
        heap burst and the directory run of the ranks taken from it, up to
        ``count`` ranks from ``start_key`` on. The consumers charge
        nothing between yields, so every charge lands here in walk order."""
        record_size = self.record_size
        leaf = self._descend_to_leaf(mtr, start_key)
        idx, _ = self._leaf_search(leaf, start_key)
        left = count
        while left > 0:
            nrecs = leaf.nrecs
            heap_count = leaf.heap_count
            if idx < nrecs and heap_count:
                heap = leaf.read(PAGE_HEADER_SIZE, heap_count * record_size)
                slots = self._dir_slots(leaf, idx, min(nrecs - idx, left))
                left -= len(slots)
                yield heap, slots
                if not left:
                    return
            next_leaf = leaf.next_leaf
            if next_leaf == 0:
                return
            leaf = mtr.get_page(next_leaf)
            self.engine.meter.charge_ns(self.engine.cost.btree_level_ns)
            idx = 0

    def _charge_record_copies(self, records: int) -> None:
        self.engine.meter.charge_ns(
            self.engine.cost.record_copy_ns_per_byte * self.payload_size * records
        )

    def leaf_page_id_for(self, mtr: MiniTransaction, key: int) -> int:
        """The page id of the leaf that does/would hold ``key``.

        Used by the multi-primary protocol to know which distributed
        page lock to take before operating on the key.
        """
        return self._descend_to_leaf(mtr, key).page_id

    def checked_scan(self, begin: Callable[[], MiniTransaction]) -> TreeScan:
        """Every record in key order and the shape of the tree, fixing each
        page of the tree exactly once, each in its own mini-transaction
        from ``begin``: one pin at a time, so the walk fits any pool. It is
        the tree's one checked whole-tree read, the crash sweep's oracle
        and the B-tree tests' alike.

        On the way it checks separators and leaf keys strictly ascending
        and inside their parent's separator bounds; each leaf's
        ``next_leaf`` naming the next leaf in key order (the last one
        naming none); each leaf's heap within capacity, its directory
        inside the heap, and its free list ending inside the heap and
        accounting, with the records, for every heap slot; and a root
        internal node with at least two children. A violation, a page
        reached twice, or a page that is neither leaf nor internal raises
        :class:`BTreeCorruptionError`.
        """
        records: list[tuple[int, bytes]] = []
        chain: list[tuple[int, int]] = []  # (leaf, the next_leaf it names)
        seen: set[int] = set()
        depth = 0
        stack = [(self.root_page_id, 0, 2**64, 0)]  # (page, low, high, depth), DFS
        while stack:
            page_id, low, high, level = stack.pop()
            if page_id in seen:
                raise BTreeCorruptionError(f"page {page_id} reached twice")
            seen.add(page_id)
            depth = max(depth, level)
            mtr = begin()
            try:
                view = mtr.get_page(page_id)
                page_type = view.page_type
                if page_type == PT_LEAF:
                    leaf, next_leaf = self._leaf_records(view)
                    chain.append((page_id, next_leaf))
                elif page_type == PT_INTERNAL:
                    nrecs = view.nrecs
                    # A one-child root should have collapsed into its child.
                    if not (1 if level else 2) <= nrecs <= INTERNAL_FANOUT:
                        raise BTreeCorruptionError(
                            f"internal {page_id}: {nrecs} entries"
                        )
                    entries = view.accessor.read_run(
                        _ENTRY, self._entry_offset(0), INTERNAL_ENTRY_BYTES, nrecs
                    )
                else:
                    raise BTreeCorruptionError(f"page {page_id}: unexpected type")
            finally:
                mtr.commit()
            if page_type == PT_LEAF:
                previous = -1
                for key, _ in leaf:
                    if key <= previous:
                        raise BTreeCorruptionError(
                            f"leaf {page_id}: key {key} after {previous}"
                        )
                    if not low <= key < high:
                        raise BTreeCorruptionError(
                            f"leaf {page_id}: key {key} outside [{low}, {high})"
                        )
                    previous = key
                records += leaf
                continue
            # Entry 0's key is minus infinity: the child bounds are the
            # parent's, split at every later separator.
            separators = [key for key, _ in entries[1:]]
            bounds = [low, *separators, high]
            if separators and not (
                low <= separators[0]
                and all(a < b for a, b in zip(bounds[1:], bounds[2:]))
            ):
                raise BTreeCorruptionError(
                    f"internal {page_id}: separators {separators} not "
                    f"ascending inside [{low}, {high})"
                )
            for index in range(nrecs - 1, -1, -1):
                stack.append(
                    (entries[index][1], bounds[index], bounds[index + 1], level + 1)
                )
        successors = [leaf_id for leaf_id, _ in chain[1:]] + [0]
        for (leaf_id, named), successor in zip(chain, successors):
            if named != successor:
                raise BTreeCorruptionError(
                    f"leaf {leaf_id} names next leaf {named}, not {successor}"
                )
        return TreeScan(records, len(chain), len(seen) - len(chain), depth)

    # -- descent ------------------------------------------------------------------------

    def _descend(
        self, mtr: MiniTransaction, key: int, latch_leaf: bool
    ) -> tuple[list[tuple[PageView, int]], PageView]:
        """Walk root→leaf; returns (internal path with child indexes, leaf)."""
        view = mtr.get_page(self.root_page_id)
        self.engine.meter.charge_ns(self.engine.cost.btree_level_ns)
        path: list[tuple[PageView, int]] = []
        while view.page_type == PT_INTERNAL:
            child_idx = self._internal_child_index(view, key)
            path.append((view, child_idx))
            child_id = self._internal_child(view, child_idx)
            view = mtr.get_page(child_id)
            self.engine.meter.charge_ns(self.engine.cost.btree_level_ns)
        if latch_leaf:
            mtr.latch_write(view)
        return path, view

    def _descend_to_leaf(self, mtr: MiniTransaction, key: int) -> PageView:
        return self._descend(mtr, key, latch_leaf=False)[1]

    # -- leaf primitives -----------------------------------------------------------------

    def _heap_offset(self, slot: int) -> int:
        return PAGE_HEADER_SIZE + slot * self.record_size

    @staticmethod
    def _dir_offset(rank: int) -> int:
        return PAGE_SIZE - SLOT_BYTES * (rank + 1)

    def _dir_slot(self, leaf: PageView, rank: int) -> int:
        return leaf.read_u16(self._dir_offset(rank))

    def _dir_slots(self, leaf: PageView, rank: int, count: int) -> list[tuple[int]]:
        """Heap slots of ``count`` consecutive ranks: the directory grows
        down, so one run of u16 reads with a negative stride."""
        return leaf.accessor.read_run(_U16, self._dir_offset(rank), -SLOT_BYTES, count)

    def _leaf_search(self, leaf: PageView, key: int) -> tuple[int, bool]:
        """Binary search the directory: (rank, exact-match?).

        On a miss the rank is where the key would be inserted. Each
        probe is two metered reads (directory slot, then the key), made
        straight on the accessor: this loop is most of a point query.
        """
        unpack = leaf.accessor.unpack
        record_size = self.record_size
        lo, hi = 0, unpack(_U16, OFF_NRECS)[0]
        while lo < hi:
            mid = (lo + hi) // 2
            slot = unpack(_U16, PAGE_SIZE - SLOT_BYTES * (mid + 1))[0]
            mid_key = unpack(_U64, PAGE_HEADER_SIZE + slot * record_size)[0]
            if mid_key < key:
                lo = mid + 1
            elif mid_key > key:
                hi = mid
            else:
                return mid, True
        return lo, False

    def _leaf_full(self, leaf: PageView) -> bool:
        return leaf.heap_count >= self.capacity and leaf.first_free == NO_FREE_SLOT

    def _leaf_insert_at(
        self,
        mtr: MiniTransaction,
        leaf: PageView,
        rank: int,
        key: int,
        payload: bytes,
    ) -> None:
        # Claim a heap slot: pop the free list, else extend the heap.
        first_free = leaf.first_free
        if first_free != NO_FREE_SLOT:
            slot = first_free
            next_free = leaf.read_u16(self._heap_offset(slot))
            mtr.write_u16(leaf, OFF_FIRST_FREE, next_free)
        else:
            slot = leaf.heap_count
            if slot >= self.capacity:
                raise BTreeCorruptionError("insert into a full leaf")
            mtr.write_u16(leaf, OFF_HEAP_COUNT, slot + 1)
        mtr.write(leaf, self._heap_offset(slot), _U64.pack(key) + payload)
        # Shift directory ranks [rank, n) down by one slot entry.
        nrecs = leaf.nrecs
        if rank < nrecs:
            span_start = self._dir_offset(nrecs - 1)
            span = leaf.read(span_start, SLOT_BYTES * (nrecs - rank))
            mtr.write(leaf, span_start - SLOT_BYTES, span)
        mtr.write_u16(leaf, self._dir_offset(rank), slot)
        mtr.write_u16(leaf, OFF_NRECS, nrecs + 1)
        self.engine.meter.charge_ns(self.engine.cost.write_apply_ns)

    def _leaf_delete_at(self, mtr: MiniTransaction, leaf: PageView, rank: int) -> None:
        nrecs = leaf.nrecs
        slot = self._dir_slot(leaf, rank)
        # Shift directory ranks (rank, n) up by one entry.
        if rank < nrecs - 1:
            span_start = self._dir_offset(nrecs - 1)
            span = leaf.read(span_start, SLOT_BYTES * (nrecs - 1 - rank))
            mtr.write(leaf, span_start + SLOT_BYTES, span)
        mtr.write_u16(leaf, OFF_NRECS, nrecs - 1)
        # Chain the freed heap slot.
        mtr.write_u16(leaf, self._heap_offset(slot), leaf.first_free)
        mtr.write_u16(leaf, OFF_FIRST_FREE, slot)

    def _leaf_records(self, leaf: PageView) -> tuple[list[tuple[int, bytes]], int]:
        """One leaf's (key, payload) pairs in key order and the next leaf it
        names: the header as one read, the heap as one burst, then the
        whole directory as one run. The free list is followed through the
        burst, so checking it reads nothing more."""
        record_size = self.record_size
        nrecs, next_leaf, heap_count, free = leaf.accessor.unpack(_LEAF_HEADER, OFF_NRECS)
        if heap_count > self.capacity:
            raise BTreeCorruptionError(f"leaf {leaf.page_id}: heap overflow")
        heap = (
            leaf.read(PAGE_HEADER_SIZE, heap_count * record_size) if heap_count else b""
        )
        free_slots = set()
        while free != NO_FREE_SLOT:
            if free >= heap_count:
                raise BTreeCorruptionError(
                    f"leaf {leaf.page_id}: free slot {free} past the heap"
                )
            if free in free_slots:
                raise BTreeCorruptionError(
                    f"leaf {leaf.page_id}: free list cycles at slot {free}"
                )
            free_slots.add(free)
            free = _U16.unpack_from(heap, free * record_size)[0]
        if nrecs + len(free_slots) != heap_count:
            raise BTreeCorruptionError(
                f"leaf {leaf.page_id}: {nrecs} records + {len(free_slots)} "
                f"free slots in a heap of {heap_count}"
            )
        out = []
        for (slot,) in self._dir_slots(leaf, 0, nrecs):
            if slot >= heap_count:
                raise BTreeCorruptionError(
                    f"leaf {leaf.page_id}: slot {slot} past the heap"
                )
            at = slot * record_size
            payload = heap[at + KEY_BYTES : at + record_size]
            out.append((_U64.unpack_from(heap, at)[0], payload))
        return out, next_leaf

    def _read_leaf_records(self, leaf: PageView, ranks: range) -> list[bytes]:
        return [
            leaf.read(self._heap_offset(self._dir_slot(leaf, rank)), self.record_size)
            for rank in ranks
        ]

    def _rewrite_leaf(
        self, mtr: MiniTransaction, leaf: PageView, records: list[bytes]
    ) -> None:
        """Rewrite a leaf compactly: identity directory, no free slots."""
        count = len(records)
        if count:
            mtr.write(leaf, PAGE_HEADER_SIZE, b"".join(records))
            directory = b"".join(
                _U16.pack(count - 1 - j) for j in range(count)
            )
            mtr.write(leaf, self._dir_offset(count - 1), directory)
        mtr.write_u16(leaf, OFF_NRECS, count)
        mtr.write_u16(leaf, OFF_HEAP_COUNT, count)
        mtr.write_u16(leaf, OFF_FIRST_FREE, NO_FREE_SLOT)

    # -- internal-node primitives ------------------------------------------------------------

    @staticmethod
    def _entry_offset(index: int) -> int:
        return PAGE_HEADER_SIZE + index * INTERNAL_ENTRY_BYTES

    def _internal_key(self, node: PageView, index: int) -> int:
        return node.read_u64(self._entry_offset(index))

    def _internal_child(self, node: PageView, index: int) -> int:
        return node.read_u64(self._entry_offset(index) + KEY_BYTES)

    def _internal_child_index(self, node: PageView, key: int) -> int:
        """Rightmost entry with separator <= key (entry 0 is -inf)."""
        unpack = node.accessor.unpack
        lo, hi = 1, unpack(_U16, OFF_NRECS)[0]
        while lo < hi:
            mid = (lo + hi) // 2
            if unpack(_U64, PAGE_HEADER_SIZE + mid * INTERNAL_ENTRY_BYTES)[0] <= key:
                lo = mid + 1
            else:
                hi = mid
        return lo - 1

    def _internal_delete_at(
        self, mtr: MiniTransaction, node: PageView, index: int
    ) -> None:
        nrecs = node.nrecs
        if index < nrecs - 1:
            span = node.read(
                self._entry_offset(index + 1),
                (nrecs - 1 - index) * INTERNAL_ENTRY_BYTES,
            )
            mtr.write(node, self._entry_offset(index), span)
        mtr.write_u16(node, OFF_NRECS, nrecs - 1)

    def _internal_insert_at(
        self,
        mtr: MiniTransaction,
        node: PageView,
        index: int,
        key: int,
        child: int,
    ) -> None:
        nrecs = node.nrecs
        if index < nrecs:
            span = node.read(
                self._entry_offset(index), (nrecs - index) * INTERNAL_ENTRY_BYTES
            )
            mtr.write(node, self._entry_offset(index + 1), span)
        mtr.write(node, self._entry_offset(index), _ENTRY.pack(key, child))
        mtr.write_u16(node, OFF_NRECS, nrecs + 1)

    # -- SMOs ----------------------------------------------------------------------------------

    def _split_leaf(
        self,
        mtr: MiniTransaction,
        path: list[tuple[PageView, int]],
        leaf: PageView,
        key: int,
    ) -> tuple[PageView, int]:
        """Split a full leaf; returns (target leaf, insert rank) for ``key``."""
        self.engine.meter.count("leaf_splits")
        nrecs = leaf.nrecs
        half = nrecs // 2
        lower = self._read_leaf_records(leaf, range(0, half))
        upper = self._read_leaf_records(leaf, range(half, nrecs))
        split_key = _U64.unpack_from(upper[0])[0]

        new_leaf = mtr.new_page(PT_LEAF, level=0)
        self._rewrite_leaf(mtr, new_leaf, upper)
        mtr.write_u64(new_leaf, OFF_NEXT_LEAF, leaf.next_leaf)
        mtr.write_u64(leaf, OFF_NEXT_LEAF, new_leaf.page_id)
        self._rewrite_leaf(mtr, leaf, lower)

        self._insert_separator(mtr, path, leaf, new_leaf, split_key, level=0)

        if key >= split_key:
            rank = self._leaf_search(new_leaf, key)[0]
            return new_leaf, rank
        return leaf, self._leaf_search(leaf, key)[0]

    def _insert_separator(
        self,
        mtr: MiniTransaction,
        path: list[tuple[PageView, int]],
        left: PageView,
        right: PageView,
        split_key: int,
        level: int,
    ) -> None:
        """Install (split_key → right) in the parent, splitting upward."""
        if not path:
            self._grow_root(mtr, left, right, split_key, level)
            return
        parent, child_idx = path[-1]
        mtr.latch_write(parent)
        if parent.nrecs >= INTERNAL_FANOUT:
            parent, child_idx = self._split_internal(mtr, path, parent, child_idx)
        self._internal_insert_at(mtr, parent, child_idx + 1, split_key, right.page_id)

    def _split_internal(
        self,
        mtr: MiniTransaction,
        path: list[tuple[PageView, int]],
        node: PageView,
        child_idx: int,
    ) -> tuple[PageView, int]:
        """Split a full internal node; returns the node/index now covering
        the pending separator insert."""
        self.engine.meter.count("internal_splits")
        nrecs = node.nrecs
        half = nrecs // 2
        upper = node.read(
            self._entry_offset(half), (nrecs - half) * INTERNAL_ENTRY_BYTES
        )
        split_key = _U64.unpack_from(upper)[0]

        new_node = mtr.new_page(PT_INTERNAL, level=node.level)
        mtr.write(new_node, self._entry_offset(0), upper)
        mtr.write_u16(new_node, OFF_NRECS, nrecs - half)
        mtr.write_u16(node, OFF_NRECS, half)

        self._insert_separator(
            mtr, path[:-1], node, new_node, split_key, level=node.level
        )
        if child_idx >= half:
            return new_node, child_idx - half
        return node, child_idx

    def _try_merge_leaf(
        self,
        mtr: MiniTransaction,
        path: list[tuple[PageView, int]],
        leaf: PageView,
    ) -> None:
        """Merge an underfull leaf into an adjacent sibling if both fit."""
        parent, child_idx = path[-1]
        nrecs = parent.nrecs
        if child_idx > 0:
            left = mtr.get_page(self._internal_child(parent, child_idx - 1))
            right = leaf
            right_idx = child_idx
        elif child_idx + 1 < nrecs:
            left = leaf
            right = mtr.get_page(self._internal_child(parent, child_idx + 1))
            right_idx = child_idx + 1
        else:
            # No sibling (single-child parent): only a root collapse can
            # help, and _maybe_shrink handles that.
            self._maybe_shrink(mtr, path)
            return
        if left.nrecs + right.nrecs > self.capacity:
            return
        mtr.latch_write(parent)
        mtr.latch_write(left)
        mtr.latch_write(right)
        self.engine.meter.count("leaf_merges")
        records = self._read_leaf_records(left, range(left.nrecs))
        records += self._read_leaf_records(right, range(right.nrecs))
        mtr.write_u64(left, OFF_NEXT_LEAF, right.next_leaf)
        self._rewrite_leaf(mtr, left, records)
        self._internal_delete_at(mtr, parent, right_idx)
        self.engine.free_page(mtr, right)
        self._maybe_shrink(mtr, path)

    def _maybe_shrink(
        self, mtr: MiniTransaction, path: list[tuple[PageView, int]]
    ) -> None:
        """Cascade upward: merge underfull internals, collapse the root."""
        for depth in range(len(path) - 1, -1, -1):
            node, _ = path[depth]
            if depth == 0:
                if node.page_type == PT_INTERNAL and node.nrecs == 1:
                    mtr.latch_write(node)
                    child = self._internal_child(node, 0)
                    self.engine.set_tree_root(mtr, self.tree_slot, child)
                    self._root_page_id = child
                    self.engine.free_page(mtr, node)
                    self.engine.meter.count("root_collapses")
                return
            if node.nrecs >= max(2, INTERNAL_FANOUT // 4):
                return
            parent, child_idx = path[depth - 1]
            if not self._try_merge_internal(mtr, parent, child_idx, node):
                return

    def _try_merge_internal(
        self,
        mtr: MiniTransaction,
        parent: PageView,
        child_idx: int,
        node: PageView,
    ) -> bool:
        """Merge an underfull internal node into an adjacent sibling."""
        nrecs = parent.nrecs
        if child_idx > 0:
            left = mtr.get_page(self._internal_child(parent, child_idx - 1))
            right = node
            right_idx = child_idx
        elif child_idx + 1 < nrecs:
            left = node
            right = mtr.get_page(self._internal_child(parent, child_idx + 1))
            right_idx = child_idx + 1
        else:
            return False
        if left.nrecs + right.nrecs > INTERNAL_FANOUT:
            return False
        mtr.latch_write(parent)
        mtr.latch_write(left)
        mtr.latch_write(right)
        self.engine.meter.count("internal_merges")
        # The right node's entry 0 acts as -inf inside its subtree; its
        # real lower bound is the parent's separator, which must be
        # materialized when the entries move under the left node.
        separator = self._internal_key(parent, right_idx)
        right_n = right.nrecs
        moved = _ENTRY.pack(separator, self._internal_child(right, 0))
        if right_n > 1:
            moved += right.read(
                self._entry_offset(1), (right_n - 1) * INTERNAL_ENTRY_BYTES
            )
        left_n = left.nrecs
        mtr.write(left, self._entry_offset(left_n), moved)
        mtr.write_u16(left, OFF_NRECS, left_n + right_n)
        self._internal_delete_at(mtr, parent, right_idx)
        self.engine.free_page(mtr, right)
        return True

    def _grow_root(
        self,
        mtr: MiniTransaction,
        left: PageView,
        right: PageView,
        split_key: int,
        level: int,
    ) -> None:
        new_root = mtr.new_page(PT_INTERNAL, level=level + 1)
        mtr.write(new_root, self._entry_offset(0), _ENTRY.pack(0, left.page_id))
        mtr.write(
            new_root, self._entry_offset(1), _ENTRY.pack(split_key, right.page_id)
        )
        mtr.write_u16(new_root, OFF_NRECS, 2)
        self.engine.set_tree_root(mtr, self.tree_slot, new_root.page_id)
        self._root_page_id = new_root.page_id
        self.engine.meter.count("root_splits")
