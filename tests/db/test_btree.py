"""B+tree: CRUD, splits, scans, invariants — including model-based tests."""

import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.db.btree import BTreeCorruptionError, DuplicateKeyError
from repro.db.constants import (
    INTERNAL_ENTRY_BYTES,
    KEY_BYTES,
    NO_FREE_SLOT,
    OFF_FIRST_FREE,
    OFF_HEAP_COUNT,
    OFF_NEXT_LEAF,
    OFF_NRECS,
    PAGE_HEADER_SIZE,
    PAGE_SIZE,
)
from repro.db.record import Field, RecordCodec

from ..conftest import SMALL_CODEC, fill_table, make_local_engine, row_for

_U16 = struct.Struct("<H")
_U64 = struct.Struct("<Q")
_ENTRY = struct.Struct("<QQ")  # (separator key, child page id)


@pytest.fixture
def ctx(host):
    return make_local_engine(host, capacity_pages=1024)


@pytest.fixture
def table(ctx):
    return fill_table(ctx, rows=400)


def _scan(ctx, table):
    return table.btree.checked_scan(ctx.engine.mtr)


class TestLookup:
    def test_existing_keys_found(self, ctx, table):
        for key in (1, 57, 199, 400):
            mtr = ctx.engine.mtr()
            row = table.get(mtr, key)
            mtr.commit()
            assert row is not None and row["id"] == key

    def test_missing_key_none(self, ctx, table):
        mtr = ctx.engine.mtr()
        assert table.get(mtr, 401) is None
        assert table.get(mtr, 0) is None
        mtr.commit()

    def test_tree_split_happened(self, ctx, table):
        scan = _scan(ctx, table)
        assert scan.leaves > 1
        assert len(scan.records) == 400


class TestInsert:
    def test_duplicate_rejected(self, ctx, table):
        mtr = ctx.engine.mtr()
        with pytest.raises(DuplicateKeyError):
            table.insert(mtr, 57, row_for(57))

    def test_sequential_and_shuffled_agree(self, host):
        ctx_a = make_local_engine(host, name="seq")
        ctx_b = make_local_engine(host, name="shuf")
        table_a = fill_table(ctx_a, rows=300, shuffle_seed=None)
        table_b = fill_table(ctx_b, rows=300, shuffle_seed=42)
        rows_a = _scan(ctx_a, table_a).records
        rows_b = _scan(ctx_b, table_b).records
        assert rows_a == rows_b

    def test_wrong_payload_size_rejected(self, ctx, table):
        mtr = ctx.engine.mtr()
        with pytest.raises(ValueError):
            table.btree.insert(mtr, 1000, b"tiny")

    def test_descending_inserts_split_leftward(self, host):
        ctx = make_local_engine(host, name="desc")
        table = ctx.engine.create_table("t", SMALL_CODEC)
        for key in range(500, 0, -1):
            mtr = ctx.engine.mtr()
            table.insert(mtr, key, row_for(key))
            mtr.commit()
        assert len(_scan(ctx, table).records) == 500


class TestUpdate:
    def test_partial_update(self, ctx, table):
        mtr = ctx.engine.mtr()
        assert table.update_field(mtr, 10, "k", 9999 % 97)
        mtr.commit()
        mtr = ctx.engine.mtr()
        row = table.get(mtr, 10)
        mtr.commit()
        assert row["k"] == 9999 % 97
        assert row["payload"] == row_for(10)["payload"]  # untouched

    def test_update_missing_returns_false(self, ctx, table):
        mtr = ctx.engine.mtr()
        assert not table.update_field(mtr, 9999, "k", 1)
        mtr.commit()

    def test_update_out_of_bounds_rejected(self, ctx, table):
        mtr = ctx.engine.mtr()
        with pytest.raises(ValueError):
            table.btree.update(mtr, 10, b"x" * 10, field_offset=60)

    def test_full_row_update(self, ctx, table):
        mtr = ctx.engine.mtr()
        new_row = {"id": 10, "k": 5, "payload": b"Z" * 52}
        assert table.btree.update(mtr, 10, table.codec.encode(new_row))
        mtr.commit()
        mtr = ctx.engine.mtr()
        assert table.get(mtr, 10)["payload"] == b"Z" * 52
        mtr.commit()


class TestDelete:
    def test_delete_then_lookup(self, ctx, table):
        mtr = ctx.engine.mtr()
        assert table.delete(mtr, 57)
        mtr.commit()
        mtr = ctx.engine.mtr()
        assert table.get(mtr, 57) is None
        mtr.commit()
        assert len(_scan(ctx, table).records) == 399

    def test_delete_missing_false(self, ctx, table):
        mtr = ctx.engine.mtr()
        assert not table.delete(mtr, 9999)
        mtr.commit()

    def test_slot_reused_after_delete(self, ctx, table):
        mtr = ctx.engine.mtr()
        table.delete(mtr, 57)
        table.insert(mtr, 57, row_for(57))
        mtr.commit()
        assert len(_scan(ctx, table).records) == 400

    def test_delete_everything(self, host):
        ctx = make_local_engine(host, name="wipe")
        table = fill_table(ctx, rows=150)
        for key in range(1, 151):
            mtr = ctx.engine.mtr()
            assert table.delete(mtr, key)
            mtr.commit()
        assert _scan(ctx, table).records == []
        # Reinsert into tombstone leaves works.
        mtr = ctx.engine.mtr()
        table.insert(mtr, 75, row_for(75))
        mtr.commit()
        assert len(_scan(ctx, table).records) == 1


class TestRangeScan:
    def test_ordered_window(self, ctx, table):
        mtr = ctx.engine.mtr()
        rows = table.range(mtr, 100, 25)
        mtr.commit()
        assert [row["id"] for row in rows] == list(range(100, 125))

    def test_crosses_leaves(self, ctx, table):
        mtr = ctx.engine.mtr()
        rows = table.range(mtr, 1, 300)
        mtr.commit()
        assert [row["id"] for row in rows] == list(range(1, 301))

    def test_start_between_keys(self, ctx, table):
        mtr = ctx.engine.mtr()
        table.delete(mtr, 100)
        mtr.commit()
        mtr = ctx.engine.mtr()
        rows = table.range(mtr, 100, 3)
        mtr.commit()
        assert [row["id"] for row in rows] == [101, 102, 103]

    def test_truncated_at_end(self, ctx, table):
        mtr = ctx.engine.mtr()
        rows = table.range(mtr, 398, 10)
        mtr.commit()
        assert [row["id"] for row in rows] == [398, 399, 400]

    def test_zero_count_returns_empty(self, ctx, table):
        mtr = ctx.engine.mtr()
        assert table.range(mtr, 100, 0) == []
        mtr.commit()

    def test_start_past_end_returns_empty(self, ctx, table):
        mtr = ctx.engine.mtr()
        assert table.range(mtr, 10_000, 5) == []
        mtr.commit()

    def test_leaf_page_id_for_matches_scan(self, ctx, table):
        mtr = ctx.engine.mtr()
        leaf_a = table.btree.leaf_page_id_for(mtr, 5)
        leaf_b = table.btree.leaf_page_id_for(mtr, 395)
        mtr.commit()
        assert leaf_a != leaf_b  # the table spans multiple leaves


class TestMultiLevel:
    def test_three_level_tree(self, host):
        """Force internal splits with a wide payload (few keys per leaf)."""
        wide = RecordCodec([Field("id", 8), Field("pad", 3000, "bytes")])
        ctx = make_local_engine(host, capacity_pages=4000, name="wide")
        table = ctx.engine.create_table("wide", wide)
        rows = 600
        for key in range(1, rows + 1):
            mtr = ctx.engine.mtr()
            table.insert(mtr, key, {"id": key, "pad": b"p" * 3000})
            mtr.commit()
        scan = _scan(ctx, table)
        assert len(scan.records) == rows
        assert scan.leaves >= rows // 5
        mtr = ctx.engine.mtr()
        row = table.get(mtr, 599)
        assert row["id"] == 599
        mtr.commit()


def _poke(ctx, page_id, offset, data):
    """Overwrite page bytes behind the tree's back (no redo, no checks)."""
    mtr = ctx.engine.mtr()
    mtr.get_page(page_id).write(offset, data)
    mtr.commit()


def _root_entries(ctx, table):
    mtr = ctx.engine.mtr()
    root = mtr.get_page(table.btree.root_page_id)
    entries = list(
        _ENTRY.iter_unpack(root.read(PAGE_HEADER_SIZE, root.nrecs * INTERNAL_ENTRY_BYTES))
    )
    mtr.commit()
    return entries


def _leaf_with_two_free_slots(ctx, table):
    """Delete keys 2 and 3 from the first leaf: its free list is then the
    slot of key 3, then the slot of key 2. Returns (leaf, free slots)."""
    mtr = ctx.engine.mtr()
    leaf = mtr.get_page(table.btree.leaf_page_id_for(mtr, 2))
    slots = [table.btree._dir_slot(leaf, rank) for rank in (1, 2)]  # keys 2, 3
    mtr.commit()
    for key in (2, 3):
        mtr = ctx.engine.mtr()
        assert table.delete(mtr, key)
        mtr.commit()
    mtr = ctx.engine.mtr()
    assert mtr.get_page(leaf.page_id).first_free == slots[1]
    mtr.commit()
    return leaf.page_id, slots


def _slot_offset(table, slot):
    return PAGE_HEADER_SIZE + slot * table.btree.record_size


class TestCheckedScan:
    def test_reads_every_record_fixing_each_page_once(self, ctx, table):
        """One fix per page it counts, and the rows the leaf-chain scan
        production uses reads."""
        pool = ctx.engine.buffer_pool
        fixes = pool.hits + pool.misses
        scan = _scan(ctx, table)
        assert pool.hits + pool.misses - fixes == scan.leaves + scan.internals
        assert (scan.internals, scan.depth) == (1, 1) and scan.leaves > 1
        mtr = ctx.engine.mtr()
        assert scan.records == table.btree.range_scan(mtr, 0, 10**6)
        mtr.commit()

    def test_a_cut_leaf_chain_is_corruption(self, ctx, table):
        first_leaf = _root_entries(ctx, table)[0][1]
        _poke(ctx, first_leaf, OFF_NEXT_LEAF, _U64.pack(0))
        message = f"leaf {first_leaf} names next leaf 0"
        with pytest.raises(BTreeCorruptionError, match=message):
            table.btree.checked_scan(ctx.engine.mtr)

    def test_swapped_directory_ranks_are_corruption(self, ctx, table):
        first_leaf = _root_entries(ctx, table)[0][1]
        mtr = ctx.engine.mtr()
        directory = mtr.get_page(first_leaf).read(PAGE_SIZE - 4, 4)
        mtr.commit()
        _poke(ctx, first_leaf, PAGE_SIZE - 4, directory[2:] + directory[:2])
        message = f"leaf {first_leaf}: key 1 after 2"
        with pytest.raises(BTreeCorruptionError, match=message):
            table.btree.checked_scan(ctx.engine.mtr)

    def test_a_key_outside_its_separators_is_corruption(self, ctx, table):
        separator = _root_entries(ctx, table)[1][0]
        key_of_entry_1 = PAGE_HEADER_SIZE + INTERNAL_ENTRY_BYTES
        _poke(ctx, table.btree.root_page_id, key_of_entry_1, _U64.pack(separator + 5))
        with pytest.raises(BTreeCorruptionError, match=f"key {separator} outside"):
            table.btree.checked_scan(ctx.engine.mtr)

    def test_a_page_reached_twice_is_corruption(self, ctx, table):
        first_leaf = _root_entries(ctx, table)[0][1]
        child_of_entry_1 = PAGE_HEADER_SIZE + INTERNAL_ENTRY_BYTES + KEY_BYTES
        _poke(ctx, table.btree.root_page_id, child_of_entry_1, _U64.pack(first_leaf))
        message = f"page {first_leaf} reached twice"
        with pytest.raises(BTreeCorruptionError, match=message):
            table.btree.checked_scan(ctx.engine.mtr)

    def test_a_free_list_cycle_is_corruption(self, ctx, table):
        leaf, (older, newer) = _leaf_with_two_free_slots(ctx, table)
        _poke(ctx, leaf, _slot_offset(table, older), _U16.pack(newer))
        with pytest.raises(BTreeCorruptionError, match=f"free list cycles at slot {newer}"):
            table.btree.checked_scan(ctx.engine.mtr)

    def test_a_free_slot_past_the_heap_is_corruption(self, ctx, table):
        leaf, (older, _) = _leaf_with_two_free_slots(ctx, table)
        mtr = ctx.engine.mtr()
        heap_count = mtr.get_page(leaf).heap_count
        mtr.commit()
        _poke(ctx, leaf, _slot_offset(table, older), _U16.pack(heap_count))
        message = f"leaf {leaf}: free slot {heap_count} past the heap"
        with pytest.raises(BTreeCorruptionError, match=message):
            table.btree.checked_scan(ctx.engine.mtr)

    def test_free_slots_that_do_not_account_for_the_heap_are_corruption(
        self, ctx, table
    ):
        leaf, _ = _leaf_with_two_free_slots(ctx, table)
        _poke(ctx, leaf, OFF_FIRST_FREE, _U16.pack(NO_FREE_SLOT))  # leak both
        message = f"leaf {leaf}: .* records \\+ 0 free slots in a heap of"
        with pytest.raises(BTreeCorruptionError, match=message):
            table.btree.checked_scan(ctx.engine.mtr)

    def test_a_heap_past_the_leaf_capacity_is_corruption(self, ctx, table):
        first_leaf = _root_entries(ctx, table)[0][1]
        _poke(ctx, first_leaf, OFF_HEAP_COUNT, _U16.pack(table.btree.capacity + 1))
        with pytest.raises(BTreeCorruptionError, match=f"leaf {first_leaf}: heap overflow"):
            table.btree.checked_scan(ctx.engine.mtr)

    def test_a_root_with_one_child_is_corruption(self, ctx, table):
        """The root keeps only its first child, whose leaf now ends the
        chain: every other check passes on the one leaf left."""
        first_leaf = _root_entries(ctx, table)[0][1]
        _poke(ctx, first_leaf, OFF_NEXT_LEAF, _U64.pack(0))
        root = table.btree.root_page_id
        _poke(ctx, root, OFF_NRECS, _U16.pack(1))
        with pytest.raises(BTreeCorruptionError, match=f"internal {root}: 1 entries"):
            table.btree.checked_scan(ctx.engine.mtr)


@st.composite
def op_sequences(draw):
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete", "update", "lookup"]),
                st.integers(1, 120),
            ),
            min_size=1,
            max_size=120,
        )
    )
    return ops


class TestModelBased:
    @given(op_sequences())
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_btree_matches_dict_model(self, ops):
        from repro.hardware.host import Cluster
        from repro.sim.core import Simulator

        cluster = Cluster(Simulator())
        host = cluster.add_host("h")
        ctx = make_local_engine(host, capacity_pages=256, name="model")
        table = ctx.engine.create_table("m", SMALL_CODEC)
        model: dict[int, int] = {}
        for op, key in ops:
            mtr = ctx.engine.mtr()
            if op == "insert":
                if key in model:
                    with pytest.raises(DuplicateKeyError):
                        table.insert(mtr, key, row_for(key))
                else:
                    table.insert(mtr, key, row_for(key))
                    model[key] = key % 97
            elif op == "delete":
                assert table.delete(mtr, key) == (key in model)
                model.pop(key, None)
            elif op == "update":
                new_k = (key * 7) % 97
                assert table.update_field(mtr, key, "k", new_k) == (key in model)
                if key in model:
                    model[key] = new_k
            else:
                row = table.get(mtr, key)
                if key in model:
                    assert row is not None and row["k"] == model[key]
                else:
                    assert row is None
            mtr.commit()
        # Full contents match the model, in order.
        scan = _scan(ctx, table)
        contents = {
            key: SMALL_CODEC.decode(payload)["k"] for key, payload in scan.records
        }
        assert contents == model
        assert len(scan.records) == len(model)
