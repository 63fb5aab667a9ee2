"""Page layout/views and the fixed-width record codec."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.db.constants import (
    NO_FREE_SLOT,
    OFF_LSN,
    PAGE_HEADER_SIZE,
    PAGE_SIZE,
    PT_INTERNAL,
    PT_LEAF,
    leaf_capacity,
)
from repro.db.page import PageView, format_empty_page
from repro.db.record import Field, RecordCodec


class _BytesAccessor:
    """In-memory page accessor for layout tests."""

    def __init__(self, image: bytes):
        self.buf = bytearray(image)

    def read(self, offset, nbytes):
        return bytes(self.buf[offset : offset + nbytes])

    def write(self, offset, data):
        self.buf[offset : offset + len(data)] = data

    def unpack(self, fmt, offset):
        return fmt.unpack_from(self.buf, offset)


class TestPageLayout:
    def test_format_empty_page_header(self):
        image = format_empty_page(42, PT_LEAF, level=0)
        view = PageView(42, _BytesAccessor(image))
        assert len(image) == PAGE_SIZE
        assert view.stored_page_id == 42
        assert view.lsn == 0
        assert view.page_type == PT_LEAF
        assert view.level == 0
        assert view.nrecs == 0
        assert view.next_leaf == 0
        assert view.heap_count == 0
        assert view.first_free == NO_FREE_SLOT

    def test_internal_level_recorded(self):
        image = format_empty_page(7, PT_INTERNAL, level=3)
        view = PageView(7, _BytesAccessor(image))
        assert view.level == 3

    def test_typed_helpers_roundtrip(self):
        view = PageView(1, _BytesAccessor(format_empty_page(1, PT_LEAF)))
        view.write_u64(100, 0xDEADBEEF12345678)
        assert view.read_u64(100) == 0xDEADBEEF12345678
        view.accessor.write(200, (0xABCD).to_bytes(2, "little"))
        assert view.read_u16(200) == 0xABCD
        view.accessor.write(300, b"\x7f")
        assert view.read_u8(300) == 0x7F

    def test_set_lsn(self):
        view = PageView(1, _BytesAccessor(format_empty_page(1, PT_LEAF)))
        view.set_lsn(999)
        assert view.lsn == 999
        assert view.read_u64(OFF_LSN) == 999

    def test_image_returns_full_page(self):
        view = PageView(1, _BytesAccessor(format_empty_page(1, PT_LEAF)))
        assert len(view.image()) == PAGE_SIZE


class TestLeafCapacity:
    def test_capacity_accounts_for_slots(self):
        # 16352 usable bytes / (8 key + 192 payload + 2 slot) = 80.
        assert leaf_capacity(192) == 80

    def test_too_large_payload_rejected(self):
        with pytest.raises(ValueError):
            leaf_capacity(PAGE_SIZE)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            leaf_capacity(0)

    @given(st.integers(1, 3000))
    def test_records_always_fit(self, payload_size):
        capacity = leaf_capacity(payload_size)
        used = capacity * (8 + payload_size + 2)
        assert PAGE_HEADER_SIZE + used <= PAGE_SIZE


CODEC = RecordCodec(
    [
        Field("a", 8),
        Field("b", 2),
        Field("name", 10, "bytes"),
        Field("c", 4),
    ]
)


class TestRecordCodec:
    def test_roundtrip(self):
        row = {"a": 2**40, "b": 77, "name": b"hello", "c": 12345}
        decoded = CODEC.decode(CODEC.encode(row))
        assert decoded["a"] == 2**40
        assert decoded["b"] == 77
        assert decoded["name"] == b"hello" + b"\x00" * 5  # padded
        assert decoded["c"] == 12345

    def test_record_size(self):
        assert CODEC.record_size == 8 + 2 + 10 + 4

    def test_field_offsets(self):
        assert CODEC.field_offset("a") == 0
        assert CODEC.field_offset("b") == 8
        assert CODEC.field_offset("name") == 10
        assert CODEC.field_offset("c") == 20
        assert CODEC.field_size("name") == 10

    def test_encode_field_pads(self):
        assert CODEC.encode_field("name", b"ab") == b"ab" + b"\x00" * 8
        assert CODEC.encode_field("b", 513) == (513).to_bytes(2, "little")

    def test_overlong_bytes_truncated(self):
        encoded = CODEC.encode(
            {"a": 0, "b": 0, "name": b"0123456789abcdef", "c": 0}
        )
        assert CODEC.decode(encoded)["name"] == b"0123456789"

    def test_wrong_payload_size_rejected(self):
        with pytest.raises(ValueError):
            CODEC.decode(b"short")

    def test_bad_int_width_rejected(self):
        with pytest.raises(ValueError):
            Field("x", 3)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            Field("x", 4, "float")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            RecordCodec([Field("x", 4), Field("x", 8)])

    def test_empty_schema_rejected(self):
        with pytest.raises(ValueError):
            RecordCodec([])

    @given(
        st.integers(0, 2**64 - 1),
        st.integers(0, 2**16 - 1),
        st.binary(max_size=10),
        st.integers(0, 2**32 - 1),
    )
    def test_roundtrip_property(self, a, b, name, c):
        row = {"a": a, "b": b, "name": name, "c": c}
        decoded = CODEC.decode(CODEC.encode(row))
        assert decoded["a"] == a
        assert decoded["b"] == b
        assert decoded["c"] == c
        assert decoded["name"].rstrip(b"\x00").startswith(name.rstrip(b"\x00"))
