"""Page views: typed access to one page's bytes, wherever they live.

A :class:`PageView` binds a page id to a :class:`PageAccessor` — the
object that actually moves bytes (a metered window onto DRAM, onto CXL
memory, or through a functional CPU cache in the sharing scenario). The
B-tree and recovery code never know where a page physically resides;
that indirection is what lets the same engine run on a local, a tiered
RDMA, or a PolarCXLMem buffer pool.

All mutations in normal operation go through the mini-transaction
(:mod:`repro.db.mtr`), which adds redo logging; the raw ``write`` here is
for recovery replay and pool-internal initialization.
"""

from __future__ import annotations

import struct
from typing import Optional, Protocol

from .constants import (
    NO_FREE_SLOT,
    OFF_FIRST_FREE,
    OFF_HEAP_COUNT,
    OFF_LEVEL,
    OFF_LSN,
    OFF_NEXT_LEAF,
    OFF_NRECS,
    OFF_PAGE_ID,
    OFF_PAGE_TYPE,
    PAGE_SIZE,
)

__all__ = ["PageAccessor", "PageView", "format_empty_page"]

_U64 = struct.Struct("<Q")
_U16 = struct.Struct("<H")
_U8 = struct.Struct("<B")


class PageAccessor(Protocol):
    """Moves bytes for one page; implementations meter the movement.
    ``unpack`` (one field) and ``read_run`` (``count`` fields ``stride``
    bytes apart) are charged exactly like the ``read`` calls they stand for.
    """

    def read(self, offset: int, nbytes: int) -> bytes: ...

    def write(self, offset: int, data: bytes) -> None: ...

    def unpack(self, fmt: struct.Struct, offset: int) -> tuple: ...

    def read_run(
        self, fmt: struct.Struct, offset: int, stride: int, count: int
    ) -> list[tuple]: ...


class PageView:
    """One page, seen through an accessor, pinned in some buffer pool."""

    __slots__ = ("page_id", "accessor", "pool")

    def __init__(
        self, page_id: int, accessor: PageAccessor, pool: Optional[object] = None
    ) -> None:
        self.page_id = page_id
        self.accessor = accessor
        self.pool = pool

    # -- raw byte access -----------------------------------------------------------

    def read(self, offset: int, nbytes: int) -> bytes:
        return self.accessor.read(offset, nbytes)

    def write(self, offset: int, data: bytes) -> None:
        self.accessor.write(offset, data)

    def image(self) -> bytes:
        """The full page image (used when flushing to storage)."""
        return self.accessor.read(0, PAGE_SIZE)

    # -- typed helpers ---------------------------------------------------------------

    def read_u64(self, offset: int) -> int:
        return self.accessor.unpack(_U64, offset)[0]

    def write_u64(self, offset: int, value: int) -> None:
        self.accessor.write(offset, _U64.pack(value))

    def read_u16(self, offset: int) -> int:
        return self.accessor.unpack(_U16, offset)[0]

    def read_u8(self, offset: int) -> int:
        return self.accessor.unpack(_U8, offset)[0]

    # -- header fields ----------------------------------------------------------------

    @property
    def stored_page_id(self) -> int:
        return self.read_u64(OFF_PAGE_ID)

    @property
    def lsn(self) -> int:
        return self.read_u64(OFF_LSN)

    def set_lsn(self, lsn: int) -> None:
        self.write_u64(OFF_LSN, lsn)

    @property
    def page_type(self) -> int:
        return self.read_u8(OFF_PAGE_TYPE)

    @property
    def level(self) -> int:
        return self.read_u8(OFF_LEVEL)

    @property
    def nrecs(self) -> int:
        return self.read_u16(OFF_NRECS)

    @property
    def next_leaf(self) -> int:
        return self.read_u64(OFF_NEXT_LEAF)

    @property
    def heap_count(self) -> int:
        return self.read_u16(OFF_HEAP_COUNT)

    @property
    def first_free(self) -> int:
        return self.read_u16(OFF_FIRST_FREE)


def format_empty_page(page_id: int, page_type: int, level: int = 0) -> bytes:
    """A fresh page image with an initialized header and zeroed body."""
    image = bytearray(PAGE_SIZE)
    _U64.pack_into(image, OFF_PAGE_ID, page_id)
    _U64.pack_into(image, OFF_LSN, 0)
    image[OFF_PAGE_TYPE] = page_type
    image[OFF_LEVEL] = level
    _U16.pack_into(image, OFF_NRECS, 0)
    _U64.pack_into(image, OFF_NEXT_LEAF, 0)
    _U16.pack_into(image, OFF_HEAP_COUNT, 0)
    _U16.pack_into(image, OFF_FIRST_FREE, NO_FREE_SLOT)
    return bytes(image)
