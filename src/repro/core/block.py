"""CXL block layout: a page plus its metadata, both in CXL memory.

Paper §3.1/§3.2 (Fig. 4): the buffer pool's CXL extent is divided into
blocks; each block stores one database page *and* the metadata needed to
rebuild the pool after a crash — page id, lock state, and the LRU
prev/next links. Because all of it lives in CXL memory (independent
PSU), PolarRecv can reconstruct a consistent warm buffer pool without
replaying the world.

Extent layout::

    [pool header (one cache-line-aligned header block)]
    [block 0][block 1] ... [block n-1]

Block layout (metadata packed into one 64-byte cache line)::

    0   u64  page_id (BLOCK_NO_PAGE when free)
    8   u8   lock_state (1 = write-latched; §3.2 partial-update detection)
    9   u8   in_use (1 = holds a page)
    10  u8   dirty_hint (1 = modified since last storage flush)
    16  u64  prev block index (BLOCK_NIL at LRU head / in free list)
    24  u64  next block index (BLOCK_NIL at LRU tail)
    64  ...  page data (PAGE_SIZE bytes)

The page's LSN is *not* duplicated in block metadata: it lives at byte 8
of the page data, which is itself in CXL, so recovery reads it from
there — same recoverability as the paper's explicit ``lsn`` field.

Pool header layout::

    0   u64  magic
    8   u64  n_blocks
    16  u64  free list head (block index, BLOCK_NIL = empty)
    24  u64  LRU head
    32  u64  LRU tail
    40  u8   lru_mutation_flag (set while LRU links are being rewired)
"""

from __future__ import annotations

import struct

from ..db.constants import OFF_LSN, PAGE_SIZE
from ..hardware.memory import WindowedMemory

__all__ = [
    "BLOCK_META_SIZE",
    "BLOCK_SIZE",
    "BLOCK_NIL",
    "BLOCK_NO_PAGE",
    "POOL_HEADER_SIZE",
    "POOL_MAGIC",
    "BlockMeta",
    "PoolHeader",
    "block_offset",
    "block_data_offset",
    "pool_bytes_needed",
]

BLOCK_META_SIZE = 64
BLOCK_SIZE = BLOCK_META_SIZE + PAGE_SIZE
BLOCK_NIL = 0xFFFFFFFFFFFFFFFF
BLOCK_NO_PAGE = 0xFFFFFFFFFFFFFFFF

POOL_HEADER_SIZE = 64
POOL_MAGIC = 0x504C43584C4D454D  # "PLCXLMEM"

_U64 = struct.Struct("<Q")
_U8 = struct.Struct("<B")

_OFF_PAGE_ID = 0
_OFF_LOCK_STATE = 8
_OFF_IN_USE = 9
_OFF_DIRTY_HINT = 10
_OFF_PREV = 16
_OFF_NEXT = 24

_HDR_MAGIC = 0
_HDR_N_BLOCKS = 8
_HDR_FREE_HEAD = 16
_HDR_LRU_HEAD = 24
_HDR_LRU_TAIL = 32
_HDR_LRU_FLAG = 40


def pool_bytes_needed(n_blocks: int) -> int:
    """Extent size for a pool of ``n_blocks`` blocks.

    >>> pool_bytes_needed(8) == POOL_HEADER_SIZE + 8 * BLOCK_SIZE
    True
    """
    return POOL_HEADER_SIZE + n_blocks * BLOCK_SIZE


def block_offset(index: int) -> int:
    """Extent-relative offset of block ``index``'s metadata.

    >>> block_offset(0) == POOL_HEADER_SIZE
    True
    >>> block_offset(3) - block_offset(2) == BLOCK_SIZE
    True
    """
    return POOL_HEADER_SIZE + index * BLOCK_SIZE


def block_data_offset(index: int) -> int:
    """Extent-relative offset of block ``index``'s page data.

    >>> block_data_offset(5) - block_offset(5) == BLOCK_META_SIZE
    True
    """
    return block_offset(index) + BLOCK_META_SIZE


# The accessors go straight to the window's mapping at ``base + offset``:
# a constant field offset inside the window cannot fail the window's
# bounds check, and the mapping still checks its own.


def _int_field(fmt: struct.Struct, offset: int):
    """``(name, set_name)`` of one little-endian integer field of a window."""
    return (
        property(lambda self: self.mapped.unpack(fmt, self.base + offset)[0]),
        lambda self, value: self.mapped.write(self.base + offset, fmt.pack(value)),
    )


def _flag_field(offset: int):
    """``(name, set_name)`` of one byte read and written as a bool."""
    return (
        property(lambda self: self.mapped.unpack(_U8, self.base + offset)[0] != 0),
        lambda self, value: self.mapped.write(self.base + offset, _U8.pack(bool(value))),
    )


class BlockMeta(WindowedMemory):
    """Typed view of one block in CXL memory: a window over the block
    whose first line is the metadata."""

    __slots__ = ("index",)

    def __init__(self, mem, index: int) -> None:
        super().__init__(mem, block_offset(index), BLOCK_SIZE)
        self.index = index

    page_id, set_page_id = _int_field(_U64, _OFF_PAGE_ID)
    lock_state, set_lock_state = _int_field(_U8, _OFF_LOCK_STATE)
    in_use, set_in_use = _flag_field(_OFF_IN_USE)
    dirty_hint, set_dirty_hint = _flag_field(_OFF_DIRTY_HINT)
    prev, set_prev = _int_field(_U64, _OFF_PREV)
    next, set_next = _int_field(_U64, _OFF_NEXT)

    def page_lsn(self) -> int:
        """The page's LSN, read from the page header inside the block."""
        return self.unpack(_U64, BLOCK_META_SIZE + OFF_LSN)[0]


class PoolHeader(WindowedMemory):
    """Typed view of the pool header in CXL memory."""

    __slots__ = ()

    def __init__(self, mem) -> None:
        super().__init__(mem, 0, POOL_HEADER_SIZE)

    magic, set_magic = _int_field(_U64, _HDR_MAGIC)
    n_blocks, set_n_blocks = _int_field(_U64, _HDR_N_BLOCKS)
    free_head, set_free_head = _int_field(_U64, _HDR_FREE_HEAD)
    lru_head, set_lru_head = _int_field(_U64, _HDR_LRU_HEAD)
    lru_tail, set_lru_tail = _int_field(_U64, _HDR_LRU_TAIL)
    lru_mutation_flag, set_lru_mutation_flag = _flag_field(_HDR_LRU_FLAG)
