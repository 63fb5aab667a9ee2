"""Database engine substrate: pages, B+tree, buffer pools, transactions."""

from .btree import BTree, BTreeCorruptionError, DuplicateKeyError
from .bufferpool import (
    BufferPool,
    BufferPoolFullError,
    LocalBufferPool,
)
from .constants import (
    INTERNAL_FANOUT,
    META_PAGE_ID,
    PAGE_HEADER_SIZE,
    PAGE_SIZE,
    PT_FREE,
    PT_INTERNAL,
    PT_LEAF,
    PT_META,
    leaf_capacity,
)
from .engine import Engine, EngineCrashedError
from .mtr import MiniTransaction, MtrStateError
from .page import PageAccessor, PageView, format_empty_page
from .record import Field, RecordCodec
from .table import SecondaryIndex, Table
from .txn import Transaction

__all__ = [
    "BTree",
    "BTreeCorruptionError",
    "DuplicateKeyError",
    "BufferPool",
    "BufferPoolFullError",
    "LocalBufferPool",
    "INTERNAL_FANOUT",
    "META_PAGE_ID",
    "PAGE_HEADER_SIZE",
    "PAGE_SIZE",
    "PT_FREE",
    "PT_INTERNAL",
    "PT_LEAF",
    "PT_META",
    "leaf_capacity",
    "Engine",
    "EngineCrashedError",
    "MiniTransaction",
    "MtrStateError",
    "PageAccessor",
    "PageView",
    "format_empty_page",
    "Field",
    "RecordCodec",
    "SecondaryIndex",
    "Table",
    "Transaction",
]
