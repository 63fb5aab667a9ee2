"""Fixed-width record codecs.

Tables declare a schema of fixed-width fields (unsigned ints and padded
byte strings), which encodes each row to a constant payload size — the
property the leaf-page layout relies on. Field offsets are exposed so
workloads can perform *partial* updates (e.g. sysbench's non-index
update touches one column), which is what makes cache-line-granular
synchronization in the sharing protocol pay off.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

__all__ = ["Field", "RecordCodec"]

_INT_FORMATS = {1: "<B", 2: "<H", 4: "<I", 8: "<Q"}


@dataclass(frozen=True)
class Field:
    """One fixed-width column: an unsigned int or a padded byte string."""

    name: str
    size: int
    kind: str = "int"  # "int" (1/2/4/8 bytes) or "bytes" (any width)

    def __post_init__(self) -> None:
        if self.kind == "int" and self.size not in _INT_FORMATS:
            raise ValueError(f"int field {self.name!r} must be 1/2/4/8 bytes")
        if self.kind not in ("int", "bytes"):
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.size <= 0:
            raise ValueError(f"field {self.name!r} must have positive size")


class RecordCodec:
    """Encode/decode rows of a fixed schema; expose per-field offsets."""

    def __init__(self, fields: Sequence[Field]) -> None:
        if not fields:
            raise ValueError("schema needs at least one field")
        names = [field.name for field in fields]
        if len(set(names)) != len(names):
            raise ValueError("duplicate field names")
        self.fields = tuple(fields)
        self._offsets: dict[str, tuple[int, Field]] = {}
        offset = 0
        for field in fields:
            self._offsets[field.name] = (offset, field)
            offset += field.size
        self.record_size = offset
        # The whole row as one precompiled little-endian struct: ints by
        # width, byte strings as ``<n>s`` (pads short values with NULs,
        # truncates long ones, and unpacks with the padding kept).
        self._struct = struct.Struct(
            "<"
            + "".join(
                _INT_FORMATS[field.size][1] if field.kind == "int" else f"{field.size}s"
                for field in fields
            )
        )
        self._names = tuple(names)

    def encode(self, row: Mapping[str, Any]) -> bytes:
        """Pack a row dict into its fixed-width payload."""
        return self._struct.pack(
            *[
                row[field.name] if field.kind == "int" else bytes(row[field.name])
                for field in self.fields
            ]
        )

    def decode(self, payload: bytes) -> dict[str, Any]:
        """Unpack a payload into a row dict (byte fields keep padding)."""
        if len(payload) != self.record_size:
            raise ValueError(
                f"payload is {len(payload)} bytes, schema needs {self.record_size}"
            )
        return dict(zip(self._names, self._struct.unpack(payload)))

    def field_offset(self, name: str) -> int:
        """Byte offset of a field within the payload (partial updates)."""
        return self._offsets[name][0]

    def field_size(self, name: str) -> int:
        return self._offsets[name][1].size

    def encode_field(self, name: str, value: Any) -> bytes:
        """Encode a single field's bytes (for partial updates)."""
        _, field = self._offsets[name]
        if field.kind == "int":
            return struct.pack(_INT_FORMATS[field.size], value)
        data = bytes(value)[: field.size]
        return data + b"\x00" * (field.size - len(data))
