"""Key-value records and their canonical encodings.

A record is ``<key, value, timestamp, kind>`` per the paper's interface
(Equation 1).  Timestamps are assigned by the enclave's timestamp manager
and are unique across the store, which gives every record a total order:
ascending key, then *descending* timestamp (newest first) — the on-disk
sort order of every level.

``encode_record`` is the canonical byte form used both on disk and as the
hash-chain input, so the digest structure and the storage layer can never
disagree about a record's identity.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

KIND_PUT = 0
KIND_DELETE = 1

_HEADER = struct.Struct("<HQBI")  # key_len, timestamp, kind, value_len


@dataclass(frozen=True)
class Record:
    """One immutable key-value version."""

    key: bytes
    ts: int
    kind: int = KIND_PUT
    value: bytes = b""

    @property
    def is_tombstone(self) -> bool:
        return self.kind == KIND_DELETE

    def sort_key(self) -> tuple[bytes, int]:
        """Total order: key ascending, then newest (largest ts) first."""
        return (self.key, -self.ts)

    def approximate_bytes(self) -> int:
        """On-disk footprint estimate (header + key + value)."""
        return _HEADER.size + len(self.key) + len(self.value)


def tombstone(key: bytes, ts: int) -> Record:
    """The marker a DELETE writes; compaction garbage-collects it later."""
    return Record(key=key, ts=ts, kind=KIND_DELETE, value=b"")


def decode_group_ops(ops) -> tuple[list[tuple[int, bytes, bytes]], int]:
    """Decode group-commit ops, ``("put", key, value)`` and
    ``("delete", key)`` (or ``KIND_PUT``/``KIND_DELETE`` in place of the
    name), into ``(kind, key, value)`` tuples in caller order; also
    returns the user payload bytes they carry.  Raises ValueError on any
    other op kind, before the caller writes anything."""
    decoded: list[tuple[int, bytes, bytes]] = []
    total_bytes = 0
    for op in ops:
        if op[0] in ("put", KIND_PUT):
            _, key, value = op
            decoded.append((KIND_PUT, key, value))
            total_bytes += len(key) + len(value)
        elif op[0] in ("delete", KIND_DELETE):
            decoded.append((KIND_DELETE, op[1], b""))
            total_bytes += len(op[1])
        else:
            raise ValueError(f"unknown group-commit op: {op[0]!r}")
    return decoded, total_bytes


def encode_record(record: Record) -> bytes:
    """Canonical byte encoding (used on disk and in hash chains)."""
    return (
        _HEADER.pack(len(record.key), record.ts, record.kind, len(record.value))
        + record.key
        + record.value
    )


def decode_record(buf: bytes, offset: int = 0) -> tuple[Record, int]:
    """Decode one record; returns (record, next offset)."""
    key_len, ts, kind, value_len = _HEADER.unpack_from(buf, offset)
    offset += _HEADER.size
    key = bytes(buf[offset : offset + key_len])
    offset += key_len
    value = bytes(buf[offset : offset + value_len])
    offset += value_len
    return Record(key=key, ts=ts, kind=kind, value=value), offset
