"""Public-channel record format.

A relay hop's ciphertext rides in a versioned, length-prefixed binary
record, which its authentication tag covers, so transcripts replay byte
for byte:

    offset  size  field
    0       1     version (currently 1)
    1       1     record type (RecordType)
    2       8     frame id, unsigned little-endian
    10      4     payload length, unsigned little-endian
    14      n     payload bytes

The payload layout is documented in docs/formats.md. The other protocol
messages (sifting, parities, seeds) are modelled, not framed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import Tuple

from ..errors import ProtocolError

WIRE_VERSION = 1
_HEADER = struct.Struct("<BBQI")


class RecordType(IntEnum):
    RELAY_HOP = 9          # relay: one-time-pad ciphertext of the relayed secret


@dataclass(frozen=True)
class Record:
    rtype: RecordType
    frame_id: int
    payload: bytes
    version: int = WIRE_VERSION


def encode_record(record: Record) -> bytes:
    return _HEADER.pack(record.version, int(record.rtype), record.frame_id,
                        len(record.payload)) + record.payload


def decode_record(buf: bytes, offset: int = 0) -> Tuple[Record, int]:
    """Decode one record starting at ``offset``; returns (record, next_offset)."""
    if offset + _HEADER.size > len(buf):
        raise ProtocolError("truncated record header")
    version, rtype, frame_id, length = _HEADER.unpack_from(buf, offset)
    if version != WIRE_VERSION:
        raise ProtocolError(f"unsupported wire version {version}")
    try:
        rtype = RecordType(rtype)
    except ValueError as exc:
        raise ProtocolError(f"unknown record type {rtype}") from exc
    start = offset + _HEADER.size
    end = start + length
    if end > len(buf):
        raise ProtocolError("truncated record payload")
    return Record(rtype, frame_id, buf[start:end]), end
