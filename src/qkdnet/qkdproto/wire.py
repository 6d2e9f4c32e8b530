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
