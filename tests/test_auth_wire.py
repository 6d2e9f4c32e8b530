"""Authentication tags and the wire record format."""

import numpy as np
import pytest

from oracles import ProtocolError, decode_record, decode_records, encode_records
from qkdnet.qkdproto.auth import _PRIME, _poly_hash
from qkdnet.qkdproto import (
    AUTH_KEY_BITS_PER_TAG,
    Record,
    RecordType,
    auth_tag,
    encode_record,
    verify_tag,
)


def _key(seed):
    """Packed as the keystore hands out an authentication draw."""
    return np.packbits(np.random.default_rng(seed).integers(0, 2, AUTH_KEY_BITS_PER_TAG,
                                                            dtype=np.uint8))


def test_auth_tag_deterministic_and_verifies():
    key = _key(1)
    tag = auth_tag(key, b"hello world")
    assert tag == auth_tag(key, b"hello world")
    assert verify_tag(key, b"hello world", tag)
    assert not verify_tag(key, b"hello worle", tag)


def test_auth_tag_empty_message_well_defined():
    tag = auth_tag(_key(2), b"")
    assert len(tag) == 8


def test_auth_tag_needs_full_key_budget():
    with pytest.raises(ValueError):
        auth_tag(np.zeros(8, dtype=np.uint8), b"x")  # 64 key bits, packed


def test_auth_tags_separate_close_messages():
    # Universal-hash collision oracle: collision probability is at most
    # about message_length / 2^64 per random selector key.
    differ = 0
    for t in range(10_000):
        key = _key(50 + t)
        m1 = b"messageA" + bytes([t % 256])
        m2 = b"messageB" + bytes([t % 256])
        if auth_tag(key, m1) != auth_tag(key, m2):
            differ += 1
    assert differ / 10_000 >= 0.99


def _poly_hash_oracle(selector, message):
    """Test oracle: one slice and one int.from_bytes per 8-byte block."""
    h = len(message) % _PRIME
    for i in range(0, len(message), 8):
        block = int.from_bytes(message[i:i + 8], "little")
        h = (h * selector + block) % _PRIME
    return h


def test_poly_hash_matches_the_per_block_oracle():
    rng = np.random.default_rng(41)
    for length in range(301):
        message = rng.integers(0, 256, length, dtype=np.uint8).tobytes()
        for selector in (0, 1, _PRIME - 1, (1 << 64) - 1,
                         int(rng.integers(0, 1 << 63)) * 2 + 1):
            assert _poly_hash(selector, message) == _poly_hash_oracle(selector, message), \
                (length, selector)


def test_auth_tag_mask_hides_hash():
    # Same message under two keys with equal selectors but different masks
    # gives different tags: the mask is one-time.
    key1 = np.zeros(AUTH_KEY_BITS_PER_TAG, dtype=np.uint8)
    key2 = key1.copy()
    key2[64] = 1
    assert auth_tag(np.packbits(key1), b"m") != auth_tag(np.packbits(key2), b"m")


# ---------------------------------------------------------------------------
# wire records
# ---------------------------------------------------------------------------

def test_record_round_trip():
    record = Record(RecordType.RELAY_HOP, frame_id=77, payload=b"\x01\x02\x03")
    decoded, offset = decode_record(encode_record(record))
    assert decoded == record
    assert offset == 14 + 3


def test_record_stream_round_trip():
    records = [Record(RecordType.RELAY_HOP, 1, b"a"),
               Record(RecordType.RELAY_HOP, 2, b""),
               Record(RecordType.RELAY_HOP, 3, bytes(range(32)))]
    assert decode_records(encode_records(records)) == records


def test_record_truncation_and_bad_version():
    record = encode_record(Record(RecordType.RELAY_HOP, 9, b"xyz"))
    with pytest.raises(ProtocolError):
        decode_record(record[:10])
    with pytest.raises(ProtocolError):
        decode_record(record[:-1])
    with pytest.raises(ProtocolError):
        decode_record(b"\x02" + record[1:])
    # Every type but RELAY_HOP is unknown and refused.
    for rtype in (b"\xee", b"\x07"):
        with pytest.raises(ProtocolError, match="unknown record type"):
            decode_record(b"\x01" + rtype + record[2:])
