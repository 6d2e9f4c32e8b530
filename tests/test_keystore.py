"""Reservoir accounting: FIFO consumption, one-time use, auditability."""

import numpy as np
import pytest

from qkdnet.errors import (AuthenticationStarvation, DuplicateSegmentError, InvariantViolation,
                           KeyStarvation)
from qkdnet.keystore import (
    AuditRecord,
    ConsumePurpose,
    KeyOrigin,
    KeyReservoir,
    KeyStore,
    pair_key,
    scan_one_time_use,
)


def _bits(n, seed=0):
    return np.random.default_rng(seed).integers(0, 2, n, dtype=np.uint8)


def _packed(n, seed=0):
    return np.packbits(_bits(n, seed))


def test_deposit_and_availability():
    r = KeyReservoir("A", "B")
    r.deposit("s1", _packed(512), 512, KeyOrigin.DIRECT_QKD)
    assert r.available == 512
    r.deposit("s2", _packed(1024, 1), 1024, KeyOrigin.DIRECT_QKD)
    assert r.available == 1536


def test_duplicate_segment_rejected():
    r = KeyReservoir("A", "B")
    r.deposit("s1", _packed(64), 64, KeyOrigin.DIRECT_QKD)
    with pytest.raises(DuplicateSegmentError):
        r.deposit("s1", _packed(64, 1), 64, KeyOrigin.RELAY)
    assert r.available == 64


def test_consume_fifo_across_segments():
    r = KeyReservoir("A", "B")
    first, second = _bits(100, 2), _bits(100, 3)
    r.deposit("s1", np.packbits(first), 100, KeyOrigin.DIRECT_QKD)
    r.deposit("s2", np.packbits(second), 100, KeyOrigin.DIRECT_QKD)
    out = r.consume(150, ConsumePurpose.ONE_TIME_PAD)
    assert np.array_equal(out, np.packbits(np.concatenate([first, second[:50]])))


def test_consume_zero_bits():
    r = KeyReservoir("A", "B")
    assert r.consume(0, ConsumePurpose.DELIVERY).size == 0
    assert r.available == 0


def test_starvation_after_exhaustion():
    r = KeyReservoir("A", "B")
    r.deposit("s1", _packed(100), 100, KeyOrigin.DIRECT_QKD)
    r.consume(64, ConsumePurpose.ONE_TIME_PAD)
    with pytest.raises(KeyStarvation):
        r.consume(64, ConsumePurpose.ONE_TIME_PAD)
    with pytest.raises(AuthenticationStarvation):
        r.consume(64, ConsumePurpose.AUTHENTICATION)
    assert r.available == 36  # starvation leaves the reservoir untouched


def test_mirror_reservoirs_return_identical_streams():
    # Both peers replay the same deposit/consume sequence independently.
    left = KeyReservoir("A", "B")
    right = KeyReservoir("A", "B")
    for r in (left, right):
        r.deposit("s1", _packed(300, 7), 300, KeyOrigin.DIRECT_QKD)
        r.deposit("s2", _packed(300, 8), 300, KeyOrigin.RELAY)
    draws = [(64, ConsumePurpose.AUTHENTICATION), (100, ConsumePurpose.ONE_TIME_PAD),
             (128, ConsumePurpose.DELIVERY), (17, ConsumePurpose.ONE_TIME_PAD)]
    for n, purpose in draws:
        assert np.array_equal(left.consume(n, purpose), right.consume(n, purpose))


def test_conservation_identity():
    r = KeyReservoir("A", "B")
    r.deposit("s1", _packed(256), 256, KeyOrigin.DIRECT_QKD)
    r.consume(100, ConsumePurpose.ONE_TIME_PAD)
    r.deposit("s2", _packed(50, 1), 50, KeyOrigin.RELAY)
    r.consume(30, ConsumePurpose.AUTHENTICATION)
    assert r.deposited == r.consumed + r.available == 306


def test_peek_matches_consumed_bits():
    r = KeyReservoir("A", "B")
    bits = _bits(200, 9)
    r.deposit("s1", np.packbits(bits), 200, KeyOrigin.DIRECT_QKD)
    out = r.consume(80, ConsumePurpose.ONE_TIME_PAD)
    assert np.array_equal(r.peek(0, 80), out)
    assert np.array_equal(r.peek(80, 120), np.packbits(bits[80:]))


def test_purpose_separation_in_audit():
    store = KeyStore()
    r = store.reservoir("A", "B")
    r.deposit("s1", _packed(400), 400, KeyOrigin.DIRECT_QKD)
    r.consume(100, ConsumePurpose.ONE_TIME_PAD)
    r.consume(100, ConsumePurpose.AUTHENTICATION)
    ranges = [(a.offset_start, a.offset_end, a.purpose) for a in store.audit
              if a.kind == "consume"]
    assert ranges == [(0, 100, "one_time_pad"), (100, 200, "authentication")]
    assert scan_one_time_use(store.audit) == []


def test_scan_detects_injected_double_spend():
    audit = [
        AuditRecord(0.0, ("A", "B"), "consume", 0, 100, purpose="one_time_pad"),
        AuditRecord(1.0, ("A", "B"), "consume", 50, 150, purpose="one_time_pad"),
    ]
    problems = scan_one_time_use(audit)
    assert problems and "overlap" in problems[0]


def test_pair_key_normalizes_order():
    assert pair_key("B", "A") == ("A", "B")
    with pytest.raises(ValueError):
        pair_key("A", "A")


def test_store_shares_single_audit_log():
    store = KeyStore()
    store.reservoir("A", "B").deposit("s1", _packed(10), 10, KeyOrigin.DIRECT_QKD)
    store.reservoir("C", "B").deposit("s1", _packed(10), 10, KeyOrigin.DIRECT_QKD)
    assert len(store.audit) == 2
    assert store.available("B", "A") == 10


def test_packed_store_hands_out_the_deposited_bits():
    # First, 40 deposits of 1-5,000 bits, mostly not whole bytes, drawn at
    # random sizes so that draws cross segment and byte boundaries. Then
    # empty deposits, as a prepositioned pair of 0 bits makes (each shares
    # its start with the next segment), and draws that end exactly at a
    # segment boundary. Peeks are at random offsets and at each deposit.
    # Every result is a slice of the deposits laid end to end, packed.
    rng = np.random.default_rng(29)
    random_sizes = rng.integers(1, 5001, 40)
    assert sum(n % 8 != 0 for n in random_sizes) > 30
    for sizes, draws in ((random_sizes, []),
                         ([0, 0, 5, 0, 11, 0, 0, 16, 0], [5, 11, 16]),
                         ([0, 0, 5, 0, 11, 0, 0, 16, 0], [2, 7, 4, 19]),
                         ([100, 28, 64, 3, 61], [100, 92, 3, 61])):
        r = KeyReservoir("A", "B")
        deposits = []
        for i, n in enumerate(sizes):
            deposits.append(_bits(int(n), seed=100 + i))
            r.deposit(f"s{i}", np.packbits(deposits[-1]), int(n), KeyOrigin.DIRECT_QKD)
        stream = np.concatenate(deposits)
        at = 0
        while r.available:
            n = draws.pop(0) if draws else min(int(rng.integers(1, 3000)), r.available)
            out = r.consume(n, ConsumePurpose.ONE_TIME_PAD)
            assert out.dtype == np.uint8 and np.array_equal(out, np.packbits(stream[at:at + n]))
            at += n
            lo = int(rng.integers(0, stream.size))
            n = int(rng.integers(0, stream.size - lo + 1))
            assert np.array_equal(r.peek(lo, n), np.packbits(stream[lo:lo + n]))
        assert at == stream.size == r.consumed and not draws
        ends = np.cumsum(list(map(len, deposits))).tolist()
        assert [(a.offset_start, a.offset_end) for a in r.audit if a.kind == "deposit"] == \
            list(zip([0] + ends[:-1], ends))
        for start, bits in zip([0] + ends[:-1], deposits):
            assert np.array_equal(r.peek(start, bits.size), np.packbits(bits))
        assert scan_one_time_use(r.audit) == []
        for lo, n in ((-1, 2), (-1, 0), (stream.size, 1)):
            with pytest.raises(ValueError):
                r.peek(lo, n)


def test_segments_hold_key_eight_bits_to_a_byte():
    r = KeyReservoir("A", "B")
    deposits = [_bits(n, seed=n) for n in (1, 7, 8, 9, 1000, 4093)]
    for i, bits in enumerate(deposits):
        r.deposit(f"s{i}", np.packbits(bits), bits.size, KeyOrigin.DIRECT_QKD)
    for seg, bits in zip(r.segments, deposits):
        assert seg.packed.nbytes == -(-bits.size // 8)
        assert seg.bits.dtype == np.uint8 and np.array_equal(seg.bits, bits)


@pytest.mark.parametrize("packed, n_bits", [
    (np.zeros(2, dtype=np.uint8), 17),                    # a byte short
    (np.zeros(3, dtype=np.uint8), 16),                    # a byte over
    (np.zeros(2, dtype=np.uint8), -1),                    # a negative count
    (np.zeros((2, 1), dtype=np.uint8), 16),               # not one row
    (np.zeros(2, dtype=np.int64), 16),                    # bytes of another dtype
    (np.zeros(16, dtype=bool), 16),                       # 0/1 bits, unpacked
    (np.zeros(2, dtype=np.uint8).tobytes(), 16),          # not an array
], ids=["short", "long", "negative", "2d", "int64", "bool", "bytes"])
def test_deposit_refuses_a_wrong_size_or_dtype(packed, n_bits):
    r = KeyReservoir("A", "B")
    with pytest.raises(ValueError):
        r.deposit("s1", packed, n_bits, KeyOrigin.DIRECT_QKD)
    assert r.available == 0 and r.segments == [] and r.audit == []
    # The id is still free.
    r.deposit("s1", np.array([0b10100000], dtype=np.uint8), 3, KeyOrigin.DIRECT_QKD)
    assert r.available == 3


def test_deposit_keeps_its_own_copy():
    r = KeyReservoir("A", "B")
    bits = _bits(100, 4)
    packed = np.packbits(bits)
    r.deposit("s1", packed, 100, KeyOrigin.DIRECT_QKD)
    packed ^= 0xFF  # the caller writes to its array after the deposit
    assert np.array_equal(r.peek(0, 100), np.packbits(bits))
    assert np.array_equal(r.consume(100, ConsumePurpose.ONE_TIME_PAD), np.packbits(bits))
    assert np.array_equal(r.segments[0].bits, bits)


@pytest.mark.parametrize("start, end", [(-1, 10), (10, 10), (20, 10)])
def test_write_off_refuses_an_empty_or_negative_range(start, end):
    r = KeyReservoir("A", "B")
    r.deposit("s1", _packed(100), 100, KeyOrigin.DIRECT_QKD)
    r.consume(64, ConsumePurpose.ONE_TIME_PAD)
    with pytest.raises(InvariantViolation):
        r.write_off(start, end)
    with pytest.raises(InvariantViolation):
        r.write_off(0, 65)  # past the consumed bits
    r.write_off(0, 64)
    assert [a.kind for a in r.audit] == ["deposit", "consume", "write_off"]
