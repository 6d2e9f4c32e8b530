"""Pairwise key reservoirs with strict one-time-use accounting.

A reservoir holds the ordered key segments a pair of nodes shares. The
simulation materializes each pair's mutually held key once (both sides are
bit-identical by construction), so a consume draw models both peers taking
the same bits for the same purpose. Consumption is strictly FIFO by
segment then offset, which is what lets the two real endpoints stay in
lockstep without negotiation. Every deposit, draw, and write-off lands in
an audit log keyed by global bit offsets, so post-run tooling can prove no
bit was ever used twice.

Key is deposited, held and handed out in one format: packed eight bits to
a byte as ``np.packbits`` packs them (most significant bit first, zero
tail), with the bit count alongside.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import compress, repeat
from operator import attrgetter, eq, itemgetter
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from .errors import (AuthenticationStarvation, DuplicateSegmentError, InvariantViolation, KeyStarvation,
                     refuse_assignment)


class KeyOrigin(Enum):
    DIRECT_QKD = "direct_qkd"
    RELAY = "relay"
    PREPOSITIONED = "prepositioned"


class ConsumePurpose(Enum):
    ONE_TIME_PAD = "one_time_pad"
    AUTHENTICATION = "authentication"
    DELIVERY = "delivery"


def pair_key(a: str, b: str) -> Tuple[str, str]:
    if a == b:
        raise ValueError("a key pair joins two distinct nodes")
    return (a, b) if a < b else (b, a)


class AuditRecord(NamedTuple):
    time_s: float
    pair: Tuple[str, str]
    kind: str                      # deposit | consume | write_off
    offset_start: int
    offset_end: int                # exclusive
    purpose: Optional[str] = None
    origin: Optional[str] = None
    segment_id: Optional[str] = None
    consumer: str = ""

    __setattr__ = refuse_assignment

    def __getattr__(self, name):
        # ``__dict__`` reads the fields as a dataclass row's did; a tuple has none.
        if name == "__dict__":
            return self._asdict()
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")


@dataclass
class _Segment:
    packed: np.ndarray             # the deposit, np.packbits layout
    size: int                      # bits deposited
    global_start: int

    @property
    def bits(self) -> np.ndarray:
        """The deposited bits, unpacked."""
        return np.unpackbits(self.packed, count=self.size)


class KeyReservoir:
    """Key material shared by one pair, consumed FIFO and exactly once."""

    def __init__(self, a: str, b: str, audit: Optional[List[AuditRecord]] = None):
        self.pair = pair_key(a, b)
        self.segments: List[_Segment] = []
        self._segment_ids: Set[str] = set()
        self.audit: List[AuditRecord] = audit if audit is not None else []
        self._deposited = 0
        self._consumed = 0

    @property
    def available(self) -> int:
        return self._deposited - self._consumed

    @property
    def deposited(self) -> int:
        return self._deposited

    @property
    def consumed(self) -> int:
        return self._consumed

    def deposit(self, segment_id: str, packed: np.ndarray, n_bits: int, origin: KeyOrigin,
                time_s: float = 0.0) -> None:
        """Append a copy of ``packed``, ``n_bits`` bits as ``ceil(n_bits / 8)``
        ``uint8``; duplicate segment ids are replayed deposits."""
        if segment_id in self._segment_ids:
            raise DuplicateSegmentError(
                f"segment {segment_id!r} already deposited for pair {self.pair}")
        if (n_bits < 0 or not isinstance(packed, np.ndarray) or packed.dtype != np.uint8
                or packed.shape != ((n_bits + 7) >> 3,)):
            raise ValueError(f"segment {segment_id!r} is not {n_bits} bits packed as uint8")
        seg = _Segment(packed.copy(), n_bits, self._deposited)
        self.segments.append(seg)
        self._segment_ids.add(segment_id)
        self._deposited += n_bits
        self.audit.append(AuditRecord(
            time_s=time_s, pair=self.pair, kind="deposit",
            offset_start=seg.global_start, offset_end=seg.global_start + n_bits,
            origin=origin.value, segment_id=segment_id))

    def consume(self, n_bits: int, purpose: ConsumePurpose, time_s: float = 0.0,
                consumer: str = "") -> np.ndarray:
        """Return the next ``n_bits`` in FIFO order, packed, and mark them used.

        Both peers issuing the same request sequence receive identical
        streams. Raises a starvation error (flow control, not fatal) when
        the reservoir cannot cover the request.
        """
        if n_bits < 0:
            raise ValueError("n_bits must be non-negative")
        if n_bits == 0:
            return np.zeros(0, dtype=np.uint8)
        if n_bits > self.available:
            exc = AuthenticationStarvation if purpose is ConsumePurpose.AUTHENTICATION \
                else KeyStarvation
            raise exc(
                f"pair {self.pair}: need {n_bits} bits for {purpose.value}, "
                f"have {self.available}")
        offset_start = self._consumed
        self._consumed += n_bits
        self.audit.append(AuditRecord(
            time_s=time_s, pair=self.pair, kind="consume",
            offset_start=offset_start, offset_end=offset_start + n_bits,
            purpose=purpose.value, consumer=consumer))
        return self._read(offset_start, n_bits)

    def write_off(self, offset_start: int, offset_end: int, time_s: float = 0.0,
                  reason: str = "") -> None:
        """Log that already-consumed bits were abandoned, never to be reused."""
        if offset_start < 0 or offset_end <= offset_start:
            raise InvariantViolation(
                f"cannot write off the empty or negative range [{offset_start}, {offset_end})")
        if offset_end > self._consumed:
            raise InvariantViolation("cannot write off bits that were never consumed")
        self.audit.append(AuditRecord(
            time_s=time_s, pair=self.pair, kind="write_off",
            offset_start=offset_start, offset_end=offset_end, consumer=reason))

    def peek(self, offset_start: int, n_bits: int) -> np.ndarray:
        """Read bits by global offset without consuming (verification only),
        packed as ``consume`` hands them out.

        Simulation-side tooling uses this to check one-time-pad algebra
        against the audit log; real endpoints have no such facility.
        """
        if offset_start < 0 or n_bits < 0 or offset_start + n_bits > self._deposited:
            raise ValueError("peek range outside the deposited key")
        return self._read(offset_start, n_bits)

    def _read(self, start: int, n_bits: int) -> np.ndarray:
        """Bits ``start:start + n_bits`` of the deposits laid end to end,
        packed, from the bytes they cover only."""
        value, at, end = 0, start, start + n_bits
        # The last segment starting at or before ``start``: it holds that bit,
        # since an empty segment shares its start with the next one.
        i = bisect_right(self.segments, start, key=attrgetter("global_start")) - 1
        while at < end:
            seg = self.segments[i]
            lo = at - seg.global_start
            take = min(end - at, seg.size - lo)
            covered = seg.packed[lo >> 3:(lo + take + 7) >> 3]
            word = int.from_bytes(covered, "big") >> (8 * covered.size - (lo & 7) - take)
            value = (value << take) | (word & ((1 << take) - 1))
            at += take
            i += 1
        return np.frombuffer((value << (-n_bits & 7)).to_bytes((n_bits + 7) >> 3, "big"),
                             dtype=np.uint8)


class KeyStore:
    """All reservoirs of one simulation, sharing a single audit log."""

    def __init__(self):
        self.reservoirs: Dict[Tuple[str, str], KeyReservoir] = {}
        self.audit: List[AuditRecord] = []

    def reservoir(self, a: str, b: str) -> KeyReservoir:
        key = pair_key(a, b)
        if key not in self.reservoirs:
            self.reservoirs[key] = KeyReservoir(*key, audit=self.audit)
        return self.reservoirs[key]

    def available(self, a: str, b: str) -> int:
        key = pair_key(a, b)
        if key not in self.reservoirs:
            return 0
        return self.reservoirs[key].available


_KIND, _PAIR, _START, _END = (itemgetter(AuditRecord._fields.index(name))
                              for name in ("kind", "pair", "offset_start", "offset_end"))


def scan_one_time_use(audit: List[AuditRecord]) -> List[str]:
    """Audit-scan for double-spend: consume ranges must be disjoint per pair.

    Returns a list of human-readable violations (empty when clean). Draws
    of every purpose are checked together, so disjoint consume ranges also
    mean that authentication and one-time-pad draws never share a bit.
    """
    by_pair: Dict[Tuple[str, str], List[AuditRecord]] = {}
    for rec in compress(audit, map(eq, map(_KIND, audit), repeat("consume"))):
        by_pair.setdefault(_PAIR(rec), []).append(rec)
    problems = []
    for pair, records in sorted(by_pair.items()):
        prev_end = -1
        for start, end in sorted(zip(map(_START, records), map(_END, records))):
            if start < prev_end:
                problems.append(f"pair {pair}: consume ranges overlap at offset {start}")
            prev_end = max(prev_end, end)
    return problems
