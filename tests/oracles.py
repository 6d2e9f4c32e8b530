"""Declared test oracles: reference implementations the library does not ship.

Tests compare the library against these. None of them is on a path the
engine runs.

* :func:`transmit_frame` simulates an explicit :class:`PulseFrame` slot by
  slot, the attacker's loss budget (:func:`_pns_channel`) pulse by pulse
  and dead time (:func:`_live_clicks`) click by click. It is the
  statistical oracle of :func:`qkdnet.physlink.sample_link_window`.
* :func:`toeplitz_matrix` materializes privacy amplification's hash matrix.
* :func:`decode_record` parses one public-channel record, raising
  :class:`ProtocolError` on a malformed one; :func:`encode_records` /
  :func:`decode_records` frame a stream of them.
* :func:`estimate_secret_length` is the channel-level form of
  :func:`qkdnet.qkdproto.secret_length`.
* :func:`movable` is the full-scan oracle of
  :meth:`qkdnet.keyrelay.RelayCoordinator.wake`.
* :func:`drive` steps a relay session at one instant until it blocks or
  finishes, where the engine steps one hop per event.
* :func:`report_from_records` reads a records stream one record at a time;
  it is the oracle of :meth:`qkdnet.report.MetricsReport.from_records`,
  which checks a field column at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from qkdnet.bits import random_bits
from qkdnet.errors import InvalidRequestError, QkdNetError, ValidationError
from qkdnet.keyrelay import RelayCoordinator, RelaySession, relay_graph
from qkdnet.physlink import (DetectionRecord, EveKind, EveModel, EveTally, LinkParams,
                             PhaseState, phase_error_rate)
from qkdnet.qkdproto import (WIRE_VERSION, EstimatorKind, Record, RecordType,
                             SiftingProtocol, encode_record, secret_length, usable_fraction)
from qkdnet.qkdproto.wire import _HEADER
from qkdnet.report import _ROWS, MetricsReport

# Resource guard for the dense per-slot path.
DEFAULT_MAX_FRAME_SLOTS = 1 << 21


class FrameTooLargeError(QkdNetError):
    """Pulse frame exceeds the per-frame slot cap."""


class ProtocolError(QkdNetError):
    """A malformed or unsupported public-channel record."""


@dataclass(frozen=True)
class PulseFrame:
    """Transmitter-side frame: per-slot basis and value choices."""

    frame_id: str
    basis: np.ndarray
    value: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=np.uint8)
        value = np.asarray(self.value, dtype=np.uint8)
        if basis.size == 0:
            raise ValueError("frame must contain at least one slot")
        if basis.shape != value.shape:
            raise ValueError("basis and value arrays must have equal length")
        if (basis.size and basis.max() > 1) or (value.size and value.max() > 1):
            raise ValueError("basis and value entries must be single bits")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "value", value)

    @property
    def n_slots(self) -> int:
        return int(self.basis.size)

    def sent(self, record: DetectionRecord) -> tuple[np.ndarray, np.ndarray]:
        """The transmitter's basis and value at the record's event slots,
        as the ``sift_*_events`` functions take them."""
        return self.basis[record.slot_index], self.value[record.slot_index]

    @classmethod
    def random(cls, frame_id: str, n_slots: int, rng: np.random.Generator) -> "PulseFrame":
        return cls(frame_id, random_bits(rng, n_slots), random_bits(rng, n_slots))


def _live_clicks(slots: np.ndarray, dead: int) -> np.ndarray:
    """Indices of the clicks that non-paralyzable dead time lets through.

    Every click that registers, kept or later discarded as a double,
    disables both detectors for the next ``dead`` gates.
    """
    if dead <= 0 or slots.size < 2:
        return np.arange(slots.size)
    live = []
    next_ok = 0
    for i, s in enumerate(slots.tolist()):
        if s >= next_ok:
            live.append(i)
            next_ok = s + dead + 1
    return np.asarray(live, dtype=np.intp)


def _pns_channel(photons: np.ndarray, transmittance: float) -> np.ndarray:
    """Photon-number-splitting attacker standing in for the lossy channel.

    She replaces the fiber with a lossless one and removes photons herself,
    from a loss budget that accrues at the honest channel's expected
    absorption rate, so she never creates anomalous loss. Each pulse loses
    as many whole photons as the budget holds, at most all of them. From a
    multi-photon pulse that loses any she keeps one and learns its bit after
    basis announcement, without inducing errors; a single photon she takes
    is suppressed.
    """
    delivered = photons.copy()
    budget = 0.0
    accrual = 1.0 - transmittance
    for i in np.flatnonzero(photons):
        n = int(photons[i])
        budget += n * accrual
        taken = min(n, int(budget))
        budget -= taken
        delivered[i] = n - taken
    return delivered


def transmit_frame(params: LinkParams, phase: PhaseState, eve: Optional[EveModel],
                   frame: PulseFrame, rng_seed,
                   max_slots: int = DEFAULT_MAX_FRAME_SLOTS) -> DetectionRecord:
    """Simulate one frame slot by slot and return the receiver's clicks.

    Per slot: Poisson photon number, attacker action, channel thinning,
    random receiver basis, error model on matched-basis detections, dark
    counts, double-click discard, and non-paralyzable dead time. The same
    (params, phase, eve, frame, seed) always yields the same record, whose
    ``eve_tally`` counts multi-photon emissions behind every attacker and
    what the photon-number splitter learned behind her.
    """
    n = frame.n_slots
    if n > max_slots:
        raise FrameTooLargeError(
            f"frame has {n} slots, exceeding the per-frame maximum of {max_slots}")
    rng = np.random.default_rng(rng_seed)
    kind = eve.kind if eve is not None else EveKind.NONE
    transmittance = params.total_transmittance

    photons = rng.poisson(params.mean_photon_number, size=n)
    multi = photons >= 2
    pulse_basis = frame.basis
    pulse_value = frame.value

    if kind is EveKind.INTERCEPT_RESEND:
        hit = (rng.random(n) < eve.intercept_fraction) & (photons > 0)
        eve_basis = random_bits(rng, n)
        eve_guess = random_bits(rng, n)
        eve_value = np.where(eve_basis == pulse_basis, pulse_value, eve_guess)
        pulse_basis = np.where(hit, eve_basis, pulse_basis).astype(np.uint8)
        pulse_value = np.where(hit, eve_value, pulse_value).astype(np.uint8)
    if kind is EveKind.PHOTON_NUMBER_SPLIT:
        arriving = _pns_channel(photons, transmittance)
        taken = arriving < photons
        tally = EveTally(learned_bits=int(np.count_nonzero(taken & multi)),
                         multi_photon_emissions=int(np.count_nonzero(multi)),
                         suppressed_singles=int(np.count_nonzero(taken & ~multi)))
    else:
        arriving = rng.binomial(photons, transmittance)
        tally = EveTally(multi_photon_emissions=int(np.count_nonzero(multi)))

    eta = params.detector_efficiency
    sig_click = rng.random(n) < -np.expm1(np.log1p(-eta) * arriving) if eta < 1.0 \
        else arriving > 0

    rx_basis = random_bits(rng, n)
    perr = min(max(params.intrinsic_error + phase_error_rate(phase.phase_error_rad), 0.0), 1.0)
    flips = rng.random(n) < perr
    mismatch_value = random_bits(rng, n)
    matched = rx_basis == pulse_basis
    sig_value = np.where(matched, pulse_value ^ flips, mismatch_value).astype(np.uint8)

    d = params.dark_count_prob
    dark0 = rng.random(n) < d
    dark1 = rng.random(n) < d
    fired0 = dark0 | (sig_click & (sig_value == 0))
    fired1 = dark1 | (sig_click & (sig_value == 1))
    any_click = fired0 | fired1

    candidates = np.flatnonzero(any_click)
    candidates = candidates[_live_clicks(candidates, params.dead_slots)]

    double = fired0[candidates] & fired1[candidates]
    events = candidates[~double]
    return DetectionRecord(
        frame_id=frame.frame_id,
        slot_index=events,
        rx_basis=rx_basis[events],
        rx_value=np.where(fired1[events], 1, 0).astype(np.uint8),
        is_dark=~sig_click[events],
        eve_tally=tally,
    )


def toeplitz_matrix(seed: np.ndarray, n_key: int, n_out: int) -> np.ndarray:
    """Materialize the Toeplitz matrix of :func:`qkdnet.qkdproto.privacy_amplify`."""
    seed = np.asarray(seed, dtype=np.uint8)
    if seed.size != n_key + n_out - 1:
        raise InvalidRequestError("seed length must be n_key + n_out - 1")
    i = np.arange(n_out)
    j = np.arange(n_key)
    return seed[n_key - 1 + i[:, None] - j[None, :]]


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


def encode_records(records: Iterable[Record]) -> bytes:
    return b"".join(encode_record(r) for r in records)


def decode_records(buf: bytes) -> List[Record]:
    records = []
    offset = 0
    while offset < len(buf):
        record, offset = decode_record(buf, offset)
        records.append(record)
    return records


def estimate_secret_length(kind: EstimatorKind, n: int, qber: float, bits_leaked: int,
                           link: LinkParams = LinkParams(),
                           sifting: SiftingProtocol = SiftingProtocol.BB84) -> int:
    """:func:`qkdnet.qkdproto.secret_length` with the usable fraction that a
    channel with estimator ``kind``, physics ``link`` and ``sifting`` credits."""
    return secret_length(n, qber, bits_leaked, usable_fraction(kind, sifting, link))


def movable(coord: RelayCoordinator, sessions: Iterable[RelaySession]) -> List[RelaySession]:
    """The coordinator's readiness rule on a relay graph built fresh: the
    sessions among ``sessions`` that a step would move now."""
    return coord._ready(sessions, relay_graph(coord.topology, coord.health, coord.store), {})


def drive(coord: RelayCoordinator, session: RelaySession, time_s: float,
          max_steps: int = 1000) -> str:
    """Step ``session`` at ``time_s`` until it blocks or finishes; returns
    the last step's outcome."""
    outcome = "pending"
    for _ in range(max_steps):
        outcome = coord.step(session, time_s)
        if outcome in ("pending", "starved", "delivered", "failed"):
            break
    return outcome


def _decode_row(codec, i: int, record: dict):
    """The ``i``-th record's row; a missing, unknown or wrong-typed field raises."""
    if record.keys() != codec.keys:
        raise ValidationError(f"record {i}: missing or unknown fields "
                              f"{sorted(record.keys() ^ codec.keys)}")
    values = [record[name] for name in codec.names]
    for j, value in enumerate(values):
        ok = type(value) in codec.types[j]
        if ok and type(value) is list:
            ok = all(type(item) is str for item in value)
            values[j] = tuple(value)
        if not ok:
            wanted = " or ".join(t.__name__ for t in codec.types[j])
            raise ValidationError(f"record {i}: {codec.names[j]} must be {wanted}, got {value!r}")
    return codec.row_type(*values)


def report_from_records(records: List[dict]) -> MetricsReport:
    """Rebuild a report one record at a time, raising ValidationError at the
    first bad record with the library's messages."""
    report = None
    for i, r in enumerate(records, 1):
        if not isinstance(r, dict):
            raise ValidationError(f"record {i}: not an object")
        kind = r.get("type")
        if type(kind) is not str:
            raise ValidationError(f"record {i}: type must be a string, got {kind!r}")
        if kind not in _ROWS:
            raise ValidationError(f"record {i}: unknown record type {kind!r}")
        if (kind == "meta") != (i == 1):
            what = "a second meta record" if i > 1 else "the stream must open with meta"
            raise ValidationError(f"record {i}: {what}")
        attr, codec = _ROWS[kind]
        row = _decode_row(codec, i, r)
        if kind == "meta":
            report = MetricsReport(**row._asdict())
        elif kind == "reservoir":
            if report.final_reservoirs.setdefault(row.pair, row) is not row:
                raise ValidationError(f"record {i}: a second reservoir row for pair {row.pair!r}")
        else:
            getattr(report, attr).append(row)
    if report is None:
        raise ValidationError("records stream has no meta record")
    return report
