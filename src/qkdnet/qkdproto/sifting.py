"""Sifting: keep the detections both sides can use, discard the rest.

Two announcement disciplines over the same four transmitted states:

* traditional BB84 sifting (keep matched-basis detections, ~1/2), and
* SARG/Geneva sifting (announce state pairs, keep unambiguous detections,
  ~1/4, robust against photon-number splitting).

Kept indices depend only on announced data, never on simulator-internal
ground truth, so both parties always derive the same set.
"""

from __future__ import annotations

from enum import Enum
from typing import Tuple

import numpy as np

from ..bits import derive_seed, random_bits
from ..physlink import DetectionRecord

SiftResult = Tuple[np.ndarray, np.ndarray, np.ndarray]


class SiftingProtocol(Enum):
    BB84 = "bb84"
    SARG = "sarg"


def sift_bb84_events(tx_basis: np.ndarray, tx_value: np.ndarray,
                     rx_record: DetectionRecord) -> SiftResult:
    """Traditional sifting over event-aligned transmitter data.

    ``tx_basis``/``tx_value`` hold the transmitter's choices at exactly the
    record's event slots.
    """
    matched = rx_record.rx_basis == np.asarray(tx_basis, dtype=np.uint8)
    kept = rx_record.slot_index[matched]
    alice = np.asarray(tx_value, dtype=np.uint8)[matched]
    bob = rx_record.rx_value[matched]
    return alice, bob, kept


def sift_sarg_events(tx_basis: np.ndarray, tx_value: np.ndarray,
                     rx_record: DetectionRecord, announce_seed=None) -> SiftResult:
    """SARG sifting over event-aligned transmitter data.

    For each detection the transmitter announces a pair of non-orthogonal
    states: the one actually sent plus a decoy drawn from the conjugate
    basis. The receiver keeps the slot only when his outcome rules out one
    announced state, which unambiguously identifies the other; his bit is
    that state's value. On a noiseless channel this never errs. The
    announcements are drawn from ``announce_seed``, by default one derived
    from the record's ``frame_id``.
    """
    tx_basis = np.asarray(tx_basis, dtype=np.uint8)
    tx_value = np.asarray(tx_value, dtype=np.uint8)
    if announce_seed is None:
        announce_seed = derive_seed(0, "sarg-announce", rx_record.frame_id)
    rng = np.random.default_rng(announce_seed)
    decoy_value = random_bits(rng, rx_record.n_events)

    # Exactly one announced state lies in the receiver's measurement basis:
    # the actual state if bases matched, the decoy otherwise. It is ruled
    # out precisely when its value differs from the measured outcome.
    measured_actual = rx_record.rx_basis == tx_basis
    in_basis_value = np.where(measured_actual, tx_value, decoy_value)
    kept_mask = in_basis_value != rx_record.rx_value
    inferred = np.where(measured_actual, decoy_value, tx_value).astype(np.uint8)

    kept = rx_record.slot_index[kept_mask]
    alice = tx_value[kept_mask]
    bob = inferred[kept_mask]
    return alice, bob, kept
