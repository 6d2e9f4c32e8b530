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


def _tx_arrays(tx_basis, tx_value, rx_record: DetectionRecord):
    """The transmitter's choices as uint8 arrays of one entry per event."""
    tx_basis = np.asarray(tx_basis, dtype=np.uint8)
    tx_value = np.asarray(tx_value, dtype=np.uint8)
    n = rx_record.n_events
    if tx_basis.shape != (n,) or tx_value.shape != (n,):
        raise ValueError(f"tx_basis and tx_value must hold the record's {n} events, "
                         f"got {tx_basis.size} and {tx_value.size}")
    return tx_basis, tx_value


def sift_bb84_events(tx_basis: np.ndarray, tx_value: np.ndarray,
                     rx_record: DetectionRecord) -> SiftResult:
    """Traditional sifting over event-aligned transmitter data.

    ``tx_basis``/``tx_value`` hold the transmitter's choices at exactly the
    record's event slots; other lengths raise ValueError.
    """
    tx_basis, tx_value = _tx_arrays(tx_basis, tx_value, rx_record)
    kept = (rx_record.rx_basis == tx_basis).nonzero()[0]
    return tx_value[kept], rx_record.rx_value[kept], rx_record.slot_index[kept]


def sift_sarg_events(tx_basis: np.ndarray, tx_value: np.ndarray,
                     rx_record: DetectionRecord, announce_seed=None) -> SiftResult:
    """SARG sifting over event-aligned transmitter data.

    For each detection the transmitter announces a pair of non-orthogonal
    states: the one actually sent plus a decoy drawn from the conjugate
    basis. The receiver keeps the slot only when his outcome rules out one
    announced state, which unambiguously identifies the other; his bit is
    that state's value. On a noiseless channel this never errs. The
    announcements are drawn from ``announce_seed``, by default one derived
    from the record's ``frame_id``. Transmitter arrays that do not hold one
    entry per event raise ValueError.
    """
    tx_basis, tx_value = _tx_arrays(tx_basis, tx_value, rx_record)
    if announce_seed is None:
        announce_seed = derive_seed(0, "sarg-announce", rx_record.frame_id)
    rng = np.random.default_rng(announce_seed)
    decoy_value = random_bits(rng, rx_record.n_events)

    # Exactly one announced state lies in the receiver's measurement basis:
    # the actual state if bases matched, the decoy otherwise. It is ruled
    # out precisely when its value differs from the measured outcome. Bits
    # are 0 or 1, so the selects are xor masks.
    pair_xor = tx_value ^ decoy_value
    in_basis_value = decoy_value ^ ((rx_record.rx_basis == tx_basis) & pair_xor)
    kept = (in_basis_value != rx_record.rx_value).nonzero()[0]
    # The inferred state is the announced one not in the receiver's basis.
    return (tx_value[kept], in_basis_value[kept] ^ pair_xor[kept],
            rx_record.slot_index[kept])
