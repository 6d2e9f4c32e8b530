"""Sifting disciplines and error-rate sampling."""

import numpy as np
import pytest

from oracles import PulseFrame, transmit_frame
from qkdnet import physlink as pl
from qkdnet.bits import random_bits
from qkdnet.errors import InsufficientSampleError
from qkdnet.qkdproto import estimate_qber, sift_bb84_events, sift_sarg_events

PHASE0 = pl.PhaseState()


def _record(frame_id, slots, bases, values):
    return pl.DetectionRecord(frame_id, np.asarray(slots), np.asarray(bases, dtype=np.uint8),
                              np.asarray(values, dtype=np.uint8),
                              np.zeros(len(slots), dtype=bool))


def _all_detected_record(n, seed, noiseless=True, intrinsic=0.0):
    """Every slot detected: bright source, unit-efficiency detectors."""
    params = pl.LinkParams(mean_photon_number=20.0, detector_efficiency=1.0,
                           dark_count_prob=0.0, dead_time_s=0.0,
                           intrinsic_error=intrinsic)
    frame = PulseFrame.random("bright", n, np.random.default_rng(seed))
    record = transmit_frame(params, PHASE0, None, frame, rng_seed=seed + 1)
    return frame, record


def test_sift_bb84_by_inspection():
    record = _record("f", [0, 1, 2, 3], [0, 0, 1, 1], [1, 0, 0, 0])
    alice, bob, kept = sift_bb84_events([0, 1, 0, 1], [1, 1, 0, 0], record)
    assert list(kept) == [0, 3]
    assert list(alice) == [1, 0]
    assert list(bob) == [1, 0]


def test_sift_bb84_empty_record():
    alice, bob, kept = sift_bb84_events([], [], pl.DetectionRecord.empty("f"))
    assert alice.size == bob.size == kept.size == 0


def test_sift_bb84_kept_fraction():
    # Enumeration oracle: 2 of 4 basis pairs match -> 1/2.
    frame, record = _all_detected_record(100_000, 2)
    assert record.n_events == 100_000
    _, _, kept = sift_bb84_events(*frame.sent(record), record)
    assert abs(kept.size / record.n_events - 0.5) < 0.005


def test_sift_bb84_ignores_values_for_kept_set():
    # Kept indices depend only on announced bases, never on outcomes.
    frame, record = _all_detected_record(10_000, 3)
    _, _, kept1 = sift_bb84_events(*frame.sent(record), record)
    scrambled = pl.DetectionRecord(record.frame_id, record.slot_index,
                                   record.rx_basis, 1 - record.rx_value,
                                   record.is_dark)
    _, _, kept2 = sift_bb84_events(*frame.sent(scrambled), scrambled)
    assert np.array_equal(kept1, kept2)


def test_sift_sarg_empty():
    alice, bob, kept = sift_sarg_events([], [], pl.DetectionRecord.empty("f"))
    assert alice.size == bob.size == kept.size == 0


def test_sift_sarg_kept_fraction_and_exactness():
    # Enumeration oracle over (state, announcement, rx basis, outcome):
    # 4 of 16 combinations are unambiguous -> 1/4; all are error-free.
    frame, record = _all_detected_record(100_000, 5)
    alice, bob, kept = sift_sarg_events(*frame.sent(record), record)
    assert abs(kept.size / record.n_events - 0.25) < 0.005
    assert np.array_equal(alice, bob)


def test_sift_sarg_announcements_reproducible():
    frame, record = _all_detected_record(10_000, 6)
    a1, b1, k1 = sift_sarg_events(*frame.sent(record), record, announce_seed=99)
    a2, b2, k2 = sift_sarg_events(*frame.sent(record), record, announce_seed=99)
    assert np.array_equal(k1, k2) and np.array_equal(b1, b2)


def test_sift_sarg_noisy_rates():
    # With matched-basis error rate e: kept = (e + 0.5)/2 and the kept-set
    # error rate is (e/2) / (e + 0.5).
    e = 0.05
    frame, record = _all_detected_record(200_000, 7, intrinsic=e)
    alice, bob, kept = sift_sarg_events(*frame.sent(record), record)
    kept_frac = kept.size / record.n_events
    qber = float(np.mean(alice != bob))
    assert abs(kept_frac - (e + 0.5) / 2) < 0.005
    assert abs(qber - (e / 2) / (e + 0.5)) < 0.01


def _sift_mask_oracle(tx_basis, tx_value, record, protocol, announce_seed=None):
    """Declared test oracle: both sifters as boolean-mask gathers with
    ``np.where`` selects, as they were before they gathered by index."""
    tx_basis = np.asarray(tx_basis, dtype=np.uint8)
    tx_value = np.asarray(tx_value, dtype=np.uint8)
    matched = record.rx_basis == tx_basis
    if protocol == "bb84":
        return tx_value[matched], record.rx_value[matched], record.slot_index[matched]
    rng = np.random.default_rng(announce_seed)
    decoy = random_bits(rng, record.n_events)
    kept = np.where(matched, tx_value, decoy) != record.rx_value
    inferred = np.where(matched, decoy, tx_value).astype(np.uint8)
    return tx_value[kept], inferred[kept], record.slot_index[kept]


def _random_record(n, rng, frame_id="r"):
    slots = np.sort(rng.choice(10 * n + 1, size=n, replace=False))
    bits = rng.integers(0, 2, size=(4, n), dtype=np.uint8)
    record = pl.DetectionRecord(frame_id, slots, bits[0], bits[1], bits[2].astype(bool))
    return bits[3], rng.integers(0, 2, n, dtype=np.uint8), record


@pytest.mark.parametrize("case", ["random", "empty", "all-matched", "none-matched"])
def test_sifters_match_boolean_mask_oracle(case):
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = 0 if case == "empty" else int(rng.integers(1, 2000))
        tx_basis, tx_value, record = _random_record(n, rng, f"r{trial}")
        if case == "all-matched":
            tx_basis = record.rx_basis.copy()
        elif case == "none-matched":
            tx_basis = 1 - record.rx_basis
        for protocol, got in (
                ("bb84", sift_bb84_events(tx_basis, tx_value, record)),
                ("sarg", sift_sarg_events(tx_basis, tx_value, record, announce_seed=trial))):
            want = _sift_mask_oracle(tx_basis, tx_value, record, protocol, trial)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype, (case, protocol)
                assert np.array_equal(g, w), (case, protocol)
            if protocol == "bb84" and case == "all-matched":
                assert got[2].size == n
            if protocol == "bb84" and case == "none-matched":
                assert got[2].size == 0


@pytest.mark.parametrize("sift", [sift_bb84_events, sift_sarg_events])
def test_sifters_require_one_tx_entry_per_event(sift):
    record = _record("f", [0, 1, 2], [0, 0, 1], [1, 0, 0])
    # Length-1 arrays once broadcast against the record.
    for tx_basis, tx_value, sizes in (([0], [1, 1, 0], "1 and 3"),
                                      ([0, 0, 1], [1], "3 and 1"),
                                      ([0, 0, 1, 1], [1, 1, 0, 0], "4 and 4"),
                                      ([], [], "0 and 0")):
        with pytest.raises(ValueError, match=f"record's 3 events, got {sizes}"):
            sift(tx_basis, tx_value, record)


# ---------------------------------------------------------------------------
# estimate_qber
# ---------------------------------------------------------------------------

def test_estimate_qber_identical_strings():
    rng = np.random.default_rng(0)
    alice = rng.integers(0, 2, 1000, dtype=np.uint8)
    est = estimate_qber(alice, alice.copy(), 0.1, rng_seed=1, min_sample=50)
    assert est.qber == 0.0
    assert est.disclosed == 100
    assert est.remaining_alice.size == 900


def test_estimate_qber_exact_arithmetic():
    rng = np.random.default_rng(1)
    alice = rng.integers(0, 2, 1000, dtype=np.uint8)
    # Determine the sampled positions first, then plant exactly 3 errors there.
    sample = np.sort(np.random.default_rng(42).choice(1000, 100, replace=False))
    bob = alice.copy()
    bob[sample[:3]] ^= 1
    est = estimate_qber(alice, bob, 0.1, rng_seed=42, min_sample=50)
    assert est.qber == pytest.approx(0.03)


def test_estimate_qber_binomial():
    rng = np.random.default_rng(2)
    alice = rng.integers(0, 2, 100_000, dtype=np.uint8)
    bob = alice ^ (rng.random(100_000) < 0.05).astype(np.uint8)
    est = estimate_qber(alice, bob, 0.1, rng_seed=3)
    assert abs(est.qber - 0.05) < 0.007
    assert est.remaining_alice.size == 90_000


def test_estimate_qber_minimum_sample():
    alice = np.zeros(1000, dtype=np.uint8)
    with pytest.raises(InsufficientSampleError):
        estimate_qber(alice, alice, 0.1, rng_seed=0)  # sample 100 < default 200


def test_estimate_qber_sample_is_removed_consistently():
    rng = np.random.default_rng(4)
    alice = rng.integers(0, 2, 5000, dtype=np.uint8)
    bob = rng.integers(0, 2, 5000, dtype=np.uint8)
    est = estimate_qber(alice, bob, 0.2, rng_seed=5)
    assert est.remaining_alice.size == est.remaining_bob.size == 4000
