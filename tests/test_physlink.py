"""Link-level physics: click statistics, attackers, dead time, phase loop."""

import math

import numpy as np
import pytest

from qkdnet import physlink as pl
from qkdnet.errors import FrameTooLargeError
from qkdnet.qkdproto import sift_bb84, sift_bb84_events

PHASE0 = pl.PhaseState()


def _params(**kw):
    base = dict(mean_photon_number=0.5, channel_loss_db=0.0, insertion_loss_db=0.0,
                detector_efficiency=1.0, dark_count_prob=0.0, dead_time_s=0.0,
                intrinsic_error=0.0)
    base.update(kw)
    return pl.LinkParams(**base)


# ---------------------------------------------------------------------------
# click_probability
# ---------------------------------------------------------------------------

def test_click_probability_poisson_oracle():
    # Oracle: P(click) = 1 - exp(-mu) for a lossless unit-efficiency link.
    p = pl.click_probability(_params())
    assert abs(p - 0.3934693402873666) < 1e-12


def test_click_probability_no_photons_no_darks():
    assert pl.click_probability(_params(mean_photon_number=0.0)) == 0.0


def test_click_probability_bu_link():
    # Oracle: transmittance 10**-1.15, p = 1 - exp(-1.0 * T * 0.1).
    p = pl.click_probability(_params(mean_photon_number=1.0, channel_loss_db=11.5,
                                     detector_efficiency=0.1))
    assert abs(p - 0.007054457513210988) < 1e-12


def test_click_probability_includes_both_detectors_darks():
    p = pl.click_probability(_params(mean_photon_number=0.0, dark_count_prob=0.01))
    assert abs(p - (1.0 - 0.99 ** 2)) < 1e-12


# ---------------------------------------------------------------------------
# transmit_frame
# ---------------------------------------------------------------------------

def test_infinite_loss_yields_empty_record():
    params = _params(channel_loss_db=math.inf)
    frame = pl.PulseFrame.random("f", 10_000, np.random.default_rng(0))
    record = pl.transmit_frame(params, PHASE0, None, frame, rng_seed=1)
    assert record.n_events == 0


def test_transmit_determinism_byte_for_byte():
    params = _params(channel_loss_db=3.0, detector_efficiency=0.3,
                     dark_count_prob=1e-4, dead_time_s=1e-5)
    frame = pl.PulseFrame.random("f", 200_000, np.random.default_rng(3))
    eve = pl.EveModel.intercept_resend(0.5)
    rec1 = pl.transmit_frame(params, PHASE0, eve, frame, rng_seed=42)
    rec2 = pl.transmit_frame(params, PHASE0, eve, frame, rng_seed=42)
    for field in ("slot_index", "rx_basis", "rx_value", "is_dark"):
        assert np.array_equal(getattr(rec1, field), getattr(rec2, field))


def test_frame_size_guard():
    frame = pl.PulseFrame.random("f", 2048, np.random.default_rng(0))
    with pytest.raises(FrameTooLargeError):
        pl.transmit_frame(_params(), PHASE0, None, frame, rng_seed=0, max_slots=1024)


def test_monte_carlo_matches_analytic_within_three_sigma():
    params = _params(channel_loss_db=3.0, detector_efficiency=0.3, dark_count_prob=1e-4)
    n = 1_000_000
    frame = pl.PulseFrame.random("f", n, np.random.default_rng(7))
    record = pl.transmit_frame(params, PHASE0, None, frame, rng_seed=11)
    p = pl.click_probability(params)
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(record.n_events / n - p) < 3 * sigma


def test_intercept_resend_qber_25_percent():
    # Enumeration oracle over (tx basis, eve basis, rx basis): 8 equiprobable
    # cases, errors in 2 of the 8 sifted outcomes -> QBER 1/4.
    params = _params(mean_photon_number=0.2)
    frame = pl.PulseFrame.random("f", 1_200_000, np.random.default_rng(9))
    record = pl.transmit_frame(params, PHASE0, pl.EveModel.intercept_resend(1.0),
                               frame, rng_seed=5)
    alice, bob, _ = sift_bb84(frame, record)
    assert alice.size > 100_000
    qber = float(np.mean(alice != bob))
    assert abs(qber - 0.25) < 0.01


def test_dead_time_event_rate_and_gap():
    # Renewal oracle: rate = f / (dead_slots + 1/p) with dead_slots = 50,
    # equivalently p*f / (1 + p*f*tau); expected ~9.52e4 events/s.
    params = _params(dead_time_s=1e-5)
    assert params.dead_slots == 50
    frame = pl.PulseFrame.random("f", 500_000, np.random.default_rng(8))
    record = pl.transmit_frame(params, PHASE0, None, frame, rng_seed=1)
    p = pl.click_probability(params)
    f = params.pulse_rate_hz
    oracle = p * f / (1 + p * f * params.dead_time_s)
    rate = record.n_events / (frame.n_slots / f)
    assert abs(rate - oracle) / oracle < 0.02
    assert abs(oracle - 9.5e4) / 9.5e4 < 0.01
    assert record.min_gap() > params.dead_slots


def test_dead_time_gap_invariant_with_darks():
    params = _params(mean_photon_number=0.8, detector_efficiency=0.5,
                     dark_count_prob=1e-3, dead_time_s=4e-6)
    frame = pl.PulseFrame.random("f", 300_000, np.random.default_rng(10))
    record = pl.transmit_frame(params, PHASE0, None, frame, rng_seed=2)
    assert record.min_gap() >= params.dead_slots


def test_click_rate_monotone_in_loss_and_mu():
    losses = np.linspace(0.0, 20.0, 9)
    rates = [pl.click_probability(_params(channel_loss_db=l, detector_efficiency=0.2))
             for l in losses]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    mus = np.linspace(0.0, 2.0, 9)
    rates = [pl.click_probability(_params(mean_photon_number=m, detector_efficiency=0.2))
             for m in mus]
    assert all(a <= b for a, b in zip(rates, rates[1:]))
    # Spot-check empirically at two ends of the loss sweep.
    frame = pl.PulseFrame.random("f", 300_000, np.random.default_rng(4))
    low = pl.transmit_frame(_params(channel_loss_db=0.0, detector_efficiency=0.2),
                            PHASE0, None, frame, rng_seed=3).n_events
    high = pl.transmit_frame(_params(channel_loss_db=20.0, detector_efficiency=0.2),
                             PHASE0, None, frame, rng_seed=3).n_events
    assert low > high


def test_eve_neutrality_zero_error_channel():
    params = _params(detector_efficiency=0.5)
    frame = pl.PulseFrame.random("f", 200_000, np.random.default_rng(11))
    record = pl.transmit_frame(params, PHASE0, None, frame, rng_seed=13)
    alice, bob, _ = sift_bb84(frame, record)
    assert alice.size > 0
    assert np.array_equal(alice, bob)


def test_pns_invariants():
    params = _params(channel_loss_db=10.0, detector_efficiency=0.1)
    eve = pl.EveModel.photon_number_split()
    frame = pl.PulseFrame.random("f", 200_000, np.random.default_rng(12))
    record = pl.transmit_frame(params, PHASE0, eve, frame, rng_seed=13)
    assert 0 < eve.tally.learned_bits <= eve.tally.multi_photon_emissions
    alice, bob, _ = sift_bb84(frame, record)
    assert alice.size > 0
    assert np.array_equal(alice, bob)  # zero induced error


@pytest.mark.parametrize("loss_db", [1.0, 3.0, 10.0])
def test_pns_creates_no_anomalous_loss(loss_db):
    # The splitter replaces the fiber and spends only its expected loss:
    # the receiver sees as many clicks as on the honest channel.
    params = _params(channel_loss_db=loss_db, detector_efficiency=0.1)
    frame = pl.PulseFrame.random("f", 400_000, np.random.default_rng(1))
    honest = pl.transmit_frame(params, PHASE0, None, frame, rng_seed=2)
    attacked = pl.transmit_frame(params, PHASE0, pl.EveModel.photon_number_split(),
                                 frame, rng_seed=2)
    assert attacked.n_events == pytest.approx(honest.n_events, rel=0.03)


def test_pns_cannot_act_without_loss_budget():
    eve = pl.EveModel.photon_number_split()
    frame = pl.PulseFrame.random("f", 50_000, np.random.default_rng(14))
    pl.transmit_frame(_params(), PHASE0, eve, frame, rng_seed=15)
    assert eve.tally.learned_bits == 0
    assert eve.tally.suppressed_singles == 0


# ---------------------------------------------------------------------------
# fast window sampler
# ---------------------------------------------------------------------------

def test_window_sampler_matches_click_probability():
    params = _params(channel_loss_db=3.0, detector_efficiency=0.3, dark_count_prob=1e-4)
    n = 1_000_000
    _, _, record = pl.sample_link_window(params, PHASE0, n, rng_seed=3)
    p = pl.click_probability(params)
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(record.n_events / n - p) < 3 * sigma


def test_window_sampler_matches_dense_path_statistics():
    params = _params(channel_loss_db=2.0, detector_efficiency=0.4,
                     dark_count_prob=5e-4, dead_time_s=2e-6,
                     intrinsic_error=0.03)
    n = 400_000
    frame = pl.PulseFrame.random("f", n, np.random.default_rng(21))
    dense = pl.transmit_frame(params, PHASE0, None, frame, rng_seed=22)
    a1, b1, _ = sift_bb84(frame, dense)
    txb, txv, fast = pl.sample_link_window(params, PHASE0, n, rng_seed=23)
    a2, b2, _ = sift_bb84_events(txb, txv, fast)
    # Same per-slot law: click fraction and sifted error rate agree.
    r1, r2 = dense.n_events / n, fast.n_events / n
    assert abs(r1 - r2) < 5 * math.sqrt(r1 * (1 - r1) / n) + 5e-5
    q1, q2 = float(np.mean(a1 != b1)), float(np.mean(a2 != b2))
    assert abs(q1 - q2) < 0.01
    assert fast.min_gap() > params.dead_slots


def test_window_sampler_intercept_resend():
    params = _params(mean_photon_number=0.2)
    txb, txv, record = pl.sample_link_window(
        params, PHASE0, 1_000_000, rng_seed=6, eve=pl.EveModel.intercept_resend(1.0))
    alice, bob, _ = sift_bb84_events(txb, txv, record)
    assert abs(float(np.mean(alice != bob)) - 0.25) < 0.01


def test_window_sampler_rejects_pns():
    with pytest.raises(ValueError):
        pl.sample_link_window(_params(), PHASE0, 1000, 0,
                              eve=pl.EveModel.photon_number_split())


# ---------------------------------------------------------------------------
# phase drift and feedback
# ---------------------------------------------------------------------------

def test_advance_phase_zero_dt_and_zero_drift():
    phase = pl.PhaseState(phase_error_rad=0.3, drift_rate_rad_per_s=0.05)
    assert pl.advance_phase(phase, 0.0, 1) is phase
    frozen = pl.PhaseState(phase_error_rad=0.3, drift_rate_rad_per_s=0.0)
    assert pl.advance_phase(frozen, 100.0, 1).phase_error_rad == 0.3


def test_advance_phase_random_walk_std():
    # Variance oracle: std = drift_rate * sqrt(dt) = 0.05 * 10 = 0.5.
    phase = pl.PhaseState(drift_rate_rad_per_s=0.05)
    deltas = [pl.advance_phase(phase, 100.0, seed).phase_error_rad
              for seed in range(10_000)]
    assert abs(np.std(deltas) - 0.5) < 0.05


def test_feedback_fixed_point_at_zero():
    phase = pl.PhaseState(phase_error_rad=0.0)
    assert pl.apply_training_feedback(phase, 0.0).phase_error_rad == 0.0


def test_feedback_converges_from_0p6_rad():
    # Closed-loop oracle with noiseless readings.
    state = pl.PhaseState(phase_error_rad=0.6, feedback_gain=0.5)
    for _ in range(20):
        q = (1 - math.cos(state.phase_error_rad)) / 2
        state = pl.apply_training_feedback(state, min(q, 0.5))
    assert abs(state.phase_error_rad) <= 0.01


def test_feedback_correction_capped_at_half_pi():
    state = pl.PhaseState(phase_error_rad=0.0, feedback_gain=1.0)
    stepped = pl.apply_training_feedback(state, 0.5)
    assert abs(stepped.phase_error_rad) <= math.pi / 2 + 1e-12


def test_feedback_converges_from_random_phase():
    rng = np.random.default_rng(77)
    converged = 0
    for _ in range(1000):
        state = pl.PhaseState(phase_error_rad=float(rng.uniform(-math.pi, math.pi)),
                              feedback_gain=0.5)
        for _ in range(30):
            q = (1 - math.cos(state.phase_error_rad)) / 2
            if q < 0.05:
                break
            state = pl.apply_training_feedback(state, min(q, 0.5))
        if (1 - math.cos(state.phase_error_rad)) / 2 < 0.05:
            converged += 1
    assert converged >= 990


def test_sifted_error_floor_mixes_darks():
    clean = _params(intrinsic_error=0.02)
    assert pl.sifted_error_floor(clean) == pytest.approx(0.02)
    dark_only = _params(mean_photon_number=0.0, dark_count_prob=1e-4,
                        intrinsic_error=0.02)
    assert pl.sifted_error_floor(dark_only) == pytest.approx(0.5)


def test_phase_wrapping():
    assert pl.wrap_phase(math.pi) == pytest.approx(math.pi)
    assert pl.wrap_phase(-math.pi) == pytest.approx(math.pi)
    assert pl.wrap_phase(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
    state = pl.PhaseState(phase_error_rad=5.0)
    assert -math.pi < state.phase_error_rad <= math.pi
