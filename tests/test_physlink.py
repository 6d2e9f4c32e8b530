"""Link-level physics: click statistics, attackers, dead time, phase loop."""

import dataclasses
import math
from typing import Optional

import numpy as np
import pytest

from qkdnet import physlink as pl
from oracles import FrameTooLargeError, PulseFrame, transmit_frame
from qkdnet.bits import random_bits
from qkdnet.engine import run_scenario
from qkdnet.netgraph import load_preset
from qkdnet.physlink import (DetectionRecord, EveKind, EveModel, LinkParams, PhaseState,
                             phase_error_rate, signal_click_probability)
from qkdnet.qkdproto import sift_bb84_events
from qkdnet.scenario import load_scenario

PHASE0 = pl.PhaseState()


def _params(**kw):
    base = dict(mean_photon_number=0.5, channel_loss_db=0.0, insertion_loss_db=0.0,
                detector_efficiency=1.0, dark_count_prob=0.0, dead_time_s=0.0,
                intrinsic_error=0.0)
    base.update(kw)
    return pl.LinkParams(**base)


# ---------------------------------------------------------------------------
# click law: params.click_law.q
# ---------------------------------------------------------------------------

def test_click_probability_poisson_oracle():
    # Oracle: P(click) = 1 - exp(-mu) for a lossless unit-efficiency link.
    p = _params().click_law.q
    assert abs(p - 0.3934693402873666) < 1e-12


def test_click_probability_no_photons_no_darks():
    assert _params(mean_photon_number=0.0).click_law.q == 0.0


def test_click_probability_bu_link():
    # Oracle: transmittance 10**-1.15, p = 1 - exp(-1.0 * T * 0.1).
    p = _params(mean_photon_number=1.0, channel_loss_db=11.5,
                detector_efficiency=0.1).click_law.q
    assert abs(p - 0.007054457513210988) < 1e-12


def test_click_probability_includes_both_detectors_darks():
    p = _params(mean_photon_number=0.0, dark_count_prob=0.01).click_law.q
    assert abs(p - (1.0 - 0.99 ** 2)) < 1e-12


# ---------------------------------------------------------------------------
# transmit_frame (the per-slot oracle)
# ---------------------------------------------------------------------------

def test_infinite_loss_yields_empty_record():
    params = _params(channel_loss_db=math.inf)
    frame = PulseFrame.random("f", 10_000, np.random.default_rng(0))
    record = transmit_frame(params, PHASE0, None, frame, rng_seed=1)
    assert record.n_events == 0


def test_transmit_determinism_byte_for_byte():
    params = _params(channel_loss_db=3.0, detector_efficiency=0.3,
                     dark_count_prob=1e-4, dead_time_s=1e-5)
    frame = PulseFrame.random("f", 200_000, np.random.default_rng(3))
    eve = pl.EveModel.intercept_resend(0.5)
    rec1 = transmit_frame(params, PHASE0, eve, frame, rng_seed=42)
    rec2 = transmit_frame(params, PHASE0, eve, frame, rng_seed=42)
    for field in ("slot_index", "rx_basis", "rx_value", "is_dark"):
        assert np.array_equal(getattr(rec1, field), getattr(rec2, field))


def test_frame_size_guard():
    frame = PulseFrame.random("f", 2048, np.random.default_rng(0))
    with pytest.raises(FrameTooLargeError):
        transmit_frame(_params(), PHASE0, None, frame, rng_seed=0, max_slots=1024)


def test_monte_carlo_matches_analytic_within_three_sigma():
    params = _params(channel_loss_db=3.0, detector_efficiency=0.3, dark_count_prob=1e-4)
    n = 1_000_000
    frame = PulseFrame.random("f", n, np.random.default_rng(7))
    record = transmit_frame(params, PHASE0, None, frame, rng_seed=11)
    p = params.click_law.q
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(record.n_events / n - p) < 3 * sigma


def test_intercept_resend_qber_25_percent():
    # Enumeration oracle over (tx basis, eve basis, rx basis): 8 equiprobable
    # cases, errors in 2 of the 8 sifted outcomes -> QBER 1/4.
    params = _params(mean_photon_number=0.2)
    frame = PulseFrame.random("f", 1_200_000, np.random.default_rng(9))
    record = transmit_frame(params, PHASE0, pl.EveModel.intercept_resend(1.0),
                               frame, rng_seed=5)
    alice, bob, _ = sift_bb84_events(*frame.sent(record), record)
    assert alice.size > 100_000
    qber = float(np.mean(alice != bob))
    assert abs(qber - 0.25) < 0.01


def test_dead_time_event_rate_and_gap():
    # Renewal oracle: rate = f / (dead_slots + 1/p) with dead_slots = 50,
    # equivalently p*f / (1 + p*f*tau); expected ~9.52e4 events/s.
    params = _params(dead_time_s=1e-5)
    assert params.dead_slots == 50
    frame = PulseFrame.random("f", 500_000, np.random.default_rng(8))
    record = transmit_frame(params, PHASE0, None, frame, rng_seed=1)
    p = params.click_law.q
    f = params.pulse_rate_hz
    oracle = p * f / (1 + p * f * params.dead_time_s)
    rate = record.n_events / (frame.n_slots / f)
    assert abs(rate - oracle) / oracle < 0.02
    assert abs(oracle - 9.5e4) / 9.5e4 < 0.01
    assert record.min_gap() > params.dead_slots


def test_dead_time_gap_invariant_with_darks():
    params = _params(mean_photon_number=0.8, detector_efficiency=0.5,
                     dark_count_prob=1e-3, dead_time_s=4e-6)
    frame = PulseFrame.random("f", 300_000, np.random.default_rng(10))
    record = transmit_frame(params, PHASE0, None, frame, rng_seed=2)
    assert record.min_gap() >= params.dead_slots


def test_click_rate_monotone_in_loss_and_mu():
    losses = np.linspace(0.0, 20.0, 9)
    rates = [_params(channel_loss_db=l, detector_efficiency=0.2).click_law.q
             for l in losses]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    mus = np.linspace(0.0, 2.0, 9)
    rates = [_params(mean_photon_number=m, detector_efficiency=0.2).click_law.q
             for m in mus]
    assert all(a <= b for a, b in zip(rates, rates[1:]))
    # Spot-check empirically at two ends of the loss sweep.
    frame = PulseFrame.random("f", 300_000, np.random.default_rng(4))
    low = transmit_frame(_params(channel_loss_db=0.0, detector_efficiency=0.2),
                            PHASE0, None, frame, rng_seed=3).n_events
    high = transmit_frame(_params(channel_loss_db=20.0, detector_efficiency=0.2),
                             PHASE0, None, frame, rng_seed=3).n_events
    assert low > high


def test_eve_neutrality_zero_error_channel():
    params = _params(detector_efficiency=0.5)
    frame = PulseFrame.random("f", 200_000, np.random.default_rng(11))
    record = transmit_frame(params, PHASE0, None, frame, rng_seed=13)
    alice, bob, _ = sift_bb84_events(*frame.sent(record), record)
    assert alice.size > 0
    assert np.array_equal(alice, bob)


def test_pns_invariants():
    params = _params(channel_loss_db=10.0, detector_efficiency=0.1)
    eve = pl.EveModel.photon_number_split()
    frame = PulseFrame.random("f", 200_000, np.random.default_rng(12))
    record = transmit_frame(params, PHASE0, eve, frame, rng_seed=13)
    assert 0 < record.eve_tally.learned_bits <= record.eve_tally.multi_photon_emissions
    alice, bob, _ = sift_bb84_events(*frame.sent(record), record)
    assert alice.size > 0
    assert np.array_equal(alice, bob)  # zero induced error


@pytest.mark.parametrize("loss_db", [1.0, 3.0, 10.0])
def test_pns_creates_no_anomalous_loss(loss_db):
    # The splitter replaces the fiber and spends only its expected loss:
    # the receiver sees as many clicks as on the honest channel.
    params = _params(channel_loss_db=loss_db, detector_efficiency=0.1)
    frame = PulseFrame.random("f", 400_000, np.random.default_rng(1))
    honest = transmit_frame(params, PHASE0, None, frame, rng_seed=2)
    attacked = transmit_frame(params, PHASE0, pl.EveModel.photon_number_split(),
                                 frame, rng_seed=2)
    assert attacked.n_events == pytest.approx(honest.n_events, rel=0.03)


def test_pns_cannot_act_without_loss_budget():
    # At t = 1 neither the oracle nor the library's tally robs a pulse.
    eve = pl.EveModel.photon_number_split()
    frame = PulseFrame.random("f", 50_000, np.random.default_rng(14))
    record = transmit_frame(_params(), PHASE0, eve, frame, rng_seed=15)
    assert record.eve_tally.learned_bits == 0
    assert record.eve_tally.suppressed_singles == 0
    for mu in (0.5, 5.0, 100.0):
        tally = pl.sample_link_window(_params(mean_photon_number=mu), PHASE0, 50_000, 15,
                                      eve=eve)[2].eve_tally
        assert tally.multi_photon_emissions > 0, mu
        assert tally.learned_bits == tally.suppressed_singles == 0, mu


def _pns_tally_oracle(photons: np.ndarray, transmittance: float) -> pl.EveTally:
    """The PNS attacker's accounting counted pulse by pulse inside her loss
    loop, as the vectorized tally replaced it (a declared test oracle)."""
    learned = multi = suppressed = 0
    budget = 0.0
    for n in photons[photons > 0]:
        n = int(n)
        budget += n * (1.0 - transmittance)
        taken = min(n, int(budget))
        budget -= taken
        if n >= 2:
            multi += 1
            if taken:
                learned += 1
        elif taken:
            suppressed += 1
    return pl.EveTally(learned, multi, suppressed)


@pytest.mark.parametrize("loss_db", [0.0, 0.5, 3.0, 10.0, 30.0])
def test_oracle_self_check_frame_pns_tally_matches_loop(loss_db):
    """Oracle self-check: the frame oracle's vectorized PNS tally against
    the per-pulse loop. No library code runs here; the library's tally is
    tested against the oracle by ``test_window_sampler_pns_matches_dense_path``."""
    params = _params(mean_photon_number=0.8, channel_loss_db=loss_db)
    eve = pl.EveModel.photon_number_split()
    for seed in range(4):
        frame = PulseFrame.random("f", 20_000, np.random.default_rng(100 + seed))
        record = transmit_frame(params, PHASE0, eve, frame, rng_seed=seed)
        # The photon numbers are the frame's first draw from its seed.
        photons = np.random.default_rng(seed).poisson(0.8, size=frame.n_slots)
        assert record.eve_tally == _pns_tally_oracle(photons, params.total_transmittance)
    again = transmit_frame(params, PHASE0, eve, frame, rng_seed=seed)
    assert again.eve_tally == record.eve_tally


# ---------------------------------------------------------------------------
# fast window sampler
# ---------------------------------------------------------------------------

def test_window_sampler_matches_click_probability():
    params = _params(channel_loss_db=3.0, detector_efficiency=0.3, dark_count_prob=1e-4)
    n = 1_000_000
    _, _, record = pl.sample_link_window(params, PHASE0, n, rng_seed=3)
    p = params.click_law.q
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(record.n_events / n - p) < 3 * sigma


def test_window_sampler_matches_dense_path_statistics():
    params = _params(channel_loss_db=2.0, detector_efficiency=0.4,
                     dark_count_prob=5e-4, dead_time_s=2e-6,
                     intrinsic_error=0.03)
    n = 400_000
    frame = PulseFrame.random("f", n, np.random.default_rng(21))
    dense = transmit_frame(params, PHASE0, None, frame, rng_seed=22)
    a1, b1, _ = sift_bb84_events(*frame.sent(dense), dense)
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


def _pns_case(t: float, mu: float = 0.8, dead_time_s: float = 2e-6) -> LinkParams:
    return _params(mean_photon_number=mu, channel_loss_db=-10.0 * math.log10(t),
                   detector_efficiency=0.1, dark_count_prob=1e-4, dead_time_s=dead_time_s,
                   intrinsic_error=0.03)


_PNS_CASES = {
    # Every multi-photon pulse is robbed below t = 1/2, some of them above.
    "t0.04": _pns_case(0.04), "t0.3": _pns_case(0.3), "t0.52": _pns_case(0.52),
    "t0.83": _pns_case(0.83),
    # Many photons per pulse, and no dead time.
    "mu5": _pns_case(0.3, mu=5.0), "dead0": _pns_case(0.3, dead_time_s=0.0),
}


@pytest.mark.parametrize("case", list(_PNS_CASES))
def test_window_sampler_pns_matches_dense_path(case):
    # Over 20 seeds the window sampler behind the PNS attacker and the
    # per-slot oracle agree within 3 standard errors on clicks, non-dark
    # clicks, sifted QBER and each count of the attacker's tally, and dead
    # time holds in every window.
    params = _PNS_CASES[case]
    eve = pl.EveModel.photon_number_split()
    n = 100_000
    stats = ([], [])
    for seed in range(20):
        frame = PulseFrame.random("f", n, np.random.default_rng([seed, 1]))
        dense = transmit_frame(params, PHASE0, eve, frame, rng_seed=[seed, 2])
        txb, txv, fast = pl.sample_link_window(params, PHASE0, n, [seed, 3], eve=eve)
        assert fast.min_gap() > params.dead_slots, (case, seed)
        for stat, (tx_basis, tx_value, record) in zip(stats, ((*frame.sent(dense), dense),
                                                              (txb, txv, fast))):
            alice, bob, _ = sift_bb84_events(tx_basis, tx_value, record)
            stat.append((record.n_events, np.count_nonzero(~record.is_dark),
                         np.mean(alice != bob), *dataclasses.astuple(record.eve_tally)))
    old, new = np.array(stats[0], dtype=float), np.array(stats[1], dtype=float)
    assert (new[:, 3:].sum(axis=0) > 0).all(), case
    se = np.sqrt(old.var(axis=0, ddof=1) / len(old) + new.var(axis=0, ddof=1) / len(new))
    assert (np.abs(new.mean(axis=0) - old.mean(axis=0)) <= 3 * se).all(), (
        case, old.mean(axis=0), new.mean(axis=0), se)


class _CountingBitGenerator(np.random.PCG64):
    """PCG64 that adds the raw words drawn through Python to its owner's count."""

    def __init__(self, seed, owner):
        super().__init__(seed)
        self.owner = owner

    def random_raw(self, size=None, output=True):
        self.owner.values += 1 if size is None else int(np.prod(size))
        return super().random_raw(size, output)


class _ValueCountingGenerator(np.random.Generator):
    """A generator that counts the values its draws return, raw words too."""

    def __init__(self, seed):
        self.values = 0
        super().__init__(_CountingBitGenerator(seed, self))

    def __getattribute__(self, name):
        attr = super().__getattribute__(name)
        if name.startswith("_") or not callable(attr):
            return attr

        def counted(*args, **kwargs):
            out = attr(*args, **kwargs)
            self.values += np.size(out)
            return out
        return counted


def test_pns_window_draws_follow_clicks():
    # Behind the PNS attacker a window of 2^24 slots at cambridge
    # Alice-Boris parameters draws at most 8 values a click (clicks, class
    # uniforms, raw words of bits and the tally's draws), not one a slot.
    # An empty call draws nothing and carries an empty tally.
    params = load_preset("cambridge").channel_by_id("Alice-Boris").params
    eve = pl.EveModel.photon_number_split()
    rng = _ValueCountingGenerator(5)
    assert pl.sample_link_window(params, PHASE0, 0, rng, eve=eve)[2].eve_tally == pl.EveTally()
    assert rng.values == 0
    _, _, record = pl.sample_link_window(params, PHASE0, 1 << 24, rng, eve=eve)
    assert record.n_events > 3000
    assert rng.values <= 8 * record.n_events, (rng.values, record.n_events)


def _integer_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    """The bit source the window sampler used before its one raw-word draw."""
    return rng.integers(0, 2, size=n, dtype=np.uint8)


# Declared oracles of the window sampler. With ``fused`` it is the
# sampler's declared draw order, which the sampler must keep call for call
# and value for value: exponential batches, class uniform (which also
# holds a signal event's flip), one raw-word draw of every per-click bit
# with one row shared by wrong-basis and dark values, [hit uniform].
# Without it, it is the sampler as it was before its per-click bits were
# fused (geometric batches, one integer draw per use, a flip uniform per
# click), kept as the statistical reference of the fused stream.
def _window_oracle(params: LinkParams, phase: PhaseState, n_slots: int, rng_seed,
                   eve: Optional[EveModel] = None, frame_id: str = "window",
                   fused: bool = False) -> tuple[np.ndarray, np.ndarray, DetectionRecord]:
    """Sample a transmission window by drawing click slots directly.

    Returns ``(tx_basis, tx_value, record)`` where the tx arrays give the
    transmitter's random choices at the event slots only (non-click slots
    never reach any protocol layer, so their bits are irrelevant).

    Statistically identical to :func:`transmit_frame` over a frame of
    uniformly random slots; cost scales with clicks, not slots. The
    photon-number-splitting attacker is not supported here.
    """
    eve = eve if eve is not None else EveModel()
    if eve.kind is EveKind.PHOTON_NUMBER_SPLIT:
        raise ValueError("PNS attacker requires the per-slot transmit_frame path")
    rng = np.random.default_rng(rng_seed)

    p_sig = signal_click_probability(params)
    d = params.dark_count_prob
    q = 1.0 - (1.0 - p_sig) * (1.0 - d) ** 2
    empty = (np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=np.uint8),
             DetectionRecord.empty(frame_id))
    if q <= 0.0 or n_slots <= 0:
        return empty

    dead = params.dead_slots
    # Click slots form a renewal process: geometric wait on live slots,
    # then a dead window. Draw in batches until the window is covered, the
    # first one four square roots of the mean count past the mean.
    slots = []
    start = 0
    expect = int(n_slots / (dead + 1.0 / q)) + 1
    while True:
        batch = max(64, expect - sum(len(s) for s in slots) + 4 * math.isqrt(expect) + 16)
        if fused:
            # Geometric by inversion of one exponential; every gap is 1 at q = 1.
            rate = -math.log1p(-q) if q < 1.0 else math.inf
            gaps = np.floor(rng.standard_exponential(batch) / rate).astype(np.int64) + 1
        else:
            gaps = rng.geometric(q, size=batch)
        offsets = np.cumsum(gaps + dead) - dead - 1
        s = start + offsets
        inside = s < n_slots
        slots.append(s[inside])
        if not inside.all():
            break
        start = int(s[-1]) + dead + 1
    click_slots = np.concatenate(slots)
    m = click_slots.size
    # Classify each click: signal event, dark event, or double (discarded).
    p_signal_event = p_sig * (1.0 - d)
    p_dark_event = (1.0 - p_sig) * 2.0 * d * (1.0 - d)
    u = rng.random(m) * q
    if m == 0:
        return empty
    is_signal = u < p_signal_event
    is_dark_ev = (u >= p_signal_event) & (u < p_signal_event + p_dark_event)

    intercept = eve.kind is EveKind.INTERCEPT_RESEND
    perr = min(max(params.intrinsic_error + phase_error_rate(phase.phase_error_rad), 0.0), 1.0)
    if fused:
        rows = random_bits(rng, (6 if intercept else 4) * m).reshape(-1, m)
        tx_basis, tx_value, rx_basis, mismatch_value = rows[:4]
        dark_value = mismatch_value
        if intercept:
            hit = rng.random(m) < eve.intercept_fraction
            eve_basis, eve_guess = rows[4:]
        # Given a signal event, u / p_signal_event is uniform on [0, 1).
        flips = u < p_signal_event * perr
    else:
        tx_basis = _integer_bits(rng, m)
        tx_value = _integer_bits(rng, m)
        if intercept:
            hit = rng.random(m) < eve.intercept_fraction
            eve_basis = _integer_bits(rng, m)
            eve_guess = _integer_bits(rng, m)
        rx_basis = _integer_bits(rng, m)
        flips = rng.random(m) < perr
        mismatch_value = _integer_bits(rng, m)
        dark_value = _integer_bits(rng, m)

    return _oracle_record(frame_id, click_slots, is_signal, is_dark_ev, tx_basis, tx_value,
                          rx_basis, flips, mismatch_value, dark_value,
                          (hit, eve_basis, eve_guess) if intercept else None)


def _oracle_record(frame_id, click_slots, is_signal, is_dark_ev, tx_basis, tx_value,
                   rx_basis, flips, mismatch_value, dark_value, eve_draws=None):
    """The window oracles' record from their draws; ``eve_draws`` holds the
    intercept-resend hits, basis and guess."""
    pulse_basis = tx_basis.copy()
    pulse_value = tx_value.copy()
    if eve_draws is not None:
        # Interception leaves the click law unchanged in this model, so it
        # conditions independently on each signal event.
        hit, eve_basis, eve_guess = eve_draws
        eve_value = np.where(eve_basis == pulse_basis, pulse_value, eve_guess)
        pulse_basis = np.where(hit, eve_basis, pulse_basis).astype(np.uint8)
        pulse_value = np.where(hit, eve_value, pulse_value).astype(np.uint8)

    matched = rx_basis == pulse_basis
    sig_value = np.where(matched, pulse_value ^ flips, mismatch_value).astype(np.uint8)
    rx_value = np.where(is_signal, sig_value, dark_value).astype(np.uint8)

    keep = is_signal | is_dark_ev
    record = DetectionRecord(
        frame_id=frame_id,
        slot_index=click_slots[keep],
        rx_basis=rx_basis[keep],
        rx_value=rx_value[keep],
        is_dark=is_dark_ev[keep],
    )
    return tx_basis[keep], tx_value[keep], record


def _stream_oracle(params: LinkParams, horizon: int, windows: int, calls, rng,
                   eve: Optional[EveModel] = None):
    """The windows a :class:`~qkdnet.physlink.WindowStream` of ``windows``
    windows of ``horizon`` slots gives for ``calls``, a list of
    ``(n_slots, phase, frame_id)`` under one attacker (not the photon-number
    splitter), in its declared draw order: for every ``windows`` non-empty
    calls, one draw of the first exponential batches of all the windows,
    read as rows, the further batches of each row that falls short, in row
    order, then the class uniforms, the per-click bits and the hit
    uniforms of all their clicks, window after window. Each call takes the
    next ``n_slots`` of the current drawn window, rebased to slot 0, and
    the window is done when its last slot is taken; an empty call draws
    nothing and takes no slots."""
    intercept = eve is not None and eve.kind is EveKind.INTERCEPT_RESEND
    p_sig = signal_click_probability(params)
    d = params.dark_count_prob
    q = 1.0 - (1.0 - p_sig) * (1.0 - d) ** 2
    p_signal_event = p_sig * (1.0 - d)
    p_dark_event = (1.0 - p_sig) * 2.0 * d * (1.0 - d)
    dead = params.dead_slots
    expect = int(horizon / (dead + 1.0 / q)) + 1 if q > 0 else 0
    margin = 4 * math.isqrt(expect) + 16
    rate = -math.log1p(-q) if q < 1.0 else math.inf

    def empty(frame_id):
        z = np.zeros(0, dtype=np.uint8)
        return z, z, DetectionRecord.empty(frame_id)

    drawn = []  # (slots, u, bit rows, hits) of the drawn windows not yet taken
    taken = 0  # slots of the current window already taken
    out = []
    for n_slots, phase, frame_id in calls:
        if n_slots <= 0 or q <= 0.0:
            out.append(empty(frame_id))
            continue
        if not drawn:
            first = rng.standard_exponential(windows * max(64, expect + margin))
            rows = []
            for e in first.reshape(windows, -1):
                parts, start = [], 0
                while True:
                    gaps = np.floor(e / rate).astype(np.int64) + 1
                    s = start + np.cumsum(gaps + dead) - dead - 1
                    parts.append(s[s < horizon])
                    if s[-1] >= horizon:
                        break
                    start = int(s[-1]) + dead + 1
                    e = rng.standard_exponential(
                        max(64, expect - sum(map(len, parts)) + margin))
                rows.append(np.concatenate(parts))
            total = sum(map(len, rows))
            u = rng.random(total) * q
            bits = hit = None
            if total:
                bits = random_bits(rng, (6 if intercept else 4) * total).reshape(-1, total)
                if intercept:
                    hit = rng.random(total) < eve.intercept_fraction
            end = 0
            for row in rows:
                cols = slice(end, end + row.size)
                end += row.size
                drawn.append((row, u[cols], None if bits is None else bits[:, cols],
                              None if hit is None else hit[cols]))
        slots, u, bits, hit = drawn[0]
        piece = (slots >= taken) & (slots < taken + n_slots)
        start, taken = taken, taken + n_slots
        if taken == horizon:
            drawn.pop(0)
            taken = 0
        if not piece.any():
            out.append(empty(frame_id))
            continue
        slots, u, bits = slots[piece] - start, u[piece], bits[:, piece]
        if hit is not None:
            hit = hit[piece]
        perr = min(max(params.intrinsic_error + phase_error_rate(phase.phase_error_rad),
                       0.0), 1.0)
        is_signal = u < p_signal_event
        is_dark_ev = (u >= p_signal_event) & (u < p_signal_event + p_dark_event)
        out.append(_oracle_record(frame_id, slots, is_signal, is_dark_ev, bits[0], bits[1],
                                  bits[2], u < p_signal_event * perr, bits[3], bits[3],
                                  (hit, bits[4], bits[5]) if intercept else None))
    return out


class _RecordingBitGenerator(np.random.PCG64):
    """PCG64 that logs each raw-word draw into a shared call log."""

    def __init__(self, seed, calls):
        super().__init__(seed)
        self.calls = calls

    def random_raw(self, size=None, output=True):
        self.calls.append(("random_raw", size))
        return super().random_raw(size, output)


class _RecordingGenerator(np.random.Generator):
    """A generator that logs each draw's method and size."""

    def __init__(self, seed):
        self.calls = []
        super().__init__(_RecordingBitGenerator(seed, self.calls))

    def standard_exponential(self, *args, **kwargs):
        self.calls.append(("standard_exponential", kwargs.get("size", args[0] if args else None)))
        return super().standard_exponential(*args, **kwargs)

    def random(self, *args, **kwargs):
        self.calls.append(("random", kwargs.get("size", args[0] if args else None)))
        return super().random(*args, **kwargs)

    def integers(self, *args, **kwargs):
        self.calls.append(("integers", kwargs.get("size")))
        return super().integers(*args, **kwargs)


class _DenseGenerator(_RecordingGenerator):
    """A recording generator whose exponentials are drawn at 1.25 times
    the unit rate, so gaps are shorter. A long window then holds more
    clicks than the sampler sizes its first batch for, so it draws more
    than one."""

    def standard_exponential(self, *args, **kwargs):
        return super().standard_exponential(*args, **kwargs) / 1.25


def test_window_sampler_matches_oracle_bit_for_bit():
    grid = [
        # Metro-like link: dead time, darks, double clicks now and then.
        dict(mean_photon_number=0.5, channel_loss_db=3.0, detector_efficiency=0.1,
             dark_count_prob=1e-5, dead_time_s=1e-5, intrinsic_error=0.02),
        # q == 0: no photons, no darks.
        dict(mean_photon_number=0.0, dark_count_prob=0.0),
        # No dead time at a high click rate.
        dict(mean_photon_number=0.5, dark_count_prob=1e-3, intrinsic_error=0.03),
        # No darks, so every click is kept.
        dict(mean_photon_number=0.5, detector_efficiency=0.3, dead_time_s=2e-6),
        # Heavy darks: many double clicks discarded.
        dict(mean_photon_number=0.1, detector_efficiency=0.1, dark_count_prob=0.02),
        # Darks only.
        dict(mean_photon_number=0.0, dark_count_prob=0.01, dead_time_s=1e-6),
    ]
    eves = [None, pl.EveModel(), pl.EveModel.intercept_resend(0.5)]
    phases = [PHASE0, pl.PhaseState(phase_error_rad=0.4)]
    multi_batch = 0
    for gi, kw in enumerate(grid):
        params = _params(**kw)
        for n_slots in (0, 1, 1000, 1_250_000):
            for ei, eve in enumerate(eves):
                # A first batch rarely falls short under the true law, so
                # seed 3's denser gaps make sure later batches are pinned too.
                for seed, make in ((1, _RecordingGenerator), (2, _RecordingGenerator),
                                   (3, _DenseGenerator)):
                    case = (gi, n_slots, ei, seed)
                    phase = phases[seed % 2]
                    rng_new = make(np.random.SeedSequence(case))
                    rng_old = make(np.random.SeedSequence(case))
                    got = pl.sample_link_window(params, phase, n_slots, rng_new,
                                                eve=eve, frame_id=f"w{case}")
                    want = _window_oracle(params, phase, n_slots, rng_old,
                                          eve=eve, frame_id=f"w{case}", fused=True)
                    assert rng_new.calls == rng_old.calls, case
                    # The next window starts where the oracle's would.
                    assert rng_new.bit_generator.state == rng_old.bit_generator.state, case
                    multi_batch += [c[0] for c in rng_new.calls].count(
                        "standard_exponential") > 1
                    assert got[2].frame_id == want[2].frame_id
                    # Only the photon-number splitter's windows carry a tally.
                    assert got[2].eve_tally is None
                    for g, w in zip(
                            (got[0], got[1], got[2].slot_index, got[2].rx_basis,
                             got[2].rx_value, got[2].is_dark),
                            (want[0], want[1], want[2].slot_index, want[2].rx_basis,
                             want[2].rx_value, want[2].is_dark)):
                        assert g.dtype == w.dtype, case
                        assert np.array_equal(g, w), case
    assert multi_batch > 0


def _assert_windows_equal(got, want, case):
    assert got[2].frame_id == want[2].frame_id, case
    assert got[2].eve_tally is None, case
    for g, w in zip((got[0], got[1], got[2].slot_index, got[2].rx_basis,
                     got[2].rx_value, got[2].is_dark),
                    (want[0], want[1], want[2].slot_index, want[2].rx_basis,
                     want[2].rx_value, want[2].is_dark)):
        assert g.dtype == w.dtype, case
        assert np.array_equal(g, w), case


def test_window_stream_matches_its_oracle_bit_for_bit():
    # Streams of K windows against the oracle that draws K windows in the
    # declared order, call for call and value for value, with windows taken
    # whole and in two or three pieces, empty calls and several draws per
    # stream.
    grid = [
        # Metro-like link: dead time, darks, double clicks now and then.
        dict(mean_photon_number=0.5, channel_loss_db=3.0, detector_efficiency=0.1,
             dark_count_prob=1e-5, dead_time_s=1e-5, intrinsic_error=0.02),
        # q == 0: no photons, no darks.
        dict(mean_photon_number=0.0, dark_count_prob=0.0),
        # No dead time.
        dict(mean_photon_number=0.5, detector_efficiency=0.1, dark_count_prob=1e-3,
             intrinsic_error=0.03),
        # q >= 1/3, where numpy's geometric sampler is not an inversion.
        dict(mean_photon_number=1.0, detector_efficiency=0.6, dead_time_s=2e-6),
        # Heavy darks: many double clicks dropped.
        dict(mean_photon_number=0.1, detector_efficiency=0.1, dark_count_prob=0.02),
    ]
    eves = [None, pl.EveModel.intercept_resend(0.5)]
    horizon = 40_000
    multi_batch = 0
    for gi, kw in enumerate(grid):
        params = _params(**kw)
        for windows in (1, 2, 5):
            # Eleven windows: several draws, the last window part-taken.
            cuts = [horizon, horizon // 3, 0, horizon - horizon // 3, 1, horizon - 1, 0,
                    horizon] + [n for i in range(1, 7) for n in (7 * i, horizon - 7 * i)]
            cuts.append(horizon // 2)
            for ei, eve in enumerate(eves):
                for seed, make in ((1, _RecordingGenerator), (2, _DenseGenerator)):
                    case = (gi, windows, ei, seed)
                    calls = [(n, pl.PhaseState(phase_error_rad=0.1 * i), f"w{case}:{i}")
                             for i, n in enumerate(cuts)]
                    rng_new = make(np.random.SeedSequence(case))
                    rng_old = make(np.random.SeedSequence(case))
                    stream = pl.WindowStream(rng_new, horizon, windows)
                    got = [pl.sample_link_window(params, phase, n, stream, eve=eve,
                                                 frame_id=frame_id)
                           for n, phase, frame_id in calls]
                    want = _stream_oracle(params, horizon, windows, calls, rng_old, eve)
                    assert rng_new.calls == rng_old.calls, case
                    assert rng_new.bit_generator.state == rng_old.bit_generator.state, case
                    draws = -(-sum(cuts) // horizon // windows)
                    multi_batch += [name for name, _ in rng_new.calls].count(
                        "standard_exponential") > draws
                    for g, w in zip(got, want):
                        _assert_windows_equal(g, w, case)
                    if kw.get("mean_photon_number") == 0.0:
                        assert rng_new.calls == [], case
    # Some row ran short of its first batch and drew more.
    assert multi_batch > 0


def test_window_stream_discards_its_windows_for_a_new_attacker(monkeypatch):
    # A stream drawn with no attacker, then called under intercept-resend,
    # gives the oracle's intercept-resend window from the generator state
    # after the discarded draws; calling it with no attacker again discards
    # those in turn. Switching the photon-number splitter on and then off
    # again discards her drawn windows too: the window after her is the
    # oracle's, from the state her draw left, and carries no tally.
    params = _params(mean_photon_number=0.5, channel_loss_db=3.0, detector_efficiency=0.1,
                     dark_count_prob=1e-4, dead_time_s=1e-5, intrinsic_error=0.02)
    ir, pns = pl.EveModel.intercept_resend(0.7), pl.EveModel.photon_number_split()
    horizon, windows = 200_000, 5
    rng_new = _RecordingGenerator(np.random.SeedSequence(11))
    rng_old = _RecordingGenerator(np.random.SeedSequence(11))
    stream = pl.WindowStream(rng_new, horizon, windows)
    draws = []
    draw = pl.WindowStream._draw
    monkeypatch.setattr(pl.WindowStream, "_draw",
                        lambda self, *args: draws.append(self is stream) or draw(self, *args))
    for i, eve in enumerate((None, ir, None, pns, None)):
        got = pl.sample_link_window(params, PHASE0, horizon, stream, eve=eve, frame_id=f"w{i}")
        if eve is pns:
            # Her draw on the oracle's generator, through a stream of its own.
            want = pl.sample_link_window(params, PHASE0, horizon,
                                         pl.WindowStream(rng_old, horizon, windows),
                                         eve=eve, frame_id=f"w{i}")
            assert got[2].eve_tally == want[2].eve_tally != pl.EveTally()
            got, want = (w[:2] + (w[2]._replace(eve_tally=None),) for w in (got, want))
        else:
            want, = _stream_oracle(params, horizon, windows, [(horizon, PHASE0, f"w{i}")],
                                   rng_old, eve)
        assert rng_new.bit_generator.state == rng_old.bit_generator.state, i
        _assert_windows_equal(got, want, ("attacker switch", i))
    assert rng_new.calls == rng_old.calls
    # Every switch drew the stream's windows afresh, once.
    assert draws.count(True) == 5


def test_window_stream_refuses_a_window_past_its_horizon():
    stream = pl.WindowStream(1, 1000, 8)
    with pytest.raises(ValueError, match="longer than"):
        pl.sample_link_window(_params(), PHASE0, 1001, stream)
    with pytest.raises(ValueError, match="at least one window"):
        pl.WindowStream(1, 1000, 0)


def test_window_stream_windows_match_the_per_slot_oracle():
    # Over 20 seeds, windows from a stream of 8, taken whole and in two
    # pieces, against the per-slot frame oracle: whole windows and the two
    # pieces joined against frames of the full size, first pieces against
    # frames of theirs. Click rate, sifted QBER and the click count's
    # variance across windows agree within 3 standard errors. Dead time
    # makes the count sub-Poisson, so its variance would show a window that
    # is not a fresh renewal process.
    params = _params(channel_loss_db=2.0, detector_efficiency=0.4, dark_count_prob=5e-4,
                     dead_time_s=2e-6, intrinsic_error=0.03)
    full, cut = 60_000, 25_000

    def counts(txb, txv, record):
        alice, bob, _ = sift_bb84_events(txb, txv, record)
        return np.array([record.n_events, alice.size, np.count_nonzero(alice != bob)])

    sizes = {"whole": full, "joined": full, "frames": full, "first": cut, "cut frames": cut}
    stats = {key: [] for key in sizes}
    for seed in range(20):
        stream = pl.WindowStream(np.random.default_rng([seed, 0]), full, 8)
        frames = np.random.default_rng([seed, 1])
        rows = {key: [] for key in stats}
        for _ in range(8):
            rows["whole"].append(counts(*pl.sample_link_window(params, PHASE0, full, stream)))
            first = counts(*pl.sample_link_window(params, PHASE0, cut, stream))
            rows["first"].append(first)
            rows["joined"].append(first + counts(*pl.sample_link_window(
                params, PHASE0, full - cut, stream)))
            for key, size in (("frames", full), ("cut frames", cut)):
                frame = PulseFrame.random("f", size, frames)
                dense = transmit_frame(params, PHASE0, None, frame, frames)
                rows[key].append(counts(*frame.sent(dense), dense))
        for key, r in rows.items():
            clicks, sifted, errors = np.array(r).T
            stats[key].append((clicks.mean() / sizes[key], errors.sum() / sifted.sum(),
                               clicks.var(ddof=1)))
    for key, frames_key in (("whole", "frames"), ("joined", "frames"), ("first", "cut frames")):
        new, old = np.array(stats[key]), np.array(stats[frames_key])
        se = np.sqrt(new.var(axis=0, ddof=1) / len(new) + old.var(axis=0, ddof=1) / len(old))
        assert (np.abs(new.mean(axis=0) - old.mean(axis=0)) < 3 * se).all(), (
            key, new.mean(axis=0), old.mean(axis=0), se)


@pytest.mark.parametrize("eve", [None, pl.EveModel.intercept_resend(0.5),
                                 pl.EveModel.photon_number_split()])
def test_a_window_taken_in_two_pieces_is_the_window_taken_whole(eve):
    # Two identically seeded streams, one taking each window whole and one
    # as a training frame and the rest: the rest's slots, moved back by the
    # frame's, follow the frame's, and at one phase the two pieces are the
    # whole window, field for field. Dead time runs across the boundary,
    # and behind the photon-number splitter the window's tally rides on its
    # last piece. A piece longer than what is left of the window raises.
    params = _params(channel_loss_db=3.0, detector_efficiency=0.3, dark_count_prob=1e-3,
                     dead_time_s=2e-6, intrinsic_error=0.02)
    horizon, first = 200_000, 65_536
    phase = pl.PhaseState(phase_error_rad=0.3)

    def columns(window, shift=0):
        tx_basis, tx_value, record = window
        return (tx_basis, tx_value, record.slot_index + shift, record.rx_basis,
                record.rx_value, record.is_dark)

    for seed in range(4):
        whole = pl.WindowStream(np.random.default_rng(seed), horizon, 8)
        split = pl.WindowStream(np.random.default_rng(seed), horizon, 8)
        for i in range(3):
            case = (seed, i)
            one = pl.sample_link_window(params, phase, horizon, whole, eve=eve)
            train = pl.sample_link_window(params, phase, first, split, eve=eve)
            with pytest.raises(ValueError, match="longer than"):
                pl.sample_link_window(params, phase, horizon - first + 1, split, eve=eve)
            data = pl.sample_link_window(params, phase, horizon - first, split, eve=eve)
            last, following = train[2].slot_index[-1], data[2].slot_index[0] + first
            assert following - last > params.dead_slots, case
            for got, want in zip(zip(columns(train), columns(data, first)), columns(one)):
                assert np.array_equal(np.concatenate(got), want), case
            tallies = train[2].eve_tally, data[2].eve_tally, one[2].eve_tally
            if eve is None or eve.kind is not EveKind.PHOTON_NUMBER_SPLIT:
                assert tallies == (None, None, None), case
                continue
            assert tallies[0] == pl.EveTally() and tallies[2].learned_bits > 0, case
            assert [a + b for a, b in zip(*map(dataclasses.astuple, tallies[:2]))] == list(
                dataclasses.astuple(tallies[2])), case


def test_training_frames_from_a_rounds_prefix_match_the_per_slot_oracle():
    # Over 20 seeds, training frames taken as the first slots of a stream's
    # round windows, each round's rest taken as its data window, against
    # per-slot frames of the frame's size: mean click count and sifted QBER
    # agree within 3 standard errors, at a phase offset that puts QBER near
    # 0.05.
    params = _params(channel_loss_db=2.0, detector_efficiency=0.2, dark_count_prob=1e-4,
                     dead_time_s=2e-6, intrinsic_error=0.01)
    phase = pl.PhaseState(phase_error_rad=math.acos(0.92))  # 0.04 from the phase
    round_slots, training_slots = 100_000, 32_768

    def counts(txb, txv, record):
        alice, bob, _ = sift_bb84_events(txb, txv, record)
        return record.n_events, alice.size, np.count_nonzero(alice != bob)

    stats = ([], [])
    for seed in range(20):
        stream = pl.WindowStream(np.random.default_rng([seed, 0]), round_slots, 8)
        frames = np.random.default_rng([seed, 1])
        rows = ([], [])
        for _ in range(8):
            rows[0].append(counts(*pl.sample_link_window(params, phase, training_slots,
                                                         stream, frame_id="r:train")))
            pl.sample_link_window(params, PHASE0, round_slots - training_slots, stream)
            frame = PulseFrame.random("f", training_slots, frames)
            dense = transmit_frame(params, phase, None, frame, frames)
            rows[1].append(counts(*frame.sent(dense), dense))
        for stat, r in zip(stats, rows):
            clicks, sifted, errors = np.array(r).T
            stat.append((clicks.mean(), errors.sum() / sifted.sum()))
    new, old = np.array(stats[0]), np.array(stats[1])
    assert 0.04 < new[:, 1].mean() < 0.06
    se = np.sqrt(new.var(axis=0, ddof=1) / len(new) + old.var(axis=0, ddof=1) / len(old))
    assert (np.abs(new.mean(axis=0) - old.mean(axis=0)) < 3 * se).all(), (
        new.mean(axis=0), old.mean(axis=0), se)


class _CountingGenerator:
    """Forwards ``standard_exponential`` to a generator and counts the calls."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def standard_exponential(self, *args, **kwargs):
        self.calls += 1
        return self.rng.standard_exponential(*args, **kwargs)


def test_renewal_first_batch_rarely_falls_short(monkeypatch):
    # Over 150 s of cambridge, Anna-Bob and Alice-Boris, under 1% of the
    # windows (rounds, drawn eight at a time, and realignment frames) need
    # a batch beyond their first. A draw of K windows makes one call for
    # their first batches and one more for each further batch.
    windows, extra = [], []
    renewal_slots = pl._renewal_slots

    def counted(rng, *args):
        proxy = _CountingGenerator(rng)
        rows = renewal_slots(proxy, *args)
        windows.append(len(rows))
        extra.append(proxy.calls - 1)
        return rows

    monkeypatch.setattr(pl, "_renewal_slots", counted)
    run_scenario(load_scenario({
        "version": 1, "name": "metro", "topology": {"preset": "cambridge"},
        "duration_s": 150.0, "seed": 1,
        "events": [{"t": 0.0, "kind": "start_qkd", "tx": "Anna", "rx": "Bob"},
                   {"t": 0.0, "kind": "start_qkd", "tx": "Alice", "rx": "Boris"}]}))
    assert sum(windows) > 1000 and max(windows) == 8
    assert sum(extra) < 0.01 * sum(windows), (sum(extra), sum(windows))


@pytest.mark.parametrize("q", [0.34, 0.5, 0.9, 1.0])
def test_renewal_gaps_follow_the_geometric_law(q):
    # Above q = 1/3 numpy's geometric sampler is not an inversion, so the
    # renewal draw agrees with it in law only. Every gap is at least one
    # slot, and the gaps' mean and variance are within 3 standard errors
    # of 1 / q and (1 - q) / q^2.
    slots, = pl._renewal_slots(np.random.default_rng(7), q, 0, 200_000)
    gaps = np.diff(slots, prepend=-1)
    assert gaps.min() >= 1
    if q == 1.0:
        # Every live slot clicks; with no dead time that is every slot.
        assert np.array_equal(slots, np.arange(200_000))
        return
    n, mean, var = gaps.size, 1.0 / q, (1.0 - q) / q ** 2
    # A geometric law's fourth central moment is var^2 (9 + q^2 / (1 - q)).
    assert abs(gaps.mean() - mean) < 3 * math.sqrt(var / n)
    assert abs(gaps.var(ddof=1) - var) < 3 * var * math.sqrt((8 + q * q / (1 - q)) / n)


def test_window_at_certain_click_is_sampled():
    # dark_count_prob 1 makes every gate click (q = 1), each as a double.
    params = _params(dark_count_prob=1.0, dead_time_s=1e-6)
    assert params.click_law.q == 1.0
    assert pl.sample_link_window(params, PHASE0, 1000, rng_seed=1)[2].n_events == 0


@pytest.mark.parametrize("eve", [None, pl.EveModel.photon_number_split()])
def test_flip_from_the_class_uniform(eve):
    # A signal event's flip is read off its class uniform. Over 20 windows
    # at intrinsic error 0.4 and zero phase, using the is_dark ground
    # truth, each within 3 standard errors: sifted signal events err at
    # 0.4 whatever value was sent, and sifted dark events at 0.5.
    params = _params(channel_loss_db=3.0, detector_efficiency=0.1, dark_count_prob=0.01,
                     intrinsic_error=0.4)
    errors = {"signal 0": [], "signal 1": [], "dark": []}
    for seed in range(20):
        txb, txv, record = pl.sample_link_window(params, PHASE0, 100_000, seed, eve=eve)
        sifted = record.rx_basis == txb
        wrong = record.rx_value != txv
        for key, mask in (("signal 0", ~record.is_dark & (txv == 0)),
                          ("signal 1", ~record.is_dark & (txv == 1)),
                          ("dark", record.is_dark)):
            errors[key].append(wrong[sifted & mask])
    rates = {key: np.concatenate(v) for key, v in errors.items()}

    def within(x, p):
        return abs(x.mean() - p) < 3 * math.sqrt(p * (1 - p) / x.size)

    assert within(np.concatenate((rates["signal 0"], rates["signal 1"])), 0.4)
    assert within(rates["dark"], 0.5)
    a, b = rates["signal 0"], rates["signal 1"]
    assert abs(a.mean() - b.mean()) < 3 * math.sqrt(0.24 / a.size + 0.24 / b.size)


@pytest.mark.parametrize("eve", [None, pl.EveModel.intercept_resend(0.5)])
def test_window_sampler_matches_integer_bit_stream_statistics(eve):
    # Over 20 seeds the sampler (one raw-word draw for every per-click bit)
    # and the unfused oracle (one integer draw per use) agree on sifted-bit
    # rate and sifted QBER within 3 standard errors of the difference of
    # their means, on a metro-like link: one 0.25 s round of cambridge
    # Anna-Bob.
    params = LinkParams(mean_photon_number=0.5, channel_loss_db=2.0, insertion_loss_db=0.8,
                        detector_efficiency=0.004, dark_count_prob=1e-5,
                        dead_time_s=1e-5, intrinsic_error=0.018)
    n = 1_250_000
    samplers = (pl.sample_link_window, _window_oracle)
    stats = ([], [])
    for seed in range(20):
        for k, sample in enumerate(samplers):
            txb, txv, record = sample(params, PHASE0, n, np.random.default_rng([seed, k]), eve=eve)
            alice, bob, _ = sift_bb84_events(txb, txv, record)
            stats[k].append((alice.size / n, float(np.mean(alice != bob))))
    new, old = np.array(stats[0]), np.array(stats[1])
    se = np.sqrt(new.var(axis=0, ddof=1) / len(new) + old.var(axis=0, ddof=1) / len(old))
    assert (np.abs(new.mean(axis=0) - old.mean(axis=0)) < 3 * se).all()


def test_detection_record_requires_strictly_increasing_slots():
    def record(slots):
        n = len(slots)
        return pl.DetectionRecord("r", np.asarray(slots, dtype=np.int64),
                                  np.zeros(n, np.uint8), np.zeros(n, np.uint8),
                                  np.zeros(n, bool))

    for slots in ([3, 5, 5, 9], [3, 7, 6]):
        with pytest.raises(ValueError, match="strictly increasing"):
            record(slots)
    assert record([]).n_events == 0
    assert record([7]).n_events == 1
    assert pl.DetectionRecord.empty("e").n_events == 0


def test_detection_record_requires_equal_lengths():
    # Three slots with two bases, five values and one dark flag once made
    # a record of three events.
    with pytest.raises(ValueError, match="equal lengths, got 3, 2, 5, 1"):
        pl.DetectionRecord("r", np.array([1, 4, 9]), np.zeros(2, np.uint8),
                           np.zeros(5, np.uint8), np.zeros(1, bool))
    with pytest.raises(ValueError, match="equal lengths, got 2, 2, 2, 3"):
        pl.DetectionRecord("r", [1, 4], [0, 1], [1, 1], [False, True, False])


def test_detection_record_is_a_frozen_validated_row():
    record = pl.DetectionRecord("r", [1, 4], [0, 1], [1, 1], [0, 1])
    assert [a.dtype for a in record[1:5]] == [np.int64, np.uint8, np.uint8, bool]
    assert record.eve_tally is None and record.n_events == 2 and record.min_gap() == 3
    for name in ("rx_value", "frame_id", "unknown"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, None)
    # _replace goes through the constructor's coercions and checks.
    assert record._replace(rx_basis=[1, 1]).rx_basis.dtype == np.uint8
    with pytest.raises(ValueError, match="strictly increasing"):
        record._replace(slot_index=[4, 1])
    with pytest.raises(ValueError, match="equal lengths, got 2, 3, 2, 2"):
        record._replace(rx_basis=[0, 1, 1])
    tally = pl.EveTally(learned_bits=1)
    for empty, want in ((pl.DetectionRecord.empty("e"), None),
                        (pl.DetectionRecord.empty("e", tally), tally)):
        assert empty.eve_tally is want and empty.n_events == 0 and empty.min_gap() is None
        assert [a.dtype for a in empty[1:5]] == [np.int64, np.uint8, np.uint8, bool]


@pytest.mark.parametrize("make", [
    lambda: LinkParams(pulse_rate_hz=math.nan),
    lambda: LinkParams(mean_photon_number=math.nan),
    lambda: LinkParams(pulse_rate_hz=1e20),
    lambda: LinkParams(dead_time_s=1e300),
    lambda: LinkParams(mean_photon_number=100.5),
    lambda: PhaseState(drift_rate_rad_per_s=math.nan),
    lambda: PhaseState(phase_error_rad=math.inf),
], ids=["rate-nan", "mu-nan", "rate-1e20", "dead-time-1e300", "mu-100.5", "drift-nan",
        "phase-inf"])
def test_link_and_phase_values_must_be_numbers_in_range(make):
    with pytest.raises(ValueError):
        make()


def test_click_law_is_cached_per_instance():
    params = _params(channel_loss_db=3.0, detector_efficiency=0.1, dark_count_prob=1e-3,
                     dead_time_s=1e-5)
    law = params.click_law
    assert params.click_law is law
    p_sig = signal_click_probability(params)
    d = params.dark_count_prob
    assert law == (1.0 - (1.0 - p_sig) * (1.0 - d) ** 2, p_sig * (1.0 - d),
                   (1.0 - p_sig) * 2.0 * d * (1.0 - d))
    # A replaced link derives its own law and dead time; the cache is no
    # field, so equality and hashing see the fields only.
    dimmer = dataclasses.replace(params, channel_loss_db=10.0, dead_time_s=2e-5)
    assert dimmer.click_law.p_signal_event < law.p_signal_event
    assert dimmer.click_law.p_signal_event == signal_click_probability(dimmer) * (1.0 - d)
    assert (params.dead_slots, dimmer.dead_slots) == (50, 100)
    assert params == dataclasses.replace(dimmer, channel_loss_db=3.0, dead_time_s=1e-5)
    assert hash(params) == hash(_params(channel_loss_db=3.0, detector_efficiency=0.1,
                                        dark_count_prob=1e-3, dead_time_s=1e-5))
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.dark_count_prob = 0.5
    assert params.click_law is law


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


def test_advance_phase_keeps_a_pending_probe():
    phase = pl.PhaseState(phase_error_rad=3.0, drift_rate_rad_per_s=0.5, feedback_gain=0.25,
                          probe_correction=-0.2, probe_reference_qber=0.07, preferred_sign=-1)
    moved = pl.advance_phase(phase, 4.0, 3)
    step = np.random.default_rng(3).normal(0.0, 0.5 * 2.0)
    assert moved == dataclasses.replace(phase, phase_error_rad=pl.wrap_phase(3.0 + step))
    assert -math.pi < moved.phase_error_rad <= math.pi
    assert moved.phase_error_rad != phase.phase_error_rad


def test_advance_phase_lands_just_above_pi_at_pi(monkeypatch):
    # For the double just above pi, (pi - x) % 2pi rounds to 2pi; the
    # state's one wrap still lands at pi, not -pi.
    above = math.nextafter(math.pi, math.inf)

    class _Step:
        def normal(self, loc, scale):
            return above

    monkeypatch.setattr(pl.np.random, "default_rng", lambda seed: _Step())
    moved = pl.advance_phase(pl.PhaseState(phase_error_rad=0.0, drift_rate_rad_per_s=0.5), 1.0, 0)
    assert moved.phase_error_rad == math.pi


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
    # Just above pi, (pi - x) % 2pi rounds to 2pi: the result is still pi.
    for phi in (math.nextafter(math.pi, math.inf), 3 * math.pi, -3 * math.pi,
                math.nextafter(-math.pi, -math.inf)):
        wrapped = pl.wrap_phase(phi)
        assert -math.pi < wrapped <= math.pi and pl.wrap_phase(wrapped) == wrapped, phi
