"""Entropy estimation and privacy amplification."""

import math

import numpy as np
import pytest

from oracles import PulseFrame, estimate_secret_length, toeplitz_matrix, transmit_frame
from qkdnet.errors import InvalidRequestError, InvariantViolation
from qkdnet.physlink import LinkParams
from qkdnet.qkdproto import (
    SECURITY_MARGIN_BITS,
    EstimatorKind,
    SiftingProtocol,
    multi_photon_fraction,
    privacy_amplify,
    secret_length,
    usable_fraction,
)
from qkdnet.qkdproto.secrecy import fft_length

SHANNON, AWARE = EstimatorKind.SIMPLE_SHANNON, EstimatorKind.MULTIPHOTON_AWARE


def _poisson_tail_oracle(mu, threshold):
    """Brute-force Poisson tail: P(N >= threshold), summed termwise."""
    total = 0.0
    term = math.exp(-mu)
    for k in range(0, 60):
        if k >= threshold:
            total += term
        term *= mu / (k + 1)
    return total


def test_multi_photon_fraction_against_brute_force():
    for mu in (0.1, 0.5, 1.0, 2.0):
        for threshold in (1, 2, 3):
            assert multi_photon_fraction(mu, threshold) == \
                pytest.approx(_poisson_tail_oracle(mu, threshold), abs=1e-12)


def test_shannon_estimator_perfect_channel():
    assert estimate_secret_length(SHANNON, 1000, 0.0, 0) == 1000 - SECURITY_MARGIN_BITS


def test_shannon_estimator_subtracts_leakage_and_margin():
    n, q, leaked = 10_000, 0.03, 2400
    expected = math.floor(n * (1 - (-q * math.log2(q) - (1 - q) * math.log2(1 - q)))
                          - leaked - 128)
    assert estimate_secret_length(SHANNON, n, q, leaked) == expected


def test_multiphoton_estimator_bu_link_yields_zero():
    # mu=1.0 over 11.5 dB at 10% efficiency: multi-photon emissions
    # (p2 ~ 0.264) dwarf the click probability (~0.007): zero yield.
    link = LinkParams(mean_photon_number=1.0, channel_loss_db=11.5,
                      detector_efficiency=0.1, dark_count_prob=0.0)
    assert multi_photon_fraction(1.0) == pytest.approx(0.2642411176571153, abs=1e-12)
    assert usable_fraction(AWARE, SiftingProtocol.BB84, link) == 0.0
    assert estimate_secret_length(AWARE, 100_000, 0.03, 0, link) == 0


def test_multiphoton_estimator_creditable_efficiency_threshold():
    # At mu=0.5 over 2 dB the estimator credits nothing at eta=0.10
    # (p_multi 0.090 > p_click 0.031); the calibrated efficiency that turns
    # the yield positive is eta ~ 0.30.
    starved = LinkParams(mean_photon_number=0.5, channel_loss_db=2.0,
                         detector_efficiency=0.10, dark_count_prob=0.0)
    assert usable_fraction(AWARE, SiftingProtocol.BB84, starved) == 0.0
    credited = LinkParams(mean_photon_number=0.5, channel_loss_db=2.0,
                          detector_efficiency=0.30, dark_count_prob=0.0)
    assert usable_fraction(AWARE, SiftingProtocol.BB84, credited) > 0.0


def test_sarg_accounting_more_tolerant_than_bb84():
    # SARG writes off n>=3 emissions only, so it stays positive where
    # BB84 accounting has already collapsed to zero.
    link = LinkParams(mean_photon_number=0.5, channel_loss_db=2.0,
                      detector_efficiency=0.10, dark_count_prob=0.0)
    assert estimate_secret_length(AWARE, 10_000, 0.03, 0, link, SiftingProtocol.BB84) == 0
    assert estimate_secret_length(AWARE, 10_000, 0.03, 0, link, SiftingProtocol.SARG) > 0


def test_estimator_clamps_at_zero():
    # 1000 bits would keep 1000 - 128 at QBER 0 with no leakage.
    assert estimate_secret_length(SHANNON, 1000, 0.5, 0) == 0
    assert estimate_secret_length(SHANNON, 1000, 0.0, 1000) == 0


def test_secret_length_never_exceeds_reconciled_minus_leaked_and_margin():
    # Whatever the usable fraction, the rule keeps at most the reconciled
    # bits not leaked, less the margin. Boris's mu = 1 link credits 0.
    from qkdnet.netgraph import load_preset

    topo = load_preset("cambridge")
    boris = topo.channel_by_id("Alice-Boris").params
    betas = [1.0, 0.5, 0.0] + [
        usable_fraction(AWARE, s, boris) for s in SiftingProtocol]
    assert all(0.0 <= beta <= 1.0 for beta in betas)
    margin = SECURITY_MARGIN_BITS
    kept = 0
    for beta in betas:
        for n in (1, 200, 3686, 29491, 1 << 20):
            for q in (0.0, 0.001, 0.03, 0.11, 0.5, 0.7):
                for leaked in (0, 1, n // 10, n // 2, n, 2 * n):
                    m = secret_length(n, q, leaked, beta)
                    assert 0 <= m and m <= max(0, n - leaked - margin)
                    kept += m > 0
    assert kept > 0  # non-vacuous: some grid points yield key


def test_sarg_yield_dominates_bb84_under_pns_attack():
    # Directional claim over a 20-point loss sweep with the splitting
    # attacker active: SARG sifting's multiphoton-aware yield is never
    # below BB84's, and is strictly positive at low loss.
    from qkdnet import physlink as pl
    from qkdnet.bits import binary_entropy
    from qkdnet.qkdproto import sift_bb84_events, sift_sarg_events

    positive_points = 0
    for i, loss in enumerate(np.linspace(0.0, 10.0, 20)):
        params = pl.LinkParams(mean_photon_number=0.5, channel_loss_db=float(loss),
                               detector_efficiency=0.1, dark_count_prob=0.0,
                               dead_time_s=0.0, intrinsic_error=0.01)
        frame = PulseFrame.random(f"sweep{i}", 60_000, np.random.default_rng(i))
        record = transmit_frame(params, pl.PhaseState(),
                                pl.EveModel.photon_number_split(), frame,
                                rng_seed=1000 + i)
        yields = {}
        for sifting, sifter in ((SiftingProtocol.BB84, sift_bb84_events),
                                (SiftingProtocol.SARG, sift_sarg_events)):
            alice, bob, _ = sifter(*frame.sent(record), record)
            if alice.size < 64:
                yields[sifting] = 0
                continue
            q = float(np.mean(alice != bob))
            leaked = math.ceil(1.2 * alice.size * binary_entropy(max(q, 0.01)))
            yields[sifting] = estimate_secret_length(
                AWARE, int(alice.size), q, leaked, params, sifting)
        assert yields[SiftingProtocol.SARG] >= yields[SiftingProtocol.BB84]
        if yields[SiftingProtocol.SARG] > 0:
            positive_points += 1
    assert positive_points >= 5  # non-vacuous: SARG survives at low loss


# ---------------------------------------------------------------------------
# privacy amplification
# ---------------------------------------------------------------------------

def _pa_row_loop_oracle(key, target_len, seed):
    """Declared test oracle: the Toeplitz product one output row at a time.

    Row i's GF(2) inner product with the key is the parity of
    ``seed[i : i+n] & reversed(key)``, computed on Python integers.
    """
    def to_int(bits):
        packed = np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little")
        return int.from_bytes(packed.tobytes(), "little")

    n = key.size
    seed_int = to_int(seed)
    key_rev_int = to_int(key[::-1])
    mask = (1 << n) - 1
    out = np.empty(target_len, dtype=np.uint8)
    for i in range(target_len):
        out[i] = (((seed_int >> i) & mask) & key_rev_int).bit_count() & 1
    return out


@pytest.mark.parametrize("n, target_len", [
    (1, 1), (64, 1), (65, 1), (63, 2), (64, 64),      # seed 1, 64, 65, 64, 127 bits
    (3000, 1096), (3000, 1097), (3000, 1098),          # seed 2^12 - 1, 2^12, 2^12 + 1
    (4096, 4096), (5000, 1), (100_000, 20_000),
    (4000, 1301), (42_000, 501),                       # seed 5300, 42500: fast 5400, 43200
])
def test_pa_matches_row_loop_oracle(n, target_len):
    rng = np.random.default_rng(n + target_len)
    key = rng.integers(0, 2, n, dtype=np.uint8)
    seed = rng.integers(0, 2, n + target_len - 1, dtype=np.uint8)
    out = privacy_amplify(key, target_len, seed)
    assert out.dtype == np.uint8
    assert np.array_equal(out, _pa_row_loop_oracle(key, target_len, seed))


def test_pa_matches_toeplitz_matrix_at_thousands_of_bits():
    rng = np.random.default_rng(4)
    n, m = 3000, 1200
    key = rng.integers(0, 2, n, dtype=np.uint8)
    seed = rng.integers(0, 2, n + m - 1, dtype=np.uint8)
    matrix = toeplitz_matrix(seed, n, m).astype(np.int64)
    assert np.array_equal(privacy_amplify(key, m, seed), (matrix @ key) % 2)


def _fft_length_oracle(n):
    """Declared test oracle: count up from n to the first 5-smooth integer."""
    m = max(n, 1)
    while True:
        rest = m
        for factor in (2, 3, 5):
            while rest % factor == 0:
                rest //= factor
        if rest == 1:
            return m
        m += 1


def test_fft_length_matches_brute_force():
    assert [fft_length(n) for n in range(5001)] == [_fft_length_oracle(n) for n in range(5001)]
    assert (fft_length(1 << 16), fft_length((1 << 16) + 1)) == (1 << 16, 65610)


@pytest.mark.parametrize("seed_len, m, fast", [
    # Seed lengths like metro's and metro-bigblock's, whose fast lengths
    # are not powers of two, and exact powers of two. Few output rows keep
    # the materialized matrix small.
    (5300, 300, 5400), (42500, 64, 43200),
    (4096, 96, 4096), (32768, 64, 32768),
])
def test_pa_matches_toeplitz_matrix_at_fast_fft_lengths(seed_len, m, fast):
    assert fft_length(seed_len) == fast
    rng = np.random.default_rng(seed_len)
    n = seed_len - m + 1
    key = rng.integers(0, 2, n, dtype=np.uint8)
    seed = rng.integers(0, 2, seed_len, dtype=np.uint8)
    matrix = toeplitz_matrix(seed, n, m).astype(np.int64)
    assert np.array_equal(privacy_amplify(key, m, seed), (matrix @ key) % 2)


def test_pa_inexact_fft_trips_guard(monkeypatch):
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: irfft(*a, **k) + 0.5)
    rng = np.random.default_rng(5)
    key = rng.integers(0, 2, 256, dtype=np.uint8)
    seed = rng.integers(0, 2, 256 + 100 - 1, dtype=np.uint8)
    with pytest.raises(InvariantViolation):
        privacy_amplify(key, 100, seed)


def test_pa_empty_output():
    key = np.ones(16, dtype=np.uint8)
    assert privacy_amplify(key, 0, np.zeros(15, dtype=np.uint8)).size == 0


def test_pa_zero_key_maps_to_zero():
    rng = np.random.default_rng(0)
    seed = rng.integers(0, 2, 64 + 32 - 1, dtype=np.uint8)
    out = privacy_amplify(np.zeros(64, dtype=np.uint8), 32, seed)
    assert not out.any()


def test_pa_matches_explicit_toeplitz_matrix():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n, m = int(rng.integers(4, 40)), int(rng.integers(1, 4))
        m = min(m * 8, n)
        key = rng.integers(0, 2, n, dtype=np.uint8)
        seed = rng.integers(0, 2, n + m - 1, dtype=np.uint8)
        matrix = toeplitz_matrix(seed, n, m)
        assert np.array_equal(privacy_amplify(key, m, seed), (matrix @ key) % 2)


def test_pa_single_bit_flip_diffuses():
    # Universal-hash oracle: over random seeds each output bit flips with
    # probability 1/2 when any one input bit flips.
    key = np.random.default_rng(2).integers(0, 2, 64, dtype=np.uint8)
    key_flipped = key.copy()
    key_flipped[0] ^= 1
    flips = np.zeros(16)
    trials = 10_000
    for t in range(trials):
        seed = np.random.default_rng(t).integers(0, 2, 64 + 16 - 1, dtype=np.uint8)
        flips += privacy_amplify(key, 16, seed) ^ privacy_amplify(key_flipped, 16, seed)
    freq = flips / trials
    assert freq.min() > 0.48 and freq.max() < 0.52


def test_pa_linearity_exhaustive_8bit():
    seed = np.random.default_rng(3).integers(0, 2, 8 + 4 - 1, dtype=np.uint8)
    outs = []
    for v in range(256):
        bits = np.array([(v >> i) & 1 for i in range(8)], dtype=np.uint8)
        outs.append(privacy_amplify(bits, 4, seed))
    for a in range(256):
        for b in range(256):
            assert np.array_equal(outs[a ^ b], outs[a] ^ outs[b])


def test_pa_argument_validation():
    key = np.ones(16, dtype=np.uint8)
    with pytest.raises(InvalidRequestError):
        privacy_amplify(key, 17, np.zeros(32, dtype=np.uint8))
    with pytest.raises(InvalidRequestError):
        privacy_amplify(key, 8, np.zeros(10, dtype=np.uint8))
