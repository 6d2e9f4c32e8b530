"""The classical post-processing pipeline, stage by stage.

One simulated transmission is taken from raw detections to shared secret
key: sifting (both disciplines), error-rate sampling, Cascade
reconciliation, entropy estimation, privacy amplification, and finally an
authentication tag over the public amplification seed.

Run:  python demos/02_protocol_pipeline.py
"""

import numpy as np

from qkdnet import physlink as pl
from qkdnet.bits import binary_entropy, bits_to_bytes, random_bits
from qkdnet.qkdproto import (
    AUTH_KEY_BITS_PER_TAG,
    SECURITY_MARGIN_BITS,
    EstimatorKind,
    SiftingProtocol,
    auth_tag,
    estimate_qber,
    privacy_amplify,
    reconcile_cascade,
    secret_length,
    sift_bb84_events,
    sift_sarg_events,
    usable_fraction,
    verify_tag,
)

params = pl.LinkParams(mean_photon_number=0.5, channel_loss_db=2.0,
                       detector_efficiency=0.3, dark_count_prob=1e-5,
                       dead_time_s=0.0, intrinsic_error=0.03)
n_slots = 300_000
tx_basis, tx_value, record = pl.sample_link_window(params, pl.PhaseState(), n_slots,
                                                   rng_seed=1)
print(f"transmitted {n_slots:,} pulses, detected {record.n_events:,}")

alice, bob, kept = sift_bb84_events(tx_basis, tx_value, record)
print(f"\n[sift/bb84]   kept {alice.size:,} bits "
      f"({alice.size / record.n_events:.3f} of detections)")
a_sarg, b_sarg, _ = sift_sarg_events(tx_basis, tx_value, record)
print(f"[sift/sarg]   would keep {a_sarg.size:,} bits "
      f"({a_sarg.size / record.n_events:.3f}); PNS-robust at a rate cost")

sample = estimate_qber(alice, bob, 0.1, rng_seed=2)
print(f"\n[qber]        sacrificed {sample.disclosed:,} bits publicly, "
      f"measured QBER {sample.qber:.4f}")

true_errors = int(np.count_nonzero(sample.remaining_alice != sample.remaining_bob))
corrected, parities = reconcile_cascade(
    sample.remaining_alice, sample.remaining_bob, max(sample.qber, 0.01), rng_seed=3)
residual = int(np.count_nonzero(corrected != sample.remaining_alice))
n = corrected.size
efficiency = parities / (n * binary_entropy(true_errors / n))
print(f"[cascade]     fixed {true_errors:,} errors for {parities:,} disclosed "
      f"parities (f = {efficiency:.2f} vs the Shannon floor), residual {residual}")

leaked = sample.disclosed + parities
beta = usable_fraction(EstimatorKind.SIMPLE_SHANNON, SiftingProtocol.BB84, params)
m = secret_length(n, sample.qber, leaked, beta)
print(f"[entropy]     {n:,} reconciled - leakage {leaked:,} - margin "
      f"{SECURITY_MARGIN_BITS} -> {m:,} distillable bits")

pa_seed = random_bits(np.random.default_rng(4), n + m - 1)
secret_a = privacy_amplify(sample.remaining_alice, m, pa_seed)
secret_b = privacy_amplify(corrected, m, pa_seed)
print(f"[amplify]     Toeplitz-compressed to {m:,} bits; "
      f"both parties identical: {np.array_equal(secret_a, secret_b)}")

transcript = bits_to_bytes(pa_seed)
auth_key = np.packbits(random_bits(np.random.default_rng(5), AUTH_KEY_BITS_PER_TAG))
tag = auth_tag(auth_key, transcript)
print(f"[auth]        64-bit tag over the public PA seed verifies: "
      f"{verify_tag(auth_key, transcript, tag)} "
      f"(consumes {AUTH_KEY_BITS_PER_TAG} one-time key bits)")

beta_mpa = usable_fraction(EstimatorKind.MULTIPHOTON_AWARE, SiftingProtocol.BB84, params)
m_mpa = secret_length(n, sample.qber, leaked, beta_mpa)
print(f"\n[pns pricing] the multiphoton-aware estimator allows only {m_mpa:,} bits here: "
      f"multi-photon emissions could explain nearly every detection, so almost "
      f"nothing is credited as single-photon key")
