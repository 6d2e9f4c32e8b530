"""A tour of the weak-coherent link model.

Walks one link from analytics to Monte Carlo: click probability against
fiber loss, detector dead time throttling the event rate, and what the two
modeled eavesdroppers do to the sifted error rate.

Run:  python demos/01_link_physics.py
"""

import numpy as np

from qkdnet import physlink as pl
from qkdnet.qkdproto import sift_bb84_events

phase = pl.PhaseState()

print("=== Click probability vs fiber loss (mu=0.5, eta=10%) ===")
for loss_db in (0, 2, 5, 10, 15, 20):
    params = pl.LinkParams(mean_photon_number=0.5, channel_loss_db=loss_db,
                           detector_efficiency=0.1, dark_count_prob=1e-5)
    print(f"  {loss_db:>4.1f} dB -> p(click per gate) = {params.click_law.q:.6f}")

print("\n=== Dead time throttles the event rate ===")
params = pl.LinkParams(mean_photon_number=0.5, detector_efficiency=1.0,
                       dark_count_prob=0.0, dead_time_s=1e-5)
n_slots = 500_000
_, _, record = pl.sample_link_window(params, phase, n_slots, rng_seed=2)
p = params.click_law.q
f = params.pulse_rate_hz
print(f"  raw click probability {p:.3f} would suggest {p * f:,.0f} clicks/s")
print(f"  with a 10 us dead time the link delivers "
      f"{record.n_events / (n_slots / f):,.0f} events/s "
      f"(renewal model: {p * f / (1 + p * f * params.dead_time_s):,.0f})")
print(f"  closest spacing between events: {record.min_gap()} slots "
      f"(floor is {params.dead_slots + 1})")

print("\n=== Intercept-resend leaves a 25% fingerprint ===")
clean = pl.LinkParams(mean_photon_number=0.2, detector_efficiency=1.0,
                      dark_count_prob=0.0, dead_time_s=0.0, intrinsic_error=0.0)
for fraction in (0.0, 0.5, 1.0):
    eve = pl.EveModel.intercept_resend(fraction) if fraction else None
    tx_basis, tx_value, record = pl.sample_link_window(clean, phase, 400_000, rng_seed=4,
                                                       eve=eve)
    alice, bob, _ = sift_bb84_events(tx_basis, tx_value, record)
    print(f"  intercept fraction {fraction:.1f} -> sifted QBER "
          f"{float(np.mean(alice != bob)):.4f}")

print("\n=== Photon-number splitting learns bits without adding errors ===")
lossy = pl.LinkParams(mean_photon_number=0.5, channel_loss_db=10.0,
                      detector_efficiency=0.1, dark_count_prob=0.0, dead_time_s=0.0,
                      intrinsic_error=0.0)
eve = pl.EveModel.photon_number_split()
tx_basis, tx_value, record = pl.sample_link_window(lossy, phase, 400_000, rng_seed=5, eve=eve)
alice, bob, _ = sift_bb84_events(tx_basis, tx_value, record)
tally = record.eve_tally
print(f"  multi-photon pulses: {tally.multi_photon_emissions:,}, "
      f"bits learned by the attacker: {tally.learned_bits:,}")
print(f"  singles she suppressed inside her loss budget: "
      f"{tally.suppressed_singles:,}")
print(f"  induced QBER: {float(np.mean(alice != bob)) if alice.size else 0.0:.4f} "
      f"(she hides in the channel loss)")

print("\n=== Phase drift and the training-frame feedback loop ===")
import math
state = pl.PhaseState(phase_error_rad=1.2, feedback_gain=0.5)
print(f"  start at {state.phase_error_rad:+.3f} rad "
      f"(error contribution {(1 - math.cos(state.phase_error_rad)) / 2:.3f})")
for step in range(8):
    q = (1 - math.cos(state.phase_error_rad)) / 2
    state = pl.apply_training_feedback(state, min(q, 0.5))
    print(f"  after step {step + 1}: phase {state.phase_error_rad:+.4f} rad")
