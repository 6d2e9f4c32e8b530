"""Entropy estimation and privacy amplification.

Two pluggable secret-length estimators:

* ``SIMPLE_SHANNON`` charges the adversary with the Shannon information of
  the observed error rate plus all public-channel leakage.
* ``MULTIPHOTON_AWARE`` additionally writes off every detection a
  photon-number-splitting attacker could explain with multi-photon
  emissions, keeping only the single-photon-attributable fraction. Under
  SARG sifting two-photon pulses do not hand the attacker the bit, so only
  three-photon-and-up emissions are written off.

Privacy amplification hashes the reconciled key with a seed-defined binary
Toeplitz matrix. Every output bit is one entry of the integer convolution
of seed and key taken mod 2, so the whole product is computed at once as
a float64 FFT convolution and rounded, with a guard that raises if the
rounding is not exact.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from ..bits import binary_entropy
from ..errors import InvalidRequestError, InvariantViolation
from ..physlink import LinkParams
from .sifting import SiftingProtocol

# Flat finite-size margin every secret length pays, in bits.
SECURITY_MARGIN_BITS = 128


class EstimatorKind(Enum):
    SIMPLE_SHANNON = "simple_shannon"
    MULTIPHOTON_AWARE = "multiphoton_aware"


def multi_photon_fraction(mean_photon_number: float, threshold: int = 2) -> float:
    """Poisson probability of emitting ``threshold`` or more photons."""
    mu = mean_photon_number
    tail = 0.0
    term = 1.0
    for k in range(threshold):
        if k > 0:
            term *= mu / k
        tail += term
    return float(-np.expm1(-mu + math.log(tail))) if tail > 0 else 1.0


def usable_fraction(kind: EstimatorKind, sifting: SiftingProtocol, link: LinkParams) -> float:
    """Share beta of the Shannon secret fraction a channel's estimator credits.

    1.0 for ``SIMPLE_SHANNON``. For ``MULTIPHOTON_AWARE`` it is the share of
    detections not explainable by multi-photon emissions (three or more
    photons under SARG sifting, two or more otherwise), clamped at zero.
    """
    if kind is EstimatorKind.SIMPLE_SHANNON:
        return 1.0
    threshold = 3 if sifting is SiftingProtocol.SARG else 2
    p_multi = multi_photon_fraction(link.mean_photon_number, threshold)
    p_click = link.click_law.q
    return 0.0 if p_click <= 0.0 else max(0.0, (p_click - p_multi) / p_click)


def secret_length(n: int, qber: float, bits_leaked: int, usable_fraction: float) -> int:
    """Secret bits distillable from ``n`` reconciled bits:
    ``floor(usable_fraction * n * (1 - h2(qber)) - bits_leaked - SECURITY_MARGIN_BITS)``,
    clamped at zero, with ``qber`` clamped to [0, 0.5].

    The one secret-length rule: the engine sizes privacy amplification with
    it and ``verify_report`` re-derives every block's ``secret_bits`` with it.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    qber = min(max(qber, 0.0), 0.5)
    usable = usable_fraction * (n * (1.0 - binary_entropy(qber)))
    return max(0, math.floor(usable - bits_leaked - SECURITY_MARGIN_BITS))


def fft_length(n: int) -> int:
    """The smallest 2^a * 3^b * 5^c that is at least ``n`` (1 for ``n <= 1``).

    numpy's FFT runs such lengths on its fast radix paths. Each odd part
    3^b * 5^c is paired with the least power of two that lifts it to ``n``.
    """
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        odd = p5
        while odd < best:
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        p5 *= 5
    return best


def privacy_amplify(key: np.ndarray, target_len: int, seed: np.ndarray) -> np.ndarray:
    """Compress ``key`` through the seed-defined binary Toeplitz matrix.

    The matrix T has ``T[i, j] = seed[i + n - 1 - j]`` for an n-bit key, so
    the seed must hold ``n + target_len - 1`` bits. Output bit i is the
    GF(2) inner product of row i with the key. Deterministic in
    (key, seed); over random seeds this is a universal hash family.
    """
    key = np.asarray(key, dtype=np.uint8)
    seed = np.asarray(seed, dtype=np.uint8)
    n = key.size
    if target_len < 0:
        raise InvalidRequestError("target_len must be non-negative")
    if target_len > n:
        raise InvalidRequestError(f"cannot stretch {n} bits to {target_len}")
    if target_len == 0:
        return np.zeros(0, dtype=np.uint8)
    if seed.size != n + target_len - 1:
        raise InvalidRequestError(
            f"seed must hold {n + target_len - 1} bits, got {seed.size}")

    # Row i's inner product is entry n-1+i of the integer convolution
    # seed * key. A circular transform of L >= len(seed) points does not
    # alias those entries; a 5-smooth L keeps numpy's FFT on its fast path.
    length = fft_length(seed.size)
    product = np.fft.rfft(seed, length) * np.fft.rfft(key, length)
    counts = np.fft.irfft(product, length)[n - 1:n - 1 + target_len]
    rounded = np.rint(counts)
    error = float(np.max(np.abs(counts - rounded)))
    if error >= 0.25:
        raise InvariantViolation(
            f"privacy amplification lost float64 exactness (error {error:.3g})")
    return (rounded.astype(np.int64) & 1).astype(np.uint8)
