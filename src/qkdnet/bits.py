"""Bit-array helpers. Bits are numpy uint8 arrays holding 0/1 values."""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "random_bits",
    "bits_to_bytes",
    "binary_entropy",
    "derive_rng",
    "derive_seed",
]


def random_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` fair bits from ``ceil(n / 64)`` raw 64-bit words of ``rng``.

    Each word is read as eight little-endian bytes, so the bits do not
    depend on the host's byte order, and each byte is unpacked most
    significant bit first. The unused tail of the last word is discarded,
    so draws are not prefix-stable: ``k`` bits and then ``n - k`` more
    differ from ``n`` bits drawn at once unless ``k`` is a multiple of 64.
    """
    words = rng.bit_generator.random_raw(-(-n // 64)).astype("<u8", copy=False)
    return np.unpackbits(words.view(np.uint8), count=n)


def bits_to_bytes(bits: np.ndarray) -> bytes:
    """Pack bits big-endian into bytes, zero-padding the tail."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()


def binary_entropy(q: float) -> float:
    """Shannon entropy of a Bernoulli(q) source, in bits."""
    if q <= 0.0 or q >= 1.0:
        return 0.0
    return float(-q * np.log2(q) - (1.0 - q) * np.log2(1.0 - q))


def derive_seed(master_seed: int, *labels) -> np.random.SeedSequence:
    """Derive a reproducible, stream-independent seed from a master seed and labels.

    Labels are hashed so the derivation does not depend on call order, only on
    the (master_seed, labels) tuple. Used to give every simulated entity its
    own random stream.
    """
    words = [int(master_seed) & 0xFFFFFFFFFFFFFFFF]
    for label in labels:
        digest = hashlib.sha256(repr(label).encode("utf-8")).digest()
        words.append(int.from_bytes(digest[:8], "big"))
    return np.random.SeedSequence(words)


def derive_rng(master_seed: int, *labels) -> np.random.Generator:
    return np.random.default_rng(derive_seed(master_seed, *labels))
