"""Information-theoretic message authentication from one-time key material.

Each tag burns a fixed key budget: a 64-bit polynomial-hash selector plus a
64-bit one-time mask. The hash is evaluated over a prime field, so two
distinct messages collide under a random selector with probability at most
about message_length / 2^64; the mask makes the tag itself one-time.
Key consumption accounting lives in the keystore; these functions are pure.
"""

from __future__ import annotations

import hmac
import struct

TAG_BITS = 64
AUTH_KEY_BITS_PER_TAG = 2 * TAG_BITS
_PRIME = (1 << 64) - 59  # largest 64-bit prime
_TAG_MASK = (1 << TAG_BITS) - 1


def _poly_hash(selector: int, message: bytes) -> int:
    """Evaluate the message as a polynomial at the selector key, mod p.

    The message length is folded in as the leading coefficient so padding
    cannot create collisions between different-length messages. The
    coefficients are the message's 8-byte little-endian blocks, the last
    one zero-padded. Horner's rule takes four coefficients a step.
    """
    n_blocks = -(-len(message) // 8)
    blocks = struct.unpack(f"<{n_blocks}Q", message + bytes(8 * n_blocks - len(message)))
    s2 = selector * selector % _PRIME
    s3, s4 = s2 * selector % _PRIME, s2 * s2 % _PRIME
    # Leading zero coefficients leave the polynomial's value as it is.
    coeffs = iter((0,) * (-(n_blocks + 1) % 4) + (len(message),) + blocks)
    h = 0
    for c0, c1, c2, c3 in zip(coeffs, coeffs, coeffs, coeffs):
        h = (h * s4 + c0 * s3 + c1 * s2 + c2 * selector + c3) % _PRIME
    return h


def auth_tag(auth_key, message: bytes) -> bytes:
    """The 8-byte big-endian tag for ``message`` under 16 bytes of one-time
    key, packed as the keystore hands it out: selector, then mask.

    The caller is responsible for drawing ``auth_key`` from a reservoir and
    never reusing it; the same key and message always give the same tag.
    """
    if len(auth_key) != AUTH_KEY_BITS_PER_TAG // 8:
        raise ValueError(f"auth_tag needs exactly {AUTH_KEY_BITS_PER_TAG // 8} key bytes")
    key = int.from_bytes(auth_key, "big")
    return (_poly_hash(key >> TAG_BITS, message) ^ (key & _TAG_MASK)).to_bytes(8, "big")


def verify_tag(auth_key, message: bytes, tag: bytes) -> bool:
    """Recompute and compare the tags in constant time."""
    return hmac.compare_digest(auth_tag(auth_key, message), tag)
