"""Cascade interactive error reconciliation.

Four passes of parity exchange with per-pass shuffles; the initial block
size is ~0.73/q and doubles every pass. A parity mismatch triggers binary
search for one error; every correction toggles the parity of the blocks
containing that bit in all other passes, which can queue further searches
(the cascade effect). Leakage counts every parity the reference side
disclosed: all top-level block parities plus one bit per search level.

In simulation both strings are visible, so the exchange is modeled as a
recorded conversation between a reference side (answers parity queries on
the true string, via per-pass prefix tables) and a correcting side (flips
its own bits).
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Tuple

import numpy as np

from ..bits import bits_to_bytes
from ..errors import ReconciliationFailure, UnsupportedRegimeError

MIN_BLOCK_LENGTH = 64
MAX_QBER_HINT = 0.15
N_PASSES = 4
BLOCK_SIZE_FACTOR = 0.73


class _Pass:
    """One pass's layout plus the reference side's parity prefix table."""

    def __init__(self, perm: np.ndarray, reference: np.ndarray, block_size: int):
        n = perm.size
        self.perm = perm
        self.inverse = np.empty(n, dtype=np.int64)
        self.inverse[perm] = np.arange(n, dtype=np.int64)
        self.block_size = block_size
        self.starts = np.arange(0, n, block_size, dtype=np.int64)
        self.ends = np.minimum(self.starts + block_size, n)
        # Prefix parities of the reference string in pass order; the
        # reference never changes, so every range query is O(1).
        self.prefix = np.zeros(n + 1, dtype=np.uint8)
        self.prefix[1:] = np.cumsum(reference[perm], dtype=np.int64) & 1
        self.mismatch = np.zeros(self.starts.size, dtype=bool)

    def reference_parity(self, lo: int, hi: int) -> int:
        return int(self.prefix[hi] ^ self.prefix[lo])

    def block_of(self, position: int) -> int:
        return int(self.inverse[position]) // self.block_size


def reconcile_cascade(alice: np.ndarray, bob: np.ndarray, qber_hint: float,
                      rng_seed=0) -> Tuple[np.ndarray, int]:
    """Correct ``bob`` toward ``alice``; returns (corrected, bits_leaked).

    ``bits_leaked`` is the number of parity bits the reference side
    disclosed. A final whole-string hash comparison catches residual
    mismatch and raises :class:`ReconciliationFailure` (block discarded);
    the verification hash is public randomness-free and is covered by the
    entropy estimator's security margin rather than the leak count.
    """
    alice = np.asarray(alice, dtype=np.uint8)
    work = np.asarray(bob, dtype=np.uint8).copy()
    n = alice.size
    if work.size != n:
        raise ValueError("keys must have equal length")
    if n < MIN_BLOCK_LENGTH:
        raise ValueError(f"keys shorter than {MIN_BLOCK_LENGTH} bits are not reconciled")
    if not 0.0 < qber_hint <= MAX_QBER_HINT:
        raise UnsupportedRegimeError(
            f"qber_hint {qber_hint} outside supported range (0, {MAX_QBER_HINT}]")

    rng = np.random.default_rng(rng_seed)
    base_size = max(1, int(round(BLOCK_SIZE_FACTOR / qber_hint)))
    leaked = 0
    passes: list[_Pass] = []
    queue: deque[tuple[int, int]] = deque()

    def binary_search(p: _Pass, block: int) -> int:
        """Find one error inside a mismatched block; returns leaked bits."""
        cost = 0
        lo = int(p.starts[block])
        hi = int(p.ends[block])
        while hi - lo > 1:
            mid = (lo + hi + 1) // 2
            cost += 1
            ref_left = p.reference_parity(lo, mid)
            own_left = int(np.bitwise_xor.reduce(work[p.perm[lo:mid]]))
            if ref_left != own_left:
                hi = mid
            else:
                lo = mid
        position = int(p.perm[lo])
        work[position] ^= 1
        for q_idx, q in enumerate(passes):
            b = q.block_of(position)
            q.mismatch[b] = ~q.mismatch[b]
            if q.mismatch[b]:
                queue.append((q_idx, b))
        return cost

    for pass_idx in range(N_PASSES):
        block_size = min(base_size << pass_idx, n)
        perm = np.arange(n, dtype=np.int64) if pass_idx == 0 else \
            rng.permutation(n).astype(np.int64)
        p = _Pass(perm, alice, block_size)
        passes.append(p)

        # The reference side discloses every top-level parity of the pass.
        leaked += p.starts.size
        own = np.add.reduceat(work[perm].astype(np.int64), p.starts) & 1
        ref = (p.prefix[p.ends].astype(np.int64) ^ p.prefix[p.starts]) & 1
        p.mismatch[:] = own != ref
        for b in np.flatnonzero(p.mismatch):
            queue.append((pass_idx, int(b)))

        while queue:
            q_idx, b = queue.popleft()
            if not passes[q_idx].mismatch[b]:
                continue
            leaked += binary_search(passes[q_idx], b)

    if hashlib.sha256(bits_to_bytes(alice)).digest() != \
            hashlib.sha256(bits_to_bytes(work)).digest():
        raise ReconciliationFailure("verification hash mismatch after reconciliation")
    return work, leaked
