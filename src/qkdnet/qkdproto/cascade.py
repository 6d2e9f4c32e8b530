"""Cascade interactive error reconciliation.

Four passes of parity exchange with per-pass shuffles; the initial block
size is ~0.73/q and doubles every pass. A parity mismatch triggers binary
search for one error; every correction toggles the parity of the blocks
containing that bit in all other passes, which can queue further searches
(the cascade effect). Leakage counts every parity the reference side
disclosed: all top-level block parities plus one bit per search level.

In simulation both strings are visible, so the exchange is modeled as a
recorded conversation between a reference side (discloses parities of the
true string) and a correcting side (flips its own bits). A parity query
over a range disagrees exactly when the range holds an odd number of
errors, so every search reads one prefix-parity array of the two strings'
difference in pass order.

Mismatched blocks wait in one FIFO queue, and each run of consecutive
entries from one pass is searched as a batch: the blocks of a pass hold
disjoint bits, so every block steps one level at a time with numpy, and
the corrections are then applied in queue order. This gives the same
corrections, queue and leak count as searching one block at a time. The
first run of each pass is its top-level mismatched blocks; later runs are
cascade-effect requeues.
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
    """One pass's layout, and which of its blocks hold an odd number of
    errors (``differences`` is alice ^ bob at the start of the pass)."""

    def __init__(self, perm: np.ndarray, block_size: int, differences: np.ndarray):
        n = perm.size
        self.perm = perm
        self.inverse = np.empty(n, dtype=np.int64)
        self.inverse[perm] = np.arange(n, dtype=np.int64)
        self.block_size = block_size
        self.starts = np.arange(0, n, block_size, dtype=np.int64)
        self.ends = np.minimum(self.starts + block_size, n)
        # Read and toggled one block at a time, so a Python list.
        self.mismatch: list[int] = \
            np.bitwise_xor.reduceat(differences[perm], self.starts).tolist()

    def block_of(self, position: int) -> int:
        return int(self.inverse[position]) // self.block_size


def reconcile_cascade(alice: np.ndarray, bob: np.ndarray, qber_hint: float,
                      rng_seed=0) -> Tuple[np.ndarray, int]:
    """Correct ``bob`` toward ``alice``; returns (corrected, bits_leaked).

    ``bits_leaked`` is the number of parity bits the reference side
    disclosed. A final whole-string hash comparison catches residual
    mismatch and raises :class:`ReconciliationFailure` (block discarded);
    the verification hash is public randomness-free and is covered by the
    secret length's security margin rather than the leak count.
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

    def bisect(p: _Pass, blocks: list[int]) -> int:
        """Find and correct one error in each of ``blocks``, distinct
        mismatched blocks of pass ``p``, in the given order; returns the
        parities disclosed."""
        lo = p.starts[blocks]
        hi = p.ends[blocks]
        base = int(lo.min())
        span = p.perm[base:int(hi.max())]
        # Prefix parities of the disagreement in pass order. A mismatched
        # range [lo, hi) has odd[lo] != odd[hi]; the search keeps odd[lo]
        # fixed and moves whichever end keeps the range odd, so a finished
        # block (hi - lo == 1) is left as it is at every further level.
        odd = np.zeros(span.size + 1, dtype=np.uint8)
        np.bitwise_xor.accumulate(alice[span] ^ work[span], out=odd[1:])
        lo = lo - base
        hi = hi - base
        lo_parity = odd[lo]
        cost = 0
        while True:
            width = hi - lo
            searching = int(np.count_nonzero(width > 1))
            if not searching:
                break
            # One disclosed parity per block still searching at this level.
            cost += searching
            mid = lo + (width + 1) // 2
            left_odd = odd[mid] != lo_parity
            hi = np.where(left_odd, mid, hi)
            lo = np.where(left_odd, lo, mid)
        for position in p.perm[lo + base].tolist():
            work[position] ^= 1
            for q_idx, q in enumerate(passes):
                b = q.block_of(position)
                q.mismatch[b] ^= 1
                if q.mismatch[b]:
                    queue.append((q_idx, b))
        return cost

    for pass_idx in range(N_PASSES):
        block_size = min(base_size << pass_idx, n)
        perm = np.arange(n, dtype=np.int64) if pass_idx == 0 else \
            rng.permutation(n).astype(np.int64)
        p = _Pass(perm, block_size, alice ^ work)
        passes.append(p)

        # The reference side discloses every top-level parity of the pass.
        leaked += p.starts.size
        queue.extend((pass_idx, b) for b, odd in enumerate(p.mismatch) if odd)

        # Consecutive entries of one pass are searched as one batch. A
        # correction in one block of a pass toggles no other block of that
        # pass, so the batch skips exactly the entries (even blocks,
        # repeats) that popping one at a time would skip, and corrections
        # made in queue order append to the queue what one at a time would.
        while queue:
            q_idx = queue[0][0]
            q = passes[q_idx]
            run: dict[int, None] = {}
            while queue and queue[0][0] == q_idx:
                b = queue.popleft()[1]
                if q.mismatch[b]:
                    run[b] = None
            if run:
                leaked += bisect(q, list(run))

    if hashlib.sha256(bits_to_bytes(alice)).digest() != \
            hashlib.sha256(bits_to_bytes(work)).digest():
        raise ReconciliationFailure("verification hash mismatch after reconciliation")
    return work, leaked
