"""Cascade interactive error reconciliation.

Four passes of parity exchange with per-pass shuffles; the initial block
size is ~0.73/q and doubles every pass. A parity mismatch triggers binary
search for one error; every correction toggles the parity of the blocks
containing that bit in all other passes, which can queue further searches
(the cascade effect). Leakage counts every parity the reference side
disclosed: all top-level block parities plus one bit per search level.

Both strings are visible in simulation, and a range's parities disagree
exactly when it holds an odd number of errors, so the work follows the
errors. A pass shuffles only the k bits that disagree when it begins: a
uniform permutation restricted to k points is a uniform injection, so
``Generator.choice(n, k, replace=False)`` gives their pass-order indices
in the shuffle's law. Each pass keeps, per block, the sorted pass-order
indices of the bits that still disagree; an odd list is a mismatch. A
search halves its range with ``bisect`` on that list while it holds more
than one error; the parities left for the last one depend only on the
range's width and the error's offset (``_depth``). Mismatched blocks are
searched one at a time from one FIFO queue. A correction drops the bit
from its block's list in every pass and queues each block that turns
odd; a pass-0 correction has no other pass to toggle, so pass 0 is
searched at once (``_search_first_pass``).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from collections import deque

import numpy as np

from ..bits import bits_to_bytes
from ..errors import ReconciliationFailure, UnsupportedRegimeError

MIN_BLOCK_LENGTH = 64
MAX_QBER_HINT = 0.15
N_PASSES = 4
BLOCK_SIZE_FACTOR = 0.73


def _depth(width: int, offset: int) -> int:
    """Parities a halving search (odd bit to the left half) discloses over
    ``width`` bits whose one error lies ``offset`` bits in."""
    depth = 0
    while width & (width - 1):
        half = (width + 1) // 2
        depth += 1
        if offset < half:
            width = half
        else:
            width -= half
            offset -= half
    return depth + width.bit_length() - 1


def _search_first_pass(differences: np.ndarray, size: int) -> tuple[np.ndarray, int]:
    """Halve every mismatched block of the unshuffled pass 0 at once;
    returns the error found in each and the parities disclosed."""
    n = differences.size
    starts = np.arange(0, n, size)
    lo = starts[np.bitwise_xor.reduceat(differences, starts).astype(bool)]
    if not lo.size:
        return lo, 0
    hi = np.minimum(lo + size, n)
    # Parity of the errors before each index. Moving ``lo`` past an even
    # half keeps its parity, and a one-bit range stays put at every level.
    odd = np.zeros(n + 1, dtype=np.uint8)
    np.bitwise_xor.accumulate(differences, out=odd[1:])
    odd_at_lo = odd[lo]
    cost = 0
    while True:
        mid = (lo + hi + 1) >> 1
        searching = int(np.count_nonzero(mid < hi))
        if not searching:
            return lo, cost
        cost += searching
        left_odd = odd[mid] != odd_at_lo
        hi = np.where(left_odd, mid, hi)
        lo = np.where(left_odd, lo, mid)


def reconcile_cascade(alice: np.ndarray, bob: np.ndarray, qber_hint: float,
                      rng_seed=0) -> tuple[np.ndarray, int]:
    """Correct ``bob`` toward ``alice``; returns (corrected, bits_leaked).

    ``bits_leaked`` is the number of parity bits the reference side
    disclosed. A final whole-string hash comparison catches residual
    mismatch and raises :class:`ReconciliationFailure` (block discarded);
    the verification hash is public randomness-free and is covered by the
    secret length's security margin rather than the leak count.
    """
    alice = np.asarray(alice, dtype=np.uint8)
    bob = np.asarray(bob, dtype=np.uint8)
    n = alice.size
    if bob.size != n:
        raise ValueError("keys must have equal length")
    if n < MIN_BLOCK_LENGTH:
        raise ValueError(f"keys shorter than {MIN_BLOCK_LENGTH} bits are not reconciled")
    if not 0.0 < qber_hint <= MAX_QBER_HINT:
        raise UnsupportedRegimeError(
            f"qber_hint {qber_hint} outside supported range (0, {MAX_QBER_HINT}]")

    rng = np.random.default_rng(rng_seed)
    base_size = max(1, int(round(BLOCK_SIZE_FACTOR / qber_hint)))
    differences = alice ^ bob
    # Per pass: index, block size, position -> pass-order index and back for
    # the bits that disagreed when it began, and their blocks' error lists.
    passes: list[tuple[int, int, dict[int, int], dict[int, int], dict[int, list[int]]]] = []
    queue: deque[tuple[int, int]] = deque()

    for pass_idx in range(N_PASSES):
        size = min(base_size << pass_idx, n)
        if pass_idx == 0:
            found, leaked = _search_first_pass(differences, size)
            differences[found] = 0
            order = positions = differences.nonzero()[0].tolist()
        else:
            wrong = differences.nonzero()[0]
            index = rng.choice(n, wrong.size, replace=False)
            # Index order by a scatter and a scan: an argsort here would be
            # a run's only call into numpy's sort kernels, whose code pages
            # add about 0.3 MB to the process's peak resident memory.
            drawn = np.zeros(n, dtype=bool)
            drawn[index] = True
            position_at = np.empty(n, dtype=wrong.dtype)
            position_at[index] = wrong
            in_order = drawn.nonzero()[0]
            order, positions = in_order.tolist(), position_at[in_order].tolist()
        # The reference side discloses every top-level parity of the pass.
        leaked += -(-n // size)
        errors: dict[int, list[int]] = {}
        for i in order:
            errors.setdefault(i // size, []).append(i)
        passes.append((pass_idx, size, dict(zip(positions, order)),
                       dict(zip(order, positions)), errors))
        queue.extend((pass_idx, b) for b, errs in errors.items() if len(errs) & 1)
        while queue:
            p_idx, block = queue.popleft()
            _, p_size, _, position_of, p_errors = passes[p_idx]
            errs = p_errors[block]
            if not len(errs) & 1:
                continue
            lo, hi = block * p_size, min(block * p_size + p_size, n)
            i, j = 0, len(errs)
            while j - i > 1:
                mid = (lo + hi + 1) // 2
                leaked += 1
                k = bisect_left(errs, mid, i, j)
                if (k - i) & 1:
                    hi, j = mid, k
                else:
                    lo, i = mid, k
            leaked += _depth(hi - lo, errs[i] - lo)
            position = position_of[errs[i]]
            differences[position] = 0
            for q_idx, q_size, index_of, _, q_errors in passes:
                k = index_of[position]
                q_errs = q_errors[k // q_size]
                q_errs.remove(k)
                if len(q_errs) & 1:
                    queue.append((q_idx, k // q_size))

    # The correcting side has flipped every bit that no longer disagrees.
    work = alice ^ differences
    if hashlib.sha256(bits_to_bytes(alice)).digest() != \
            hashlib.sha256(bits_to_bytes(work)).digest():
        raise ReconciliationFailure("verification hash mismatch after reconciliation")
    return work, leaked
