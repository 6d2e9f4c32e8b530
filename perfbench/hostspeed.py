"""Host speed: a fixed calibration kernel timed beside every measurement.

The benchmark runs on shared machines whose speed drifts by tens of
percent over tens of seconds, far more than the changes it must resolve.
Each run times this kernel right before and right after ``Engine.run()``,
and the benchmark reports that run's times scaled to a host on which the
kernel takes ``REFERENCE_S`` seconds: ``reported = measured * REFERENCE_S /
median(kernel)``.
The kernel does not touch qkdnet, so no change to the simulator moves it.
It mixes the kinds of work the simulator does: interpreter-bound loops and
dict updates, big-integer arithmetic, and small numpy array operations.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# The kernel's median time on the host the baseline was measured on.
REFERENCE_S = 0.012


def _kernel() -> int:
    rng = np.random.default_rng(12345)
    acc = 0
    table = {}
    for i in range(30000):
        table[i % 977] = table.get(i % 977, 0) + i
        acc += (i * i) % 13
    word = int.from_bytes(rng.bytes(4096), "big")
    for i in range(300):
        acc ^= (word >> i) & word
    for _ in range(30):
        bits = rng.integers(0, 2, 20000, dtype=np.uint8)
        acc += int(np.bitwise_xor.reduce(bits)) + int(np.cumsum(bits)[-1])
        acc += int(np.count_nonzero(bits[1:] != bits[:-1]))
    return acc.bit_length()


def sample(reps: int = 5) -> list:
    """Wall times of ``reps`` runs of the kernel."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        _kernel()
        times.append(perf_counter() - t0)
    return times


def factor(times: list) -> float:
    """Multiplier taking times measured beside ``times`` to the reference host."""
    return REFERENCE_S / statistics.median(times)
