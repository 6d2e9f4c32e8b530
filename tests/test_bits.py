"""The one bit source: random_bits unpacks raw generator words."""

import math

import numpy as np
import pytest

from qkdnet.bits import random_bits


class _WordRng:
    """Feeds fixed 64-bit words to random_bits() through bit_generator.random_raw."""

    def __init__(self, words):
        self._words = words
        self.bit_generator = self

    def random_raw(self, size=None):
        assert size == self._words.size
        return self._words


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 4096])
def test_random_bits_length_dtype_and_values(n):
    bits = random_bits(np.random.default_rng(n), n)
    assert bits.shape == (n,)
    assert bits.dtype == np.uint8
    assert set(np.unique(bits).tolist()) <= {0, 1}


def test_random_bits_rows_are_fair_and_independent():
    # The window sampler reads one draw as rows of m bits, one row per use,
    # so every row must be a fair coin and every pair of rows unrelated.
    m = 20_000
    rows = random_bits(np.random.default_rng(2024), 7 * m).reshape(7, m)
    se = 0.5 / math.sqrt(m)
    for row in rows:
        assert abs(float(row.mean()) - 0.5) < 3 * se
    for i in range(7):
        for j in range(i + 1, 7):
            assert abs(float(np.mean(rows[i] == rows[j])) - 0.5) < 3 * se


def test_random_bits_reads_words_little_endian():
    # Bit i is bit 7 - i % 8 of byte i % 64 // 8 of word i // 64, the bytes
    # taken least significant first whatever the host's byte order.
    words = np.random.default_rng(9).bit_generator.random_raw(3)
    n = 150
    want = [(int(words[i // 64]) >> (8 * (i % 64 // 8) + 7 - i % 8)) & 1 for i in range(n)]
    assert random_bits(np.random.default_rng(9), n).tolist() == want
    for dtype in ("<u8", ">u8"):
        one = random_bits(_WordRng(np.array([1, 1 << 56], dtype=dtype)), 128)
        assert np.flatnonzero(one).tolist() == [7, 127]


def test_random_bits_discards_the_tail_of_its_last_word():
    # Two draws of 65 bits take four words; one draw of 130 takes three.
    a, b = np.random.default_rng(4), np.random.default_rng(4)
    split = np.concatenate((random_bits(a, 65), random_bits(a, 65)))
    whole = random_bits(b, 130)
    assert np.array_equal(split[:65], whole[:65])
    assert not np.array_equal(split[65:], whole[65:])
