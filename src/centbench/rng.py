"""Seeded random streams and deterministic sub-seed derivation.

All stochastic code in this package draws from numpy's PCG64 generator so
that a fixed 64-bit seed yields the same stream on every platform. Where one
logical seed has to feed several independent stages (graph generation, the
thief simulation, the k-path walks), sub-seeds are derived with a splitmix64
hash of the parent seed and a stage tag, so the stages never share a stream.

The graph generators make one scalar draw at a time, where numpy's cost per
call outweighs the draw itself. They draw through ``_Draws`` instead,
which reads PCG64's raw 64-bit words in blocks and computes from them the
values that ``Generator.random()`` and ``Generator.integers(high)`` would
return, value for value, so seeded graphs depend only on PCG64's raw words.
"""
from __future__ import annotations

from itertools import chain

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
_BLOCK = 1024  # raw words read per call to random_raw


def splitmix64(x: int) -> int:
    """One splitmix64 step: a 64-bit finalizing mix of the input."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, tag: str) -> int:
    """Derive an independent 64-bit sub-seed from ``seed`` and a stage tag.

    The parent seed is mixed once, then each byte of the UTF-8 encoded tag is
    folded in with a further splitmix64 step. Different tags give unrelated
    streams; the same (seed, tag) pair always gives the same sub-seed.
    """
    state = splitmix64(seed & _MASK64)
    for byte in tag.encode("utf-8"):
        state = splitmix64(state ^ byte)
    return state


def make_rng(seed: int) -> np.random.Generator:
    """Construct the package-wide PCG64 generator for a 64-bit seed."""
    return np.random.Generator(np.random.PCG64(seed & _MASK64))


class _Draws:
    """Scalar draws equal to a fresh ``make_rng(seed)``'s, from raw words.

    ``random()`` equals ``Generator.random()``: one raw word, its top 53
    bits scaled to [0, 1). ``below(high)`` equals ``Generator.integers(high)``
    for 1 <= high <= 2**32: numpy draws those by Lemire's multiply-and-reject
    method ("Fast random integer generation in an interval", ACM TOMACS
    2019) over 32-bit halves of a word, low half first, and PCG64 keeps the
    high half for the next bounded draw; ``random()`` does not touch it.
    ``below(1)`` is 0 and takes no bits, as in numpy.
    """

    __slots__ = ("_words", "_spare")

    def __init__(self, seed: int):
        bitgen = np.random.PCG64(seed & _MASK64)
        # an endless run of blocks: the lists are never the sentinel None
        self._words = chain.from_iterable(
            iter(lambda: bitgen.random_raw(_BLOCK).tolist(), None))
        self._spare = -1  # the kept high half, or -1 for none

    def random(self) -> float:
        return (next(self._words) >> 11) * (1.0 / 9007199254740992.0)

    def below(self, high: int) -> int:
        if not 1 <= high <= 1 << 32:
            raise ValueError(f"high must be in [1, 2**32], got {high}")
        if high == 1:
            return 0
        while True:
            if self._spare >= 0:
                x, self._spare = self._spare, -1
            else:
                word = next(self._words)
                x, self._spare = word & _MASK32, word >> 32
            m = x * high
            # accept unless the low half falls below 2**32 mod high (< high)
            if (m & _MASK32) >= high or (m & _MASK32) >= (1 << 32) % high:
                return m >> 32
