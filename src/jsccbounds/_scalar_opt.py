"""Deterministic scalar search helpers: golden section, seeded LCG."""

from __future__ import annotations

import math

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_min(fn, lo: float, hi: float):
    """Golden-section minimum of fn on [lo, hi] to 1e-10; returns (x, fn(x))."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > 1e-10:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    x = c if fc < fd else d
    return x, min(fc, fd)


class Lcg64:
    """64-bit linear congruential generator.

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2^64,
    uniform() maps the top 53 bits of the new state to [0, 1). Self-contained
    so that seeded searches reproduce bit-for-bit on any platform.
    """

    MULT = 6364136223846793005
    INC = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.MULT * self.state + self.INC) & self.MASK
        return self.state

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0 ** -53
