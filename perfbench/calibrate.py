"""Reference kernels that time the machine, not the package.

The shared machine the benchmark was defined on runs the same code at a
speed that drifts by up to about 2x, over seconds and for minutes at a
time, with process CPU time following wall time (the guest is not waiting
for the host; its cores run slower). Each kernel below does a fixed amount of
work of the kind one workload does, using only the standard library and
numpy, so its time tracks the machine's current speed for that kind of work
and never the code under test. run.py times a workload's kernels between its
operations and scales each operation's latency by NOMINAL_S / (time of its
kind's kernel beside it).

NOMINAL_S is each kernel's time on the defining machine (2-vCPU KVM guest,
Intel Xeon at 2.1 GHz, Python 3.11, numpy 2.4) in its fast state, so scaled
latencies read as seconds on that machine when nothing slows it down.
"""

from __future__ import annotations

import math
import subprocess
import sys
from collections import namedtuple
from fractions import Fraction

import numpy as np


class _Outside(ValueError):
    pass


def _h(x: float) -> float:
    if not 0.0 <= x <= 1.0:
        raise _Outside(x)
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _h_inv(t: float) -> float:
    lo, hi = 0.0, 0.5
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        if _h(mid) < t:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _golden(f, lo: float, hi: float, steps: int) -> float:
    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(steps):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


_Point = namedtuple("_Point", "t value q feasible")


def scalar() -> None:
    """Pure-Python scalar work shaped like a region point: a golden-section
    search over a bisection-inverted binary entropy, with raised and caught
    domain errors and a small record per evaluation, then a little exact
    Fraction arithmetic. A tight arithmetic loop alone slows down less than
    such code when the host is busy."""
    points = []
    for k in range(24):
        t0 = 0.2 + 0.025 * k

        def objective(q, t0=t0):
            try:
                x = _h_inv(t0 * (1.0 - q) + 0.05)
                v = _h(x * 0.89 + 0.11 * (1.0 - x)) - q * q
            except _Outside:
                return math.inf
            points.append(_Point(t0, v, q, v > 0.0))
            return v

        _golden(objective, 0.0, 1.0, 25)
    for _ in range(4):
        acc = Fraction(0)
        for k in range(1, 120):
            acc += Fraction(k % 7 + 1, 3 * k + 1)
            if acc > 3:
                acc -= Fraction(5, 2)
    if not points or min(p.value for p in points) >= 1.0 or acc <= 0:
        raise AssertionError("scalar kernel went out of range")


_IDX = (np.arange(1 << 15, dtype=np.int64)[:, None] * 7
        + np.arange(8, dtype=np.int64)[None, :]) % 64


def enumeration() -> None:
    """numpy table work: gather int64 rows, fold them and reduce, as the
    brute-force oracles do per chunk."""
    tab = np.arange(64, dtype=np.int64) * 3
    total = 0
    for k in range(2):
        a = tab[(_IDX + k) % 64]
        total += int(np.minimum(a, 200 - a).sum(axis=1).max())
    if total <= 0:
        raise AssertionError("enumeration kernel went out of range")


def bigint() -> None:
    """A power of a many-thousand-digit integer, the kind of product the exact
    coupling builds and reads its pmf from."""
    b = 3 ** 1800
    if (((b - 1) << 2900) + 2) ** 60 <= 0:
        raise AssertionError("bigint kernel went out of range")


def spawn(env: dict, cwd) -> None:
    """A fresh interpreter that imports numpy and exits: the start-up every
    CLI call and every benchmark process pays."""
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, cwd=cwd,
                   capture_output=True, check=True, timeout=120)


KERNELS = {"scalar": scalar, "enumeration": enumeration, "bigint": bigint,
           "spawn": spawn}
NOMINAL_S = {"scalar": 0.0085, "enumeration": 0.0072, "bigint": 0.0062,
             "spawn": 0.110}
