"""Fit the start of binary_info.h_b_inv's Newton steps, and check it.

    python tools/fit_hinv_start.py

For t >= 0.1 the start is 1/2 - sqrt(S) P(S), S = log 2 - t, and below
0.1 it is t / Q(log2 t), down to the Newton cutoff ~1.1e-12. Each
polynomial is a least-squares fit on 300 Chebyshev nodes, reweighted
toward its largest errors (Lawson's iteration) so that the largest
error relative to min(x, 1/2 - x) comes out near its least. The roots
are taken to 40 digits with decimal. The script prints both coefficient
lists, highest degree last, and then the largest such error of
binary_info's own start on 2,000 further roots per band.
"""

from __future__ import annotations

import math
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from jsccbounds import binary_info as bi  # noqa: E402

SPLIT, CUT, DEG_P, DEG_Q, NODES = 0.1, 1.1e-12, 5, 7, 300


def root(t: Decimal) -> Decimal:
    """The x in (0, 1/2) with h(x) = t, to 40 digits: Newton from a float
    bisection, each step squaring the relative error."""
    lo, hi = 0.0, 0.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if bi.h_b(mid) < float(t) else (lo, mid)
    x = Decimal(0.5 * (lo + hi))
    for _ in range(5):
        lx, l1x = x.ln(), (1 - x).ln()
        x -= (-x * lx - (1 - x) * l1x - t) / (l1x - lx)
    return x


def lawson(v, y, weight, deg, domain):
    """Power-basis coefficients of the degree-deg polynomial in v whose
    largest weighted error against y comes out near its least."""
    w = weight.copy()
    for _ in range(10):
        fit = np.polynomial.Chebyshev.fit(v, y, deg, domain=domain, w=w)
        err = np.abs(fit(v) - y) * weight
        w = w * np.sqrt(err / err.max()) + 1e-3 * weight
    return fit.convert(kind=np.polynomial.Polynomial, domain=domain, window=domain).coef


def main() -> None:
    with localcontext() as ctx:
        ctx.prec = 40
        ln2 = Decimal(2).ln()
        nodes = 0.5 - 0.5 * np.cos(np.pi * (np.arange(NODES) + 0.5) / NODES)
        # P: eps / sqrt(S) against S, weighted to the error in min(x, eps)
        smax = float(ln2) - SPLIT
        S = [Decimal(float(k * smax)) for k in nodes]
        eps = [Decimal("0.5") - root(ln2 - s) for s in S]
        s = np.array([float(v) for v in S])
        e = np.array([float(v) for v in eps])
        p = lawson(s, e / np.sqrt(s), np.sqrt(s) / np.minimum(e, 0.5 - e), DEG_P, [0.0, smax])
        # Q: t / x against log2 t, weighted to the relative error in x
        a, b = math.log2(CUT), math.log2(SPLIT)
        v = a + (b - a) * nodes
        T = [Decimal(2) ** Decimal(float(k)) for k in v]
        x = np.array([float(root(t)) for t in T])
        t = np.array([float(k) for k in T])
        q = lawson(v, t / x, x / t, DEG_Q, [a, b])
        print("P", [float(c) for c in p])
        print("Q", [float(c) for c in q])
        # binary_info's start against further roots, each band's largest
        # error relative to min(x, 1/2 - x)
        high = [float(ln2) - 10.0 ** k for k in np.linspace(-15.9, math.log10(smax), 2000)]
        low = list(np.geomspace(CUT * 1.001, SPLIT * 0.999, 2000))
        for name, ts, start in (("P", high, bi._start_high), ("Q", low, bi._start_low)):
            worst = 0.0
            for tf in ts:
                r = root(Decimal(tf))
                got = start(tf, math.sqrt if name == "P" else math.log2)
                worst = max(worst, float(abs(Decimal(got) - r) / min(r, Decimal("0.5") - r)))
            print("%s: binary_info's start within %.2g of the root" % (name, worst))


if __name__ == "__main__":
    main()
