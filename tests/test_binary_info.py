import collections
import decimal
import math
import random
import sys
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from jsccbounds import binary_info as bi

# reference values computed with 50-digit arithmetic, frozen here
H_QUARTER = 0.56233514461880835
H_TENTH = 0.32508297339144824
H_FIFTH = 0.50040242353818788
HINV_03 = 0.088906269459115401
G_049 = 0.00080010669227398323
G_02 = 0.83177661667193437
KAPPA_02 = 6.5225887222397812
PHI_CAP_02 = 5.6566307676362012
BETA_01_02 = 0.072654493593232539
PHI_01_02 = 0.54951951697374045
NU_01_02 = 0.61538461538461538
PSI_02 = 4.7050532016668064
THETA_02 = 1.0902859228698368
R_02 = 0.19274475702175743
MGL_D01 = 0.47139348681009417
MGLD_01_04 = 0.57712353840481513
MGLD_AT_H = 0.62626780821294434


def feq(a, b, rel=1e-13, ab=1e-15):
    return math.isclose(a, b, rel_tol=rel, abs_tol=ab)


# ---------- frozen point values ----------


def test_entropy_values():
    assert feq(bi.h_b(0.25), H_QUARTER)
    assert feq(bi.h_b(0.1), H_TENTH)
    assert feq(bi.h_b(0.2), H_FIFTH)
    assert bi.h_b(0.0) == 0.0
    assert bi.h_b(1.0) == 0.0
    assert feq(bi.h_b(0.5), bi.NAT_LOG2, rel=1e-15)


def test_entropy_inverse_values():
    assert feq(bi.h_b_inv(0.3), HINV_03, rel=1e-12)
    assert bi.h_b_inv(0.0) == 0.0
    assert bi.h_b_inv(-1.0) == 0.0
    assert bi.h_b_inv(bi.NAT_LOG2) == 0.5
    # h_b of the mid at the answer cell's right edge is this t exactly
    assert bi.h_b_inv(0.5209097113396619) == 0.21531166044803385
    # tiny overshoot is absorbed, a real overshoot is rejected
    assert bi.h_b_inv(bi.NAT_LOG2 + 1e-13) == 0.5
    with pytest.raises(bi.DomainError):
        bi.h_b_inv(bi.NAT_LOG2 + 1e-9)
    with pytest.raises(bi.DomainError):
        bi.h_b_inv(math.nan)


def test_catalog_values():
    assert feq(bi.g(0.49), G_049, rel=1e-12)
    assert feq(bi.g(0.2), G_02)
    assert feq(bi.kappa(0.2), KAPPA_02)
    assert feq(bi.Phi(0.2), PHI_CAP_02)
    assert feq(bi.beta(0.1, 0.2), BETA_01_02)
    assert feq(bi.phi(0.1, 0.2), PHI_01_02)
    assert feq(bi.nu(0.1, 0.2), NU_01_02)
    assert feq(bi.psi(0.2), PSI_02)
    assert feq(bi.vartheta(0.2), THETA_02)
    assert feq(bi.R(0.2), R_02)


def test_mgl_values():
    assert feq(bi.mgl_phi(0.1, bi.h_b(0.1)), MGL_D01)
    assert feq(bi.mgl_phi_deriv(0.1, 0.4), MGLD_01_04, rel=1e-12)
    # at t = h_b(x) the derivative collapses to a ratio of g values
    got = bi.mgl_phi_deriv(0.1, bi.h_b(0.3))
    assert feq(got, MGLD_AT_H, rel=1e-12)
    ratio = bi.g(bi.conv(0.1, 0.3)) / bi.g(0.3)
    assert feq(got, ratio, rel=1e-12)


# ---------- structural identities ----------


def test_conv_basics():
    assert bi.conv(0.0, 0.3) == 0.3
    assert bi.conv(0.3, 0.0) == 0.3
    assert feq(bi.conv(0.5, 0.3), 0.5)
    assert feq(bi.conv(0.1, 0.2), 0.26)
    with pytest.raises(bi.DomainError):
        bi.conv(-0.1, 0.2)


def test_entropy_symmetry():
    for x in (0.03, 0.2, 0.41):
        assert feq(bi.h_b(x), bi.h_b(1.0 - x), rel=1e-15)


def test_mgl_at_zero_noise_is_identity():
    for t in (0.0, 0.1, 0.3, bi.NAT_LOG2):
        assert feq(bi.mgl_phi(0.0, t), t, rel=1e-12, ab=1e-13)


def test_h_b_prime_matches_finite_difference():
    h = 1e-6
    for x in (0.1, 0.3, 0.45):
        fd = (bi.h_b(x + h) - bi.h_b(x - h)) / (2 * h)
        assert feq(bi.h_b_prime(x), fd, rel=1e-7)


def test_kappa_is_minus_g_slope():
    h = 1e-6
    for t in (0.1, 0.25, 0.4):
        fd = (bi.g(t + h) - bi.g(t - h)) / (2 * h)
        assert feq(bi.kappa(t), -fd, rel=1e-7)


def test_phi_is_minus_beta_slope_in_t():
    h = 1e-6
    for (q, t) in ((0.1, 0.2), (0.3, 0.35), (0.05, 0.1)):
        fd = (bi.beta(q, t + h) - bi.beta(q, t - h)) / (2 * h)
        assert feq(bi.phi(q, t), -fd, rel=1e-6)


def test_psi_phi_identity():
    # psi/(1-2t) agrees with h_b_prime * Phi everywhere on the open interval
    for t in (0.05, 0.2, 0.35, 0.49):
        lhs = bi.psi(t) / (1.0 - 2.0 * t)
        rhs = bi.h_b_prime(t) * bi.Phi(t)
        assert feq(lhs, rhs, rel=1e-12)


def test_vartheta_decreasing():
    ts = [0.02 + 0.02 * i for i in range(24)]
    vals = [bi.vartheta(t) for t in ts]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_g_is_entropy_slope_product():
    for t in (0.1, 0.3, 0.45):
        assert feq(bi.g(t), (1.0 - 2.0 * t) * bi.h_b_prime(t), rel=1e-14)


# ---------- property tests ----------


@given(st.floats(1e-6, 0.6931471805599453))
def test_inverse_roundtrips_through_entropy(t):
    assert abs(bi.h_b(bi.h_b_inv(t)) - t) < 1e-11


# Below x = 2^-54, 1 - x rounds to 1 and h_b(x) is the smooth -x log x.
# Between there and the Newton cutoff, the rounding of 1 - x makes h_b jump
# by up to 2^-53 at each float step of 1 - x, so a t inside a jump has no
# float x with h_b(x) nearer than the jump.
SMOOTH_T = bi.h_b(2.0 ** -54)


@example(13.0)
@example(15.0)
@example(18.0)
@example(300.0)
@given(st.floats(12.0, 300.0))
def test_inverse_roundtrips_below_the_newton_cutoff(e):
    t = 10.0 ** -e
    x = bi.h_b_inv(t)
    if t <= SMOOTH_T:
        assert abs(bi.h_b(x) / t - 1.0) <= 1e-9
    else:
        assert abs(bi.h_b(x) - t) <= 2.0 ** -53


def test_inverse_nondecreasing_across_the_newton_cutoff():
    cut = bi._NEWTON_CUTOFF
    assert 1e-12 < cut < 2e-12
    ts = [cut * (1.0 + k * 1e-9) for k in range(-50, 51)]
    for _ in range(3):
        ts += [math.nextafter(ts[-1], 0.0), math.nextafter(ts[-1], 1.0)]
    ts += [cut, math.nextafter(cut, 0.0), math.nextafter(cut, 1.0)]
    ts.sort()
    xs = [bi.h_b_inv(t) for t in ts]
    assert all(a <= b for a, b in zip(xs, xs[1:]))
    assert bi.h_b_inv(cut) <= bi._NEWTON_EDGE < bi.h_b_inv(math.nextafter(cut, 1.0))


# (t, h_b_inv(t)) below the Newton cutoff, as float.hex, frozen from the
# earlier sub-cutoff Newton loop: a change to the loop may move a root by
# rounding, by at most 2 ulps
NEWTON_FROZEN = [
    ("0x0.0000000000001p-1022", "0x0.0p+0"),
    ("0x0.00000000002d9p-1022", "0x0.0p+0"),
    ("0x0.00000000002e3p-1022", "0x0.0000000000001p-1022"),
    ("0x0.00000000002e9p-1022", "0x0.0000000000001p-1022"),
    ("0x0.000000002e3bbp-1022", "0x0.0000000000100p-1022"),
    ("0x0.000085981479cp-1022", "0x0.0000002f0f7d7p-1022"),
    ("0x1.82079bd128aa5p-1022", "0x0.008a4ceadecf5p-1022"),
    ("0x1.16dd7e7b65a81p-1004", "0x1.968d793efd312p-1014"),
    ("0x1.56e1fc2f8f359p-997", "0x1.f783a48b000b7p-1007"),
    ("0x1.92e68eb0cb8aep-987", "0x1.2ade660ff43aep-996"),
    ("0x1.230d790e51664p-969", "0x1.b78d190227d48p-979"),
    ("0x1.a48242807747ep-952", "0x1.4354f47d5a5a3p-961"),
    ("0x1.2fc5ce57a01f8p-934", "0x1.dbd79359eaac8p-944"),
    ("0x1.b6e2f70cda924p-917", "0x1.5e441989f9d8ap-926"),
    ("0x1.3d0c73e3fa538p-899", "0x1.01ec3bcfde3cdp-908"),
    ("0x1.ca11486db86c2p-882", "0x1.7bfde0a457116p-891"),
    ("0x1.4ae7a1ec1187cp-864", "0x1.18068d574f780p-873"),
    ("0x1.de16330e7e490p-847", "0x1.9ce226531f0a5p-856"),
    ("0x1.595dd63e9155cp-829", "0x1.30842b9ea5c2ep-838"),
    ("0x1.f2fb17e3fabecp-812", "0x1.c161929b55eb1p-821"),
    ("0x1.6875d74aa626bp-794", "0x1.4bbba590a0a3dp-803"),
    ("0x1.0464e06897f82p-776", "0x1.ea0160ac09426p-786"),
    ("0x1.7836b74c8e71dp-759", "0x1.6a13b15b65a27p-768"),
    ("0x1.0fc6329ea623dp-741", "0x1.0bb01ba59d31cp-750"),
    ("0x1.88a7d79dab84bp-724", "0x1.8c07117667581p-733"),
    ("0x1.1ba6d76e79852p-706", "0x1.251e380e001ddp-715"),
    ("0x1.99d0ec29a565cp-689", "0x1.b229a7f777b17p-698"),
    ("0x1.280c5f588861fp-671", "0x1.41be296eec1c6p-680"),
    ("0x1.abb9ff0a3bc52p-654", "0x1.dd2f28d7ffa00p-663"),
    ("0x1.34fc991eca082p-636", "0x1.621c820256a67p-645"),
    ("0x1.be6b744b77d51p-619", "0x1.06fa073b4b588p-627"),
    ("0x1.427d947d3dd2ep-601", "0x1.86e69f5017293p-610"),
    ("0x1.d1ee0dda0064cp-584", "0x1.22c4e0bd834eap-592"),
    ("0x1.5095a500e2411p-566", "0x1.b0f4bd8ea3752p-575"),
    ("0x1.e64aef9d6b354p-549", "0x1.42a3afc3d26e6p-557"),
    ("0x1.5f4b64fe7295ap-531", "0x1.e157ff89956e6p-540"),
    ("0x1.fb8ba3c0729e2p-514", "0x1.6770a87326f8bp-522"),
    ("0x1.6ea5b8aa4c28ep-496", "0x1.0cb72db64fd14p-504"),
    ("0x1.08dd0f948b007p-478", "0x1.9245915f68ea7p-487"),
    ("0x1.7eabd152f05b1p-461", "0x1.2d7fc4025df4ap-469"),
    ("0x1.147063115cddcp-443", "0x1.c494a311edaa0p-452"),
    ("0x1.8f6530bfa58e7p-426", "0x1.54340664060f3p-434"),
    ("0x1.2085389e3b2f3p-408", "0x1.002709dadf0d9p-416"),
    ("0x1.a0d9acb4caf77p-391", "0x1.826d9e1e76094p-399"),
    ("0x1.2d21392ef13c8p-373", "0x1.240d45d753ee9p-381"),
    ("0x1.b311729f855b6p-356", "0x1.ba65dc2c0ee1fp-364"),
    ("0x1.3a4a4d0a592d7p-338", "0x1.4fdcc011b8c75p-346"),
    ("0x1.c6150b6a7d846p-321", "0x1.ff4bcff7ffa98p-329"),
    ("0x1.48069e8ed7f47p-303", "0x1.865010c525314p-311"),
    ("0x1.d9ed5f7d7ae2dp-286", "0x1.2aec6f1b77821p-293"),
    ("0x1.565c9d15cf217p-268", "0x1.cb8991ac6e8c6p-276"),
    ("0x1.eea3bae9baf19p-251", "0x1.62b0121ed3e51p-258"),
    ("0x1.6552fff75f104p-233", "0x1.130eac9bc9616p-240"),
    ("0x1.0220e8e27c756p-215", "0x1.acf1159267f52p-223"),
    ("0x1.74f0c9afe644fp-198", "0x1.50985050a5958p-205"),
    ("0x1.0d68e25a97e1ep-180", "0x1.0a2012064dcf2p-187"),
    ("0x1.853d4b28b0a79p-163", "0x1.a8a403685009ap-170"),
    ("0x1.192f12d79d6bep-145", "0x1.568ebeec613f1p-152"),
    ("0x1.9640272567e24p-128", "0x1.1832e3ff86843p-134"),
    ("0x1.2578fe7544decp-110", "0x1.d2a70330722c6p-117"),
    ("0x1.a80155d7dbaebp-93", "0x1.8e0231cd711d2p-99"),
    ("0x1.324c67061d938p-75", "0x1.5f20bd0b2c383p-81"),
    ("0x1.2725dd1d243acp-60", "0x1.a15d47f2a77b3p-66"),
    ("0x1.ba89289bcf36cp-58", "0x1.4618abdc3504fp-63"),
    ("0x1.203af9ee75616p-50", "0x1.e3234bf65a925p-56"),
    ("0x1.3faf4ec606ba7p-40", "0x1.3ffffffffffffp-45"),
]


def test_inverse_below_the_newton_cutoff_keeps_its_frozen_values():
    ts = [float.fromhex(t) for t, _ in NEWTON_FROZEN]
    xs = [bi.h_b_inv(t) for t in ts]
    assert ts == sorted(ts) and ts[0] == 5e-324 and ts[-1] == bi._NEWTON_CUTOFF
    for x, (_, want) in zip(xs, NEWTON_FROZEN):
        want = float.fromhex(want)
        assert abs(x - want) <= 2.0 * math.ulp(want)
    assert all(a <= b for a, b in zip(xs, xs[1:]))
    # 0.0 only where the root lies below the smallest float
    for t, x in zip(ts, xs):
        assert x > 0.0 or t < bi.h_b(5e-324)


def _bisection_inverse(t):
    # the 46-step walk whose float h_b_inv returns above the Newton cutoff,
    # written out
    lo, hi = 0.0, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if bi.h_b(mid) < t:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14:
            break
    return 0.5 * (lo + hi)


def test_inverse_above_the_newton_cutoff_is_the_bisection():
    cut = bi._NEWTON_CUTOFF
    ts = [cut * (1.0 + 1e-6 * k) for k in range(1, 200)]
    ts += [10.0 ** (-11.9 + 11.7 * k / 2000) for k in range(2000)]
    ts += [bi.NAT_LOG2 - 10.0 ** -k for k in range(1, 16)]
    t = cut
    for _ in range(50):
        t = math.nextafter(t, 1.0)
        ts.append(t)
    for t in ts:
        assert t > cut
        assert bi.h_b_inv(t) == _bisection_inverse(t)


ABOVE_CUTOFF = st.one_of(
    st.floats(bi._NEWTON_CUTOFF, bi.NAT_LOG2, exclude_min=True, exclude_max=True),
    st.floats(0.2, 11.9).map(lambda e: 10.0 ** -e),
    st.floats(1.0, 16.0).map(lambda e: bi.NAT_LOG2 - 10.0 ** -e),
)


# h of a grid mid equals this t exactly, so the mid's decision turns on
# the last bit
@example(0.5209097113396619)
@given(ABOVE_CUTOFF)
def test_inverse_is_the_bisection_everywhere_above_the_cutoff(t):
    assert bi.h_b_inv(t) == _bisection_inverse(t)


def test_inverse_is_the_bisection_at_knife_edges():
    # t = h of a grid mid, and its two float neighbours: the walk's decision
    # at that mid turns on the last bit
    rng = random.Random(2047)
    for i in range(2000):
        m = rng.randrange(6, 2 ** 46) if i % 2 else int(2.0 ** rng.uniform(2.6, 46.0))
        hm = bi.h_b(m * 2.0 ** -47)
        for t in (math.nextafter(hm, 0.0), hm, math.nextafter(hm, 1.0)):
            assert bi.h_b_inv(t) == _bisection_inverse(t)


INVERSE_TS = [0.5209097113396619, 0.3, 1e-6, 1e-11, bi.NAT_LOG2 - 1e-15]


def _spy_on_windows(monkeypatch):
    # every window h_b_inv gets
    windows, real = [], bi._proved_window
    monkeypatch.setattr(bi, "_proved_window", lambda t: windows.append(real(t)) or windows[-1])
    return windows


def test_inverse_falls_back_to_the_walk_when_the_proof_fails(monkeypatch):
    # a NaN start fails both sides of the proof, so the window is the whole
    # grid and every call makes the walk's 46 evaluations; a far start
    # fails a side or widens the window, and the answers stay the walk's
    windows = _spy_on_windows(monkeypatch)
    evals = []
    real = bi._h
    monkeypatch.setattr(bi, "_h", lambda x, log: evals.append(x) or real(x, log))
    for x0 in (math.nan, 1e-300, 0.25, 0.4999):
        monkeypatch.setattr(bi, "_start_high", lambda t, sqrt: x0)
        monkeypatch.setattr(bi, "_start_low", lambda t, log2: x0)
        for t in INVERSE_TS:
            evals.clear()
            x = bi.h_b_inv(t)
            if x0 != x0:
                assert len(evals) == 46
            assert x == _bisection_inverse(t)
    assert windows[:len(INVERSE_TS)] == [(0, 2 ** 46)] * len(INVERSE_TS)
    assert all(b - below > 2 ** 20 + 2 for below, b in windows)


@pytest.mark.parametrize("err", [1e-9, 1e-4, 1.0])
def test_inverse_replays_the_walk_through_a_wide_window(monkeypatch, err):
    # a wider window holds more mids, up to all 46 levels of the walk
    windows = _spy_on_windows(monkeypatch)
    monkeypatch.setattr(bi, "_H_ERR", err)
    for t in INVERSE_TS:
        assert bi.h_b_inv(t) == _bisection_inverse(t)
    assert None not in windows


def _walk_mids(t):
    # the mids of the 46-step walk on the integer grid, in units of 2^-47,
    # in the order the walk meets them
    lo, hi, mids = 0, 2 ** 46, []
    while hi - lo > 1:
        m = (lo + hi) >> 1
        mids.append(m)
        if bi._h(m * 2.0 ** -47, math.log) < t:
            lo = m
        else:
            hi = m
    return mids


def test_scalar_inverse_evaluates_only_the_mids_in_doubt(monkeypatch):
    # the replay starts from the block that holds the proved window, so it
    # evaluates exactly the walk's mids strictly inside (below, b), in the
    # walk's order, and settles the rest by position. Answers alone cannot
    # tell a mid at an edge evaluated from one settled: both decide alike
    rng = random.Random(46)
    ts = INVERSE_TS + [rng.uniform(bi._NEWTON_CUTOFF, bi.NAT_LOG2) for _ in range(1000)]
    ts += [10.0 ** -rng.uniform(0.2, 11.9) for _ in range(1000)]
    for _ in range(200):
        hm = bi.h_b(int(2.0 ** rng.uniform(2.6, 46.0)) * 2.0 ** -47)
        ts += [math.nextafter(hm, 0.0), hm, math.nextafter(hm, 1.0)]
    want = []
    for t in ts:
        below, b = bi._proved_window(t)
        want.append([m for m in _walk_mids(t) if below < m < b])
    got, real = [], bi._h
    monkeypatch.setattr(bi, "_h", lambda x, log: got[-1].append(int(x * 2.0 ** 47)) or real(x, log))
    for t in ts:
        got.append([])
        bi.h_b_inv(t)
    assert got == want


@given(st.floats(1e-4, 0.5))
def test_entropy_roundtrips_through_inverse(x):
    assert abs(bi.h_b_inv(bi.h_b(x)) - x) < 1e-12


@given(st.floats(0.0, 0.5), st.floats(0.0, 0.5))
def test_conv_stays_between_arguments_and_half(a, b):
    c = bi.conv(a, b)
    assert max(a, b) - 1e-15 <= c <= 0.5 + 1e-15


# both ends, 1/2 and the floats beside it, the smallest subnormal and
# normal floats, and the floats beside 1 and 2^-53
_UNIT_EDGES = [0.0, 1.0, 0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0), 5e-324,
               sys.float_info.min, math.nextafter(1.0, 0.0), 2.0 ** -53,
               math.nextafter(2.0 ** -53, 1.0)]
_UNIT = st.sampled_from(_UNIT_EDGES) | st.floats(0.0, 1.0)


def _same_float(a, b):
    # bit for bit: == alone would let 0.0 stand for -0.0
    return a.hex() == b.hex()


@settings(max_examples=500)
@given(_UNIT, _UNIT)
def test_hconv_is_h_b_of_conv_bit_for_bit(a, b):
    # _hconv inlines h_b(conv(a, b)) for the slack and the Gerber map; a
    # change to either formula must reach it too
    assert _same_float(bi._hconv(a, b), bi.h_b(bi.conv(a, b)))


# t at both ends of [_X_MIN, 1/2) and the floats beside them, and anywhere between
_T_OPEN = st.sampled_from([bi._X_MIN, math.nextafter(bi._X_MIN, 1.0),
                           math.nextafter(0.5, 0.0)]) | st.floats(bi._X_MIN, 0.5, exclude_max=True)


@settings(max_examples=500)
@given(_T_OPEN)
def test_psi_and_vartheta_are_their_products_bit_for_bit(t):
    # each checks t once and forms the product from the private formulas
    assert _same_float(bi.psi(t), bi.kappa(t) * (1.0 - 2.0 * t) / bi.g(t))
    assert _same_float(bi.vartheta(t), bi.Phi(t) * bi.R(t))


def test_hconv_is_h_b_of_conv_at_every_pair_of_edges():
    for a in _UNIT_EDGES:
        for b in _UNIT_EDGES:
            assert _same_float(bi._hconv(a, b), bi.h_b(bi.conv(a, b))), (a, b)


@given(st.floats(1e-4, 0.4999), st.floats(1e-4, 0.6921),
       st.floats(1e-4, 0.6921))
def test_mgl_midpoint_convexity(d2, t1, t2):
    mid = 0.5 * (t1 + t2)
    lhs = bi.mgl_phi(d2, mid)
    rhs = 0.5 * (bi.mgl_phi(d2, t1) + bi.mgl_phi(d2, t2))
    assert lhs <= rhs + 1e-12


@given(st.floats(1e-4, 0.4999), st.floats(1e-3, 0.69))
def test_mgl_deriv_between_zero_and_one(d2, t):
    v = bi.mgl_phi_deriv(d2, t)
    assert 0.0 < v <= 1.0 + 1e-12


@given(st.floats(0.0, 0.5), st.floats(1e-3, 0.499))
def test_beta_below_linear_upper(q, t):
    assert bi.beta(q, t) <= q * bi.g(t) + 1e-12


@given(st.floats(0.0, 0.5), st.floats(1e-3, 0.499))
def test_beta_phi_nonnegative(q, t):
    assert bi.beta(q, t) >= 0.0
    assert bi.phi(q, t) >= -1e-12
    assert 0.0 <= bi.nu(q, t) <= 1.0


@given(st.floats(1e-3, 0.499))
def test_q_zero_collapses(t):
    assert bi.beta(0.0, t) == 0.0
    assert abs(bi.phi(0.0, t)) < 1e-12


# ---------- the verify suites' array inverse ----------


def _halving_inverse_np(t):
    # the array inverse by its definition: 60 halvings of [0, 1/2] on every
    # cell, each keeping the right half where _h(mid, np.log) < t
    t = np.asarray(t, dtype=float)
    lo = np.zeros_like(t)
    hi = np.full_like(t, 0.5)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = bi._h(mid, np.log) < t
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    out = 0.5 * (lo + hi)
    out = np.where(t <= 0.0, 0.0, out)
    return np.where(t >= bi.NAT_LOG2, 0.5, out)


def _assert_bitwise(t):
    got, want = bi._hinv_np(t), _halving_inverse_np(t)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _f_lt_1_cells(step):
    # the t of every cell the f-lt-1 suite inverts at this grid step
    from jsccbounds import oracles as orc

    ax = orc._axis(step)
    rho = 1.0 + 2.0 * np.arange(1, len(ax) + 1) / len(ax)
    return bi.NAT_LOG2 - rho[:, None] * (bi.NAT_LOG2 - bi._h(ax, np.log))[None, :]


_ARRAY_INVERSE_EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1e-300, 5e-324, 1e-300,
                        1e-12, bi._NEWTON_CUTOFF, bi.NAT_LOG2,
                        math.nextafter(bi.NAT_LOG2, 0.0), math.nextafter(bi.NAT_LOG2, 1.0)]


@pytest.mark.parametrize("t", [
    pytest.param(_f_lt_1_cells(1e-2), id="f-lt-1-grid-1e-2"),
    pytest.param(np.linspace(0.0, 1.0, 20) * bi.NAT_LOG2, id="mgl-lin-t"),
    pytest.param(np.array(_ARRAY_INVERSE_EDGES), id="edges"),
    pytest.param(np.float64(0.3), id="zero-dimensional"),
])
def test_array_inverse_is_the_halving_loop_bit_for_bit(t):
    _assert_bitwise(t)


# the t bands of the verify suites and beyond, mixed within one array so
# that cells of every start level are sorted together; roots next to a
# power of two are where the halvings that can still change the answer
# run out
_T_BANDS = (st.floats(-0.1, bi.NAT_LOG2)
            | st.floats(bi.NAT_LOG2 - 1e-6, bi.NAT_LOG2)
            | st.floats(0.0, 1e-6)
            | st.builds(lambda p, k: bi.h_b(2.0 ** -p * (1.0 + k * 2.0 ** -45)),
                        st.integers(2, 40), st.integers(-3000, 3000))
            | st.sampled_from(_ARRAY_INVERSE_EDGES))


@settings(max_examples=200)
@given(st.lists(_T_BANDS, min_size=1, max_size=64))
def test_array_inverse_matches_the_halving_loop_on_every_band(ts):
    _assert_bitwise(np.array(ts))


def test_array_inverse_starts_most_cells_deep(monkeypatch):
    # the halvings a proved window settles, and those that can no longer
    # change the answer, are not made: f-lt-1's cells at grid 1e-2 take
    # about 8.3 _h evaluations each (12.9 with every cell's last ten
    # halvings; the proof itself evaluates no _h) where the loop takes 60
    cells = []
    real = bi._h
    monkeypatch.setattr(bi, "_h", lambda x, log: cells.append(np.size(x)) or real(x, log))
    t = _f_lt_1_cells(1e-2)
    bi._hinv_np(t)
    assert sum(cells) < 13 * t.size


# a fixed log-spaced sample over (cutoff, log 2), and the halvings that
# _start_np leaves its cells there, as {halvings: cells}
_STEP_SAMPLE = bi._NEWTON_CUTOFF * (bi.NAT_LOG2 / bi._NEWTON_CUTOFF) ** (np.arange(1, 2000) / 2000)
_STEP_HALVINGS = {8: 3, 9: 32, 10: 121, 11: 543, 12: 555, 13: 393, 14: 185, 15: 83, 16: 39,
                  17: 23, 18: 13, 19: 2, 20: 2, 21: 2, 22: 3}


def test_two_newton_steps_prove_narrow_windows():
    # the fitted start, one Newton step and the proof at the second: on both
    # paths one step fewer leaves the root too far for the right side's
    # proof. Every window is proved on both sides, and from t = 0.03 up it
    # holds at most two mids
    for t in _STEP_SAMPLE:
        below, b = bi._proved_window(float(t))
        assert below > 0 and b < 2 ** 46
        assert t < 0.03 or b - below <= 3
    # the array path's blocks hold the halving loop's answers, and their
    # halvings keep to the frozen histogram. A histogram, not a digest of
    # the arrays: a last-bit change in np.log, as another CPU's may make,
    # moves a window edge across a grid point in a few cells of 2,000
    lo, hi, halvings = bi._start_np(_STEP_SAMPLE.copy())
    want = _halving_inverse_np(_STEP_SAMPLE)
    assert np.all((lo <= want) & (want <= hi))
    got = collections.Counter(halvings.tolist())
    assert sum(abs(got[k] - _STEP_HALVINGS.get(k, 0)) for k in set(got) | set(_STEP_HALVINGS)) <= 8


def test_error_bounds_cover_their_derivation():
    # the forward error model above _H_ERR: with a log within L ulps,
    # |fl(_h(x)) - h(x)| <= ((2L + 3) log 2 + 1) u, u = 2^-53. _H_ERR covers a
    # libm log within 2 ulps, and _H_ERR_NP np.log within 8
    u = 2.0 ** -53
    assert bi._H_ERR >= ((2 * 2 + 3) * math.log(2) + 1) * u
    assert bi._H_ERR_NP >= ((2 * 8 + 3) * math.log(2) + 1) * u


def test_np_log_is_within_the_ulps_the_array_error_bound_assumes():
    # _H_ERR_NP rests on np.log within 8 ulps of the exact log; math.log is
    # within 1. A fixed sample of 10^5 points: log-uniform over the floats
    # in (0, 1/2], subnormals included, and uniform over [1/2, 1), where
    # _h takes log(x) and log(1 - x)
    rng = random.Random(30)
    xs = ([math.ldexp(1.0 + rng.random(), -rng.randint(2, 1074)) for _ in range(50_000)]
          + [0.5 + 0.5 * rng.random() for _ in range(50_000)])
    want = np.array([math.log(x) for x in xs])
    ulps = np.abs(np.log(np.array(xs)) - want) / np.spacing(np.abs(want))
    assert ulps.max() <= 7.0


def test_fast_logs_are_within_the_ulps_the_error_bound_assumes():
    # above the Newton cutoff h_b_inv forms fl(_h(p)) and h'(p) from
    # log2(p) log 2 and log1p(-p); _H_ERR covers logs within 2 ulps of the
    # exact ones. A fixed sample of 2,000 points p in [2^-47, 1/2), against
    # 40-digit decimal logs
    rng = random.Random(36)
    xs = ([math.ldexp(1.0 + rng.random(), -rng.randint(2, 47)) for _ in range(1000)]
          + [0.25 + 0.25 * rng.random() for _ in range(1000)])
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        for x in xs:
            for got, exact in ((math.log2(x) * bi.NAT_LOG2, Decimal(x).ln()),
                               (math.log1p(-x), (1 - Decimal(x)).ln())):
                assert abs(Decimal(got) - exact) <= 2 * Decimal(math.ulp(float(exact)))


# ---------- domains ----------


def test_domain_errors():
    with pytest.raises(bi.DomainError):
        bi.h_b(-0.1)
    with pytest.raises(bi.DomainError):
        bi.h_b(1.5)
    with pytest.raises(bi.DomainError):
        bi.g(0.0)
    with pytest.raises(bi.DomainError):
        bi.g(0.5)
    with pytest.raises(bi.DomainError):
        bi.Phi(0.5)
    with pytest.raises(bi.DomainError):
        bi.beta(0.6, 0.2)
    with pytest.raises(bi.DomainError):
        bi.beta(0.1, 0.0)
    with pytest.raises(bi.DomainError):
        bi.mgl_phi(0.6, 0.1)
    with pytest.raises(bi.DomainError):
        bi.mgl_phi(0.1, 0.7)
    with pytest.raises(bi.DomainError):
        bi.mgl_phi_deriv(0.5, 0.3)  # left endpoint excluded for the slope
    with pytest.raises(bi.DomainError):
        bi.mgl_phi_deriv(0.1, 0.0)


def test_mgl_deriv_checks_t_down_to_the_smallest_normal_root():
    # h_b_inv(t) is subnormal below h_b(_X_MIN), where h_b_prime rejects it:
    # the error names the t the caller passed, not that internal x
    with pytest.raises(bi.DomainError, match="^t must be"):
        bi.mgl_phi_deriv(0.1, 1e-306)
    t = bi.h_b(bi._X_MIN)
    with pytest.raises(bi.DomainError, match="^t must be"):
        bi.mgl_phi_deriv(0.1, math.nextafter(t, 0.0))
    for delta in (0.0, 0.1, 0.49):
        assert 0.0 < bi.mgl_phi_deriv(delta, t) <= 1.0


_LOG_RATIO_FNS = {
    "h_b_prime": bi.h_b_prime,
    "g": bi.g,
    "kappa": bi.kappa,
    "Phi": bi.Phi,
    "phi": lambda t: bi.phi(0.25, t),
    "nu": lambda t: bi.nu(0.25, t),
    "psi": bi.psi,
    "vartheta": bi.vartheta,
}


@pytest.mark.parametrize("name", _LOG_RATIO_FNS)
@pytest.mark.parametrize("t", [5e-324, 1e-310, 5.5e-309])
def test_subnormal_t_is_a_domain_error(name, t):
    # (1 - t) / t and q (1 - 2t) / t overflow here: these returned inf, 0 or
    # NaN, where h_b_prime(1e-310) is 713.80 and Phi(1e-310) about 2e304
    with pytest.raises(bi.DomainError):
        _LOG_RATIO_FNS[name](t)


@pytest.mark.parametrize("name", _LOG_RATIO_FNS)
def test_smallest_normal_t_is_finite(name):
    value = _LOG_RATIO_FNS[name](sys.float_info.min)
    assert math.isfinite(value) and value > 0.0


def test_closed_right_endpoint():
    # beta and R extend to t = 1/2, the rest of the catalog does not
    assert feq(bi.beta(0.1, 0.5), 0.0, ab=1e-12)
    assert bi.R(0.5) == 0.0
    with pytest.raises(bi.DomainError):
        bi.psi(0.5)


def _decimal_rate(t):
    # log 2 - h(t) at 80 digits: next to 1/2 the difference cancels about 32
    # of them
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        t = Decimal(t)
        return Decimal(2).ln() + t * t.ln() + (1 - t) * (1 - t).ln()


def _rel(got, exact):
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        return abs((Decimal(got) - exact) / exact)


def test_R_keeps_its_relative_accuracy_up_to_one_half():
    # t uniform on (0, 1/2), log-uniform down to 1e-300, 0.5 - 10^-u up to
    # the last floats below 1/2, and those floats themselves
    rng = random.Random(45)
    ts = [rng.uniform(0.0, 0.5) for _ in range(1500)]
    ts += [10 ** rng.uniform(-300.0, -1.0) for _ in range(300)]
    ts += [0.5 - 10 ** rng.uniform(-16.0, -0.7) for _ in range(1500)]
    ts += [0.5 - k * 2.0 ** -54 for k in range(1, 300)]
    # eval --fn R read -1.11022302463e-16 at this t, where R is 1.5e-31
    ts.append(0.4999999999999997)
    for t in ts:
        assert _rel(bi.R(t), _decimal_rate(t)) < Decimal("1e-15"), t
    assert bi.R(0.5) == 0.0


def test_R_is_nonnegative_next_to_one_half():
    rng = random.Random(45)
    ts = [rng.uniform(0.5 - 1.2e-10, 0.5) for _ in range(20000)]
    ts += [0.5 - k * 2.0 ** -54 for k in range(20000)]
    assert min(bi.R(t) for t in ts) >= 0.0


def test_vartheta_next_to_one_half_is_near_one():
    # eval --fn vartheta read -7.20575940379e+14 here; the rest of its error
    # is log((1 - t) / t)'s, in Phi
    t = 0.4999999999999997
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        L = ((1 - Decimal(t)) / Decimal(t)).ln()
        phi = 2 / ((1 - 2 * Decimal(t)) * L) + 1 / (Decimal(t) * (1 - Decimal(t)) * L * L)
        exact = phi * _decimal_rate(t)
    assert _rel(bi.vartheta(t), exact) < Decimal("1e-6")


def test_info_fn_dispatch():
    assert bi.info_fn("h_b") is bi.h_b
    assert bi.info_fn("mgl") is bi.mgl_phi
    assert bi.info_fn("mgl_deriv") is bi.mgl_phi_deriv
    assert bi.info_fn("kappa") is bi.kappa
    with pytest.raises(bi.DomainError):
        bi.info_fn("nope")
