import math

import pytest
from hypothesis import example, given, strategies as st

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


def _bisection_inverse(t):
    # the 46-step walk h_b_inv runs above the Newton cutoff, written out
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


@given(st.floats(1e-4, 0.5))
def test_entropy_roundtrips_through_inverse(x):
    assert abs(bi.h_b_inv(bi.h_b(x)) - x) < 1e-12


@given(st.floats(0.0, 0.5), st.floats(0.0, 0.5))
def test_conv_stays_between_arguments_and_half(a, b):
    c = bi.conv(a, b)
    assert max(a, b) - 1e-15 <= c <= 0.5 + 1e-15


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


def test_closed_right_endpoint():
    # beta and R extend to t = 1/2, the rest of the catalog does not
    assert feq(bi.beta(0.1, 0.5), 0.0, ab=1e-12)
    assert bi.R(0.5) == 0.0
    with pytest.raises(bi.DomainError):
        bi.psi(0.5)


def test_info_fn_dispatch():
    assert bi.info_fn("h_b") is bi.h_b
    assert bi.info_fn("mgl") is bi.mgl_phi
    assert bi.info_fn("mgl_deriv") is bi.mgl_phi_deriv
    assert bi.info_fn("kappa") is bi.kappa
    with pytest.raises(bi.DomainError):
        bi.info_fn("nope")
