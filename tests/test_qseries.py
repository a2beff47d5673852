import math

import numpy as np
import pytest

from fspair.qseries import (
    TruncatedPowerSeries,
    euler_coeffs,
    guinand_coeffs,
    r3_sequence,
    series_mul,
    series_pow,
    theta_coeffs,
)


def test_euler_small_orders():
    assert list(euler_coeffs(0).coeffs) == [1.0]
    assert list(euler_coeffs(2).coeffs) == [1.0, -1.0, -1.0]
    # pentagonal exponent 5 = k(3k-1)/2 at k=2 carries sign +1
    assert euler_coeffs(5).coeffs[5] == 1.0


def test_euler_vs_direct_product():
    n = 40
    direct = np.zeros(n + 1)
    direct[0] = 1.0
    for m in range(1, n + 1):
        new = direct.copy()
        new[m:] -= direct[: n + 1 - m]
        direct = new
    assert np.array_equal(euler_coeffs(n).coeffs, direct)


def test_series_pow_simple():
    s = TruncatedPowerSeries(0.0, [1.0, -1.0], 1)
    assert np.allclose(series_pow(s, 2.0).coeffs, [1.0, -2.0])
    geo = series_pow(TruncatedPowerSeries(0.0, [1.0, -1.0, 0.0], 2), -1.0)
    assert np.allclose(geo.coeffs, [1.0, 1.0, 1.0])


def test_series_pow_sqrt_vs_binomial_oracle():
    # sqrt(P) via the plain binomial series sum_m C(1/2,m)(P-1)^m, a wholly
    # different computation from the power recurrence
    s = euler_coeffs(4)
    direct = np.zeros(5)
    direct[0] = 1.0
    shifted = s.coeffs.copy()
    shifted[0] = 0.0  # P - 1
    term = np.zeros(5)
    term[0] = 1.0
    coef = 1.0
    for m in range(1, 5):
        term = np.convolve(term, shifted)[:5]
        coef *= (0.5 - m + 1) / m
        direct += coef * term
    assert np.allclose(series_pow(s, 0.5).coeffs, direct, atol=1e-14)


def test_series_pow_exponent_additivity():
    rng = np.random.default_rng(5)
    s = euler_coeffs(48)
    for _ in range(20):
        e1, e2 = rng.uniform(-5, 5, 2)
        p1, p2 = series_pow(s, e1), series_pow(s, e2)
        combined = series_pow(s, e1 + e2)
        product = series_mul(p1, p2)
        # error scale: the absolute-value convolution (the cancellation mass
        # inherent in the product, which float64 cannot beat)
        scale = np.maximum(1.0, np.convolve(np.abs(p1.coeffs),
                                            np.abs(p2.coeffs))[:49])
        assert np.max(np.abs(combined.coeffs - product.coeffs) / scale) < 1e-12


def test_series_pow_rejects_nonunit_constant():
    with pytest.raises(ValueError):
        series_pow(TruncatedPowerSeries(0.0, [2.0, 1.0], 1), 2.0)


def test_dilate():
    s = TruncatedPowerSeries(0.5, [1.0, 3.0, 5.0, 0.0, 0.0, 0.0], 5)
    d = s.dilate(2)
    assert d.leading_exponent == 1.0
    assert list(d.coeffs) == [1.0, 0.0, 3.0, 0.0, 5.0, 0.0]


def test_theta_coeffs():
    assert list(theta_coeffs(4).coeffs) == [1.0, 2.0, 0.0, 0.0, 2.0]
    assert theta_coeffs(9).coeffs[9] == 2.0
    assert theta_coeffs(9).coeffs[3] == 0.0


def test_guinand_alpha_formulas():
    for c in (0.0, 0.03, 1.0 / 12.0, 1.0 / 9.0, 0.125):
        alpha = guinand_coeffs(c, 2)
        assert alpha.leading_exponent == c
        assert alpha.coeffs[0] == 1.0
        assert abs(alpha.coeffs[1] + (24.0 * c - 2.0)) < 1e-12
        assert abs(alpha.coeffs[2] - (288.0 * c * c - 36.0 * c)) < 1e-12


def test_guinand_c0_is_theta():
    assert np.max(np.abs(guinand_coeffs(0.0, 256).coeffs
                         - theta_coeffs(256).coeffs)) < 1e-10


def test_guinand_rejects_out_of_range_c():
    for c in (-0.01, 0.1251, 1.0):
        with pytest.raises(ValueError):
            guinand_coeffs(c, 8)


def test_guinand_hecke_growth():
    # |alpha_n| / (n+1)^{1/4} stays uniformly bounded over the c-range;
    # the constant is measured and only sanity-checked
    n = np.arange(513, dtype=float)
    K = 0.0
    for c in np.linspace(0.0, 0.125, 20):
        alpha = guinand_coeffs(float(c), 512).coeffs
        K = max(K, float(np.max(np.abs(alpha) / (n + 1.0) ** 0.25)))
    print(f"  measured Hecke constant K = {K:.3f}")
    assert np.isfinite(K)
    assert K < 10.0


def test_r3_small_values():
    r3 = r3_sequence(10).values
    assert r3[0] == 1
    assert r3[1] == 6
    assert r3[2] == 12
    assert r3[4] == 6
    assert r3[7] == 0


def test_r3_vs_brute_force():
    n_max = 60
    brute = np.zeros(n_max + 1, dtype=int)
    m = 8
    for a in range(-m, m + 1):
        for b in range(-m, m + 1):
            for c in range(-m, m + 1):
                s = a * a + b * b + c * c
                if s <= n_max:
                    brute[s] += 1
    assert np.array_equal(r3_sequence(n_max).values, brute)


def _r3_shifted_adds(n_max):
    """r3 by one shifted add of the two-square counts per square."""
    m = math.isqrt(n_max)
    sq = np.arange(-m, m + 1, dtype=np.int64) ** 2
    pair = np.bincount((sq[:, None] + sq[None, :]).ravel(), minlength=n_max + 1)[: n_max + 1]
    counts = np.zeros(n_max + 1, dtype=np.int64)
    for s in sq[m:]:
        counts[s:] += (1 if s == 0 else 2) * pair[: n_max - s + 1]
    return counts


def test_r3_vs_shifted_adds():
    for n_max in [*range(301), 10**5]:
        assert np.array_equal(r3_sequence(n_max).values, _r3_shifted_adds(n_max)), n_max


def test_r3_structure_identities():
    r3 = r3_sequence(10_000).values
    for n in range(10_001):
        m = n
        while m > 0 and m % 4 == 0:
            m //= 4
        assert (r3[n] == 0) == (m % 8 == 7)
    for n in range(2501):
        assert r3[4 * n] == r3[n]


def test_r3_partial_sums():
    r3 = r3_sequence(10_000).values
    for x in (100, 1000, 10_000):
        dev = abs(float(np.sum(r3[: x + 1])) - 4.0 / 3.0 * np.pi * x ** 1.5)
        assert dev <= 20.0 * x ** 0.8
