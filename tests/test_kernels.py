import cmath
import math
import time

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from fspair.kernels import (
    b_coeffs,
    bspline_value,
    eval_A,
    eval_G,
    eval_Ghat,
    eval_S,
    eval_Shat,
    pf_identity_residual,
    r_poly,
)


def test_r_poly_low_orders():
    assert np.allclose(r_poly(0).coeffs, [1.0])
    assert np.allclose(r_poly(1).coeffs, [0.5, 0.5])
    assert np.allclose(r_poly(2).coeffs, [3.0 / 8.0, 3.0 / 8.0, 1.0 / 8.0])


def test_r_poly_degree_and_constant_term():
    # r_k(0) is the q^k coefficient of (1-q)^{-1/2}: (2k-1)!!/(2k)!!
    for k in range(9):
        r = r_poly(k)
        assert r.coeffs[k] != 0.0
        expect = 1.0
        for j in range(1, k + 1):
            expect *= (2 * j - 1) / (2 * j)
        assert abs(r(0.0) - expect) < 1e-13


def test_r_poly_generating_series():
    q = 0.3
    for X in (0.0, 1.0, 5.0):
        closed = math.exp((1.0 - math.sqrt(1.0 - q)) * X) / math.sqrt(1.0 - q)
        for K in (4, 6, 8):
            partial = sum(q ** k * float(r_poly(k)(X)) for k in range(K + 1))
            tail = 1.5 * sum(q ** k * float(r_poly(k)(X)) for k in range(K + 1, 17))
            assert abs(partial - closed) < 1e-8 + tail


def test_r_poly_vs_mpmath_taylor():
    # the q^k Taylor coefficients of u(q)^m / m! (1-q)^{-1/2}, u = 1 - sqrt(1-q),
    # at 30 digits: the definition of r_k, independent of its binomial form
    with mpmath.workdps(30):
        for m in range(17):
            taylor = mpmath.taylor(lambda q, m=m: (1 - mpmath.sqrt(1 - q)) ** m
                                   / mpmath.factorial(m) / mpmath.sqrt(1 - q), 0, 16)
            for k in range(m, 17):
                assert abs(r_poly(k).coeffs[m] - taylor[k]) <= 1e-15 * abs(taylor[k])


def test_r_poly_rejects_bad_k():
    with pytest.raises(ValueError):
        r_poly(-1)
    with pytest.raises(ValueError):
        r_poly(17)


def test_eval_A_closed_forms():
    for x in (0.0, 0.3, -1.7):
        assert abs(eval_A(1, x) - math.exp(-2.0 * math.pi * abs(x))) < 1e-15
    assert abs(eval_A(2, 0.0) - 1.0 / (2.0 * math.pi)) < 1e-15
    assert abs(eval_A(3, 0.0) - 3.0 / (8.0 * math.pi ** 2)) < 1e-15
    with pytest.raises(ValueError):
        eval_A(0, 1.0)


def test_eval_A_even_positive():
    for k in (1, 2, 4):
        for x in (0.1, 0.9, 2.4):
            assert eval_A(k, x) == eval_A(k, -x)
            assert eval_A(k, x) > 0.0


def test_eval_A_fourier_consistency():
    # FT of A_k must be (pi (1 + xi^2))^{-k}
    for k in range(1, 5):
        for xi in (-7.3, -1.0, 0.0, 0.5, 4.2, 10.0):
            val, _ = quad(lambda x: eval_A(k, x) * math.cos(2.0 * math.pi * x * xi),
                          -8.0, 8.0, limit=400, epsabs=1e-12, epsrel=1e-12)
            target = 1.0 / (math.pi * (1.0 + xi * xi)) ** k
            assert abs(val - target) < 1e-8


def test_bspline_basics():
    assert bspline_value(2, 0.0) == 1.0
    assert bspline_value(2, 0.5) == 0.5
    assert bspline_value(2, 1.0) == 0.0
    assert abs(bspline_value(4, 0.0) - 2.0 / 3.0) < 1e-15
    assert bspline_value(6, 3.0) == 0.0


def test_bspline_partition_of_unity():
    rng = np.random.default_rng(1)
    for n in (2, 4, 6, 8):
        for t in rng.uniform(-0.5, 0.5, 5):
            total = sum(bspline_value(n, float(t) + j) for j in range(-n, n + 1))
            assert abs(total - 1.0) < 1e-13


def _bspline_recursive(n, t):
    """The doubly recursive form of the central B-spline recurrence, the
    reference for the bottom-up evaluation (exponential cost: small n only)."""
    if abs(t) >= n / 2.0 and not (n == 1 and abs(t) == 0.5):
        return 0.0
    if n == 1:
        return 0.5 if abs(t) == 0.5 else 1.0
    return ((n / 2.0 + t) * _bspline_recursive(n - 1, t + 0.5)
            + (n / 2.0 - t) * _bspline_recursive(n - 1, t - 0.5)) / (n - 1)


def test_bspline_matches_recursion():
    rng = np.random.default_rng(5)
    for n in range(1, 13):
        ts = np.concatenate([rng.uniform(-n / 2.0 - 0.5, n / 2.0 + 0.5, 20),
                             np.arange(-n, n + 1) / 2.0])  # knots included
        ref = np.array([_bspline_recursive(n, float(t)) for t in ts])
        assert np.max(np.abs(bspline_value(n, ts) - ref)) < 1e-15


def test_bspline_partition_of_unity_up_to_k_cap():
    t = np.random.default_rng(2).uniform(-0.5, 0.5, 7)
    for k in range(17):
        n = 2 * (k + 1)
        total = sum(bspline_value(n, t + j) for j in range(-n, n + 1))
        assert np.max(np.abs(total - 1.0)) < 1e-13


def test_eval_Shat_k16_is_fast():
    t0 = time.perf_counter()
    vals = eval_Shat(16, np.linspace(-18.0, 18.0, 1001))
    assert time.perf_counter() - t0 < 1.0
    assert vals[500] == 1.0 and vals[0] == 0.0 and vals[-1] == 0.0
    assert np.all(vals >= 0.0)


def test_eval_S_Shat_basics():
    for t in (-0.7, 0.0, 0.3, 0.99):
        assert abs(eval_Shat(0, t) - max(0.0, 1.0 - abs(t))) < 1e-15
    for k in range(4):
        assert eval_Shat(k, float(k + 1)) == 0.0
        assert eval_Shat(k, -(k + 1.0)) == 0.0
        assert abs(eval_Shat(k, 0.0) - 1.0) < 1e-15
        assert abs(eval_S(k, 1.0)) < 1e-30  # sinc zero up to sin(pi) rounding
    assert abs(eval_S(1, 0.0) - 1.5) < 1e-15  # 1 / v_1 with v_1 = 2/3


def test_eval_S_Shat_fourier_pair():
    # Shat is even; compare 2 * int_0^inf S_k(x) cos(2 pi t x) dx (oscillatory
    # infinite-range quadrature) with the B-spline closed form
    for k in range(4):
        for t in (0.4, 1.2, 2.6):
            val, _ = quad(lambda x: eval_S(k, x), 0.0, np.inf,
                          weight="cos", wvar=2.0 * math.pi * t, limit=400)
            assert abs(2.0 * val - eval_Shat(k, t)) < 1e-6


def test_eval_Ghat_plug_in():
    assert abs(eval_Ghat(0, 1j, 1j, 0.0) - 1.0 / (2.0 * math.pi * 1j)) < 1e-15
    assert abs(eval_Ghat(1, 1j, 1j, 1.0) - 1.0 / (8.0 * math.pi ** 2 * 1j)) < 1e-15
    # |t|^{-2k-2} decay: t^{2k+2} Ghat approaches a constant
    for k in (0, 2):
        a = eval_Ghat(k, 1j, 2j, 1e3) * 1e3 ** (2 * k + 2)
        b = eval_Ghat(k, 1j, 2j, 2e3) * 2e3 ** (2 * k + 2)
        assert abs(a - b) < 1e-2 * abs(a)


def test_eval_G_k0_closed_form():
    w, z = 0.5 + 1j, -0.3 + 2j
    assert abs(eval_G(0, w, z, 0.0) - 1.0 / (z - w.conjugate())) < 1e-15
    assert abs(eval_G(0, 1j, 1j, 1.0) - cmath.exp(-2.0 * math.pi) / 2j) < 1e-18


def test_eval_G_convolution_oracle():
    # G_k = G_0 convolved with A_k in the frequency variable
    cases = [(1, 1.5j, 0.4 + 2j, 0.3), (2, 2j, 3j, 0.7), (2, -1 + 1j, 0.5 + 2j, 1.4)]
    for k, w, z, lam in cases:
        def re_f(t):
            return (eval_G(0, w, z, lam - t) * eval_A(k, t)).real

        def im_f(t):
            return (eval_G(0, w, z, lam - t) * eval_A(k, t)).imag

        lo, hi = lam - 7.0, lam + 7.0
        brk = [x for x in (0.0, lam) if lo < x < hi]
        re, _ = quad(re_f, lo, hi, points=brk, limit=400, epsabs=1e-12)
        im, _ = quad(im_f, lo, hi, points=brk, limit=400, epsabs=1e-12)
        assert abs(complex(re, im) - eval_G(k, w, z, lam)) < 1e-8


def test_eval_G_antisymmetry():
    rng = np.random.default_rng(8)
    for k in range(4):
        for _ in range(25):
            w = complex(rng.uniform(-2, 2), rng.uniform(0.3, 2.5))
            z = complex(rng.uniform(-2, 2), rng.uniform(0.3, 2.5))
            lam = rng.uniform(0.01, 3.0)
            assert eval_G(k, w, z, -lam) == -eval_G(k, z, w, lam).conjugate()
            # at lambda = 0 both branch formulas are live: genuine identity
            zero = eval_G(k, w, z, 0.0) + eval_G(k, z, w, 0.0).conjugate()
            assert abs(zero) < 1e-12


def test_eval_G_fourier_pair():
    grid = [complex(x, y) for x in (-2.0, 0.0, 2.0) for y in (0.5, 1.1, 1.7)]
    pairs = list(zip(grid, grid[::-1]))[:9]
    for k in range(4):
        for w, z in pairs[::3]:
            for t in (-1.3, 0.4, 2.2):
                def re_f(lam):
                    return (eval_G(k, w, z, lam)
                            * cmath.exp(-2j * math.pi * lam * t)).real

                def im_f(lam):
                    return (eval_G(k, w, z, lam)
                            * cmath.exp(-2j * math.pi * lam * t)).imag

                re, _ = quad(re_f, -14.0, 14.0, points=[0.0], limit=500, epsabs=1e-10)
                im, _ = quad(im_f, -14.0, 14.0, points=[0.0], limit=500, epsabs=1e-10)
                assert abs(complex(re, im) - eval_Ghat(k, w, z, t)) < 1e-7


def test_eval_G_array_matches_scalar():
    lam = np.array([-2.3, -0.4, 0.0, 0.4, 1.7, 6.0])
    for k in range(4):
        w, z = -0.2 + 2j, 0.3 + 1.5j
        vals = eval_G(k, w, z, lam)
        for l, v in zip(lam, vals):
            assert abs(v - eval_G(k, w, z, float(l))) <= 1e-15 * abs(v)


def test_eval_G_continuity_near_i():
    # the closed form is rejected at z = i but must be continuous approaching it
    w = 0.3 + 1.2j
    vals = [eval_G(2, w, 1j + 10.0 ** -p * (1 + 1j), 0.8) for p in (2, 3, 4, 5)]
    diffs = [abs(b - a) for a, b in zip(vals, vals[1:])]
    assert diffs[-1] < diffs[0]
    assert diffs[-1] < 1e-3


def test_eval_G_domain_errors():
    with pytest.raises(ValueError):
        eval_G(0, 1j, 1 - 1j, 0.5)
    with pytest.raises(ValueError):
        eval_G(1, 1j + 1e-9, 2j, 0.5)
    with pytest.raises(ValueError):
        eval_G(-1, 2j, 2j, 0.5)


def test_pf_identity():
    assert pf_identity_residual(1, 0.7 + 0.2j) < 1e-14
    assert pf_identity_residual(2, 1 + 2j) < 1e-10
    rng = np.random.default_rng(13)
    for k in (3, 4):
        worst = max(pf_identity_residual(
            k, complex(rng.uniform(-3, 3), rng.uniform(0.2, 3)))
            for _ in range(100))
        assert worst < 1e-10
    with pytest.raises(ValueError):
        pf_identity_residual(1, 1j)


def test_b_coeffs_match_r_poly():
    for k in (1, 2, 4):
        b = b_coeffs(k)
        r = r_poly(k - 1)
        x = 0.37
        direct = math.pi ** (1 - k) * float(r(2.0 * math.pi * x))
        via_b = sum(b[j] * x ** j for j in range(k))
        assert abs(direct - via_b) < 1e-14
