import functools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from fspair.measures import make_empty, make_poisson
from fspair.testfn import TestFunctionSpec, eval_testfn, ft_testfn, verify_pair


def test_bump_values():
    spec = TestFunctionSpec("bump")
    assert eval_testfn(spec, 1.0) == 0.0
    assert eval_testfn(spec, -1.0) == 0.0
    assert eval_testfn(spec, 1.0 + 1e-12) == 0.0
    assert abs(eval_testfn(spec, 0.0) - math.exp(-1.0)) < 1e-16
    assert eval_testfn(spec, 5.0) == 0.0


def test_bump_scale_shift():
    spec = TestFunctionSpec("bump", 2.0, 3.0)
    assert eval_testfn(spec, 1.0) == 0.0
    assert eval_testfn(spec, 5.0) == 0.0
    assert abs(eval_testfn(spec, 3.0) - math.exp(-1.0)) < 1e-16


def test_plateau_even_and_flat():
    spec = TestFunctionSpec("plateau")
    for x in (0.1, 0.37, 0.8):
        assert eval_testfn(spec, x) == eval_testfn(spec, -x)
    assert eval_testfn(spec, 0.0) == 1.0
    assert eval_testfn(spec, 0.4) == 1.0  # inside the inner radius
    assert eval_testfn(spec, 1.0) == 0.0


def test_spec_validation():
    with pytest.raises(ValueError):
        TestFunctionSpec("triangle")
    with pytest.raises(ValueError):
        TestFunctionSpec("bump", -1.0)
    with pytest.raises(ValueError):
        TestFunctionSpec("plateau", inner=0.9, outer=0.5)


def test_ft_gaussian_self_dual():
    spec = TestFunctionSpec("gaussian_diag")
    for xi in (0.0, 0.5, 1.3, -2.0):
        assert abs(ft_testfn(spec, xi, 1e-12) - math.exp(-math.pi * xi * xi)) < 1e-12


def test_ft_even_real_spec_is_real():
    for kind in ("bump", "plateau"):
        spec = TestFunctionSpec(kind, 1.7)
        for xi in (0.3, 1.1, 4.0):
            assert abs(ft_testfn(spec, xi, 1e-12).imag) < 1e-12


def test_ft_bump_at_zero_vs_trapezoid_oracle():
    spec = TestFunctionSpec("bump")
    x = np.linspace(-1.0, 1.0, 1_000_001)
    u = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    u[inside] = np.exp(-1.0 / (1.0 - x[inside] ** 2))
    oracle = 0.5 * np.sum((u[1:] + u[:-1]) * np.diff(x))  # trapezoid rule, any numpy
    assert abs(ft_testfn(spec, 0.0, 1e-12) - oracle) < 1e-10


def test_ft_dilation_translation_identities():
    unit = TestFunctionSpec("bump")
    moved = TestFunctionSpec("bump", 2.5, -1.3)
    for xi in (0.2, 0.9):
        lhs = ft_testfn(moved, xi, 1e-12)
        rhs = (2.5 * np.exp(-2j * math.pi * (-1.3) * xi)
               * ft_testfn(unit, 2.5 * xi, 1e-12))
        assert abs(lhs - rhs) < 1e-11


@pytest.mark.parametrize("kind", ["bump", "plateau"])
def test_ft_high_frequency_vs_oscillatory_quad(kind):
    # 63.9 and 64.1 lie on either side of 1/h of the first 64-panel rule,
    # where aliasing of a too coarse rule would show
    spec = TestFunctionSpec(kind)
    for nu in (0.3, 41.5, 63.9, 64.1, 150.0):
        oracle, _ = quad(lambda x: eval_testfn(spec, x), 0.0, 1.0, weight="cos",
                         wvar=2.0 * math.pi * nu, epsabs=1e-15, epsrel=1e-13, limit=200)
        assert abs(ft_testfn(spec, nu, 1e-13) - 2.0 * oracle) < 1e-12


def test_verify_poisson_bump():
    rep = verify_pair(make_poisson(), TestFunctionSpec("bump", 5.3), 1e-8)
    assert rep.abs_residual < 1e-8
    assert rep.abs_residual == abs(rep.lhs - rep.rhs)
    d = rep.to_dict()
    assert set(d) == {"pair_name", "testfn", "lhs", "rhs", "abs_residual",
                      "mu_truncation", "a_truncation", "quadrature_tol",
                      "runtime_ms", "degraded", "lhs_tail_estimate"}
    assert d["pair_name"] == "poisson"
    assert d["mu_truncation"] == 64.0


def test_verify_empty_pair():
    rep = verify_pair(make_empty(), TestFunctionSpec("bump", 2.0), 1e-10)
    assert rep.lhs == 0.0
    assert rep.rhs == 0.0


def test_verify_gaussian_gated():
    from fspair.measures import make_guinand
    with pytest.raises(ValueError):
        verify_pair(make_guinand(0.0, 16), TestFunctionSpec("gaussian_diag"), 1e-10)


def test_verify_translation_covariance():
    pair = make_poisson()
    r0 = verify_pair(pair, TestFunctionSpec("bump", 3.3, 0.0), 1e-10)
    r1 = verify_pair(pair, TestFunctionSpec("bump", 3.3, 0.4), 1e-10)
    assert r1.abs_residual < 1e-8
    assert abs(r0.abs_residual - r1.abs_residual) < 1e-8


def test_verify_antipodal_pair_real_sides():
    # antipodal pair + even real test function: both sides real
    pair = make_poisson()
    for spec in (TestFunctionSpec("bump", 4.7), TestFunctionSpec("plateau", 2.9)):
        rep = verify_pair(pair, spec, 1e-10)
        assert abs(rep.lhs.imag) < 1e-10
        assert abs(rep.rhs.imag) < 1e-15


def test_residual_linearity():
    # both sides are linear in the test function, so for two bumps evaluated
    # separately the residual of the (virtual) sum is the sum of residuals
    pair = make_poisson()
    ra = verify_pair(pair, TestFunctionSpec("bump", 3.1), 1e-11)
    rb = verify_pair(pair, TestFunctionSpec("bump", 4.4, 0.5), 1e-11)
    combined_lhs = 2.0 * ra.lhs + 3.0 * rb.lhs
    combined_rhs = 2.0 * ra.rhs + 3.0 * rb.rhs
    expect = 2.0 * (ra.lhs - ra.rhs) + 3.0 * (rb.lhs - rb.rhs)
    assert abs((combined_lhs - combined_rhs) - expect) < 1e-14


def test_verify_unreachable_tol_keeps_best_lhs():
    pair, spec = make_poisson(), TestFunctionSpec("bump", 5.3)
    good = verify_pair(pair, spec, 1e-12)
    strict = verify_pair(pair, spec, 1e-17)
    assert not good.degraded
    assert strict.degraded
    assert abs(strict.lhs - good.lhs) < 1e-10


def _cquad(f, a, b):
    re, _ = quad(lambda x: f(x).real, a, b, limit=200, epsabs=1e-13, epsrel=1e-13)
    im, _ = quad(lambda x: f(x).imag, a, b, limit=200, epsabs=1e-13, epsrel=1e-13)
    return complex(re, im)


def test_verify_density_branch_vs_quad(selberg_pair):
    spec = TestFunctionSpec("bump", 1.5, 0.2)
    lo, hi = spec.shift - spec.scale, spec.shift + spec.scale

    def bump(x):
        u = (x - spec.shift) / spec.scale
        return math.exp(-1.0 / (1.0 - u * u)) if abs(u) < 1.0 else 0.0

    @functools.lru_cache(maxsize=None)  # the outer quad asks twice per point
    def phihat(t):  # the test function's FT, by oscillatory quadrature
        opts = dict(weight="cos", wvar=2.0 * math.pi * t, epsabs=1e-13, epsrel=1e-13)
        re, _ = quad(bump, lo, hi, **opts)
        im, _ = quad(bump, lo, hi, **{**opts, "weight": "sin"})
        return complex(re, -im)

    mu = selberg_pair.mu
    T = mu.truncation_radius + 1.0  # the lhs window
    lhs = (sum(w * phihat(t) for t, w in zip(mu.atom_locations, mu.atom_weights))
           + _cquad(lambda t: mu.density(t) * phihat(t), -T, T))
    rep = verify_pair(selberg_pair, spec, 1e-10)
    assert abs(rep.lhs - lhs) < 1e-8
    assert not rep.degraded
