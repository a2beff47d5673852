import cmath
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from fspair.measures import (
    FSPair,
    SummationFunction,
    TemperedMeasure,
    make_empty,
    make_guinand,
    make_meyer,
    make_poisson,
)
from fspair.nevanlinna import (
    DEFAULT_NEG_TOL,
    HolomorphicModel,
    NevMatrix,
    ap_proxy,
    bridge_rhs,
    bridge_sum,
    build_model,
    ef_coeff,
    f_integral,
    f_series,
    fit_q,
    jacobi_eigenvalues,
    neg_index,
    nev_matrix,
    recover_measure,
    recover_measure_extrapolated,
)
from fspair.qseries import guinand_coeffs


def _cot_f(z: complex) -> complex:
    """Closed form of the Poisson-pair F: (i/2) cot(pi z)."""
    return 0.5j * cmath.cos(math.pi * z) / cmath.sin(math.pi * z)


def _scaled(pair, factor):
    mu = TemperedMeasure(pair.mu.atom_locations, factor * pair.mu.atom_weights,
                         pair.mu.density, pair.mu.degree_bound,
                         pair.mu.truncation_note)
    a = SummationFunction(pair.a.lambdas, factor * pair.a.values,
                          pair.a.growth_constant)
    return FSPair(pair.name + "-scaled", mu, a, pair.antipodal,
                  pair.strip_constant)


# ---------------------------------------------------------------- series side

def test_f_series_poisson_closed_form(poisson_pair):
    val = f_series(poisson_pair, 1j)
    assert abs(val - 0.5 / math.tanh(math.pi)) < 1e-14
    for z in (0.3 + 0.8j, -1.1 + 1.5j):
        assert abs(f_series(poisson_pair, z) - _cot_f(z)) < 1e-12


def test_f_series_high_altitude_limit(poisson_pair):
    assert abs(f_series(poisson_pair, 40j) - 0.5) < 1e-15
    g = make_guinand(1.0 / 9.0, 64)
    assert abs(f_series(g, 40j)) < 1e-15  # a(0) = 0 for c > 0


def test_f_series_rejects_low_points(poisson_pair):
    with pytest.raises(ValueError):
        f_series(poisson_pair, 0.5 + 0.05j)


def test_f_series_guinand_direct_sum_oracle():
    pair = make_guinand(1.0 / 9.0, 512)
    alpha = guinand_coeffs(1.0 / 9.0, 512).coeffs
    for z in (2j, 0.7 + 1.2j):
        direct = sum(alpha[n] * cmath.exp(2j * math.pi * math.sqrt(n + 1.0 / 9.0) * z)
                     for n in range(513))
        assert abs(f_series(pair, z) - direct) < 1e-12


# ----------------------------------------------------------------- Q fitting

def test_fit_q_zero_pair():
    coef, rms = fit_q(make_empty(), 0, [complex(x, 1.0) for x in range(8)])
    assert np.allclose(coef, 0.0)
    assert rms < 1e-14


def test_fit_q_sample_validation(poisson_pair):
    with pytest.raises(ValueError):
        fit_q(poisson_pair, 0, [1j, 2j])  # too few
    with pytest.raises(ValueError):
        fit_q(poisson_pair, 0, [0.05j] * 8)  # below strip
    with pytest.raises((RuntimeError, ValueError)):
        fit_q(poisson_pair, 1, [1j + 1e-13 * n for n in range(8)])  # clustered


def test_fit_q_scaling_linearity():
    pair = make_meyer(500)
    sample = [complex(x, 1.0 + 0.13 * i) for i, x in
              enumerate(np.linspace(-1.5, 1.5, 12))]
    c1, _ = fit_q(pair, 1, sample)
    c2, _ = fit_q(_scaled(pair, 2.0), 1, sample)
    assert np.max(np.abs(c2 - 2.0 * c1)) < 1e-5


def test_build_model_degree_cap():
    model = build_model(make_poisson())
    assert model.k == 0
    assert len(model.q_poly) <= 1
    with pytest.raises(ValueError):
        HolomorphicModel(make_poisson(), 0, [1.0, 2.0, 3.0])


# ------------------------------------------------------------- integral side

def test_f_integral_zero_pair():
    model = HolomorphicModel(make_empty(), 0, np.zeros(1))
    for z in (1j, 0.5 + 0.01j, -3 + 2j):
        assert f_integral(model, z) == 0.0


def test_f_integral_below_strip_matches_cotangent(big_poisson_model):
    # the integral representation reaches below the series strip
    for z in (0.3 + 0.4j, -0.7 + 0.05j):
        assert abs(f_integral(big_poisson_model, z) - _cot_f(z)) < 1e-6


def test_f_integral_meyer_antipodal_symmetry():
    # real odd mu: the integral part obeys I(-conj z) = -conj(I(z))
    model = build_model(make_meyer(2000))
    for z in (0.7 + 0.9j, -1.2 + 0.4j, 0.3 + 2.1j):
        i1 = model.integral_part(-z.conjugate())
        i2 = model.integral_part(z)
        assert abs(i1 + i2.conjugate()) < 1e-12


def test_representation_agreement_all_builtin_pairs(poisson_model):
    pairs = [(make_poisson(), poisson_model),
             (make_guinand(1.0 / 9.0, 512), None),
             (make_meyer(2000), None)]
    for pair, model in pairs:
        if model is None:
            model = build_model(pair)
        for x in np.linspace(-2.0, 2.0, 5):
            for y in np.linspace(0.2, 4.0, 5):
                z = complex(x, y)
                s, stail = f_series(pair, z, with_error=True)
                est = (model.truncation_error_estimate(z) + stail + 1e-10
                       + model.fit_residual)
                assert abs(s - f_integral(model, z)) < 10.0 * est


# ------------------------------------------------------------ array contract

# Im z from just above the strip (0.12) to 3
_GRID = np.array([[0.3 + 0.5j, -1.1 + 0.9j, 2.7 + 0.25j, 1.7j],
                  [-0.45 + 0.3j, 1.5 + 3.0j, 0.05 + 0.15j, -2.2 + 0.6j],
                  [0.8 + 0.12j, 1.2 + 0.35j, -0.7 + 0.22j, 4.0 + 1.0j]])
_CONTRACT_PAIRS = {"poisson": make_poisson, "guinand": lambda: make_guinand(1.0 / 9.0),
                   "meyer": lambda: make_meyer(500)}


def _pointwise(fn):
    return np.array([[fn(complex(z)) for z in row] for row in _GRID])


@pytest.mark.parametrize("name", sorted(_CONTRACT_PAIRS))
def test_evaluators_on_point_arrays(name):
    pair = _CONTRACT_PAIRS[name]()
    model = build_model(pair)
    val, tail = f_series(pair, _GRID, with_error=True)
    one = _pointwise(lambda z: f_series(pair, z))
    assert val.shape == tail.shape == _GRID.shape
    assert np.all(np.abs(val - one) <= 1e-15 * np.abs(one))
    assert np.array_equal(tail, _pointwise(lambda z: f_series(pair, z, with_error=True)[1]))
    q, one = model.q_at(_GRID), _pointwise(model.q_at)
    assert q.shape == _GRID.shape
    assert np.all(np.abs(q - one) <= 1e-15 * np.abs(one))
    got, one = f_integral(model, _GRID), _pointwise(lambda z: f_integral(model, z))
    assert got.shape == _GRID.shape
    assert np.all(np.abs(got - one) <= 1e-15 * np.abs(one))


def test_f_integral_on_point_arrays_with_density(selberg_pair):
    model = HolomorphicModel(selberg_pair, 1, np.array([0.1, -0.2, 0.3]))
    got, one = f_integral(model, _GRID), _pointwise(lambda z: f_integral(model, z))
    assert got.shape == _GRID.shape
    assert np.all(np.abs(got - one) <= 1e-15 * np.abs(one))


def test_evaluators_scalar_types(poisson_pair, poisson_model):
    val, tail = f_series(poisson_pair, 0.3 + 1j, with_error=True)
    assert type(f_series(poisson_pair, 1j)) is complex and type(val) is complex
    assert type(tail) is float
    assert type(f_integral(poisson_model, 0.3 + 1j)) is complex
    assert type(poisson_model.q_at(0.3 + 1j)) is complex
    assert f_series(poisson_pair, np.zeros((0, 2)) + 1j).shape == (0, 2)


def _cquad(f, a, b):
    re, _ = quad(lambda t: f(t).real, a, b, limit=200, epsabs=1e-13, epsrel=1e-13)
    im, _ = quad(lambda t: f(t).imag, a, b, limit=200, epsabs=1e-13, epsrel=1e-13)
    return complex(re, im)


def test_integral_part_density_branch_vs_quad(selberg_pair):
    mu = selberg_pair.mu
    T = mu.truncation_radius  # the density window
    for k in (1, 2):
        model = HolomorphicModel(selberg_pair, k, np.zeros(1))
        for z in (0.4 + 0.7j, -1.1 + 1.3j, 2.5 + 0.3j):
            def kernel(t):
                return (1.0 + t * z) / ((t - z) * (1.0 + t * t) ** (k + 1))

            total = (np.sum(mu.atom_weights * kernel(mu.atom_locations))
                     + _cquad(lambda t: mu.density(t) * kernel(t), -T, T))
            oracle = (z * z + 1.0) ** k / (2j * math.pi) * total
            assert abs(model.integral_part(z) - oracle) < 1e-9


# -------------------------------------------------------- Bohr coefficients

def test_ef_coeff_poisson_support(poisson_pair):
    for lam in (0.0, 1.0, 2.0):
        v1 = ef_coeff(poisson_pair, lam, 1.0, 256.0)
        v2 = ef_coeff(poisson_pair, lam, 2.0, 256.0)
        assert abs(v1 - v2) < 1e-5  # y-independence
        target = 0.5 if lam == 0.0 else 1.0
        assert abs(v1 - target) < 1e-5


def test_ef_coeff_vanishing(poisson_pair):
    for lam in (0.5, -0.5, -1.0, -2.0):
        assert abs(ef_coeff(poisson_pair, lam, 1.0, 256.0)) < 1e-5


def _ef_coeff_panel_quadrature(pair, lam, y, T):
    """The line average by oscillation-aware 8-point Gauss-Legendre panels
    over the series side, summed term by term."""
    width = 1.0 / (4.0 * (abs(lam) + pair.a.lambda_max))
    panels = max(8, int(math.ceil(2.0 * T / width)))
    nodes, weights = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(-T, T, panels + 1)
    h = 0.5 * (edges[1] - edges[0])
    x = (0.5 * (edges[:-1] + edges[1:])[:, None] + h * nodes[None, :]).ravel()
    f = np.full(x.shape, 0.5 * pair.a.value_at(0.0), dtype=complex)
    for l, v in zip(pair.a.lambdas, pair.a.values):
        if l > 0:
            f += v * np.exp(2j * math.pi * l * (x + 1j * y))
    vals = f * np.exp(-2j * math.pi * lam * (x + 1j * y))
    return complex(h * np.sum(vals.reshape(panels, 8) @ weights) / (2.0 * T))


def test_ef_coeff_closed_form_vs_quadrature():
    pair = make_guinand(1.0 / 9.0, 64)
    for lam, y, T in ((0.37, 1.0, 16.0), (1.3, 0.5, 9.5)):
        ref = _ef_coeff_panel_quadrature(pair, lam, y, T)
        assert abs(ef_coeff(pair, lam, y, T) - ref) < 1e-10


def test_ef_coeff_validation(poisson_pair):
    with pytest.raises(ValueError):
        ef_coeff(poisson_pair, 1.0, 0.05, 64.0)
    with pytest.raises(ValueError):
        ef_coeff(poisson_pair, 1.0, 1.0, -1.0)


# ---------------------------------------------------------- measure recovery

def test_recover_poisson_unit_atom(poisson_model):
    vals, ext = recover_measure_extrapolated(poisson_model, 0.5, 1.5)
    assert abs(ext - 0.25) < 1e-3
    assert abs(vals[-1] - 0.25) < 1e-3


def test_recover_empty_interval(poisson_model):
    # contour leakage from the neighbouring atoms is O(s); gone after
    # extrapolation
    _, ext = recover_measure_extrapolated(poisson_model, 0.2, 0.8)
    assert abs(ext) < 1e-3


def test_recover_meyer_atom():
    model = build_model(make_meyer(2000))
    _, ext = recover_measure_extrapolated(model, 0.4, 0.6)
    # single atom of weight -3 at 1/2: (1/2)(-3)/(1+1/4)^2 = -0.96
    assert abs(ext - (-0.96)) < 2e-3


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("s", [1e-5, 1e-6])
def test_recover_small_s_poisson(k, s):
    # the unit atom at t0 = 1 carries 1/(2 (1+t0^2)^{k+1}); the other atoms
    # leak O(s) onto the contour
    model = build_model(make_poisson(), k=k)
    assert abs(recover_measure(model, 0.5, 1.5, s) - 1.0 / (2.0 * 2.0 ** (k + 1))) < s


def _recover_oracle(mu, k, a, b, s):
    """recover_measure's value at height s by Fubini: the contour integral of
    (1+tz)/((t-z)(1+z^2)) = 1/(t-z) + z/(1+z^2) is a difference of logs,
    then paired with mu over the window integral_part uses, by scipy quad."""
    za, zb = complex(a, s), complex(b, s)

    def kernel(t):
        c = (cmath.log(t - za) - cmath.log(t - zb)
             + 0.5 * (cmath.log(1.0 + zb * zb) - cmath.log(1.0 + za * za)))
        return (c / (2j * math.pi * (1.0 + t * t) ** (k + 1))).real

    val = sum(w.real * kernel(t) for t, w in zip(mu.atom_locations, mu.atom_weights))
    T = mu.truncation_radius
    return val + quad(lambda t: float(mu.density(t)) * kernel(t), -T, T,
                      points=[a, b], limit=500, epsabs=1e-12)[0]


@pytest.mark.parametrize("k,a,b,s", [(1, 0.5, 1.0, 1e-2), (0, 0.5, 1.0, 1e-3),
                                     (1, -1.0, 0.5, 1e-3)])
def test_recover_with_density_vs_quad(selberg_pair, k, a, b, s):
    model = HolomorphicModel(selberg_pair, k, np.zeros(1))
    val = recover_measure(model, a, b, s)
    assert abs(val - _recover_oracle(selberg_pair.mu, k, a, b, s)) < 1e-8


def _contour_oracle(model, a, b, s):
    """recover_measure's value from its definition: scipy quad along the
    contour of Re integral_part(z)/(z^2+1)^{k+1}, with the atoms between a
    and b as break points."""
    loc = model.pair.mu.atom_locations

    def integrand(x):
        z = complex(x, s)
        return (model.integral_part(z) / (z * z + 1.0) ** (model.k + 1)).real

    return quad(integrand, a, b, points=loc[(loc > a) & (loc < b)], limit=200,
                epsabs=1e-13, epsrel=1e-13)[0]


@pytest.mark.parametrize("which,k,a,b,s", [("poisson", 0, 0.5, 1.5, 1e-2),
                                           ("poisson", 1, 0.5, 1.5, 1e-3),
                                           ("selberg", 1, 0.5, 1.0, 1e-2)])
def test_recover_vs_contour_definition(selberg_pair, which, k, a, b, s):
    pair = make_poisson() if which == "poisson" else selberg_pair
    model = HolomorphicModel(pair, k, np.zeros(1))
    assert abs(recover_measure(model, a, b, s) - _contour_oracle(model, a, b, s)) < 1e-9


def test_recover_with_density_quadratures_once(selberg_pair, monkeypatch):
    from fspair import measures
    calls = []
    panels = measures._gl_panels

    def counted(*args):
        calls.append(args)
        return panels(*args)

    monkeypatch.setattr(measures, "_gl_panels", counted)
    recover_measure(HolomorphicModel(selberg_pair, 0, np.zeros(1)), -1.0, 1.5, 1e-3)
    assert len(calls) <= 50  # one density quadrature, not one per contour point


def test_integral_part_density_quadratures_once(selberg_pair, monkeypatch):
    from fspair import measures
    calls = []
    panels = measures._gl_panels

    def counted(*args):
        calls.append(args)
        return panels(*args)

    monkeypatch.setattr(measures, "_gl_panels", counted)
    z = np.linspace(-2.5, 2.5, 30) + 0.7j
    HolomorphicModel(selberg_pair, 1, np.zeros(1)).integral_part(z)
    assert len(calls) <= 50  # one density quadrature, not one per point


def test_recover_many_atoms_bounded_memory():
    import tracemalloc
    model = HolomorphicModel(make_poisson(t_max=50_000), 0, np.zeros(1))
    assert len(model.pair.mu.atom_locations) > 100_000
    tracemalloc.start()
    try:
        val = recover_measure(model, 0.5, 1.5, 1e-2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6  # the batch of contour points x atoms is chunked
    assert abs(val - 0.25) < 1e-2


def _integral_part_oracle(mu, k, z):
    """The atom part of integral_part from its definition, in complex
    arithmetic over all atoms at once, with the sum of the magnitudes of
    the split's terms |c/(t-z)| + |c t/(1+t^2)|, c = w/(1+t^2)^k, scaled
    like the value."""
    t, w = mu.atom_locations, mu.atom_weights
    zc = z[:, None]
    scale = (z * z + 1.0) ** k / (2j * math.pi)
    value = scale * (((1.0 + t * zc) / ((t - zc) * (1.0 + t * t) ** (k + 1))) @ w)
    c = np.abs(w) / (1.0 + t * t) ** k
    size = np.abs(scale) * (np.sum(c / np.abs(t - zc), axis=1)
                            + np.sum(c * np.abs(t) / (1.0 + t * t)))
    return value, size


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("n_atoms,n_points", [(100_003, 6), (1_001, 700)])
@pytest.mark.parametrize("complex_weights", [True, False])
def test_integral_part_matches_complex_kernel(k, n_atoms, n_points, complex_weights):
    # on 100003 atoms the two points with |z| = 1e3 walk every atom directly, 3
    # blocks of 2^15 and a partial one, and the others split at 8r into a near
    # slice and far moments; 1001 atoms fit one block, so 700 points go 130 at
    # a time (the last 50) over all of them
    rng = np.random.default_rng(11 + k)
    loc = np.sort(rng.uniform(-400.0, 250.0, n_atoms))
    w = rng.normal(size=n_atoms) + (1j * rng.normal(size=n_atoms) if complex_weights else 0.0)
    mu = TemperedMeasure(loc, w.astype(complex), None, 2 * k + 2)
    pair = FSPair("skewed", mu, SummationFunction(np.array([1.0]), np.array([1.0 + 0j])),
                  False, 0.1)
    z = rng.uniform(-3.0, 3.0, n_points) + 1j * rng.uniform(0.05, 4.0, n_points)
    z[:3] = [loc[7] + 2e-7 + 1e-6j, 600.0 + 800.0j, 1e3j]  # next to an atom; |z| = 1e3
    value, size = _integral_part_oracle(mu, k, z)
    model = HolomorphicModel(pair, k, np.zeros(1))
    got = model.integral_part(z)
    assert got.shape == z.shape
    assert np.all(np.abs(got - value) <= 1e-12 * size)
    for i in (0, 5):  # the same value alone as in the batch
        assert model.integral_part(z[i]) == got[i]


def test_integral_part_memory_is_blockwise():
    # a first call builds the far moments of each of its radii, also blockwise:
    # one point, then a batch with radii 1 to 1024 on a fresh model
    import tracemalloc
    pair = make_poisson(t_max=2_000_000)
    n = len(pair.mu.atom_locations)
    for z in (0.3 + 0.7j, np.array([0.3 + 0.7j, 1.5 + 1.0j, 3.0 + 2.0j, -5.0 + 5.0j, 1e3j])):
        model = HolomorphicModel(pair, 0, np.zeros(1))
        tracemalloc.start()
        try:
            model.integral_part(z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n / 2  # below half of one float64 array over the atoms


def test_real_poisson_model_holds_no_complex_copy():
    # float64 weights, and k = 0 weights c that are the measure's own array:
    # building the pair and the model peaks at four float64 arrays over the
    # atoms (locations and weights, their copies in the merge); complex
    # weights or a copy of them for c reach six
    import tracemalloc
    tracemalloc.start()
    try:
        pair = make_poisson(1e6)
        model = HolomorphicModel(pair, 0, np.zeros(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = len(pair.mu.atom_locations)
    assert peak < 5 * 8 * n
    assert model._c is pair.mu.atom_weights


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("complex_weights", [True, False])
def test_integral_part_far_field_seam(k, complex_weights):
    # more atoms than one block, so every point with 8r inside the atoms
    # splits them at |t| = 8r; heavy atoms sit exactly at 8r and at the shell
    # edges 16r for r = 1, 2, 4
    rng = np.random.default_rng(29 + k)
    edges = np.array([8.0, 16.0, 32.0, 64.0])
    loc = np.concatenate([rng.uniform(-400.0, 250.0, 40_000), edges, -edges])
    w = rng.normal(size=len(loc)) + (1j * rng.normal(size=len(loc)) if complex_weights else 0.0)
    w[-8:] = 50.0 * (1.0 + 1j if complex_weights else 1.0)
    order = np.argsort(loc)
    mu = TemperedMeasure(loc[order], w[order].astype(complex), None, 2 * k + 2)
    pair = FSPair("skewed", mu, SummationFunction(np.array([1.0]), np.array([1.0 + 0j])),
                  False, 0.1)
    above = np.nextafter(1.0, 2.0)
    z = np.array([1j, -0.6 + 0.8j, 2j, 4j, above * 1j, 2 * above * 1j, 4 * above * 1j,
                  2.0 + 1e-3j, -3.9 + 0.5j, 1e3j, 0.3 + 0.1j, 7.0 + 3.0j])
    value, size = _integral_part_oracle(mu, k, z)
    model = HolomorphicModel(pair, k, np.zeros(1))
    got = model.integral_part(z)
    assert np.all(np.abs(got - value) <= 1e-12 * size)
    # radii 1, 2, 4, 8 use far moments; |z| = 1e3 (8r past the atoms) does not
    assert sorted(model._moments) == [0, 1, 2, 3]
    alone = HolomorphicModel(pair, k, np.zeros(1))
    assert all(alone.integral_part(zi) == gi for zi, gi in zip(z, got))


@pytest.mark.parametrize("r", [1.0, 2.0, 4.0])
def test_far_expansion_reaches_rounding_at_the_seam(r):
    # heavy atoms exactly at 8r and 16r (|z/t| = 1/8 and 1/16 there) and 2^15
    # light ones far out: each shell's terms must reach rounding level, which
    # the 1e-12 bound above cannot tell from a few terms fewer
    light = np.linspace(1e5, 2e5, 1 << 15)
    loc = np.concatenate([[8.0 * r, 16.0 * r], light])
    w = np.concatenate([[1.0, -0.7], np.full(len(light), 1e-30)]).astype(complex)
    mu = TemperedMeasure(loc, w, None, 2)
    pair = FSPair("seam", mu, SummationFunction(np.array([1.0]), np.array([1.0 + 0j])),
                  False, 0.1)
    model = HolomorphicModel(pair, 0, np.zeros(1))
    z = np.array([r * 1j, r * (0.6 + 0.799j), r * (-0.28 + 0.959j)])  # |z| <= r
    value, size = _integral_part_oracle(mu, 0, z)
    assert np.all(np.abs(model.integral_part(z) - value) <= 1e-14 * size)
    assert list(model._moments) == [int(math.log2(r))]


def test_far_moments_built_once_per_radius(monkeypatch):
    builds = []
    build = HolomorphicModel._far_moments

    def counted(self, e):
        builds.append(e)
        return build(self, e)

    monkeypatch.setattr(HolomorphicModel, "_far_moments", counted)
    model = HolomorphicModel(make_poisson(t_max=2_000_000), 0, np.zeros(1))
    grid = [complex(x, y) for x in np.linspace(-2.0, 2.0, 5) for y in np.linspace(0.2, 4.0, 5)]
    values = [model.integral_part(z) for z in grid]
    assert len(builds) == len(set(builds)) == 4  # radii 1, 2, 4, 8
    assert [model.integral_part(z) for z in grid] == values
    assert len(builds) == 4


def _skewed_model(complex_weights):
    """More atoms than one block (2^15), skewed about 0, out to |t| = 400."""
    rng = np.random.default_rng(41)
    loc = np.sort(rng.uniform(-400.0, 250.0, 40_000))
    w = rng.normal(size=len(loc)) + (1j * rng.normal(size=len(loc)) if complex_weights else 0.0)
    mu = TemperedMeasure(loc, w, None, 2)
    pair = FSPair("skewed", mu, SummationFunction(np.array([1.0]), np.array([1.0 + 0j])),
                  False, 0.1)
    return HolomorphicModel(pair, 0, np.zeros(1))


@pytest.mark.parametrize("complex_weights", [True, False])
def test_radius_tables_do_not_depend_on_request_order(complex_weights):
    up, down = _skewed_model(complex_weights), _skewed_model(complex_weights)
    for model, radii in ((up, [1.0, 2.0, 4.0, 8.0]), (down, [8.0, 4.0, 2.0, 1.0])):
        for r in radii:
            model.integral_part(1j * r)  # |z| = r, so radius exponent log2 r
    assert sorted(up._moments) == sorted(down._moments) == [0, 1, 2, 3]
    for e in range(4):
        assert up._moments[e].tobytes() == down._moments[e].tobytes()


def test_shell_moments_shared_between_radii(monkeypatch):
    sweeps = []
    build = HolomorphicModel._shell_moments

    def counted(self, s, terms):
        sweeps.append(s)
        return build(self, s, terms)

    monkeypatch.setattr(HolomorphicModel, "_shell_moments", counted)
    model = _skewed_model(False)
    model._far_moments(3)  # shells 2^6 <= |t| < 2^9, the outermost atom at 400
    assert sweeps == [6, 7, 8]
    for e in (3, 2, 1, 0):  # a smaller radius needs fewer terms of a shell it shares
        sweeps.clear()
        model._far_moments(e)
        assert sweeps == ([] if e == 3 else [e + 3])
    # in ascending order a larger radius needs more terms of every shell it
    # shares (shell s keeps _far_terms(s - e - 3)), so those are swept again
    fresh = _skewed_model(False)
    for e, swept in ((0, [3, 4, 5, 6, 7, 8]), (1, [4, 5, 6, 7, 8]), (0, []), (1, [])):
        sweeps.clear()
        fresh._far_moments(e)
        assert sweeps == swept


@pytest.mark.parametrize("complex_weights", [True, False])
def test_radius_tables_match_fsum_oracle(complex_weights):
    # each table entry M_m against math.fsum of c t^-(m+1) over the far atoms
    # |t| >= 8r of the shells 8r 2^j <= |t| < 8r 2^(j+1) that keep a term m,
    # ceil(16 ln 10 / ln(8 2^j)) of them
    model = _skewed_model(complex_weights)
    t, c = model.pair.mu.atom_locations, model.pair.mu.atom_weights
    for e in range(4):
        table = model._far_moments(e)
        far = np.abs(t) >= 8.0 * 2.0 ** e
        tf, cf = t[far], c[far]
        j = np.frexp(np.abs(tf) / (8.0 * 2.0 ** e))[1] - 1  # floor of log2, exactly
        keeps = np.array([math.ceil(16.0 * math.log(10.0) / math.log(8.0 * 2.0 ** i))
                          for i in j])
        assert len(table) == keeps.max() == 18
        for m in range(len(table)):
            term = cf[keeps > m] * tf[keeps > m] ** -(m + 1.0)
            oracle = complex(math.fsum(term.real), math.fsum(np.imag(term)))
            size = math.fsum(np.abs(term))
            assert abs(table[m] - oracle) <= 1e-14 * size


def test_truncation_error_estimate_shapes(poisson_model):
    z = np.array([[0.3 + 0.5j, -1.0 + 2.0j, 4j], [1j, 2.0 + 0.1j, 0.5j]])
    empty = HolomorphicModel(make_empty(), 1, np.zeros(1))
    assert np.array_equal(empty.truncation_error_estimate(z), np.zeros(z.shape))
    assert type(empty.truncation_error_estimate(1j)) is float
    est = poisson_model.truncation_error_estimate(z)
    assert est.shape == z.shape and np.all(est > 0)
    scalars = [poisson_model.truncation_error_estimate(zi) for zi in z.ravel()]
    assert all(type(e) is float for e in scalars)
    assert est.ravel().tolist() == scalars


def test_unreached_tolerance_raises(selberg_pair):
    model = HolomorphicModel(selberg_pair, 1, np.zeros(1))
    with pytest.raises(RuntimeError, match="integral_part"):
        model.integral_part(0.3 + 1e-3j, tol=1e-30)
    with pytest.raises(RuntimeError, match="bridge_rhs"):
        bridge_rhs(selberg_pair, 1, 0.2 + 1j, 0.5 + 1e-3j, tol=1e-30)


def test_recover_validation(poisson_model):
    with pytest.raises(ValueError):
        recover_measure(poisson_model, 0.9995, 1.5, 1e-3)  # endpoint near atom
    with pytest.raises(ValueError):
        recover_measure(poisson_model, 0.4, 0.6, 0.5)  # s too large
    with pytest.raises(ValueError):
        recover_measure(poisson_model, 0.6, 0.4, 1e-3)


def test_recover_endpoint_distance_bound_is_strict(poisson_model):
    # the atom at 0 lies exactly 1e-3 from the endpoints +-1e-3, and a
    # neighbour on either side of the endpoint is checked
    near, above = 1e-3, np.nextafter(1e-3, 1.0)
    for a, b in ((near, 0.5), (-0.5, -near), (above, 0.5), (-0.5, -above)):
        assert math.isfinite(recover_measure(poisson_model, a, b, 1e-2))
    below = np.nextafter(1e-3, 0.0)
    for a, b in ((below, 0.5), (-0.5, -below), (-below, 0.5), (-0.5, below)):
        with pytest.raises(ValueError, match="within 1e-3"):
            recover_measure(poisson_model, a, b, 1e-2)


# --------------------------------------------------------- Nevanlinna matrix

def test_nev_matrix_single_point(big_poisson_model):
    for y in (0.7, 1.3):
        m = nev_matrix(big_poisson_model, [complex(0.0, y)])
        target = (0.5 / math.tanh(math.pi * y)) / y
        assert abs(m.entries[0, 0] - target) < 1e-5
        assert neg_index(m) == 0


def test_nev_matrix_hermitian(poisson_model):
    pts = [0.3 + 0.5j, -1 + 1j, 2j, 1.4 + 0.8j]
    m = nev_matrix(poisson_model, pts)
    assert np.max(np.abs(m.entries - m.entries.conj().T)) < 1e-13


def test_nev_matrix_degenerate_constant_model():
    # F = i gamma identically: the matrix vanishes, index 0
    model = HolomorphicModel(make_empty(), 0, np.array([0.7]))
    m = nev_matrix(model, [1j, 1 + 1j, -2 + 0.5j])
    assert np.max(np.abs(m.entries)) < 1e-15
    assert neg_index(m) == 0


def test_nev_matrix_rejects_near_duplicates(poisson_model):
    with pytest.raises(ValueError):
        nev_matrix(poisson_model, [1j, 1j + 1e-12])
    with pytest.raises(ValueError):
        nev_matrix(poisson_model, [1j, 1 - 1j])


def test_jacobi_vs_numpy():
    rng = np.random.default_rng(23)
    for n in (1, 2, 3, 4, 8, 9, 80, 81):
        for _ in range(5):
            B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            H = (B + B.conj().T) / 2.0
            assert np.max(np.abs(jacobi_eigenvalues(H)
                                 - np.linalg.eigvalsh(H))) < 1e-12


def test_jacobi_structured_inputs():
    assert jacobi_eigenvalues(np.zeros((0, 0))).shape == (0,)
    assert np.array_equal(jacobi_eigenvalues(np.zeros((5, 5))), np.zeros(5))
    # already diagonal: converged before the first sweep
    assert np.array_equal(jacobi_eigenvalues(np.diag([3.0, -1.0, 2.0]), max_sweeps=0),
                          [-1.0, 2.0, 3.0])
    rng = np.random.default_rng(5)
    # two interleaved blocks: every pivot between them is an exact zero
    H = np.zeros((7, 7), dtype=complex)
    for idx in ([0, 2, 4], [1, 3, 5, 6]):
        B = rng.normal(size=(len(idx), len(idx))) + 1j * rng.normal(size=(len(idx), len(idx)))
        H[np.ix_(idx, idx)] = B + B.conj().T
    assert np.max(np.abs(jacobi_eigenvalues(H) - np.linalg.eigvalsh(H))) < 1e-12
    # a triple eigenvalue
    Q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    H = Q @ np.diag([1.0, -3.0, 1.0, 2.0, 1.0]) @ Q.conj().T
    assert np.max(np.abs(jacobi_eigenvalues(H) - [-3.0, 1.0, 1.0, 1.0, 2.0])) < 1e-12
    # a 1e-299 pivot against a 1e10 diagonal gap: tau = gap/(2|a_pq|) exceeds the
    # float range, the rotation is the identity to rounding (no overflow warning)
    H = np.array([[1e10, 1e-299, 0.0], [1e-299, 0.0, 1.0], [0.0, 1.0, 0.0]])
    assert np.max(np.abs(jacobi_eigenvalues(H) - [-1.0, 1.0, 1e10]) / [1.0, 1.0, 1e10]) < 1e-12


def test_jacobi_graded_relative_accuracy():
    # D M D with M positive definite and unit-diagonal, D from 1 down to 1e-10:
    # eigenvalues down to ~1e-20, each held to high relative accuracy
    # (Demmel-Veselic), which eigvalsh does not give
    for n in (16, 17):
        rng = np.random.default_rng(n)
        B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        M = B @ B.conj().T / n + np.eye(n)
        M /= np.sqrt(np.outer(M.diagonal().real, M.diagonal().real))
        D = 10.0 ** (-10.0 * np.arange(n) / (n - 1))
        H = D[:, None] * M * D[None, :]
        with mpmath.workdps(50):
            ref = np.sort([float(x) for x in
                           mpmath.mp.eighe(mpmath.matrix(H.tolist()), eigvals_only=True)])
        assert ref[0] < 1e-19
        assert np.max(np.abs(jacobi_eigenvalues(H) - ref) / np.abs(ref)) < 1e-12


def test_jacobi_raises_when_sweeps_run_out():
    rng = np.random.default_rng(8)
    B = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
    with pytest.raises(RuntimeError, match="not converged"):
        jacobi_eigenvalues(B + B.conj().T, max_sweeps=1)


def test_jacobi_rejects_non_finite_entries():
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        H = np.eye(3, dtype=complex)
        H[0, 2] = H[2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            jacobi_eigenvalues(H)
    with pytest.raises(ValueError, match="finite"):
        neg_index(NevMatrix((1j, 2j, 3j), np.full((3, 3), np.nan + 0j)))


def test_jacobi_stops_on_measured_off_diagonal_mass(poisson_model):
    rng = np.random.default_rng(123)
    pts = [complex(x, y) for x, y in zip(rng.uniform(-2, 2, 80),
                                         rng.uniform(0.3, 3.0, 80))]
    H = nev_matrix(poisson_model, pts).entries
    ref = np.linalg.eigvalsh(H)
    err = np.max(np.abs(jacobi_eigenvalues(H) - ref)) / np.max(np.abs(ref))
    assert err < 1e-12


def test_neg_index_interlacing():
    # principal submatrix never has more negative eigenvalues than the full
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(3, 7))
        B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        H = (B + B.conj().T) / 2.0
        full = NevMatrix(tuple(1j for _ in range(n)), H)
        sub = NevMatrix(tuple(1j for _ in range(n - 1)), H[: n - 1, : n - 1])
        assert neg_index(sub) <= neg_index(full)


def test_neg_index_positive_models(poisson_model):
    rng = np.random.default_rng(99)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        pts = [complex(x, y) for x, y in zip(rng.uniform(-2, 2, n),
                                             rng.uniform(0.3, 3.0, n))]
        assert neg_index(nev_matrix(poisson_model, pts)) == 0


def _jacobi_count(H, tol_rel=DEFAULT_NEG_TOL):
    eig = jacobi_eigenvalues(H)
    return int(np.sum(eig < -tol_rel * np.max(np.abs(eig), initial=0.0)))


def test_neg_index_matches_jacobi_count_where_nonzero(poisson_model):
    # Meyer's matrices at k = 1 often have index above 0: a count that
    # always returned 0 would fail here, not on the Poisson sets
    models = {"poisson": poisson_model, "meyer": build_model(make_meyer(200), k=1)}
    for name, model in models.items():
        rng = np.random.default_rng(2024)
        counts = []
        for n in [int(rng.integers(2, 12)) for _ in range(30)] + [80]:
            pts = [complex(x, y) for x, y in zip(rng.uniform(-2, 2, n),
                                                 rng.uniform(0.3, 3.0, n))]
            m = nev_matrix(model, pts)
            counts.append(neg_index(m))
            assert counts[-1] == _jacobi_count(m.entries), (name, n)
        assert (max(counts) > 0) == (name == "meyer")


def test_neg_index_reads_the_hermitian_part():
    rng = np.random.default_rng(41)
    for n in (3, 9, 40):
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        H = Q @ np.diag(rng.uniform(-2.0, 1.0, n)) @ Q.conj().T
        H = (H + H.conj().T) / 2.0
        B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        count = neg_index(NevMatrix(tuple(1j for _ in range(n)), H))
        assert count > 0
        assert count == _jacobi_count(H)
        # rounding-sized, and large enough that one triangle alone would differ
        for scale in (1e-14, 1.0):
            skewed = H + scale * (B - B.conj().T)
            assert neg_index(NevMatrix(tuple(1j for _ in range(n)), skewed)) == count


def test_neg_index_rejects_bad_tol_rel():
    # the index of diag(1, -1) is 1; a NaN or infinite threshold would hide it
    m = NevMatrix((1j, 2j), np.diag([1.0, -1.0]).astype(complex))
    assert neg_index(m) == 1
    for bad in (math.nan, math.inf, 0.0, -1e-9):
        with pytest.raises(ValueError, match="tol_rel"):
            neg_index(m, bad)


# ----------------------------------------------------------------- bridge sum

def test_bridge_zero_pair():
    empty = make_empty()
    for T in (8.0, 64.0):
        assert bridge_sum(empty, 0, 2j, 2j, T) == 0.0
    assert bridge_rhs(empty, 0, 2j, 2j) == 0.0


def test_bridge_rhs_symmetry():
    # real mu: swapping (w, z) conjugates the integral but the 1/i prefactor
    # flips the sign, so the value is anti-conjugate under the swap
    pair = make_poisson()
    for k in (0, 1):
        for w, z in ((0.5 + 2j, -1 + 1.5j), (2j, 1 + 2.5j)):
            assert abs(bridge_rhs(pair, k, w, z)
                       + bridge_rhs(pair, k, z, w).conjugate()) < 1e-12


def test_bridge_sweep_converges():
    # k = 1 only: at k = 0 the rhs truncation error (~1/t_max) would swamp
    # the taper convergence; the k = 0 case is covered against the exact
    # cotangent oracle below
    pair = make_poisson(600, 600)
    k, w, z = 1, 0.5 + 2j, -0.3 + 1.5j
    rhs = bridge_rhs(pair, k, w, z)
    res = [abs(bridge_sum(pair, k, w, z, T) - rhs) for T in (32, 64, 128, 256)]
    assert all(b < a for a, b in zip(res, res[1:]))
    assert res[-1] < 1e-7


def test_bridge_poisson_oracle():
    # Sum_n 1/(n^2+4) = (pi/2) coth(2 pi): cotangent partial fractions
    pair = make_poisson(600, 600)
    oracle = (math.pi / 2.0) / math.tanh(2.0 * math.pi) / (2j * math.pi)
    assert abs(bridge_rhs(pair, 0, 2j, 2j) - oracle) < 1e-3  # mu truncation
    assert abs(bridge_sum(pair, 0, 2j, 2j, 512.0) - oracle) < 1e-4


def test_bridge_rhs_density_branch_vs_quad(selberg_pair):
    mu = selberg_pair.mu
    T = mu.truncation_radius  # the density window
    for k, w, z in ((1, 0.5 + 2j, -1 + 1.5j), (2, -0.2 + 0.8j, 0.3 + 1.1j)):
        def kernel(t):
            return 1.0 / ((t - z) * (t - w.conjugate()) * (1.0 + t * t) ** k)

        total = (np.sum(mu.atom_weights * kernel(mu.atom_locations))
                 + _cquad(lambda t: mu.density(t) * kernel(t), -T, T))
        oracle = total / (2.0 * math.pi ** (k + 1) * 1j)
        assert abs(bridge_rhs(selberg_pair, k, w, z) - oracle) < 1e-9


# ------------------------------------------------------------ almost periodic

def test_ap_proxy_poisson_geometric_tail(poisson_pair):
    vals = ap_proxy(poisson_pair, 1.0, [1, 2, 3])
    for N, v in zip((1, 2, 3), vals):
        bound = math.exp(-2.0 * math.pi * (N + 1)) / (1.0 - math.exp(-2.0 * math.pi))
        assert v <= bound * (1.0 + 1e-4)  # rounding headroom on the bound


def test_ap_proxy_zero_pair():
    assert ap_proxy(make_empty(), 1.0, [1, 2]) == [0.0, 0.0]


def test_ap_proxy_guinand_decreasing():
    pair = make_guinand(1.0 / 9.0, 512)
    vals = ap_proxy(pair, 0.15, [16, 64, 128])
    assert vals[0] > vals[1] >= vals[2]


def test_ap_proxy_matches_per_term_partial_sums():
    pair = make_guinand(1.0 / 9.0)
    y, x = 0.15, np.linspace(-3.0, 3.0, 301)
    pos = pair.a.lambdas > 0
    partial = np.full(x.shape, 0.5 * pair.a.value_at(0.0))
    sums = [partial]
    for lam, v in zip(pair.a.lambdas[pos], pair.a.values[pos]):
        partial = partial + v * np.exp(-2.0 * math.pi * lam * y) * np.exp(2j * math.pi * lam * x)
        sums.append(partial)
    trunc = [0, 1, 16, 64, 200, 512, 513, 600]
    for n, got in zip(trunc, ap_proxy(pair, y, trunc, x)):
        want = float(np.max(np.abs(sums[min(n, len(sums) - 1)] - sums[-1])))
        assert abs(got - want) <= 1e-14


def test_ap_proxy_rejects_negative_truncation(poisson_pair):
    with pytest.raises(ValueError, match="non-negative"):
        ap_proxy(poisson_pair, 1.0, [2, -1])


# ------------------------------------------------- algebraic identity property

def test_resolvent_splitting_identity():
    # (z^2+r^2)^m (r^2+tz) / ((r^2+t^2)^{m+1} (t-z))
    #   = 1/(t-z) - (t+z)/(r^2+t^2) sum_{j<m} ((z^2+r^2)/(r^2+t^2))^j
    #     - t (r^2+z^2)^m / (r^2+t^2)^{m+1}
    rng = np.random.default_rng(71)
    for _ in range(200):
        m = int(rng.integers(0, 5))
        r = float(rng.choice([1.0, 2.5]))
        t = float(rng.uniform(-4, 4))
        z = complex(rng.uniform(-3, 3), rng.uniform(0.2, 3))
        lhs = ((z * z + r * r) ** m * (r * r + t * z)
               / ((r * r + t * t) ** (m + 1) * (t - z)))
        ratio = (z * z + r * r) / (r * r + t * t)
        rhs = (1.0 / (t - z)
               - (t + z) / (r * r + t * t) * sum(ratio ** j for j in range(m))
               - t * (r * r + z * z) ** m / (r * r + t * t) ** (m + 1))
        assert abs(lhs - rhs) < 1e-11
