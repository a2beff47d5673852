import cmath
import json
import math

import numpy as np
import pytest
from scipy.integrate import fixed_quad

from fspair.measures import (
    ATOM_MERGE_EPS,
    Density,
    PairSchemaError,
    SummationFunction,
    TemperedMeasure,
    antipodal_split,
    degree_probe,
    integrate_against,
    load_pair,
    make_empty,
    make_guinand,
    make_meyer,
    make_poisson,
    meyer_chi,
)
from fspair.qseries import r3_sequence


def test_poisson_builder():
    pair = make_poisson(2.0, 2.0)
    assert np.array_equal(pair.mu.atom_locations, [-2, -1, 0, 1, 2])
    assert np.all(pair.mu.atom_weights == 1.0)
    assert pair.a.value_at(0.0) == 1.0
    assert pair.antipodal
    assert pair.mu.is_real()


def test_guinand_builder():
    pair = make_guinand(1.0 / 9.0, 16)
    loc = math.sqrt(1.0 + 1.0 / 9.0)
    for t in (loc, -loc):
        idx = int(np.argmin(np.abs(pair.mu.atom_locations - t)))
        assert abs(pair.mu.atom_locations[idx] - t) < 1e-12
        assert abs(pair.mu.atom_weights[idx] - (-2.0 / 3.0)) < 1e-12
    # self-dual: a-side identical to the atom weights
    assert np.array_equal(pair.a.lambdas, pair.mu.atom_locations)
    assert np.array_equal(pair.a.values, pair.mu.atom_weights)


def test_guinand_c0_is_doubled_comb():
    pair = make_guinand(0.0, 9)
    assert np.array_equal(pair.mu.atom_locations, [-3, -2, -1, 0, 1, 2, 3])
    assert np.all(pair.mu.atom_weights == 2.0)


def test_meyer_chi():
    assert meyer_chi(1) == -0.5
    assert meyer_chi(4) == 4.0
    assert meyer_chi(16) == 0.0
    assert meyer_chi(20) == 4.0
    assert meyer_chi(48) == 0.0  # 48 is a multiple of 16
    assert meyer_chi(7) == -0.5


def test_meyer_builder():
    pair = make_meyer(20)
    w = dict(zip(pair.mu.atom_locations, pair.mu.atom_weights))
    assert abs(w[0.5] - (-3.0)) < 1e-15          # chi(1) r3(1) / 1 = -3
    assert abs(w[-0.5] - 3.0) < 1e-15            # odd measure
    assert abs(w[1.0] - 12.0) < 1e-15            # chi(4) r3(4) / 2 = 12
    assert 2.0 not in w                          # n = 16 skipped (chi = 0)
    # a = -i mu, atom by atom
    assert np.array_equal(pair.a.lambdas, pair.mu.atom_locations)
    assert np.array_equal(pair.a.values, -1j * pair.mu.atom_weights)
    assert pair.a.is_antipodal()


def test_meyer_weight_formula():
    r3 = r3_sequence(50).values
    pair = make_meyer(50)
    w = dict(zip(pair.mu.atom_locations, pair.mu.atom_weights))
    for n in range(1, 51):
        expected = meyer_chi(n) * r3[n] / math.sqrt(n)
        loc = math.sqrt(n) / 2.0
        if expected == 0.0:
            assert all(abs(l - loc) > 1e-9 for l in w)
        else:
            assert abs(w[loc] - expected) < 1e-12


def test_atom_merging_and_zero_dropping():
    mu = TemperedMeasure(np.array([0.0, 0.0, 1.0, 2.0]),
                         np.array([1.0, 2.0, 0.0, 5.0], dtype=complex))
    assert np.array_equal(mu.atom_locations, [0.0, 2.0])
    assert np.array_equal(mu.atom_weights, [3.0, 5.0])
    assert mu.truncation_radius == 2.0


def test_atom_merging_chains_and_validation():
    # a run of gaps below ATOM_MERGE_EPS merges into one atom at its first
    # location, even when the run is longer than ATOM_MERGE_EPS
    eps = ATOM_MERGE_EPS
    mu = TemperedMeasure(np.array([1.0, 0.6 * eps, 0.0, 1.2 * eps]),
                         np.array([4.0, 2.0, 1.0, 3.0], dtype=complex))
    assert np.array_equal(mu.atom_locations, [0.0, 1.0])
    assert np.array_equal(mu.atom_weights, [6.0, 4.0])
    split = TemperedMeasure(np.array([0.0, 2.0 * eps]), np.array([1.0, 1.0 + 0j]))
    assert len(split.atom_locations) == 2
    for loc, w in (([0.0, math.nan], [1.0, 1.0]), ([0.0], [math.inf])):
        with pytest.raises(ValueError):
            TemperedMeasure(np.array(loc), np.array(w, dtype=complex))


def test_merge_atoms_fast_path_matches_merge_path():
    from fspair.measures import _merge_atoms
    rng = np.random.default_rng(5)
    loc = np.cumsum(rng.uniform(0.1, 1.0, 1000)) - 300.0
    loc[500] = loc[499] + 2.0 * ATOM_MERGE_EPS  # a gap just above the merge threshold
    w = rng.normal(size=1000) + 1j * rng.normal(size=1000)
    fast_loc, fast_w = _merge_atoms(loc, w)
    assert not (np.shares_memory(fast_loc, loc) or np.shares_memory(fast_w, w))
    # shuffled input, or one zero weight, takes the sort-and-merge path
    order = rng.permutation(1000)
    zero = (np.append(loc, loc[-1] + 1.0), np.append(w, 0.0))
    for slow_loc, slow_w in (_merge_atoms(loc[order], w[order]), _merge_atoms(*zero)):
        assert np.array_equal(fast_loc, slow_loc) and np.array_equal(fast_w, slow_w)
    assert np.array_equal(fast_loc, loc) and np.array_equal(fast_w, w)


def test_summation_function_value_at():
    a = SummationFunction(np.array([-1.0, 0.5]), np.array([2.0 + 1j, 3.0]))
    assert a.value_at(-1.0) == 2.0 + 1j
    assert a.value_at(0.5) == 3.0
    assert a.value_at(0.2) == 0.0
    assert a.lambda_max == 1.0


def test_antipodality_enforced():
    mu = TemperedMeasure(np.array([0.0]), np.array([1.0 + 0j]))
    a = SummationFunction(np.array([1.0]), np.array([1.0 + 1j]))
    from fspair.measures import FSPair
    with pytest.raises(PairSchemaError):
        FSPair("bad", mu, a, True, 0.1)


def test_antipodal_split_single_atom():
    from fspair.measures import FSPair
    mu = TemperedMeasure(np.array([0.0]), np.array([1.0 + 1j]))
    a = SummationFunction(np.array([0.0]), np.array([1.0 + 1j]))
    p1, p2 = antipodal_split(FSPair("c", mu, a, False, 0.1))
    assert p1.mu.atom_weights[0] == 1.0
    assert p2.mu.atom_weights[0] == -1.0
    assert p1.a.value_at(0.0) == 1.0
    assert p2.a.value_at(0.0) == -1.0


def test_antipodal_split_identity_on_antipodal_input():
    pair = make_meyer(30)
    p1, p2 = antipodal_split(pair)
    assert np.allclose(p1.mu.atom_weights, pair.mu.atom_weights)
    assert len(p2.mu.atom_locations) == 0
    for lam in pair.a.lambdas:
        assert abs(p1.a.value_at(lam) - pair.a.value_at(lam)) < 1e-15
        assert abs(p2.a.value_at(lam)) < 1e-15


def test_antipodal_split_random_reconstruction():
    from fspair.measures import FSPair
    rng = np.random.default_rng(17)
    lam = np.sort(rng.uniform(-3, 3, 7))
    vals = rng.normal(size=7) + 1j * rng.normal(size=7)
    w = rng.normal(size=7) + 1j * rng.normal(size=7)
    # and lambdas within ATOM_MERGE_EPS of a mirror (their own, near 0), not
    # exact negatives
    cases = [(lam, vals, w),
             (np.array([-0.333333333333333, 0.3333333333333333]), np.ones(2), w[:2]),
             (np.array([3e-13]), np.ones(1), w[:1])]
    for lam, vals, w in cases:
        mu = TemperedMeasure(lam, w)
        a = SummationFunction(lam, vals)
        p1, p2 = antipodal_split(FSPair("c", mu, a, False, 0.1))
        for p in (p1, p2):
            assert p.a.is_antipodal()
            for l in p.a.lambdas:
                assert abs(p.a.value_at(-l) - p.a.value_at(l).conjugate()) < 1e-15
        for l in lam:
            recon = p1.a.value_at(l) - 1j * p2.a.value_at(l)
            assert abs(recon - a.value_at(l)) < 1e-14
        recon_w = p1.mu.atom_weights - 1j * p2.mu.atom_weights
        assert np.allclose(recon_w, mu.atom_weights, atol=1e-15)


def test_degree_probe_poisson():
    mu = make_poisson(4000, 1).mu
    grid = [250, 500, 1000, 2000, 4000]
    assert degree_probe(mu, 2, grid).verdict == "converging"
    assert degree_probe(mu, 1, grid).verdict == "diverging"
    # stable under grid refinement by 2
    half = [125, 250, 500, 1000, 2000, 4000]
    assert degree_probe(mu, 2, half).verdict == "converging"
    assert degree_probe(mu, 1, half).verdict == "diverging"


def test_degree_probe_tanh_density():
    mu = TemperedMeasure(np.array([]), np.array([], dtype=complex),
                         Density("r_tanh_pi_r"), 3, "density only")
    grid = [50, 100, 200, 400, 800]
    assert degree_probe(mu, 3, grid).verdict == "converging"
    assert degree_probe(mu, 2, grid).verdict == "diverging"


def test_integrate_against_atoms():
    mu = make_poisson(4, 4).mu

    def f(x):
        return np.exp(-50.0 * (x - 0.5) ** 2)  # no atom nearby

    assert abs(complex(integrate_against(mu, f, 4.0, 1e-10))) < 1e-5
    delta = TemperedMeasure(np.array([0.0]), np.array([1.0 + 0j]))
    assert complex(integrate_against(delta, f, 1.0, 1e-10)) == f(0.0)


def test_integrate_against_density_vs_gauss_oracle():
    mu = TemperedMeasure(np.array([]), np.array([], dtype=complex),
                         Density("r_tanh_pi_r"), 3, "density only")

    def f(r):
        return np.exp(-r * r)

    res = integrate_against(mu, f, 10.0, 1e-12)
    oracle, _ = fixed_quad(
        lambda r: r * np.tanh(math.pi * r) * np.exp(-r * r), -10.0, 10.0, n=200)
    assert abs(complex(res) - oracle) < 1e-8
    assert res.converged


def test_integrate_against_window_is_closed():
    mu = make_poisson(4, 4).mu
    for T, count in ((0.0, 1), (2.0, 5), (2.5, 5), (4.0, 9), (9.0, 9)):
        assert complex(integrate_against(mu, np.ones_like, T)) == count


def test_integrate_against_batch():
    # leading axes of the callback's values are a batch the result keeps
    mu = TemperedMeasure(np.array([-1.0, 0.5]), np.array([2.0, 1.0 + 1j]),
                         Density("r_tanh_pi_r"), 3, "atoms and density")
    scales = np.array([1.0, 2.0, 3.0])
    res = integrate_against(mu, lambda r: np.exp(-scales[:, None] * r * r), 6.0, 1e-12)
    assert res.value.shape == (3,) and res.converged
    for s, v in zip(scales, res.value):
        single = integrate_against(mu, lambda r: np.exp(-s * r * r), 6.0, 1e-12)
        assert abs(complex(single) - v) < 1e-13


def test_quadrature_empty_batch():
    # a batch axis of length 0 gives empty, converged results
    from fspair.measures import _gauss_legendre

    def empty(t):
        return np.zeros((0,) + t.shape)

    res = _gauss_legendre(empty, -1.0, 1.0, 0.25, 1e-10)
    assert res.value.shape == np.shape(res.error_estimate) == (0,) and res.converged
    mu = TemperedMeasure(np.array([-1.0, 0.5]), np.array([2.0, 1.0 + 1j]),
                         Density("r_tanh_pi_r"), 3, "atoms and density")
    res = integrate_against(mu, empty, 6.0, 1e-12)
    assert res.value.shape == (0,) and res.converged
    assert res.checked("empty batch").shape == (0,)


def test_gauss_legendre_near_pole_and_jump():
    from fspair.measures import _gauss_legendre
    s = 1e-6  # a pole a distance s below [0, 1], far narrower than the start width
    res = _gauss_legendre(lambda x: 1.0 / (x - 0.5 - 1j * s), 0.0, 1.0, 0.25, 1e-10)
    exact = cmath.log(0.5 - 1j * s) - cmath.log(-0.5 - 1j * s)
    assert res.converged and abs(res.value - exact) < 1e-9
    res = _gauss_legendre(lambda x: (x > 1.0 / 3.0).astype(float), 0.0, 1.0, 0.25, 1e-10)
    assert res.converged and abs(res.value - 2.0 / 3.0) < 1e-9


def test_gauss_legendre_node_cap():
    from fspair.measures import _GL_MAX_NODES, _gauss_legendre
    seen = []

    def f(x):
        seen.append(len(x))
        return np.cos(50.0 * x)

    # a start width finer than the cap allows, and an unreachable tolerance
    res = _gauss_legendre(f, 0.0, 1.0, 1e-9, 1e-30)
    assert not res.converged
    assert sum(seen) <= _GL_MAX_NODES
    assert abs(res.value - math.sin(50.0) / 50.0) < 1e-13
    with pytest.raises(RuntimeError, match="cap"):
        res.checked("cap")


def _write_pair(tmp_path, payload, name="pair.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


def _basic_payload():
    return {
        "name": "demo",
        "antipodal": True,
        "strip_constant": 0.1,
        "mu": {"degree_bound": 2,
               "atoms": [{"t": -1.0, "re": 1.0, "im": 0.0},
                         {"t": 1.0, "re": 1.0, "im": 0.0}],
               "density": None},
        "a": {"growth_constant": 0.1,
              "support": [{"lambda": -1.0, "re": 1.0, "im": 0.0},
                          {"lambda": 1.0, "re": 1.0, "im": 0.0}]},
    }


def test_load_pair_roundtrip(tmp_path):
    pair = load_pair(_write_pair(tmp_path, _basic_payload()))
    assert pair.name == "demo"
    assert np.array_equal(pair.mu.atom_locations, [-1.0, 1.0])
    assert pair.a.value_at(1.0) == 1.0


def test_load_pair_rejects_unknown_field(tmp_path):
    payload = _basic_payload()
    payload["surprise"] = 1
    with pytest.raises(PairSchemaError, match="unknown field"):
        load_pair(_write_pair(tmp_path, payload))


def test_load_pair_rejects_unsorted_atoms(tmp_path):
    payload = _basic_payload()
    payload["mu"]["atoms"] = payload["mu"]["atoms"][::-1]
    with pytest.raises(PairSchemaError, match="sorted"):
        load_pair(_write_pair(tmp_path, payload))


def test_load_pair_rejects_antipodality_violation(tmp_path):
    payload = _basic_payload()
    payload["a"]["support"][1]["im"] = 0.5  # a(-1) != conj(a(1))
    with pytest.raises(PairSchemaError):
        load_pair(_write_pair(tmp_path, payload))


def test_load_pair_empty(tmp_path):
    payload = {"name": "empty", "antipodal": True, "strip_constant": 0.1,
               "mu": {"degree_bound": 0, "atoms": [], "density": None},
               "a": {"growth_constant": 1.0, "support": []}}
    pair = load_pair(_write_pair(tmp_path, payload))
    assert len(pair.mu.atom_locations) == 0
    assert len(pair.a.lambdas) == 0


def test_load_pair_selberg_shape(tmp_path):
    # hyperbolic-surface style data: symmetric atoms plus the r tanh(pi r)
    # density; degree probe must flag n=3 convergent, n=2 divergent
    rs = [0.75, 1.25, 2.0]
    atoms = ([{"t": -r, "re": 0.5, "im": 0.0} for r in rs[::-1]]
             + [{"t": r, "re": 0.5, "im": 0.0} for r in rs])
    payload = {"name": "selberg-like", "antipodal": True, "strip_constant": 0.2,
               "mu": {"degree_bound": 3, "atoms": atoms,
                      "density": {"kind": "r_tanh_pi_r", "scale": 0.3}},
               "a": {"growth_constant": 0.2,
                     "support": [{"lambda": -0.5, "re": 0.25, "im": 0.0},
                                 {"lambda": 0.5, "re": 0.25, "im": 0.0}]}}
    pair = load_pair(_write_pair(tmp_path, payload))
    assert pair.mu.density is not None
    grid = [50, 100, 200, 400, 800]
    assert degree_probe(pair.mu, 3, grid).verdict == "converging"
    assert degree_probe(pair.mu, 2, grid).verdict == "diverging"


def malformed_payloads():
    """Pair files that must be rejected with PairSchemaError, by case name."""
    def edit(change):
        payload = _basic_payload()
        change(payload)
        return payload

    def grid_without_value(p):
        p["mu"]["density"] = {"kind": "grid", "grid": [{"t": 0.0, "value": 1.0},
                                                       {"t": 1.0}]}

    def one_sample_grid(p):
        p["mu"]["density"] = {"kind": "grid", "grid": [{"t": 0.0, "value": 1.0}]}

    return {
        "atom missing re": edit(lambda p: p["mu"]["atoms"][0].pop("re")),
        "one-sample grid density": edit(one_sample_grid),
        "grid entry missing value": edit(grid_without_value),
        "mu is a list": edit(lambda p: p.__setitem__("mu", [])),
        "nan location": edit(lambda p: p["mu"]["atoms"][0].__setitem__("t", "nan")),
        "inf weight": edit(lambda p: p["mu"]["atoms"][1].__setitem__("re", "inf")),
    }


@pytest.mark.parametrize("case", sorted(malformed_payloads()))
def test_load_pair_rejects_malformed(tmp_path, case):
    with pytest.raises(PairSchemaError):
        load_pair(_write_pair(tmp_path, malformed_payloads()[case]))


def test_make_empty():
    pair = make_empty()
    assert len(pair.mu.atom_locations) == 0
    assert pair.mu.truncation_radius == 0.0
    assert pair.a.lambda_max == 0.0
