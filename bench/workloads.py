"""The benchmark's workloads: seeded inputs, timed operations and oracles.

A workload is an ordered list of ``Op``.  ``Op.run`` is the timed part: one
``fspair`` CLI invocation through ``fspair.cli.run`` or one public API call.
``Op.check`` runs outside the timed region and returns the operation's
checks as ``(abs_error, tolerance)`` pairs, each against an oracle that does
not share the code path it checks (a closed form, a brute-force count, an
independent sum, or ``numpy.linalg``).  No tolerance is looser than the
tier-1 test that covers the same call.

Functions are looked up on their module at call time, so the runtime
wrappers of ``tracing.Tracer`` see every call.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

DEFAULT_SEED = 7  # the fit-sample seed of the tier-1 big_poisson_model fixture
EXACT = 1e-16     # absolute error reported for a check that matches exactly

C_NINTH = repr(1.0 / 9.0)


@dataclass
class Op:
    name: str
    kind: str                                  # feeds digits.<kind>
    run: Callable[[], object]                  # timed
    check: Callable[[object], list]            # untimed: [(abs_error, tol), ...]


def _cli(argv) -> int:
    from fspair import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run(argv)


def _cli_op(name, kind, argv, check) -> Op:
    """A CLI invocation that must exit 0 and whose report ``check`` reads."""

    def checked(code):
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        return check()

    return Op(name, kind, lambda: _cli(argv), checked)


def _read_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _cplx(d: dict, key: str = "value") -> complex:
    if key == "value":
        return complex(d["value_re"], d["value_im"])
    return complex(d[key]["re"], d[key]["im"])


# ------------------------------------------------------------------ identity

def _bump(u):
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


def _plateau(u, inner=0.5, outer=1.0):
    def g(x):
        return np.where(x > 0, np.exp(-1.0 / np.where(x > 0, x, 1.0)), 0.0)

    s = (outer - np.abs(np.asarray(u, dtype=float))) / (outer - inner)
    return g(s) / (g(s) + g(1.0 - s))


def _verify_poisson(path, tol, profile, scale):
    """Poisson comb: both sides equal sum_n phi(n) (phi compact, atoms |n|<=64)."""
    n = np.arange(-64, 65, dtype=float)
    ref = float(np.sum(profile(n / scale)))

    def check():
        rep = _read_json(path)
        return [(abs(_cplx(rep, "lhs") - ref), tol), (abs(_cplx(rep, "rhs") - ref), tol)]

    return check


def _verify_gaussian(path, t, tol=1e-12):
    """phi(x) = exp(-pi t x^2): rhs is the theta sum, lhs its functional-equation
    dual t^-1/2 sum exp(-pi n^2 / t) (atoms |n| <= 64 on both sides)."""
    n = np.arange(-64, 65, dtype=float)
    rhs_ref = float(np.sum(np.exp(-math.pi * t * n * n)))
    lhs_ref = t ** -0.5 * float(np.sum(np.exp(-math.pi * n * n / t)))

    def check():
        rep = _read_json(path)
        return [(abs(_cplx(rep, "lhs") - lhs_ref), tol),
                (abs(_cplx(rep, "rhs") - rhs_ref), tol)]

    return check


def _verify_sides(path, tol):
    def check():
        rep = _read_json(path)
        return [(abs(_cplx(rep, "lhs") - _cplx(rep, "rhs")), tol)]

    return check


def _read_csv_values(path, n_max) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        header, body = fh.read().split("\n", 1)
    if header != "n,alpha_n":
        raise ValueError(f"unexpected CSV header {header!r}")
    table = np.array(body.replace(",", "\n").split(), dtype=float).reshape(-1, 2)
    if table.shape[0] != n_max + 1 or np.any(table[:, 0] != np.arange(n_max + 1)):
        raise ValueError("CSV rows are not n = 0..n_max")
    return table[:, 1]


def _check_guinand_ninth(path, n_max):
    """alpha_0 = 1, alpha_1 = -(24c-2), alpha_2 = 288c^2 - 36c (tier-1: 1e-12)."""
    c = float(C_NINTH)

    def check():
        a = _read_csv_values(path, n_max)
        return [(abs(a[0] - 1.0), 1e-12), (abs(a[1] + (24.0 * c - 2.0)), 1e-12),
                (abs(a[2] - (288.0 * c * c - 36.0 * c)), 1e-12)]

    return check


def _check_guinand_theta(path, n_max):
    """At c = 0 the coefficients are r_1(n): 1 at 0, 2 at squares (tier-1: 1e-10)."""
    ref = np.zeros(n_max + 1)
    m = np.arange(math.isqrt(n_max) + 1)
    ref[m * m] = 2.0
    ref[0] = 1.0

    def check():
        return [(float(np.max(np.abs(_read_csv_values(path, n_max) - ref))), 1e-10)]

    return check


@functools.lru_cache(maxsize=None)
def brute_r3(n: int) -> int:
    """Number of integer triples with x^2 + y^2 + z^2 = n, by enumeration."""
    m = math.isqrt(n)
    y = np.arange(-m, m + 1, dtype=np.int64)
    count = 0
    for x in range(-m, m + 1):
        rem = n - x * x - y * y
        rem = rem[rem >= 0]
        z = np.sqrt(rem).astype(np.int64)
        z += (z + 1) ** 2 <= rem
        exact = z * z == rem
        count += int(np.sum(np.where(rem[exact] == 0, 1, 2)))
    return count


def _legendre_zero(n: np.ndarray) -> np.ndarray:
    """r3(n) = 0 exactly when n = 4^a (8b + 7)."""
    n = n.copy()
    while True:
        div = (n % 4 == 0) & (n > 0)
        if not div.any():
            return n % 8 == 7
        n[div] //= 4


def _check_r3(path, n_max, sample):
    def check():
        v = _read_csv_values(path, n_max)
        zeros = _legendre_zero(np.arange(n_max + 1, dtype=np.int64))
        mismatched = int(np.sum((v == 0) != zeros))
        checks = [(EXACT if mismatched == 0 else float(mismatched), 0.5)]
        for n in sample:
            checks.append((max(abs(v[n] - brute_r3(n)), EXACT), 0.5))
        return checks

    return check


def identity(seed: int, work: str) -> list:
    """fspair verify on five cases plus coefficient CSV export."""
    ops = []

    def verify(name, argv, make_check):
        path = os.path.join(work, f"verify-{len(ops)}.json")
        ops.append(_cli_op(name, "verify", ["verify", *argv, "--json", path],
                           make_check(path)))

    verify("verify poisson bump 5.3",
           ["--pair", "poisson", "--testfn", "bump", "--scale", "5.3", "--tol", "1e-8"],
           lambda p: _verify_poisson(p, 1e-8, _bump, 5.3))
    verify("verify poisson plateau 3.0",
           ["--pair", "poisson", "--testfn", "plateau", "--scale", "3.0", "--tol", "1e-8"],
           lambda p: _verify_poisson(p, 1e-8, _plateau, 3.0))
    for t in (0.5, 1.0, 2.0):
        verify(f"verify poisson gaussian t={t}",
               ["--pair", "poisson", "--testfn", "gaussian", "--scale", repr(t ** -0.5),
                "--tol", "1e-12"],
               lambda p, t=t: _verify_gaussian(p, t))
    for c in ("0", C_NINTH):
        verify(f"verify guinand c={c} bump 4.0",
               ["--pair", "guinand", "--c", c, "--testfn", "bump", "--scale", "4.0"],
               lambda p: _verify_sides(p, 1e-8))
    verify("verify meyer(2000) bump 6.0",
           ["--pair", "meyer", "--testfn", "bump", "--scale", "6.0", "--tol", "1e-10"],
           lambda p: _verify_sides(p, 1e-10))

    rng = np.random.default_rng(seed)
    coeff_cases = [
        ("guinand", C_NINTH, 2048, _check_guinand_ninth),
        ("guinand", "0", 256, _check_guinand_theta),
        ("r3", None, 1_000_000,
         lambda p, n: _check_r3(p, n, [int(x) for x in rng.integers(1, n + 1, 4)])),
    ]
    for family, c, n_max, make_check in coeff_cases:
        path = os.path.join(work, f"coeffs-{len(ops)}.csv")
        argv = ["coeffs", "--family", family, "--n", str(n_max), "--csv", path]
        if c is not None:
            argv[3:3] = ["--c", c]
        ops.append(_cli_op(f"coeffs {family} c={c} n={n_max}", "coeffs", argv,
                           make_check(path, n_max)))
    return ops


# --------------------------------------------------------- holomorphic-large

def _poisson_series(z: complex, lam_max: int = 64) -> complex:
    """a(0)/2 + sum_{l=1}^{L} q^l with q = e^{2 pi i z}, summed in closed form."""
    q = complex(np.exp(2j * math.pi * z))
    return 0.5 + q * (1.0 - q ** lam_max) / (1.0 - q)


def holomorphic_large(seed: int, work: str) -> list:
    """The big_poisson_model fixture and the tier-1 representation-agreement
    path: 8M atoms, k = 0, F on a 5x5 grid from both faces."""
    from fspair import measures, nevanlinna

    rng = np.random.default_rng(seed)
    sample = [complex(x, y) for x, y in zip(rng.uniform(-1.8, 1.8, 8),
                                            rng.uniform(0.4, 3.5, 8))]
    grid = [complex(x, y) for x in np.linspace(-2.0, 2.0, 5)
            for y in np.linspace(0.2, 4.0, 5)]
    series_ref = [_poisson_series(z) for z in grid]
    state: dict = {}

    def build():
        state["pair"] = measures.make_poisson(t_max=4_000_000, lambda_max=64)
        return state["pair"]

    def check_pair(pair):
        loc, w = pair.mu.atom_locations, pair.mu.atom_weights
        ok = (loc.size == 8_000_001 and loc[0] == -4e6 and loc[-1] == 4e6
              and bool(np.all(np.diff(loc) == 1.0)) and bool(np.all(w == 1.0)))
        return [(EXACT if ok else math.inf, 0.5)]

    def fit():
        state["model"] = nevanlinna.build_model(state["pair"], k=0, sample=sample)
        return state["model"]

    def check_model(model):
        # criterion 9: Q has degree 0 for k = 0
        return [(EXACT if len(model.q_poly) == 1 else math.inf, 0.5)]

    def series():
        return [nevanlinna.f_series(state["pair"], z) for z in grid]

    ops = [
        Op("make_poisson(4e6, 64)", "representation", build, check_pair),
        Op("build_model k=0 on the seeded sample", "representation", fit, check_model),
        Op("f_series on the 5x5 grid", "representation", series,
           lambda vals: [(abs(v - r), 1e-12) for v, r in zip(vals, series_ref)]),
    ]
    # one operation per grid point, so the host-speed calibration between
    # operations also samples this longest stretch of the pass
    for z, ref in zip(grid, series_ref):
        ops.append(Op(f"f_integral at {z:.2f}", "representation",
                      lambda z=z: nevanlinna.f_integral(state["model"], z),
                      lambda v, ref=ref: [(abs(v - ref), 1e-6)]))
    return ops


# --------------------------------------------------------- holomorphic-small

def _bridge_rhs_oracle(k, w, z, t_max=600):
    """(1/(2 pi^{k+1} i)) sum_{|t|<=t_max} 1/((t-z)(t-conj w)(1+t^2)^k)."""
    t = np.arange(-t_max, t_max + 1, dtype=float)
    s = np.sum(1.0 / ((t - z) * (t - w.conjugate()) * (1.0 + t * t) ** k))
    return complex(s / (2.0 * math.pi ** (k + 1) * 1j))


@functools.lru_cache(maxsize=None)
def _small_pairs() -> dict:
    """The CLI's default pairs, rebuilt for the oracles."""
    from fspair import measures, nevanlinna

    poisson = measures.make_poisson()
    return {"poisson": poisson, "guinand": measures.make_guinand(float(C_NINTH), 512),
            "poisson model": nevanlinna.build_model(poisson)}


def _line_average(pair, lam, y, T):
    """Exact (1/2T) int_{-T}^{T} F(x+iy) e^{-2 pi i lam (x+iy)} dx for the
    finite series F = a(0)/2 + sum_{l>0} a(l) e^{2 pi i l z}: each term
    integrates to e^{-2 pi (l-lam) y} sinc(2T(l-lam))."""
    pos = pair.a.lambdas > 0
    ls = np.concatenate([[0.0], pair.a.lambdas[pos]])
    vs = np.concatenate([[0.5 * pair.a.value_at(0.0)], pair.a.values[pos]])
    d = ls - lam
    return complex(np.sum(vs * np.exp(-2.0 * math.pi * d * y) * np.sinc(2.0 * T * d)))


def holomorphic_small(seed: int, work: str) -> list:
    """CLI bridge, efcoef, recover and nevindex commands on small pairs."""
    from fspair import nevanlinna

    ops = []

    def out(stem):
        return os.path.join(work, f"{stem}-{len(ops)}.json")

    # bridge: k = 0 is the README line; k >= 1 use off-axis points
    path = out("bridge")
    oracle0 = (math.pi / 2.0) / math.tanh(2.0 * math.pi) / (2j * math.pi)
    ops.append(_cli_op(
        "bridge k=0 README", "bridge",
        ["bridge", "--pair", "poisson", "--trunc", "600", "--k", "0", "--z", "0+2i",
         "--w", "0+2i", "--tmax", "512", "--sweep", "--json", path],
        lambda p=path: [(abs(_cplx(_read_json(p)) - oracle0), 1e-4)]))
    z, w = 0.3 + 1.5j, -0.2 + 2j
    for k in range(1, 5):
        path = out("bridge")
        rhs = _bridge_rhs_oracle(k, w, z)

        def check(p=path, rhs=rhs):
            rep = _read_json(p)
            return [(abs(_cplx(rep) - rhs), 1e-7),
                    (abs(complex(rep["target_re"], rep["target_im"]) - rhs), 1e-12)]

        # "--w=..." because argparse reads a bare "-0.2+2i" as an option
        ops.append(_cli_op(
            f"bridge k={k} sweep", "bridge",
            ["bridge", "--pair", "poisson", "--trunc", "600", "--k", str(k),
             "--z", "0.3+1.5i", "--w=-0.2+2i", "--tmax", "128", "--sweep",
             "--json", path], check))

    # efcoef: Poisson has a = 1 on the integers; F carries a(0)/2 and l > 0 only
    cases = [("poisson", [], lam, y, {1: 1.0, -1: 0.0, 0: 0.5}[lam])
             for lam in (1, -1, 0) for y in (1, 2)]
    cases.append(("guinand", ["--c", C_NINTH], math.sqrt(1.0 + 1.0 / 9.0), 1, None))
    for pair_name, extra, lam, y, limit in cases:
        path = out("efcoef")

        def check(p=path, pair_name=pair_name, lam=lam, y=y, limit=limit):
            v = _cplx(_read_json(p))
            checks = [(abs(v - _line_average(_small_pairs()[pair_name], lam, y, 256.0)),
                       1e-5)]
            if limit is not None:
                checks.append((abs(v - limit), 1e-5))
            return checks

        ops.append(_cli_op(
            f"efcoef {pair_name} lambda={lam:.6g} y={y}", "efcoef",
            ["efcoef", "--pair", pair_name, *extra, "--lambda", repr(float(lam)),
             "--y", str(y), "--T", "256", "--json", path], check))

    # recover: the unit atom at t0 = 1 carries 1/(2 (1+t0^2)^{k+1})
    for k in (0, 1):
        path = out("recover")
        target = 1.0 / (2.0 * 2.0 ** (k + 1))
        ops.append(_cli_op(
            f"recover k={k}", "recover",
            ["recover", "--pair", "poisson", "--k", str(k), "--a", "0.5", "--b", "1.5",
             "--s", "0.001", "--json", path],
            lambda p=path, target=target: [(abs(_read_json(p)["value_re"] - target), 1e-3)]))

    # nevindex: 50 seeded point sets of 2..8 points and one of 80 points; the
    # CLI draws the points from its --seed, so the oracle draws them the same
    # way and compares jacobi_eigenvalues with numpy.linalg.eigvalsh
    rng = np.random.default_rng(seed)
    sets = [(int(rng.integers(2, 9)), int(rng.integers(0, 2 ** 31))) for _ in range(50)]
    sets.append((80, int(rng.integers(0, 2 ** 31))))

    @functools.lru_cache(maxsize=None)  # depends only on the inputs
    def eig_error(points, cli_seed):
        r = np.random.default_rng(cli_seed)
        pts = [complex(x, y) for x, y in zip(r.uniform(-2, 2, points),
                                             r.uniform(0.3, 3.0, points))]
        H = nevanlinna.nev_matrix(_small_pairs()["poisson model"], pts).entries
        ref = np.linalg.eigvalsh(H)
        return float(np.max(np.abs(nevanlinna.jacobi_eigenvalues(H) - ref))
                     / np.max(np.abs(ref)))

    for points, cli_seed in sets:
        path = out("nevindex")

        # eigenvalue error relative to the spectral norm, held to the threshold
        # neg_index itself applies: a sign decision needs that much accuracy
        def check(p=path, points=points, cli_seed=cli_seed):
            idx = _read_json(p)["neg_index"]
            return [(EXACT if idx == 0 else math.inf, 0.5),
                    (max(eig_error(points, cli_seed), EXACT), nevanlinna.DEFAULT_NEG_TOL)]

        ops.append(_cli_op(
            f"nevindex {points} points seed {cli_seed}", "eig",
            ["nevindex", "--pair", "poisson", "--points", str(points),
             "--seed", str(cli_seed), "--json", path], check))
    return ops


WORKLOADS = {
    "identity": identity,
    "holomorphic-large": holomorphic_large,
    "holomorphic-small": holomorphic_small,
}
