"""Strongly tempered measures, summation functions and FS-pair builders.

A pair couples a truncated atomic-plus-density measure mu with a truncated
coefficient function a(.) so that  integral(phihat d mu) = sum a(l) phi(l)
for smooth compactly supported phi.  All infinite objects are truncated at
construction time; the truncation is recorded in ``truncation_note`` so
every downstream report can state it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .qseries import guinand_coeffs, r3_sequence

__all__ = [
    "Density",
    "TemperedMeasure",
    "SummationFunction",
    "FSPair",
    "IntegrationResult",
    "DegreeProbeReport",
    "PairSchemaError",
    "make_poisson",
    "make_guinand",
    "make_meyer",
    "make_empty",
    "load_pair",
    "antipodal_split",
    "degree_probe",
    "integrate_against",
    "meyer_chi",
]

ATOM_MERGE_EPS = 1e-12


class PairSchemaError(ValueError):
    """Raised when a pair file violates the JSON schema or a pair invariant."""


@dataclass(frozen=True)
class Density:
    """Absolutely continuous part: a kind tag plus an evaluator.

    kind "r_tanh_pi_r" is scale * r * tanh(pi r); kind "grid" interpolates
    linearly between the given samples and is zero outside their range.
    tail_exponent p declares |density(t)| = O(|t|^p) for large |t|.
    """

    kind: str
    scale: float = 1.0
    grid_t: Optional[np.ndarray] = None
    grid_v: Optional[np.ndarray] = None
    tail_exponent: float = 1.0

    def __post_init__(self):
        if self.kind not in ("r_tanh_pi_r", "grid"):
            raise PairSchemaError(f"unknown density kind {self.kind!r}")
        if self.kind == "grid":
            if self.grid_t is None or self.grid_v is None:
                raise PairSchemaError("grid density requires sample points")
            t = np.asarray(self.grid_t, dtype=float)
            v = np.asarray(self.grid_v, dtype=float)
            if t.ndim != 1 or t.shape != v.shape or np.any(np.diff(t) <= 0):
                raise PairSchemaError("grid samples must be 1-d with increasing t")
            if len(t) < 2:
                raise PairSchemaError("grid density needs at least two samples")
            object.__setattr__(self, "grid_t", t)
            object.__setattr__(self, "grid_v", v)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "r_tanh_pi_r":
            return self.scale * t * np.tanh(math.pi * t)
        return self.scale * np.interp(t, self.grid_t, self.grid_v, left=0.0, right=0.0)


@dataclass(frozen=True)
class TemperedMeasure:
    """Atomic part (sorted locations, nonzero weights), optional density, a
    declared degree bound and a truncation note.  The weights are float64
    when every imaginary part is zero and complex128 otherwise, so a real
    measure holds and sweeps half the bytes and is_real reads the dtype."""

    atom_locations: np.ndarray
    atom_weights: np.ndarray
    density: Optional[Density] = None
    degree_bound: int = 2
    truncation_note: str = ""

    def __post_init__(self):
        loc = np.asarray(self.atom_locations, dtype=float)
        w = np.asarray(self.atom_weights)
        if np.iscomplexobj(w) and not np.any(w.imag):
            w = w.real
        w = w.astype(complex if np.iscomplexobj(w) else float, copy=False)
        if loc.shape != w.shape or loc.ndim != 1:
            raise ValueError("locations and weights must be 1-d and equal length")
        loc, w = _merge_atoms(loc, w)
        object.__setattr__(self, "atom_locations", loc)
        object.__setattr__(self, "atom_weights", w)

    @property
    def truncation_radius(self) -> float:
        loc = self.atom_locations  # sorted
        return float(max(-loc[0], loc[-1])) if len(loc) else 0.0

    def edge_mass_rate(self) -> float:
        """Atom weight per unit length on T/2 <= |t| <= T, T the truncation
        radius: the rate at which the discarded tail is assumed to go on."""
        T, loc, w = self.truncation_radius, self.atom_locations, self.atom_weights
        # |t| >= T/2 is a head and a tail of the sorted locations (disjoint
        # also at T = 0), read in the order of the atoms
        lo = int(np.searchsorted(loc, -T / 2.0, "right"))
        hi = max(lo, int(np.searchsorted(loc, T / 2.0, "left")))
        return float(np.sum(np.abs(np.concatenate((w[:lo], w[hi:]))))) / max(T, 1.0)

    def is_real(self) -> bool:
        return not np.iscomplexobj(self.atom_weights)


def _merge_atoms(loc, w):
    """Sort, merge runs of atoms whose consecutive gaps are below
    ATOM_MERGE_EPS into one atom at the run's first location, drop zero
    weights."""
    if not (np.all(np.isfinite(loc)) and np.all(np.isfinite(w))):
        raise ValueError("locations and weights must be finite")
    if np.all(np.diff(loc) >= ATOM_MERGE_EPS) and np.all(w != 0.0):
        return loc.copy(), w.copy()  # sorted and apart already: nothing to merge
    order = np.argsort(loc, kind="stable")
    loc, w = loc[order], w[order]
    starts = np.flatnonzero(np.concatenate([[True], np.diff(loc) >= ATOM_MERGE_EPS]))
    loc, w = loc[starts], np.add.reduceat(w, starts)
    keep = w != 0.0
    return loc[keep], w[keep]


@dataclass(frozen=True)
class SummationFunction:
    """Truncated a(.): strictly increasing frequencies with nonzero values,
    plus a growth constant c2 for the declared sum |a| e^{-c2 |l|} < inf."""

    lambdas: np.ndarray
    values: np.ndarray
    growth_constant: float = 0.1

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        if lam.shape != v.shape or lam.ndim != 1:
            raise ValueError("lambdas and values must be 1-d and equal length")
        if self.growth_constant <= 0:
            raise ValueError("growth_constant must be positive")
        lam, v = _merge_atoms(lam, v)
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "values", v)

    def value_at(self, lam: float) -> complex:
        idx = np.searchsorted(self.lambdas, lam)
        if idx < len(self.lambdas) and abs(self.lambdas[idx] - lam) < ATOM_MERGE_EPS:
            return complex(self.values[idx])
        if idx > 0 and abs(self.lambdas[idx - 1] - lam) < ATOM_MERGE_EPS:
            return complex(self.values[idx - 1])
        return 0.0 + 0.0j

    def is_antipodal(self) -> bool:
        # lambdas are sorted and merged, so -lambdas must be lambdas reversed
        lam, v = self.lambdas, self.values
        return bool(np.all(np.abs(lam + lam[::-1]) < ATOM_MERGE_EPS)
                    and np.all(v == v[::-1].conjugate()))

    @property
    def lambda_max(self) -> float:
        return float(np.max(np.abs(self.lambdas))) if len(self.lambdas) else 0.0


@dataclass(frozen=True)
class FSPair:
    """A named (mu, a) with antipodality flag and strip constant c1."""

    name: str
    mu: TemperedMeasure
    a: SummationFunction
    antipodal: bool
    strip_constant: float
    gaussian_ok: bool = False  # both sides converge absolutely for Gaussians

    def __post_init__(self):
        if self.strip_constant <= 0:
            raise ValueError("strip_constant must be positive")
        if self.antipodal:
            if not self.mu.is_real():
                raise PairSchemaError("antipodal pair requires a real measure")
            if not self.a.is_antipodal():
                raise PairSchemaError("antipodal pair requires a(-l) = conj(a(l))")


def make_poisson(t_max: float = 64.0, lambda_max: float = 64.0) -> FSPair:
    """The Dirac-comb pair: unit atoms at the integers on both sides."""
    if t_max <= 0 or lambda_max <= 0:
        raise ValueError("truncation radii must be positive")
    n = np.arange(-int(t_max), int(t_max) + 1, dtype=float)
    m = np.arange(-int(lambda_max), int(lambda_max) + 1, dtype=float)
    mu = TemperedMeasure(n, np.ones_like(n), None, 2,
                         f"atoms at integers |n| <= {int(t_max)}")
    a = SummationFunction(m, np.ones_like(m, dtype=complex), 0.1)
    return FSPair("poisson", mu, a, True, 0.1, gaussian_ok=True)


def make_guinand(c: float, n_max: int = 512) -> FSPair:
    """Self-dual pair from the eta-quotient coefficients: atoms of weight
    alpha_{n,c} at +-sqrt(n+c), identical a-side."""
    alpha = guinand_coeffs(c, n_max).coeffs
    n = np.arange(n_max + 1, dtype=float)
    loc = np.sqrt(n + c)
    locs = np.concatenate([-loc[::-1], loc])
    ws = np.concatenate([alpha[::-1], alpha])
    mu = TemperedMeasure(locs, ws, None, 3,
                         f"atoms at +-sqrt(n+c), n <= {n_max}, c = {c}")
    a = SummationFunction(locs, ws, 0.1)
    return FSPair(f"guinand(c={c})", mu, a, True, 0.1)


def meyer_chi(n: int) -> float:
    """The character from the sum-of-three-squares pair: -1/2 off 4N,
    4 on 4N outside 16N, 0 on 16N."""
    if n % 16 == 0:
        return 0.0
    if n % 4 == 0:
        return 4.0
    return -0.5


def make_meyer(n_max: int = 2000) -> FSPair:
    """The odd crystalline pair with mu-hat = -i mu: weights
    +-chi(n) r3(n)/sqrt(n) at +-sqrt(n)/2, a = -i mu."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    r3 = r3_sequence(n_max).values
    ns = [n for n in range(1, n_max + 1) if r3[n] and meyer_chi(n)]
    loc = np.array([math.sqrt(n) / 2.0 for n in ns])
    w = np.array([meyer_chi(n) * r3[n] / math.sqrt(n) for n in ns])
    locs = np.concatenate([-loc[::-1], loc])
    ws = np.concatenate([-w[::-1], w])
    mu = TemperedMeasure(locs, ws, None, 3, f"atoms at +-sqrt(n)/2, n <= {n_max}")
    a = SummationFunction(locs, -1j * ws, 0.1)
    return FSPair(f"meyer(n_max={n_max})", mu, a, True, 0.1)


def make_empty() -> FSPair:
    """The zero pair; trivially verifies 0 = 0."""
    empty = np.array([])
    mu = TemperedMeasure(empty, empty, None, 0, "empty")
    a = SummationFunction(empty, empty.astype(complex), 1.0)
    return FSPair("empty", mu, a, True, 0.1, gaussian_ok=True)


_PAIR_KEYS = {"name", "antipodal", "strip_constant", "mu", "a"}
_MU_KEYS = {"degree_bound", "atoms", "density"}
_A_KEYS = {"growth_constant", "support"}
_DENSITY_KEYS = {"kind", "scale", "grid"}


def _check_keys(obj, allowed: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise PairSchemaError(f"{where} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise PairSchemaError(f"unknown field(s) in {where}: {sorted(unknown)}")


def _number(obj: dict, key: str, where: str, default=None) -> float:
    """obj[key] (or the default when given and the key is absent) as a
    finite float."""
    if key not in obj and default is not None:
        return default
    try:
        value = float(obj[key])
    except KeyError as exc:
        raise PairSchemaError(f"missing field {key!r} in {where}") from exc
    except (TypeError, ValueError) as exc:
        raise PairSchemaError(f"{where}.{key} must be a number") from exc
    if not math.isfinite(value):
        raise PairSchemaError(f"{where}.{key} must be finite, got {value}")
    return value


def _entries(obj: dict, key: str, where: str, fields: set) -> list:
    """The list obj[key] (empty when absent), each entry checked as an object."""
    entries = obj.get(key, [])
    if not isinstance(entries, list):
        raise PairSchemaError(f"{where}.{key} must be a list")
    for entry in entries:
        _check_keys(entry, fields, f"{where}.{key} entry")
    return entries


def _ascending(points: list, where: str) -> None:
    if any(b <= a for a, b in zip(points, points[1:])):
        raise PairSchemaError(f"{where} must be sorted strictly ascending")


def load_pair(path) -> FSPair:
    """Read and validate a pair file (JSON schema in the package docs).

    Every violation, including a missing, non-numeric or non-finite number,
    raises PairSchemaError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise PairSchemaError(f"invalid JSON: {exc}") from exc
    _check_keys(raw, _PAIR_KEYS, "pair")
    try:
        name = str(raw["name"])
        antipodal = bool(raw["antipodal"])
        mu_raw = raw["mu"]
        a_raw = raw["a"]
    except KeyError as exc:
        raise PairSchemaError(f"missing field {exc.args[0]!r}") from exc
    strip = _number(raw, "strip_constant", "pair")
    _check_keys(mu_raw, _MU_KEYS, "mu")
    _check_keys(a_raw, _A_KEYS, "a")

    atoms = _entries(mu_raw, "atoms", "mu", {"t", "re", "im"})
    loc = [_number(e, "t", "mu.atoms entry") for e in atoms]
    _ascending(loc, "mu.atoms")
    w = [complex(_number(e, "re", "mu.atoms entry"), _number(e, "im", "mu.atoms entry"))
         for e in atoms]
    density = None
    if mu_raw.get("density") is not None:
        d = mu_raw["density"]
        _check_keys(d, _DENSITY_KEYS, "mu.density")
        kind = d.get("kind")
        scale = _number(d, "scale", "mu.density", 1.0)
        if kind == "grid":
            grid = _entries(d, "grid", "mu.density", {"t", "value"})
            gt = [_number(e, "t", "mu.density.grid entry") for e in grid]
            gv = [_number(e, "value", "mu.density.grid entry") for e in grid]
            density = Density("grid", scale, np.array(gt), np.array(gv))
        else:
            density = Density(str(kind), scale)
    mu = TemperedMeasure(np.array(loc), np.array(w, dtype=complex), density,
                         int(_number(mu_raw, "degree_bound", "mu", 2.0)),
                         f"loaded from file, {len(loc)} atoms")

    support = _entries(a_raw, "support", "a", {"lambda", "re", "im"})
    lam = [_number(e, "lambda", "a.support entry") for e in support]
    _ascending(lam, "a.support")
    av = [complex(_number(e, "re", "a.support entry"), _number(e, "im", "a.support entry"))
          for e in support]
    a = SummationFunction(np.array(lam), np.array(av, dtype=complex),
                          _number(a_raw, "growth_constant", "a", 0.1))
    return FSPair(name, mu, a, antipodal, strip)


def _antipodal_part(a: SummationFunction, which: int) -> SummationFunction:
    # one point per mirror pair: |lambda| merged as atoms are, so that
    # near-mirrored lambdas (within ATOM_MERGE_EPS, not exact negatives) do
    # not become two points whose equal values the merge would add up
    pos = _merge_atoms(np.abs(a.lambdas), np.ones(len(a.lambdas)))[0]
    pos[pos < ATOM_MERGE_EPS / 2.0] = 0.0
    lams = np.unique(np.concatenate([-pos, pos]))
    v = np.array([a.value_at(lam) for lam in lams], dtype=complex)
    cm = v[::-1].conjugate()  # lams is symmetric: a(-lam) is v reversed
    vals = (v + cm) / 2.0 if which == 1 else -1j * (cm - v) / 2.0
    return SummationFunction(lams, vals, a.growth_constant)


def antipodal_split(pair: FSPair):
    """Split a complex pair into two real-antipodal ones:
    mu = mu1 - i mu2 and a = a1 - i a2 on every support point."""
    mu1 = TemperedMeasure(pair.mu.atom_locations, pair.mu.atom_weights.real,
                          pair.mu.density, pair.mu.degree_bound, pair.mu.truncation_note)
    mu2 = TemperedMeasure(pair.mu.atom_locations, -pair.mu.atom_weights.imag,
                          None, pair.mu.degree_bound, pair.mu.truncation_note)
    a1 = _antipodal_part(pair.a, 1)
    a2 = _antipodal_part(pair.a, 2)
    p1 = FSPair(pair.name + "/re", mu1, a1, True, pair.strip_constant)
    p2 = FSPair(pair.name + "/im", mu2, a2, True, pair.strip_constant)
    return p1, p2


@dataclass(frozen=True)
class DegreeProbeReport:
    n: int
    T_grid: tuple
    partials: tuple
    verdict: str  # converging | diverging | inconclusive


def degree_probe(mu: TemperedMeasure, n: int, T_grid: Sequence[float]) -> DegreeProbeReport:
    """Partial integrals of (1+t^2)^{-n/2} d|mu| on a growing window grid,
    with a last-ratio heuristic verdict.  A heuristic, never a proof."""
    T_grid = list(T_grid)
    if any(b <= a for a, b in zip(T_grid, T_grid[1:])):
        raise ValueError("T_grid must be increasing")
    loc = mu.atom_locations
    aw = np.abs(mu.atom_weights)
    partials = []
    for T in T_grid:
        lo, hi = np.searchsorted(loc, -T, "left"), np.searchsorted(loc, T, "right")
        val = float(np.sum(aw[lo:hi] / (1.0 + loc[lo:hi] ** 2) ** (n / 2.0)))
        if mu.density is not None:
            val += _gauss_legendre(lambda t: np.abs(mu.density(t)) / (1.0 + t ** 2) ** (n / 2.0),
                                   -T, T, 1.0, 1e-10).checked("degree_probe")
        partials.append(val)
    inc = np.diff(partials)
    verdict = "inconclusive"
    if len(inc) >= 2 and np.all(inc > 0):
        ratios = inc[1:] / inc[:-1]
        if np.all(ratios[-3:] < 0.9):
            verdict = "converging"
        elif np.all(ratios >= 0.97):
            verdict = "diverging"
    elif np.all(inc <= 1e-300):
        verdict = "converging"
    return DegreeProbeReport(n, tuple(T_grid), tuple(partials), verdict)


@dataclass(frozen=True)
class IntegrationResult:
    """A quadrature value with its error estimate (arrays over the batch for
    a batched integrand) and whether every element reached the tolerance."""

    value: complex
    error_estimate: float
    converged: bool

    def __complex__(self):
        return complex(self.value)

    def checked(self, what: str):
        """The value; RuntimeError if the tolerance was not reached."""
        if not self.converged:
            raise RuntimeError(f"{what}: quadrature tolerance not reached "
                               f"(estimate {float(np.max(self.error_estimate)):.2e})")
        return self.value


_GL_X, _GL_W = np.polynomial.legendre.leggauss(12)
_GL_BLOCK = 1 << 18       # array elements (batch x nodes) per call of an integrand
_GL_MAX_NODES = 1 << 20   # nodes one quadrature may evaluate in all


def _gl_panels(f, lo, hi):
    """12-point Gauss-Legendre sums over the panels [lo, hi]: f's batch axes,
    then one axis over the panels.  f gets one panel first, then blocks of
    at most _GL_BLOCK elements (batch x nodes)."""
    n, half = len(_GL_X), 0.5 * (hi - lo)
    x = ((lo + half)[:, None] + half[:, None] * _GL_X).ravel()
    sums, start, step = [], 0, n
    while start < len(x):
        vals = np.asarray(f(x[start:start + step]))
        sums.append(vals.reshape(vals.shape[:-1] + (vals.shape[-1] // n, n)) @ _GL_W)
        start += step
        step = n * max(1, _GL_BLOCK // (n * max(1, vals.size // vals.shape[-1])))
    return np.concatenate(sums, axis=-1) * half


def _gauss_legendre(f, a, b, width, tol) -> IntegrationResult:
    """integral_a^b f(x) dx by composite 12-point Gauss-Legendre, refined
    where needed: from equal panels no wider than `width` (the scale on
    which the caller knows f varies; at most _GL_MAX_NODES // 36 panels),
    halve every panel whose sum moves by more than its share of tol, until
    the moves add up to at most tol or the nodes evaluated would pass
    _GL_MAX_NODES.  f maps a 1-d node array to values whose last axis runs
    over the nodes; leading axes are a batch that value and error_estimate
    keep, with every batch element held to tol."""
    n = len(_GL_X)
    edges = np.linspace(a, b, max(1, min(math.ceil((b - a) / width), _GL_MAX_NODES // (3 * n))) + 1)
    lo, hi = edges[:-1], edges[1:]
    coarse, used, total, err = _gl_panels(f, lo, hi), len(lo) * n, 0.0, 0.0
    while True:
        mid = 0.5 * (lo + hi)
        halves = _gl_panels(f, np.concatenate([lo, mid]), np.concatenate([mid, hi]))
        left, right = np.split(halves, 2, axis=-1)
        used += 2 * n * len(lo)
        fine = left + right
        move = np.abs(fine - coarse)
        # halve where some batch element moved too far, unless too narrow to halve
        split = (np.any(move > tol * (hi - lo) / ((b - a) or 1.0), axis=tuple(range(move.ndim - 1)))
                 & (lo < mid) & (mid < hi))
        total = total + fine[..., ~split].sum(axis=-1)
        err = err + move[..., ~split].sum(axis=-1)
        open_err = err + move[..., split].sum(axis=-1)
        converged = bool(np.all(open_err <= tol))
        if converged or not split.any() or used + 4 * n * np.count_nonzero(split) > _GL_MAX_NODES:
            return IntegrationResult(total + fine[..., split].sum(axis=-1), open_err, converged)
        coarse = np.concatenate([left[..., split], right[..., split]], axis=-1)
        lo, hi = np.concatenate([lo[split], mid[split]]), np.concatenate([mid[split], hi[split]])


def integrate_against(mu: TemperedMeasure, f: Callable, T: float,
                      tol: float = 1e-10) -> IntegrationResult:
    """Pair mu against f on [-T, T]: exact atom sum plus Gauss-Legendre
    quadrature of density * f, started at unit panel width and refined
    locally to tol.  Non-convergence is reported, not raised.

    f is called on 1-d arrays of points (the atom locations, then the
    quadrature nodes) with numpy semantics and returns values whose last
    axis runs over those points; leading axes are a batch that the result
    keeps."""
    loc, w = mu.atom_locations, mu.atom_weights
    lo, hi = np.searchsorted(loc, -T, "left"), np.searchsorted(loc, T, "right")
    total = np.asarray(f(loc[lo:hi])) @ w[lo:hi]
    if mu.density is None:
        return IntegrationResult(total, 0.0, True)
    res = _gauss_legendre(lambda t: mu.density(t) * f(t), -T, T, 1.0, tol)
    return IntegrationResult(total + res.value, res.error_estimate, res.converged)
