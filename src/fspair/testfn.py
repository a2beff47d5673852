"""Smooth test functions, their numerically computed Fourier transforms,
and the end-to-end verification  integral(phihat d mu) = sum a(l) phi(l).

The Fourier transform uses the normalization
phihat(xi) = integral phi(x) e^{-2 pi i x xi} dx, and only the unit profile
is ever integrated: dilation and translation are applied analytically via
phihat(xi) = a e^{-2 pi i b xi} uhat(a xi).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .measures import _GL_BLOCK, _GL_MAX_NODES, FSPair, IntegrationResult, integrate_against

__all__ = [
    "TestFunctionSpec",
    "VerificationReport",
    "eval_testfn",
    "ft_testfn",
    "verify_pair",
]

@dataclass(frozen=True)
class TestFunctionSpec:
    """kind in {bump, plateau, gaussian_diag}; profile argument u = (x-b)/a.

    bump and plateau vanish identically outside [b-a, b+a].  gaussian_diag
    is non-compact and only admitted as a diagnostic on pairs where both
    sides of the summation identity converge absolutely.
    """

    kind: str
    scale: float = 1.0
    shift: float = 0.0
    inner: float = 0.5   # plateau only, in profile units
    outer: float = 1.0

    def __post_init__(self):
        if self.kind not in ("bump", "plateau", "gaussian_diag"):
            raise ValueError(f"unknown test function kind {self.kind!r}")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.kind == "plateau" and not (0.0 < self.inner < self.outer <= 1.0):
            raise ValueError("plateau needs 0 < inner < outer <= 1")

    @property
    def compact(self) -> bool:
        return self.kind != "gaussian_diag"

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "scale": self.scale, "shift": self.shift}
        if self.kind == "plateau":
            d["inner"] = self.inner
            d["outer"] = self.outer
        return d


def _glue(x):
    """e^{-1/x} for x > 0, hard zero otherwise; the standard smooth glue."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = np.exp(-1.0 / x[pos])
    return out


def _unit_profile(spec: TestFunctionSpec, u):
    u = np.asarray(u, dtype=float)
    if spec.kind == "bump":
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        ui = u[inside]
        out[inside] = np.exp(-1.0 / (1.0 - ui * ui))
        return out
    if spec.kind == "plateau":
        s = (spec.outer - np.abs(u)) / (spec.outer - spec.inner)
        g1, g2 = _glue(s), _glue(1.0 - s)
        return g1 / (g1 + g2 + (g1 + g2 == 0.0))
    return np.exp(-math.pi * u * u)


def eval_testfn(spec: TestFunctionSpec, x):
    """Evaluate the test function; exact zeros outside the compact support."""
    u = (np.asarray(x, dtype=float) - spec.shift) / spec.scale
    out = _unit_profile(spec, u)
    if np.ndim(x) == 0:
        return float(out)
    return out


def _unit_ft(spec: TestFunctionSpec, nu: np.ndarray, tol: float) -> IntegrationResult:
    """FT of the unit profile at the frequencies nu >= 0, to tol each.

    The profiles are even, so uhat(nu) = 2 int_0^half u(x) cos(2 pi nu x) dx,
    and vanish with all their derivatives at the ends: the trapezoidal rule
    is spectrally accurate, its only error the aliasing |uhat(n/half - nu)|
    of n panels (Trefethen & Weideman, SIAM Review 56, 2014).  Each doubling
    of n adds the midpoints as one product cos(2 pi nu x^T) @ (w u), in row
    blocks of _GL_BLOCK elements.  Past the smallest power of two above
    half * max(nu), n doubles until two successive rules agree to tol at
    every nu.  It stops unconverged where n would pass _GL_MAX_NODES, or
    where the largest difference stops shrinking within the sum's rounding
    bound (above that bound a difference may grow for one doubling, where
    the coarser rule's aliasing falls near a zero of uhat)."""
    half = 1.0 if spec.compact else 8.5
    start = 1 << int(half * float(np.max(nu, initial=0.0))).bit_length()
    ends = _unit_profile(spec, np.array([0.0, half]))
    value = half * (ends[0] + ends[1] * np.cos(2.0 * math.pi * half * nu))  # one panel
    err, n = np.full_like(nu, np.inf), 1
    while 2 * n <= _GL_MAX_NODES and not np.all(err <= tol):
        x = (np.arange(n) + 0.5) * (half / n)  # the midpoints: the new nodes of 2n panels
        wu = (half / n) * _unit_profile(spec, x)
        fine, rows = 0.5 * value, max(1, _GL_BLOCK // n)
        for i in range(0, len(nu), rows):
            block = np.multiply.outer(2.0 * math.pi * nu[i:i + rows], x)
            fine[i:i + rows] += np.cos(block, out=block) @ wu
        move, value, n = np.abs(fine - value), fine, 2 * n
        if n > start:  # rules of at most `start` panels need not resolve max(nu)
            # the n-panel sum rounds to within n eps times its weights' sum, 2 sum(wu)
            floor = 2 * n * np.finfo(float).eps * float(np.sum(wu))
            stalled = floor >= np.max(move) >= np.max(err)
            err = move
            if stalled:
                break
    return IntegrationResult(value, err, bool(np.all(err <= tol)))


def _ft(spec: TestFunctionSpec, xi, tol: float):
    """phihat at the points xi (an array) from the unit-profile FT at the
    distinct |a xi|, via phihat(xi) = a e^{-2 pi i b xi} uhat(a xi).

    Returns phihat, the distinct |a xi| and the unit-profile result there."""
    a, b = spec.scale, spec.shift
    xi = np.asarray(xi, dtype=float)
    nu, inverse = np.unique(np.abs(a * xi), return_inverse=True)
    unit = _unit_ft(spec, nu, tol / max(a, 1.0))
    out = a * unit.value[inverse].reshape(xi.shape) * np.exp(-2j * math.pi * b * xi)
    return out, nu, unit


def ft_testfn(spec: TestFunctionSpec, xi: float, tol: float = 1e-12) -> complex:
    """phihat(xi) to absolute accuracy tol; RuntimeError if unreachable."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    out, _, unit = _ft(spec, xi, tol)
    unit.checked("ft_testfn")
    return complex(out)


@dataclass
class VerificationReport:
    """One verification run; abs_residual is recomputed on access."""

    pair_name: str
    testfn: TestFunctionSpec
    lhs: complex
    rhs: complex
    mu_truncation: float
    a_truncation: float
    quadrature_tol: float
    runtime_ms: int
    degraded: bool = field(default=False, repr=False, compare=False)
    lhs_tail_estimate: float = field(default=0.0, repr=False, compare=False)

    @property
    def abs_residual(self) -> float:
        return abs(self.lhs - self.rhs)

    def to_dict(self) -> dict:
        return {
            "pair_name": self.pair_name,
            "testfn": self.testfn.to_dict(),
            "lhs": {"re": self.lhs.real, "im": self.lhs.imag},
            "rhs": {"re": self.rhs.real, "im": self.rhs.imag},
            "abs_residual": self.abs_residual,
            "mu_truncation": self.mu_truncation,
            "a_truncation": self.a_truncation,
            "quadrature_tol": self.quadrature_tol,
            "runtime_ms": self.runtime_ms,
            "degraded": self.degraded,
            "lhs_tail_estimate": self.lhs_tail_estimate,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _tail_estimate(pair: FSPair, spec: TestFunctionSpec, nu: np.ndarray,
                   uhat: np.ndarray) -> float:
    """Bound the lhs mass beyond the mu truncation using the measured
    polynomial decay |phihat(xi)| <= C |xi|^{-m}, m = degree_bound + 2, from
    the unit-profile FT values uhat at the frequencies nu."""
    T = pair.mu.truncation_radius
    if T <= 1.0 or len(pair.mu.atom_locations) == 0:
        return 0.0
    m = pair.mu.degree_bound + 2
    a = spec.scale
    far = nu > max(1.0, 0.5 * a * T)
    c = float(np.max(np.abs(uhat[far]) * (nu[far] / a) ** m * a, initial=0.0))
    return 2.0 * c * pair.mu.edge_mass_rate() * T ** (1 - m) / (m - 1)


def verify_pair(pair: FSPair, spec: TestFunctionSpec,
                quadrature_tol: float = 1e-10) -> VerificationReport:
    """Compute both sides of the summation identity for one test function.

    When a test-function FT misses quadrature_tol, lhs is the sum of the
    best estimates and the report is flagged degraded."""
    if not quadrature_tol > 0:
        raise ValueError("quadrature_tol must be positive")
    if not spec.compact and not pair.gaussian_ok:
        raise ValueError("gaussian_diag is only admitted on pairs flagged "
                         "absolutely convergent for Gaussians")
    t0 = time.perf_counter()
    units = []  # (frequencies, unit-profile FT result) of every FT call

    def phihat(xi):
        out, nu, unit = _ft(spec, xi, quadrature_tol)
        units.append((nu, unit))
        return out

    T = pair.mu.truncation_radius
    lhs_res = integrate_against(pair.mu, phihat, T + 1.0, quadrature_tol)
    degraded = not (lhs_res.converged and all(u.converged for _, u in units))
    rhs = complex(np.sum(pair.a.values * eval_testfn(spec, pair.a.lambdas)))
    runtime_ms = int(1000 * (time.perf_counter() - t0))
    nu = np.concatenate([n for n, _ in units])
    uhat = np.concatenate([u.value for _, u in units])
    return VerificationReport(pair.name, spec, complex(lhs_res.value), rhs, T,
                              pair.a.lambda_max, quadrature_tol, runtime_ms, degraded,
                              _tail_estimate(pair, spec, nu, uhat))
