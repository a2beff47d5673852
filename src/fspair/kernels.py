"""Auxiliary kernels used on the Nevanlinna side.

Contains the polynomial family r_k of the generating series
exp((1 - sqrt(1-q)) X) / sqrt(1-q) in closed form, the iterated-convolution
kernels A_k(x) = e^{-2 pi |x|} pi^{1-k} r_{k-1}(2 pi |x|), the half-plane
kernels G_k and their Fourier transforms, and the Fejer-type taper S_k whose
Fourier transform is a normalized central B-spline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "RPolynomial",
    "r_poly",
    "b_coeffs",
    "eval_A",
    "eval_S",
    "eval_Shat",
    "bspline_value",
    "eval_Ghat",
    "eval_G",
    "pf_identity_residual",
]

R_POLY_K_CAP = 16
EPS_SING = 1e-6  # exclusion radius around z = i for the k >= 1 closed form


@dataclass(frozen=True)
class RPolynomial:
    """r_k as coefficient array; coeffs[j] multiplies X^j."""

    k: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        object.__setattr__(self, "coeffs", c)
        if c.shape != (self.k + 1,):
            raise ValueError("coefficient count must be k+1")
        if c[self.k] == 0.0:
            raise ValueError("degree must be exactly k")

    def __call__(self, x):
        return np.polyval(self.coeffs[::-1], x)


def _check_upper(w: complex, z: complex) -> None:
    if w.imag <= 0 or z.imag <= 0:
        raise ValueError("w and z must lie in the upper half-plane")


@lru_cache(maxsize=None)
def r_poly(k: int) -> RPolynomial:
    """r_k in closed form: the coefficient of X^m is 2^m C(2k-m, k-m) / (4^k m!).

    It is the q^k coefficient of u(q)^m / m! * (1-q)^{-1/2} with
    u = 1 - sqrt(1-q): for q = 4w, u = 2w C(w) with C the Catalan series, and
    C(w)^m / sqrt(1-4w) = sum_n C(2n+m, n) w^n.  Each coefficient is one
    quotient of exact integers, correctly rounded.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > R_POLY_K_CAP:
        raise ValueError(f"k is capped at {R_POLY_K_CAP}")
    return RPolynomial(k, [2 ** m * math.comb(2 * k - m, k - m) / (4 ** k * math.factorial(m))
                           for m in range(k + 1)])


@lru_cache(maxsize=None)
def b_coeffs(k: int) -> tuple:
    """Coefficients b_{k-1,j} of p_{k-1}(x) = pi^{1-k} r_{k-1}(2 pi x), k >= 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    r = r_poly(k - 1)
    pref = math.pi ** (1 - k)
    return tuple(pref * (2.0 * math.pi) ** j * r.coeffs[j] for j in range(k))


def eval_A(k: int, x: float) -> float:
    """The k-fold convolution power of e^{-2 pi |.|}, in closed form."""
    if k < 1:
        raise ValueError("A_k is defined for k >= 1 only")
    ax = abs(x)
    r = r_poly(k - 1)
    return math.exp(-2.0 * math.pi * ax) * math.pi ** (1 - k) * float(r(2.0 * math.pi * ax))


def bspline_value(n: int, t):
    """Central B-spline M_n(t): the n-fold convolution of 1_{[-1/2,1/2]}.

    Evaluated by the Cox-de Boor style recurrence
    M_n(t) = ((n/2 + t) M_{n-1}(t + 1/2) + (n/2 - t) M_{n-1}(t - 1/2)) / (n - 1),
    bottom-up: level m holds M_m(t + s) at the n - m + 1 shifts s the levels
    above need, so the cost is O(n^2) per point.  t may be an array.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    t = np.asarray(t, dtype=float)[..., None]
    u = np.abs(t + (np.arange(n) - (n - 1) / 2.0))
    # midpoint convention at the jump keeps the recurrence exact at knots
    vals = np.where(u < 0.5, 1.0, np.where(u == 0.5, 0.5, 0.0))
    for m in range(2, n + 1):
        u = t + (np.arange(n - m + 1) - (n - m) / 2.0)
        vals = ((m / 2.0 + u) * vals[..., 1:] + (m / 2.0 - u) * vals[..., :-1]) / (m - 1)
    out = vals[..., 0]
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=None)
def _vk(k: int) -> float:
    return bspline_value(2 * (k + 1), 0.0)


def eval_S(k: int, x: float) -> float:
    """S_k(x) = (sin(pi x)/(pi x))^{2(k+1)} / v_k, with S_k(0) = 1/v_k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if x == 0.0:
        return 1.0 / _vk(k)
    s = math.sin(math.pi * x) / (math.pi * x)
    return s ** (2 * (k + 1)) / _vk(k)


def eval_Shat(k: int, t: float) -> float:
    """Fourier transform of S_k: the order-2(k+1) central B-spline, normalized
    so that eval_Shat(k, 0) = 1.  Vanishes outside [-(k+1), k+1]."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return bspline_value(2 * (k + 1), t) / _vk(k)


def eval_Ghat(k: int, w: complex, z: complex, t: float) -> complex:
    """Fourier transform (in the last variable) of G_k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    _check_upper(w, z)
    return 1.0 / (2.0 * math.pi ** (k + 1) * 1j * (t - z) * (t - w.conjugate())
                  * (1.0 + t * t) ** k)


def _pf_sum(k: int, zz: complex, lam) -> np.ndarray:
    """sum_{j<k} j! b_{k-1,j} / (2 pi (1 + i zz))^{j+1} * (partial exponential
    sum of 2 pi lam (1 + i zz) up to order j), at lam or an array of lam."""
    b = b_coeffs(k)
    two_pi = 2.0 * math.pi
    step = two_pi * np.asarray(lam, dtype=float) * (1.0 + 1j * zz)
    term = np.ones_like(step)
    partial = term
    total = 0.0
    for j in range(k):
        if j > 0:
            term = term * step / j
            partial = partial + term
        total = total + (math.factorial(j) * b[j]
                         / (two_pi ** (j + 1) * (1.0 + 1j * zz) ** (j + 1))) * partial
    return total


def _G_nonneg(k: int, w: complex, z: complex, lam: np.ndarray) -> np.ndarray:
    """Closed form of G_k(w, z, lam) at an array of lam >= 0."""
    wb = w.conjugate()
    t3 = np.exp(2j * math.pi * lam * z) / (z - wb)
    if k == 0:
        return t3
    decay = np.exp(-2.0 * math.pi * lam) / (z - wb)
    return (decay * (_pf_sum(k, wb, lam) - _pf_sum(k, z, lam))
            + t3 / (math.pi ** k * (1.0 + z * z) ** k))


def eval_G(k: int, w: complex, z: complex, lam):
    """The kernel G_k(w, z, lam) at a scalar or an array of lam; for lam < 0
    via the antisymmetry G_k(w, z, -lam) = -conj(G_k(z, w, lam))."""
    if k < 0:
        raise ValueError("k must be >= 0")
    _check_upper(w, z)
    if k >= 1 and (abs(z - 1j) < EPS_SING or abs(w - 1j) < EPS_SING):
        raise ValueError("arguments too close to i for the k >= 1 closed form")
    lam = np.asarray(lam, dtype=float)
    neg = lam < 0
    out = np.empty(lam.shape, dtype=complex)
    out[~neg] = _G_nonneg(k, w, z, lam[~neg])
    out[neg] = -_G_nonneg(k, z, w, -lam[neg]).conjugate()
    return complex(out) if out.ndim == 0 else out


def pf_identity_residual(k: int, z: complex) -> float:
    """Residual of the partial-fraction identity behind G_k,
    _pf_sum(k, z, 0) + _pf_sum(k, -z, 0)
      = sum_j j! b_{k-1,j} / (2 pi)^{j+1} [(1+iz)^{-(j+1)} + (1-iz)^{-(j+1)}]
      = pi^{-k} (1+z^2)^{-k}."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if abs(z - 1j) < 1e-12 or abs(z + 1j) < 1e-12:
        raise ValueError("z = +-i is excluded")
    lhs = _pf_sum(k, z, 0.0) + _pf_sum(k, -z, 0.0)
    return float(abs(lhs - 1.0 / (math.pi ** k * (1.0 + z * z) ** k)))
