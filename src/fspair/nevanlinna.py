"""Holomorphic side of the summation-pair correspondence.

Evaluates F from the exponential-series side and from the
measure-integral (Nevanlinna) side, fits the real polynomial Q joining
the two, computes line-average (Bohr) coefficients, recovers the measure
by contour inversion near the real axis, counts the negative index of
Hermitian test matrices with parallel-ordered cyclic Jacobi, and realizes
the tapered kernel sum that bridges the two representations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .kernels import eval_G, eval_Shat
from .measures import FSPair, _gauss_legendre, integrate_against

__all__ = [
    "HolomorphicModel",
    "NevMatrix",
    "f_series",
    "f_integral",
    "fit_q",
    "build_model",
    "ef_coeff",
    "recover_measure",
    "recover_measure_extrapolated",
    "nev_matrix",
    "neg_index",
    "jacobi_eigenvalues",
    "bridge_sum",
    "bridge_rhs",
    "ap_proxy",
]

_MIN_POINT_SEP = 1e-8
_JACOBI_TOL = 1e-14  # off-diagonal Frobenius mass at which Jacobi stops, relative
_CAUCHY_BLOCK = (1 << 17, 1 << 15)  # elements (points x atoms), atoms per block of the atom sum
DEFAULT_NEG_TOL = 1e-9


# ----------------------------------------------------------------- series side

def _series_terms(pair: FSPair):
    """The series' term table: frequencies 0, then every lambda > 0 in
    ascending order, with the coefficients a(0)/2, then a(lambda)."""
    pos = pair.a.lambdas > 0
    return (np.concatenate([[0.0], pair.a.lambdas[pos]]),
            np.concatenate([[0.5 * pair.a.value_at(0.0)], pair.a.values[pos]]))


def _point_or_array(out):
    """A 0-d result as a Python scalar; an array result as it is."""
    return out.item() if np.ndim(out) == 0 else out


def f_series(pair: FSPair, z, with_error: bool = False):
    """a(0)/2 + sum_{l > 0} a(l) e^{2 pi i l z}, trusted for Im z above the
    strip constant, at a point z or elementwise on an array of points.  With
    with_error, also returns a truncation tail bound per point, derived from
    the declared growth constant."""
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag <= pair.strip_constant):
        raise ValueError("series representation requires Im z > strip_constant")
    lam, v = _series_terms(pair)
    # summed along the term axis, so each point's value is the same in any batch
    val = _point_or_array(np.sum(np.exp(2j * math.pi * np.multiply.outer(z, lam)) * v, axis=-1))
    if not with_error:
        return val
    # sum |a| e^{-c2 l} is declared finite; bound the truncated tail crudely by
    # the last retained magnitude continued at the worst admissible growth rate
    gap, lmax = 2.0 * math.pi * z.imag - pair.a.growth_constant, pair.a.lambda_max
    tail = np.divide(np.exp(-np.maximum(gap, 0.0) * lmax), gap, out=np.zeros(z.shape),
                     where=(gap > 0) & (lmax > 0))
    return val, _point_or_array(tail)


# --------------------------------------------------------------- integral side

class HolomorphicModel:
    """A pair together with the index k and the fitted polynomial Q.

    q_poly holds real coefficients, lowest order first, degree <= 2k.
    """

    def __init__(self, pair: FSPair, k: int, q_poly: np.ndarray,
                 fit_residual: float = 0.0):
        q_poly = np.atleast_1d(np.asarray(q_poly, dtype=float))
        if len(q_poly) > 2 * k + 1:
            raise ValueError("Q must have degree <= 2k")
        self.pair = pair
        self.k = k
        self.q_poly = q_poly
        self.fit_residual = fit_residual
        # (1+tz)/((t-z)(1+t^2)^{k+1}) = 1/((t-z)(1+t^2)^k) - t/(1+t^2)^{k+1}: the
        # atoms enter through the weights c = w/(1+t^2)^k (real for a real mu)
        # and the z-independent S = sum c t/(1+t^2)
        t, w = pair.mu.atom_locations, pair.mu.atom_weights
        self._c = np.ascontiguousarray(w.real if pair.mu.is_real() else w)
        if k:
            self._c = self._c / (1.0 + t * t) ** k
        self._shift = complex(np.sum(self._c * (t / (1.0 + t * t))))
        self._moments = {}  # far-field moments by radius exponent, see _far_moments

    def q_at(self, z):
        """Q at a point z or elementwise on an array of points."""
        return _point_or_array(np.polynomial.polynomial.polyval(np.asarray(z, dtype=complex),
                                                                self.q_poly))

    def integral_part(self, z, tol: float = 1e-10):
        """(z^2+1)^k/(2 pi i) * integral (1+tz)/(t-z) dmu(t)/(1+t^2)^{k+1}.

        z may be an array of points; the result then has its shape.  The
        atoms are summed as sum c/(t-z) - S (see __init__), with absolute
        rounding of about eps * sum |c|/|t|.  RuntimeError if the density
        quadrature misses tol."""
        z = np.asarray(z, dtype=complex)
        if np.any(z.imag <= 0):
            raise ValueError("integral representation requires Im z > 0")
        flat = z.ravel()
        total = self._atom_sum(flat)
        density, k = self.pair.mu.density, self.k
        if density is not None:
            # one quadrature over the points as a batch: the mesh refines near
            # every Re z, and each point is held to tol
            T = self.pair.mu.truncation_radius or 50.0
            zc = flat[:, None]

            def integrand(t):
                return density(t) * (1.0 + t * zc) / ((t - zc) * (1.0 + t * t) ** (k + 1))

            total += _gauss_legendre(integrand, -T, T, 1.0, tol).checked("integral_part")
        # on the 1-d points, so a point is scaled alike alone and in any batch
        return _point_or_array(((flat * flat + 1.0) ** k / (2j * math.pi) * total).reshape(z.shape))

    def _atom_sum(self, z: np.ndarray) -> np.ndarray:
        """sum c/(t-z) - S at the 1-d points z.  Each point takes the power of
        two r = 2^e at or above max(|z|, 1): its near atoms |t| < 8r enter
        through _cauchy_sum, its far atoms through the moments of
        _far_moments(e).  A model whose atoms fit in one block sums them all
        directly.  Neither the split nor the blocks depend on the batch, so a
        point gets the same value alone as in any batch."""
        t, c = self.pair.mu.atom_locations, self._c
        out = np.full(z.shape, -self._shift)
        if len(t) <= _CAUCHY_BLOCK[1]:
            _cauchy_sum(t, c, z, out)
            return out
        frac, e = np.frexp(np.maximum(np.abs(z), 1.0))
        e -= frac == 0.5  # 2^e is now the power of two at or above max(|z|, 1)
        for ei in np.unique(e).tolist():
            at = np.flatnonzero(e == ei)
            zr, part = z[at], out[at]
            lo, hi = _within(t, math.ldexp(8.0, ei))
            _cauchy_sum(t[lo:hi], c[lo:hi], zr, part)
            if hi - lo < len(t):
                if ei not in self._moments:
                    self._moments[ei] = self._far_moments(ei)
                part += np.polynomial.polynomial.polyval(zr, self._moments[ei])
            out[at] = part
        return out

    def _far_moments(self, e: int) -> np.ndarray:
        """The moments M_m = sum c t^-(m+1) over the atoms |t| >= 8r, r = 2^e,
        so that those atoms give sum c/(t-z) = sum_m M_m z^m for |z| <= r.
        One blockwise pass over the dyadic shells 8r 2^j <= |t| < 8r 2^(j+1),
        where |z/t| <= 1/(8 2^j): shell j keeps _far_terms(j) terms, 18 in
        the first shell and fewer further out."""
        t, c = self.pair.mu.atom_locations, self._c
        moments = np.zeros(_far_terms(0), dtype=c.dtype)
        inner, j = _within(t, math.ldexp(8.0, e)), 0
        while inner != (0, len(t)):
            outer, terms = _within(t, math.ldexp(16.0, e + j)), _far_terms(j)
            for a, b in ((outer[0], inner[0]), (inner[1], outer[1])):
                for s in range(a, b, _CAUCHY_BLOCK[1]):
                    u = 1.0 / t[s:min(s + _CAUCHY_BLOCK[1], b)]
                    p = c[s:s + len(u)] * u
                    for m in range(terms):
                        moments[m] += p.sum()
                        p *= u
            inner, j = outer, j + 1
        return moments

    def truncation_error_estimate(self, z):
        """Heuristic bound for the discarded |t| > T part of the integral, at
        a point z or elementwise on an array of points (0 when T <= 1)."""
        z = np.asarray(z, dtype=complex)
        T, k = self.pair.mu.truncation_radius, self.k
        rate = self.pair.mu.edge_mass_rate() * T ** (-(2 * k + 1)) if T > 1.0 else 0.0
        return _point_or_array(np.abs(z * z + 1.0) ** k * (1.0 + np.abs(z)) * rate
                               / (math.pi * (2 * k + 1)))


def _far_terms(j: int) -> int:
    """ceil(16 ln 10 / ln(8 2^j)): the terms of 1/(t-z) = sum z^m t^-(m+1)
    that reach 1e-16 of |1/t| where |z/t| <= 1/(8 2^j)."""
    return math.ceil(16.0 / ((j + 3) * math.log10(2.0)))


def _within(t: np.ndarray, radius: float):
    """The slice (lo, hi) of the sorted t with |t| < radius."""
    return int(np.searchsorted(t, -radius, "right")), int(np.searchsorted(t, radius, "left"))


def _cauchy_sum(t: np.ndarray, c: np.ndarray, z: np.ndarray, out: np.ndarray) -> None:
    """Add sum c/(t-z) at the 1-d points z into out, as 1/(t-z) = (d + iy)/(d^2 + y^2)
    with d = t - x (in real arithmetic for real c), over blocks of at most
    _CAUCHY_BLOCK elements and atoms, with pairwise sums along each block.
    The atom blocks depend on the atoms only."""
    width = min(len(t), _CAUCHY_BLOCK[1]) or 1
    rows = _CAUCHY_BLOCK[0] // width
    d_buf, r_buf = np.empty((2, min(len(z), rows), width), dtype=c.dtype)
    for p in range(0, len(z), rows):
        x, y = z.real[p:p + rows, None], z.imag[p:p + rows, None]
        for a in range(0, len(t), width):
            tb, cb = t[a:a + width], c[a:a + width]
            d = np.subtract(tb, x, out=d_buf[:len(x), :len(tb)])
            r = np.multiply(d, d, out=r_buf[:len(x), :len(tb)])
            r += y * y
            np.divide(cb, r, out=r)
            out[p:p + rows] += 1j * y[:, 0] * r.sum(axis=-1)
            r *= d
            out[p:p + rows] += r.sum(axis=-1)


def f_integral(model: HolomorphicModel, z, tol: float = 1e-10):
    """The Nevanlinna-side value, valid on the whole upper half-plane, at a
    point z or elementwise on an array of points."""
    return model.integral_part(z, tol) + 1j * model.q_at(z)


def fit_q(pair: FSPair, k: int, sample: Sequence[complex],
          quad_tol: float = 1e-10):
    """Least-squares fit of the real polynomial Q (degree <= 2k) that makes
    the integral side match the series side on the given strip sample.

    Returns (coefficients lowest-first, rms residual).  Raises if the
    sample is too small or clustered, or if the residual exceeds ten times
    the combined series/quadrature/truncation error estimate (which signals
    a wrong k or a bad truncation).
    """
    model = build_model(pair, k, sample, quad_tol)
    return model.q_poly, model.fit_residual


def default_k(pair: FSPair) -> int:
    """Smallest k with 2(k+1) >= the declared degree bound."""
    return max(0, math.ceil(pair.mu.degree_bound / 2.0) - 1)


def build_model(pair: FSPair, k: Optional[int] = None,
                sample: Optional[Sequence[complex]] = None,
                quad_tol: float = 1e-10) -> HolomorphicModel:
    """Fit Q as fit_q describes, on a default strip sample when none is
    given, and return the fitted evaluator model."""
    if k is None:
        k = default_k(pair)
    if sample is None:
        y0 = pair.strip_constant
        n = 4 * k + 8
        xs = np.linspace(-1.5, 1.5, n)
        ys = y0 + 0.5 + 0.8 * np.abs(np.sin(7.0 * np.arange(n)))
        sample = [complex(x, y) for x, y in zip(xs, ys)]
    zs = np.array([complex(z) for z in sample])
    if len(zs) < 4 * k + 4:
        raise ValueError("need at least 4k+4 sample points")
    series, tails = f_series(pair, zs, with_error=True)
    model = HolomorphicModel(pair, k, np.zeros(1))
    targets = series - model.integral_part(zs, quad_tol)
    errs = tails + quad_tol + model.truncation_error_estimate(zs)
    deg = 2 * k
    # i * Q(z) = target: split into real equations for the real coefficients
    powers = np.vstack([zs ** m for m in range(deg + 1)]).T
    design = np.vstack([-powers.imag, powers.real])
    rhs = np.concatenate([targets.real, targets.imag])
    coef, _, rank, sv = np.linalg.lstsq(design, rhs, rcond=None)
    if rank < deg + 1 or sv[-1] < 1e-10 * sv[0]:
        raise RuntimeError("ill-conditioned fit: sample points too clustered")
    resid = rhs - design @ coef
    rms = math.sqrt(float(np.mean(resid ** 2)) * 2.0)
    allowance = 10.0 * max(float(np.mean(errs)), 1e-14)
    if rms > allowance:
        raise RuntimeError(
            f"fit residual {rms:.2e} exceeds 10x error estimate {allowance:.2e}; "
            "wrong k or truncation too small")
    model.q_poly, model.fit_residual = coef, rms
    return model


# ------------------------------------------------------- Bohr-type coefficients

def ef_coeff(pair_or_model, lam: float, y: float, T: float) -> complex:
    """(1/2T) integral_{-T}^{T} F(x+iy) e^{-2 pi i lam (x+iy)} dx, F from the
    series side, in closed form: each term a(l) e^{2 pi i l z} averages to
    a(l) e^{-2 pi (l-lam) y} sinc(2T(l-lam))."""
    pair = pair_or_model.pair if isinstance(pair_or_model, HolomorphicModel) else pair_or_model
    if y <= pair.strip_constant:
        raise ValueError("y must exceed the strip constant")
    if T <= 0:
        raise ValueError("T must be positive")
    freqs, v = _series_terms(pair)
    d = freqs - lam
    return complex(np.sum(v * np.exp(-2.0 * math.pi * d * y) * np.sinc(2.0 * T * d)))


# ------------------------------------------------------------- measure recovery

def recover_measure(model: HolomorphicModel, a: float, b: float, s: float,
                    tol: float = 1e-7) -> float:
    """Re integral_{a+is}^{b+is} (F(z) - iQ(z)) / (z^2+1)^{k+1} dz; as s drops
    to zero this converges to (1/2) integral_a^b dmu(t)/(1+t^2)^{k+1}.

    The k+1 contour exponent is forced by the target normalization: a unit
    atom at t0 contributes exactly 1/(2 (1+t0^2)^{k+1}) in the limit.

    The contour integral is taken in closed form under the mu integral, so
    mu is paired once with the resulting kernel; RuntimeError if the
    density quadrature misses tol."""
    if not a < b:
        raise ValueError("need a < b")
    if not 0.0 < s <= 0.1:
        raise ValueError("s must lie in (0, 0.1]")
    mu, k = model.pair.mu, model.k
    for endpoint in (a, b):
        if len(mu.atom_locations) and np.min(np.abs(mu.atom_locations - endpoint)) < 1e-3:
            raise ValueError(f"endpoint {endpoint} is within 1e-3 of an atom")
    za, zb = complex(a, s), complex(b, s)

    def kernel(t):
        # the contour integral of (1+tz)/((t-z)(1+z^2)) = 1/(t-z) + z/(1+z^2);
        # t - z stays in the lower half-plane and 1 + z^2 off the negative
        # axis, so the principal logs are continuous along the contour
        logs = (np.log(t - za) - np.log(t - zb)
                + 0.5 * (np.log(1.0 + zb * zb) - np.log(1.0 + za * za)))
        return logs / (2j * math.pi * (1.0 + t * t) ** (k + 1))

    return float(integrate_against(mu, kernel, mu.truncation_radius or 50.0, tol)
                 .checked("recover_measure").real)


def recover_measure_extrapolated(model: HolomorphicModel, a: float, b: float,
                                 s_list: Sequence[float] = (1e-1, 1e-2, 1e-3),
                                 tol: float = 1e-7):
    """Values at each contour height plus their polynomial extrapolation to
    s = 0 (the limit itself is not quantified; the sequence is reported)."""
    s_list = list(s_list)
    vals = [recover_measure(model, a, b, s, tol) for s in s_list]
    coeffs = np.polyfit(np.array(s_list), np.array(vals), len(s_list) - 1)
    return vals, float(np.polyval(coeffs, 0.0))


# ----------------------------------------------------------- Nevanlinna matrix

@dataclass(frozen=True)
class NevMatrix:
    points: tuple
    entries: np.ndarray


def nev_matrix(model: HolomorphicModel, points: Sequence[complex],
               tol: float = 1e-10) -> NevMatrix:
    """Hermitian test matrix i (F(z_n) + conj F(z_m)) / (z_n - conj z_m)."""
    zs = np.array([complex(z) for z in points])
    if np.any(zs.imag <= 0):
        raise ValueError("points must lie in the upper half-plane")
    gaps = np.abs(zs[:, None] - zs[None, :]) + _MIN_POINT_SEP * np.eye(len(zs))
    if np.any(gaps < _MIN_POINT_SEP):
        raise ValueError("near-duplicate points inflate the condition number")
    fv = f_integral(model, zs, tol)
    num = 1j * (fv[:, None] + fv[None, :].conjugate())
    den = zs[:, None] - zs[None, :].conjugate()
    return NevMatrix(tuple(zs.tolist()), num / den)


def jacobi_eigenvalues(H: np.ndarray, max_sweeps: int = 60) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix by cyclic Jacobi rotations.

    Each (p, q) step makes the pivot real by a phase, then applies the
    classical real rotation; a cyclic-by-rows sweep is 2n - 3 array steps,
    one per wavefront p + q = w of disjoint rotations.  Converged when the
    off-diagonal Frobenius mass drops below _JACOBI_TOL times the total;
    RuntimeError if max_sweeps run out first, ValueError if an entry is not finite."""
    A = np.array(H, dtype=complex)
    n = A.shape[0]
    if A.shape != (n, n) or not np.all(np.isfinite(A)):
        raise ValueError("matrix must be square with finite entries")
    diag = A.diagonal()  # a view: it follows the rotations
    total, sweeps = np.linalg.norm(A), 0  # n <= 1 and A = 0 leave the loop at once
    # measured directly: |A|^2 - |diag A|^2 cancels below ~1e-8 |A|
    while np.linalg.norm(A - np.diag(diag)) > _JACOBI_TOL * total:
        if sweeps == max_sweeps:
            raise RuntimeError(f"Jacobi eigensolver not converged after {max_sweeps} sweeps")
        sweeps += 1
        for w in range(1, 2 * n - 2):
            # pairs (p, w - p), each after the rotations it shares an index with
            p, q = slice(max(0, w - n + 1), (w + 1) // 2), slice(min(w, n - 1), w // 2, -1)
            apq = A[p, q].diagonal()
            r = np.abs(apq)
            live = r > 1e-300  # t = 0 leaves the other pivots untouched
            phase = np.divide(apq, r, out=np.ones_like(apq), where=live)
            d = diag[q].real - diag[p].real  # tau = d/(2r): t scaled by 2r, no overflow
            t = np.divide(np.copysign(2.0 * r, d), np.abs(d) + np.hypot(d, 2.0 * r),
                          out=np.zeros_like(r), where=live)
            c = 1.0 / np.hypot(t, 1.0)
            s = t * c
            # A <- J^H A J, J = [[c, s], [-s conj(phase), c conj(phase)]]: columns, rows
            for M, ph in ((A, phase.conj()), (A.T, phase)):
                x, y = M[:, p], M[:, q]
                M[:, p], M[:, q] = c * x - s * ph * y, s * x + c * ph * y
    return np.sort(diag.real)


def neg_index(m: NevMatrix, tol_rel: float = DEFAULT_NEG_TOL) -> int:
    """Count eigenvalues below -tol_rel times the spectral norm estimate."""
    if tol_rel <= 0:
        raise ValueError("tol_rel must be positive")
    eig = jacobi_eigenvalues(m.entries)
    return int(np.sum(eig < -tol_rel * np.max(np.abs(eig), initial=0.0)))


# ----------------------------------------------------------------- bridge sums

def bridge_sum(pair: FSPair, k: int, w: complex, z: complex, T: float) -> complex:
    """Tapered sum over the a-support: a(l) G_k(w,z,l) Shat_k(l/T)."""
    if T <= 0:
        raise ValueError("T must be positive")
    lam = pair.a.lambdas
    inside = np.abs(lam) < T * (k + 1)  # Shat_k vanishes outside
    lam, v = lam[inside], pair.a.values[inside]
    return complex(np.sum(v * eval_G(k, w, z, lam) * eval_Shat(k, lam / T)))


def bridge_rhs(pair: FSPair, k: int, w: complex, z: complex,
               tol: float = 1e-10) -> complex:
    """(1/(2 pi^{k+1} i)) integral dmu(t) / ((t-z)(t-wbar)(1+t^2)^k);
    RuntimeError if the density quadrature misses tol."""
    if w.imag <= 0 or z.imag <= 0:
        raise ValueError("w and z must lie in the upper half-plane")
    wb = w.conjugate()
    mu = pair.mu
    total = integrate_against(mu, lambda t: 1.0 / ((t - z) * (t - wb) * (1.0 + t * t) ** k),
                              mu.truncation_radius or 50.0, tol).checked("bridge_rhs")
    return complex(total) / (2.0 * math.pi ** (k + 1) * 1j)


# --------------------------------------------------------- almost-periodicity

def ap_proxy(pair: FSPair, y: float, trunc_list: Sequence[int],
             x_grid: Optional[np.ndarray] = None):
    """Sup over an x-grid of |series truncated to N terms - full series| at
    height y, for each N; a decreasing sequence is the proxy for the
    trigonometric-polynomial approximation property.  Truncation to N keeps
    a(0)/2 and the first N positive frequencies."""
    if y <= pair.strip_constant:
        raise ValueError("y must exceed the strip constant")
    trunc = [int(n) for n in trunc_list]
    if min(trunc, default=0) < 0:
        raise ValueError("truncation counts must be non-negative")
    if x_grid is None:
        x_grid = np.linspace(-10.0, 10.0, 1024)
    lam, v = _series_terms(pair)
    terms = np.exp(2j * math.pi * np.multiply.outer(np.asarray(x_grid) + 1j * y, lam)) * v
    # tails[..., j] is the sum of the terms from j on, accumulated from the far end
    tails = np.cumsum(terms[..., ::-1], axis=-1)[..., ::-1]
    return [float(np.max(np.abs(tails[..., n + 1:n + 2]), initial=0.0)) for n in trunc]
