"""Truncated power series over float64, Euler/theta expansions, the
eta-quotient coefficient family alpha_{n,c}, and the sum-of-three-squares
counting function r3(n).

All series are formal expansions in q, truncated hard at a fixed order
n_max; a fractional leading power of q is tracked separately in
``leading_exponent`` so the coefficient arrays stay integer-indexed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TruncatedPowerSeries",
    "R3Table",
    "euler_coeffs",
    "series_mul",
    "series_pow",
    "guinand_coeffs",
    "theta_coeffs",
    "r3_sequence",
]

GUINAND_C_MAX = 0.125


@dataclass(frozen=True)
class TruncatedPowerSeries:
    """Coefficients of  q^leading_exponent * sum_n coeffs[n] q^n,  n <= n_max."""

    leading_exponent: float
    coeffs: np.ndarray
    n_max: int

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        object.__setattr__(self, "coeffs", c)
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")
        if c.shape != (self.n_max + 1,):
            raise ValueError("coeffs must have length n_max+1")

    def dilate(self, d: int) -> "TruncatedPowerSeries":
        """Substitute q -> q^d, truncated at the same n_max."""
        if d < 1:
            raise ValueError("dilation factor must be >= 1")
        out = np.zeros(self.n_max + 1)
        top = self.n_max // d
        out[:: d] = self.coeffs[: top + 1][: len(out[::d])]
        return TruncatedPowerSeries(self.leading_exponent * d, out, self.n_max)


@dataclass(frozen=True)
class R3Table:
    """values[n] = r3(n), the number of integer triples with |m|^2 = n."""

    values: np.ndarray
    n_max: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.int64)
        object.__setattr__(self, "values", v)
        if v.shape != (self.n_max + 1,):
            raise ValueError("values must have length n_max+1")


def euler_coeffs(n_max: int) -> TruncatedPowerSeries:
    """Coefficients of prod_{n>=1} (1 - q^n) via the pentagonal number theorem.

    The coefficients are exact integers (-1, 0, 1) stored as floats.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    c = np.zeros(n_max + 1)
    c[0] = 1.0
    k = np.arange(1, math.isqrt(n_max) + 2)  # k(3k-1)/2 >= k^2
    sign = np.where(k % 2 == 0, 1.0, -1.0)
    for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):  # all distinct
        c[g[g <= n_max]] += sign[g <= n_max]
    return TruncatedPowerSeries(0.0, c, n_max)


def series_mul(a: TruncatedPowerSeries, b: TruncatedPowerSeries) -> TruncatedPowerSeries:
    """Truncated Cauchy product; never extends past the common n_max."""
    if a.n_max != b.n_max:
        raise ValueError("series orders differ")
    n = a.n_max
    out = np.convolve(a.coeffs, b.coeffs)[: n + 1]
    return TruncatedPowerSeries(a.leading_exponent + b.leading_exponent, out, n)


def series_pow(s: TruncatedPowerSeries, e: float) -> TruncatedPowerSeries:
    """s**e for real e, requiring s.coeffs[0] == 1.

    Uses the standard differentiate-convolve-integrate recurrence for
    exp(e log s): stable and O(n_max^2).
    """
    if abs(s.coeffs[0] - 1.0) > 1e-12:
        raise ValueError("series_pow requires a series with constant term 1")
    n = s.n_max
    f = np.zeros(n + 1)
    f[0] = 1.0
    sc = s.coeffs
    j = np.arange(n + 1, dtype=float)
    js = j * sc  # j * s_j
    for m in range(1, n + 1):
        # m f_m = e sum_{j=1..m} j s_j f_{m-j} - sum_{j=1..m-1} j f_j s_{m-j}
        t1 = np.dot(js[1 : m + 1], f[m - 1 :: -1][: m])
        t2 = np.dot(j[1:m] * f[1:m], sc[m - 1 : 0 : -1]) if m > 1 else 0.0
        f[m] = (e * t1 - t2) / m
    return TruncatedPowerSeries(s.leading_exponent * e, f, n)


def theta_coeffs(n_max: int) -> TruncatedPowerSeries:
    """Coefficients of sum_{m in Z} q^{m^2}, by direct enumeration of m."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    c = np.zeros(n_max + 1)
    c[np.arange(1, math.isqrt(n_max) + 1) ** 2] = 2.0
    c[0] = 1.0
    return TruncatedPowerSeries(0.0, c, n_max)


def guinand_coeffs(c: float, n_max: int) -> TruncatedPowerSeries:
    """alpha_{0..n_max, c} of the self-dual eta quotient family, with
    leading_exponent = c.

    The quotient combines three Euler products (arguments q, q^2, q^4)
    raised to the real exponents 24c-2 and -(48c-5); the fractional
    prefactors combine to q^c exactly, so only integer powers are expanded.
    Outside c in [0, 1/8] the coefficients grow exponentially and the
    construction is rejected.
    """
    if not (0.0 <= c <= GUINAND_C_MAX + 1e-15):
        raise ValueError("c must lie in [0, 1/8]")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    a = 24.0 * c - 2.0
    b = 48.0 * c - 5.0
    # multiply one (1 - q^d)^e factor at a time; the coefficients up to
    # order n are final after step n, so large transient coefficients in
    # the unconverged high orders never contaminate the result (forming
    # the three full Euler-product powers first and multiplying them
    # loses everything to cancellation near c = 0)
    out = np.zeros(n_max + 1)
    out[0] = 1.0
    for n in range(1, n_max + 1):
        for d, e in ((n, a), (2 * n, -b), (4 * n, a)):
            if d > n_max:
                continue
            k_top = n_max // d
            binom = np.zeros(k_top + 1)
            binom[0] = 1.0
            for k in range(1, k_top + 1):  # (1 - x)^e binomial series
                binom[k] = binom[k - 1] * (k - 1 - e) / k
            new = np.zeros(n_max + 1)
            for k in range(k_top + 1):
                new[k * d:] += binom[k] * out[: n_max + 1 - k * d]
            out = new
    return TruncatedPowerSeries(c, out, n_max)


def r3_sequence(n_max: int) -> R3Table:
    """r3(n) for 0 <= n <= n_max: the exact two-square counts convolved with
    the theta weights by one float64 FFT, then rounded; RuntimeError if a
    value misses an integer by more than 0.25."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    m = math.isqrt(n_max)
    sq = np.arange(-m, m + 1, dtype=np.int64) ** 2
    r2 = np.bincount((sq[:, None] + sq[None, :]).ravel(), minlength=n_max + 1)[: n_max + 1]
    size = 1 << (2 * n_max).bit_length()  # > 2 n_max: no wrap-around
    conv = np.fft.irfft(np.fft.rfft(r2, size) * np.fft.rfft(theta_coeffs(n_max).coeffs, size),
                        size)[: n_max + 1]
    counts = np.rint(conv).astype(np.int64)
    if np.max(np.abs(conv - counts)) > 0.25:
        raise RuntimeError("r3 convolution missed an integer by more than 0.25")
    return R3Table(counts, n_max)
