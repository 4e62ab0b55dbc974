"""The rescaled-position limit density and everything needed to test it.

The limit law on (-s, s) has density t*(1 + lambda*y) / (pi*(1-y^2)*sqrt(s^2-y^2)),
where lambda depends on the initial spin; its mean is lambda*(1 - t) in
closed form.  The inverse-square-root edge factor is integrable but breaks
naive quadrature, so the characteristic function :func:`limit_char_fn` goes
through one expectation helper that substitutes y = s*sin(theta).  The
integrand is then smooth and depends on theta only through sin(theta), so
the expectation is a mean over the whole circle, as are the contour limits
of :func:`asym_limits`.  All of them take one rule,
:func:`qwalk1d.cheb_engine._circle_mean`: trapezoid means on a doubling
power-of-two node count until two means, scaled as returned, agree to 1e-10.
The CDF has an elementary antiderivative in theta, which :func:`cdf_grid`
evaluates in closed form.  Finite-size contour integrals (entries of the
Chebyshev Gram kernel of :mod:`qwalk1d.cheb_engine`, exact circle means, a
whole (k, xi) grid per n in one batched call by :func:`asym_grid`) and their
closed limits support the convergence experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cheb_engine import _cheb_gram, _circle_mean
from .coin import CoinMatrix, _check_unit, check_polar, polar
from .direct_walk import Distribution, _csv_text
from .errors import ParamViolation


@dataclass(frozen=True)
class LimitDensity:
    """Parameters (s, t, lam) of the limit density on (-s, s)."""

    s: float
    t: float
    lam: float

    def __post_init__(self):
        check_polar(self.s, self.t)
        if not abs(self.lam) <= 1.0 / self.s + 1e-12:
            raise ParamViolation(
                f"|lambda| = {abs(self.lam)!r} exceeds 1/s = {1.0 / self.s!r}; "
                "the density would go negative"
            )


def lambda_psi(psi: np.ndarray, s: float, t: float) -> float:
    """Asymmetry parameter |psi_1|^2 - |psi_2|^2 + 2 Re(psi_1 conj(psi_2)) t/s."""
    psi = np.asarray(psi, dtype=complex)
    _check_unit(psi)
    check_polar(s, t)
    p1, p2 = complex(psi[0]), complex(psi[1])
    return abs(p1) ** 2 - abs(p2) ** 2 + 2.0 * (p1 * p2.conjugate()).real * t / s


def lambda_phi(phi: np.ndarray, c: CoinMatrix) -> float:
    """Asymmetry parameter in the position-basis convention.

    |phi_1|^2 - |phi_2|^2 - (a b conj(phi_1) phi_2 + conj(a b) phi_1 conj(phi_2)) / |a|^2.
    The correction is a number plus its conjugate, so the value is real; the
    imaginary residue is asserted below 1e-12 before being discarded.

    Raises
    ------
    DegenerateCoin
        If a = 0 or b = 0 (from :func:`qwalk1d.coin.polar`).
    ParamViolation
        If the coin's polar split fails :func:`qwalk1d.coin.check_polar`, as
        for a = 1, b = 1e-9.
    """
    s = polar(c).s
    phi = np.asarray(phi, dtype=complex)
    _check_unit(phi)
    p1, p2 = complex(phi[0]), complex(phi[1])
    ab = c.a * c.b
    corr = ab * p1.conjugate() * p2 + ab.conjugate() * p1 * p2.conjugate()
    if abs(corr.imag) > 1e-12:
        raise ParamViolation(f"imaginary residue {corr.imag!r} in a real quantity")
    return abs(p1) ** 2 - abs(p2) ** 2 - corr.real / s ** 2


def density(d: LimitDensity, y) -> float | np.ndarray:
    """Density value(s) at y: zero outside (-s, s), else the closed form."""
    y_arr = np.asarray(y, dtype=float)
    inside = np.abs(y_arr) < d.s
    safe = np.where(inside, y_arr, 0.0)
    val = np.where(
        inside,
        d.t * (1.0 + d.lam * safe) / (np.pi * (1.0 - safe**2) * np.sqrt(np.maximum(d.s**2 - safe**2, 0.0))),
        0.0,
    )
    if np.isscalar(y) or np.ndim(y) == 0:
        return float(val)
    return val


def _expect(d: LimitDensity, g, band: float) -> complex:
    """Integral of g(y) against the limit law on (-s, s).

    After y = s*sin(theta) the law is (t/pi) (1 + lam*y) / (1 - y^2) dtheta on
    [-pi/2, pi/2], smooth and bounded.  The integrand depends on theta only
    through sin(theta), which takes the same values on [pi/2, 3pi/2], so the
    integral is the circle mean of t g(y) (1 + lam*y) / (1 - y^2), accurate
    to 1e-10 absolute.  ``g`` maps an array of y to values, and ``band`` is
    the bandwidth at which the circle rule starts.
    """

    def h(theta: np.ndarray) -> np.ndarray:
        y = d.s * np.sin(theta)
        return d.t * g(y) * (1.0 + d.lam * y) / (1.0 - y**2)

    return complex(_circle_mean(h, band))


def cdf_grid(d: LimitDensity, ys: np.ndarray) -> np.ndarray:
    """CDF at an ascending grid of points, from its closed form.

    With x = y/s clipped to [-1, 1], the density in theta = asin(y/s),
    t(1 + lam*s*sin)/(pi(1 - s^2 sin^2)), has the antiderivative
    [atan(t tan theta) - lam*atan(s cos theta / t)] / pi, so

        F(y) = 1/2 + [atan2(t x, sqrt(1 - x^2)) - lam*atan(s sqrt(1 - x^2) / t)] / pi,

    which is exactly 0 at x = -1 and exactly 1 at x = 1.
    """
    ys = np.asarray(ys, dtype=float)
    if np.any(np.diff(ys) < 0):
        raise ValueError("grid must be ascending")
    x = np.clip(ys / d.s, -1.0, 1.0)
    root = np.sqrt(1.0 - x * x)
    return 0.5 + (np.arctan2(d.t * x, root) - d.lam * np.arctan(d.s * root / d.t)) / np.pi


def limit_char_fn(d: LimitDensity, xi: float) -> complex:
    """(t/pi) * integral of e^{i xi y} (1 + lam y) / ((1-y^2) sqrt(s^2-y^2)).

    Returns exactly 1 at xi = 0 (normalization).
    """
    if xi == 0.0:
        return 1.0 + 0j
    return _expect(d, lambda y: np.exp(1j * xi * y), abs(xi) * d.s)


def asym_grid(n: int, ks, xis, s: float) -> np.ndarray:
    """The four circle integrals of :func:`asym_integrals` for every (k, xi) pair.

    Returns a complex array of shape (len(ks), len(xis), 4) holding (A, B,
    C, D) at (ks[a], xis[b]) in entry [a, b].  All pairs are entries of one
    batched call of the Chebyshev Gram kernel on the circle rule of
    bandwidth 2n + max|k|, which samples T and U once at theta and once per
    distinct non-zero shift xi/n, so the sampling costs O(n) per n and per
    distinct xi rather than per pair.  Since the node count follows the
    largest |k|, an entry agrees with a lone :func:`asym_integrals` call to
    roundoff, not bit for bit.
    """
    check_polar(s)
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    g = _cheb_gram(n, s, [xi / n for xi in xis], ks)
    return g[..., [0, 1, 0, 1], [0, 0, 1, 1]].astype(complex)


def asym_integrals(n: int, k: int, xi: float, s: float) -> tuple[complex, complex, complex, complex]:
    """The four circle integrals pairing shifted and unshifted Chebyshev factors.

    With T = T_n, U = U_{n-1} at s*cos(theta), shift d = xi/n and phase
    e^{i k theta}, these are A = mean(phase T(theta+d) T), B = mean(phase T(theta+d) U),
    C = mean(phase U(theta+d) T) and D = mean(phase U(theta+d) U): entries of
    the Chebyshev Gram kernel, whose circle rule is exact to roundoff.  This
    is the one-entry case of :func:`asym_grid`.
    """
    return tuple(complex(v) for v in asym_grid(n, [k], [xi], s)[0, 0])


def asym_limits(k: int, xi: float, s: float) -> tuple[complex, complex, complex, complex]:
    """Large-n limits of :func:`asym_integrals`.

    After the edge substitution x = s*sin(theta) each limit is
    (1/2pi) * integral over [-pi/2, pi/2] of i^k e^{-ik theta} F(theta), with
    stretch(theta) = s cos(theta) / sqrt(1 - x^2) and
    F = cos(xi stretch) for A, cos(xi stretch) / (1 - x^2) for D and
    sin(xi stretch) / sqrt(1 - x^2) for C = -B.  F is even in theta and
    F(pi - theta) = (-1)^k F(theta) for the pair that survives, so each
    limit is (i^k / 2) mean(cos(k theta) F) over the whole circle.  The
    parity prefactors make (A, D) exactly 0 for odd k and (B, C) for even k.
    """
    check_polar(s)

    def rows(theta: np.ndarray) -> np.ndarray:
        root = np.sqrt(1.0 - (s * np.sin(theta)) ** 2)
        arg = xi * s * np.cos(theta) / root
        half_cos = np.cos(k * theta) / 2
        if k % 2:
            return half_cos * np.sin(arg) / root
        a = half_cos * np.cos(arg)
        return np.array([a, a / root**2])

    lim = 1j ** (k % 4) * _circle_mean(rows, abs(k) + abs(xi) * s)
    if k % 2:
        return 0j, complex(-lim), complex(lim), 0j
    return complex(lim[0]), 0j, 0j, complex(lim[1])


def kolmogorov_distance(dist: Distribution, d: LimitDensity, n: int) -> float:
    """sup-norm distance between the CDF of (position / n) and the limit CDF."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    ys = dist.sites / n
    f_lim = cdf_grid(d, ys)
    cum = np.cumsum(dist.probs)
    cum_prev = cum - dist.probs
    return float(np.max(np.maximum(np.abs(cum - f_lim), np.abs(cum_prev - f_lim))))


def density_cdf_csv(d: LimitDensity, ys: np.ndarray) -> str:
    """CSV with header ``y,density,cdf`` over an ascending grid."""
    ys = np.asarray(ys, dtype=float)
    return _csv_text("y,density,cdf", [ys, density(d, ys), cdf_grid(d, ys)])
