"""The rescaled-position limit density and everything needed to test it.

The limit law on (-s, s) has density t*(1 + lambda*y) / (pi*(1-y^2)*sqrt(s^2-y^2)),
where lambda depends on the initial spin.  The inverse-square-root edge factor
is integrable but breaks naive quadrature, so every integral here is computed
after the substitution y = s*sin(theta), whose integrand is smooth and
bounded.  The CDF has an elementary antiderivative in theta, which
:func:`cdf_grid` evaluates in closed form; :func:`cdf` keeps the adaptive
quadrature as its reference.  Finite-size contour integrals (trapezoid on the
unit circle over the Chebyshev samples of :mod:`qwalk1d.cheb_engine`, node
count tied to the trigonometric bandwidth) and their closed limits support
the convergence experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cheb_engine import _cheb_circle
from .coin import CoinMatrix, _check_unit, check_polar
from .direct_walk import Distribution, _csv_text
from .errors import DegenerateCoin, ParamViolation, QuadratureFailure

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_QUAD_TOL = 1e-10
_MAX_PANELS = 4096


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
    """
    if c.a == 0 or c.b == 0:
        raise DegenerateCoin("lambda is only defined for coins with a, b != 0")
    phi = np.asarray(phi, dtype=complex)
    _check_unit(phi)
    p1, p2 = complex(phi[0]), complex(phi[1])
    ab = c.a * c.b
    corr = ab * p1.conjugate() * p2 + ab.conjugate() * p1 * p2.conjugate()
    if abs(corr.imag) > 1e-12:
        raise ParamViolation(f"imaginary residue {corr.imag!r} in a real quantity")
    return abs(p1) ** 2 - abs(p2) ** 2 - corr.real / abs(c.a) ** 2


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


def _theta_integrand(d: LimitDensity):
    """CDF integrand after y = s*sin(theta): t(1 + lam*s*sin)/(pi(1 - s^2 sin^2))."""
    s, t, lam = d.s, d.t, d.lam

    def g(theta: np.ndarray) -> np.ndarray:
        sn = np.sin(theta)
        return t * (1.0 + lam * s * sn) / (np.pi * (1.0 - s**2 * sn**2))

    return g


def _gl_panels(f, a: float, b: float, panels: int) -> complex:
    """Composite 20-point Gauss-Legendre over equal panels of [a, b]."""
    edges = np.linspace(a, b, panels + 1)
    mid = (edges[1:] + edges[:-1]) / 2
    half = (edges[1:] - edges[:-1]) / 2
    nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = f(nodes.ravel()).reshape(panels, -1)
    return complex(np.sum(half[:, None] * _GL_WEIGHTS[None, :] * vals))


def _adaptive_gl(f, a: float, b: float, tol: float = _QUAD_TOL) -> complex:
    """Panel-doubling composite Gauss-Legendre to an absolute target.

    Raises
    ------
    QuadratureFailure
        If successive refinements still disagree at the panel cap.
    """
    if a == b:
        return 0j
    panels = 8
    prev = _gl_panels(f, a, b, panels)
    while panels <= _MAX_PANELS:
        panels *= 2
        cur = _gl_panels(f, a, b, panels)
        if abs(cur - prev) < tol:
            return cur
        prev = cur
    raise QuadratureFailure(
        f"integral on [{a}, {b}] did not stabilize to {tol} within {_MAX_PANELS} panels"
    )


def cdf(d: LimitDensity, y: float) -> float:
    """Integral of the density from -s to y by quadrature, accurate to 1e-10 absolute."""
    if y <= -d.s:
        return 0.0
    theta_hi = math.asin(min(y / d.s, 1.0))
    g = _theta_integrand(d)
    return _adaptive_gl(g, -math.pi / 2, theta_hi).real


def cdf_grid(d: LimitDensity, ys: np.ndarray) -> np.ndarray:
    """CDF at an ascending grid of points, from its closed form.

    With x = y/s clipped to [-1, 1], the theta integrand of :func:`cdf`,
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
    s, t, lam = d.s, d.t, d.lam

    def h(theta: np.ndarray) -> np.ndarray:
        sn = np.sin(theta)
        y = s * sn
        return t / np.pi * np.exp(1j * xi * y) * (1.0 + lam * y) / (1.0 - y**2)

    return _adaptive_gl(h, -math.pi / 2, math.pi / 2)


def limit_mean(d: LimitDensity) -> float:
    """First moment of the limit density, by quadrature."""
    s, t, lam = d.s, d.t, d.lam

    def h(theta: np.ndarray) -> np.ndarray:
        y = s * np.sin(theta)
        return y * t * (1.0 + lam * y) / (np.pi * (1.0 - y**2))

    return _adaptive_gl(h, -math.pi / 2, math.pi / 2).real


def asym_integrals(n: int, k: int, xi: float, s: float) -> tuple[complex, complex, complex, complex]:
    """The four circle integrals pairing shifted and unshifted Chebyshev factors.

    Evaluated by the uniform trapezoid rule with node count 4n + 4|k| + 64,
    which exceeds the trigonometric bandwidth 2n + |k| of every integrand, so
    the rule is exact to roundoff.
    """
    check_polar(s)
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    m = 4 * n + 4 * abs(k) + 64
    theta = 2.0 * np.pi * np.arange(m) / m
    t0, u0 = _cheb_circle(n, s, theta)
    t1, u1 = _cheb_circle(n, s, theta + xi / n)
    phase = np.exp(1j * k * theta)
    return (
        complex(np.mean(phase * t1 * t0)),
        complex(np.mean(phase * t1 * u0)),
        complex(np.mean(phase * u1 * t0)),
        complex(np.mean(phase * u1 * u0)),
    )


def asym_limits(k: int, xi: float, s: float) -> tuple[complex, complex, complex, complex]:
    """Large-n limits of :func:`asym_integrals`.

    The parity prefactors make (A, D) vanish for odd k and (B, C) for even k;
    the surviving pair comes from one smooth integral after the edge
    substitution x = s*sin(theta), with C = -B by construction.
    """
    check_polar(s)
    half_pi = math.pi / 2

    def base(theta: np.ndarray) -> np.ndarray:
        return np.exp(1j * k * (half_pi - theta))

    def stretch(theta: np.ndarray) -> np.ndarray:
        # s^2 - x^2 over 1 - x^2 at x = s*sin(theta), square-rooted
        sn = np.sin(theta)
        return s * np.cos(theta) / np.sqrt(1.0 - s**2 * sn**2)

    if k % 2 == 0:
        ce = 2.0 / (4.0 * math.pi)

        def f_a(theta):
            return base(theta) * np.cos(xi * stretch(theta))

        def f_d(theta):
            sn = np.sin(theta)
            return base(theta) * np.cos(xi * stretch(theta)) / (1.0 - s**2 * sn**2)

        a_lim = ce * _adaptive_gl(f_a, -half_pi, half_pi)
        d_lim = ce * _adaptive_gl(f_d, -half_pi, half_pi)
        return a_lim, 0j, 0j, d_lim
    co = 2.0 / (4.0 * math.pi)

    def f_bc(theta):
        sn = np.sin(theta)
        return base(theta) * np.sin(xi * stretch(theta)) / np.sqrt(1.0 - s**2 * sn**2)

    bc = co * _adaptive_gl(f_bc, -half_pi, half_pi)
    return 0j, -bc, bc, 0j


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
