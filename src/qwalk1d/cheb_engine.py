"""Closed-form walk distributions via Chebyshev coefficients in a Laurent basis.

The n-step walk operator acts on the two cyclic basis columns through four
Laurent polynomials with real coefficients, all built from first- and
second-kind Chebyshev polynomials evaluated at s*(z + 1/z)/2.  Coefficients
are computed by the three-term recurrence directly in coefficient space,
which is O(n^2) total work and numerically stable; the textbook binomial
sums blow up for large n and live only in the test suite as a cross-check.
Sums over the coefficients that are circle means (the characteristic-function
components, the contour integrals of :mod:`qwalk1d.limit_law`) skip the
coefficients: one Gram kernel samples T_n and U_{n-1} on the unit circle in
trigonometric form, O(n) work per sum.  Every circle mean takes its nodes
from one trapezoid rule, sized by the integrand's trigonometric bandwidth.

Exponent convention: ``c_x`` multiplies z**x with x increasing to the right,
matching the lattice-site indexing of :mod:`qwalk1d.direct_walk`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coin import _check_unit, check_polar
from .direct_walk import Distribution
from .errors import ParamViolation, QuadratureDivergence

CROSS_CHECK_TOL = 1e-6  # coefficient side vs quadrature side agreement


@dataclass(frozen=True, eq=False)
class LaurentPoly:
    """Real coefficients indexed by integer exponents.

    ``coeffs[k]`` is the coefficient of z**(lo + k).  Stored leading or
    trailing zeros are allowed; the exponent range always contains the true
    support.
    """

    lo: int
    coeffs: np.ndarray  # float64

    @property
    def hi(self) -> int:
        return self.lo + self.coeffs.shape[0] - 1

    def c(self, x: int) -> float:
        """Coefficient of z**x (zero outside the stored range)."""
        i = x - self.lo
        if 0 <= i < self.coeffs.shape[0]:
            return float(self.coeffs[i])
        return 0.0

    def eval(self, z) -> np.ndarray:
        """Evaluate at complex z (scalar or array) by Horner on z**lo * poly."""
        z = np.asarray(z, dtype=complex)
        acc = np.zeros_like(z)
        for ck in self.coeffs[::-1]:
            acc = acc * z + ck
        return acc * z ** self.lo


@dataclass(frozen=True, eq=False)
class TransferQuadruple:
    """The four Laurent polynomials giving the columns of the n-step operator.

    p1, p2 describe the image of the first basis column, q1, q2 of the
    second; each column carries unit mass (sum of squared coefficients = 1).
    All four share the dense exponent grid [-n, n].
    """

    p1: LaurentPoly
    p2: LaurentPoly
    q1: LaurentPoly
    q2: LaurentPoly

    @property
    def n(self) -> int:
        return self.p1.hi


def _recurrence(seed1: np.ndarray, count: int, s: float) -> tuple[np.ndarray, np.ndarray]:
    """Run p_{k+1} = s*(z + 1/z)*p_k - p_{k-1} from p_0 = 1 up to p_count.

    ``seed1`` is p_1 centered on [-1, 1]; its first axis is the exponent, and
    a second axis stacks polynomials that share s, so one pass of numpy calls
    advances all of them.  Returns (p_{count-1}, p_count), both on the dense
    grid [-count, count] with the shape of ``seed1`` otherwise; count must be
    at least 1.  The symmetric update keeps each polynomial exactly
    palindromic, bit for bit.
    """
    # two zero-padded buffers on [-count-1, count+1], exponent-major so that
    # every update is one contiguous slice; exponent 0 sits at slot c
    c = count + 1
    r = seed1[0].size
    prev = np.zeros((2 * c + 1) * r)
    curr = np.zeros_like(prev)
    prev[c * r:(c + 1) * r] = 1.0
    curr[(c - 1) * r:(c + 2) * r] = seed1.ravel()
    for k in range(1, count):
        # p_{k+1} lives on [-(k+1), k+1] and overwrites p_{k-1} in place
        lo, hi = (c - k - 1) * r, (c + k + 2) * r
        sc = s * curr[lo - r:hi + r]
        out = prev[lo:hi]
        np.subtract(sc[:-2 * r] + sc[2 * r:], out, out=out)
        prev, curr = curr, prev
    shape = (2 * c + 1,) + seed1.shape[1:]
    return prev.reshape(shape)[1:-1], curr.reshape(shape)[1:-1]


def cheb_T_laurent(n: int, s: float) -> LaurentPoly:
    """Coefficients of the degree-n first-kind Chebyshev polynomial at s*(z+1/z)/2."""
    check_polar(s)
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n == 0:
        return LaurentPoly(lo=0, coeffs=np.array([1.0]))
    # T_1 = s*(z + 1/z)/2
    return LaurentPoly(lo=-n, coeffs=_recurrence(np.array([s / 2, 0.0, s / 2]), n, s)[1])


def cheb_U_laurent(m: int, s: float) -> LaurentPoly:
    """Coefficients of the degree-m second-kind Chebyshev polynomial at s*(z+1/z)/2.

    m = -1 is the zero polynomial by convention (needed for the 0-step case).
    """
    check_polar(s)
    if m < -1:
        raise ValueError(f"m must be >= -1, got {m}")
    if m <= 0:
        return LaurentPoly(lo=0, coeffs=np.array([float(m + 1)]))
    # U_1 = s*(z + 1/z)
    return LaurentPoly(lo=-m, coeffs=_recurrence(np.array([s, 0.0, s]), m, s)[1])


def transfer_polys(n: int, s: float, t: float) -> TransferQuadruple:
    """Build the four column polynomials for the n-step operator.

    With T = T_n(s(z+1/z)/2) and U = U_{n-1}(s(z+1/z)/2):

        p1 = T + (s/2)(z - 1/z) U      q1 = -t (1/z) U
        p2 = t z U                     q2 = T - (s/2)(z - 1/z) U

    Raises
    ------
    ParamViolation
        If s^2 + t^2 differs from 1 by more than 1e-10, or s, t are not
        strictly inside (0, 1).
    """
    check_polar(s, t)
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n == 0:
        tn, um = np.array([1.0]), np.array([0.0])
    else:
        # T_n and U_{n-1} in one pass: the rows advance T_1 and U_1 together,
        # and U_{n-1} is the U row one step behind the last
        prev, curr = _recurrence(np.array([[s / 2, s], [0.0, 0.0], [s / 2, s]]), n, s)
        tn, um = curr[:, 0], prev[:, 1]
    z_um = np.zeros_like(um)
    z_um[1:] = um[:-1]          # z * U
    zinv_um = np.zeros_like(um)
    zinv_um[:-1] = um[1:]       # (1/z) * U
    odd = (s / 2) * (z_um - zinv_um)
    lo = -n
    return TransferQuadruple(
        p1=LaurentPoly(lo, tn + odd),
        p2=LaurentPoly(lo, t * z_um),
        q1=LaurentPoly(lo, -t * zinv_um),
        q2=LaurentPoly(lo, tn - odd),
    )


def qn_distribution(psi: np.ndarray, n: int, s: float, t: float) -> Distribution:
    """Walk distribution after n steps from spin psi, via the closed form.

    The quadratic form in the four coefficient columns is grouped as two
    squared moduli, |psi_1 c(p1) + psi_2 c(q1)|^2 + |psi_1 c(p2) + psi_2 c(q2)|^2,
    which is the same real value as the expanded cross-term formula but keeps
    every entry non-negative in floating point.
    """
    psi = np.asarray(psi, dtype=complex)
    _check_unit(psi)
    quad = transfer_polys(n, s, t)
    a1 = psi[0] * quad.p1.coeffs + psi[1] * quad.q1.coeffs
    a2 = psi[0] * quad.p2.coeffs + psi[1] * quad.q2.coeffs
    probs = np.abs(a1) ** 2 + np.abs(a2) ** 2
    return Distribution(offset=-n, probs=probs)


def _circle(band: int, nodes: int | None = None) -> np.ndarray:
    """Trapezoid angles 2 pi j / m, j < m, for a circle mean.

    The m-node mean of a trigonometric polynomial of bandwidth B is exact
    once m > B (Trefethen & Weideman, SIAM Review 56, 2014), so m defaults to
    band + 16 for an integrand of bandwidth ``band``; ``nodes`` overrides it.
    """
    m = band + 16 if nodes is None else int(nodes)
    if m < 1:
        raise ValueError(f"node count must be positive, got {m}")
    return 2.0 * np.pi * np.arange(m) / m


def cross_series_quadrature(p: LaurentPoly, q: LaurentPoly, w: complex, nodes: int | None = None) -> complex:
    """Trapezoid value of the contour integral of p(w z) q(1/z) dz/(2 pi i z).

    The integrand's exponents span p.lo - q.hi .. p.hi - q.lo, so the default
    circle rule is exact to roundoff; ``nodes`` < 1 raises ValueError.
    """
    z = np.exp(1j * _circle(max(abs(p.lo - q.hi), abs(p.hi - q.lo)), nodes))
    return complex(np.mean(p.eval(w * z) * q.eval(z.conj())))


def cross_series(p: LaurentPoly, q: LaurentPoly, w: complex, nodes: int | None = None) -> complex:
    """Convolution sum_x c_x(p) c_x(q) w**x, cross-checked against quadrature.

    Returns the coefficient-side value.  The quadrature side is recomputed
    via :func:`cross_series_quadrature` and the two must agree within 1e-6.

    Raises
    ------
    ParamViolation
        If w is not on the unit circle within 1e-10.
    ValueError
        If ``nodes`` is less than 1.
    QuadratureDivergence
        If the two sides differ by more than 1e-6 or either is NaN (node
        count too small for the polynomial degree, or a NaN coefficient).
    """
    w = complex(w)
    if not abs(abs(w) - 1.0) <= 1e-10:
        raise ParamViolation(f"w must lie on the unit circle, got |w| = {abs(w)!r}")
    lo = max(p.lo, q.lo)
    hi = min(p.hi, q.hi)
    if lo > hi:
        coef = 0j
    else:
        xs = np.arange(lo, hi + 1)
        cp = p.coeffs[lo - p.lo: hi - p.lo + 1]
        cq = q.coeffs[lo - q.lo: hi - q.lo + 1]
        coef = complex(np.sum(cp * cq * w ** xs))
    quad = cross_series_quadrature(p, q, w, nodes)
    if not abs(coef - quad) <= CROSS_CHECK_TOL:
        raise QuadratureDivergence(
            f"coefficient side {coef!r} and quadrature side {quad!r} differ by "
            f"{abs(coef - quad):.3e}; increase the node count"
        )
    return coef


def _cheb_gram(n: int, s: float, shift: float, k: int = 0) -> np.ndarray:
    """Circle means g[i, j] = mean(e^{i k theta} r_i(theta) r_j(theta + shift)).

    The rows are r = (T_n, U_{n-1}, V = s sin(theta) U_{n-1}) at s*cos(theta),
    i.e. at s*(z + 1/z)/2 on z = e^{i theta}, in trigonometric form: with
    phi = acos(s cos theta), T_n = cos(n phi) and U_{n-1} = sin(n phi) / sin(phi),
    where sin(phi) >= t > 0 because s < 1.  Each row has bandwidth at most n,
    so every integrand has bandwidth 2n + |k| and the circle rule is exact to
    roundoff.  The result is real for k = 0.
    """
    theta = _circle(2 * n + abs(k))
    rows = []
    for th in (theta, theta + shift):
        ac = np.arccos(s * np.cos(th))
        um = np.sin(n * ac) / np.sin(ac)
        rows.append(np.array([np.cos(n * ac), um, s * np.sin(th) * um]))
    if k:
        rows[0] = rows[0] * np.exp(1j * k * theta)
    return rows[0] @ rows[1].T / theta.size


def char_fn_components(
    psi: np.ndarray, n: int, s: float, t: float, xi: float
) -> tuple[complex, complex, complex, complex]:
    """Component sums of the characteristic function and their combination.

    Returns (P, Q, R, E) where P, Q, R are the coefficient-square and
    cross-term sums weighted by exp(i*xi*x) for the two columns, and
    E = |psi_1|^2 P + |psi_2|^2 Q + 2 Re(psi_1 conj(psi_2)) R.

    Each sum pairs a column polynomial shifted by xi with another, so it is
    the circle mean of p(e^{i(theta+xi)}) conj(q(e^{i theta})) (coefficients
    are real), read off the Chebyshev Gram matrix of :func:`_cheb_gram`.  On
    the circle, with V = s sin(theta) U,

        p1 = T + iV,   q2 = T - iV,   p2 = t z U,   q1 = -t U / z,

    which gives P and Q.  R's summand is t[T_x d_x - (s/2)(U_{x-1}^2 - U_{x+1}^2)]
    with d_x = U_{x-1} - U_{x+1}, the coefficients of (z - 1/z)U = (2i/s)V,
    so R = -i t [(2/s) mean(V(theta) T(theta+xi)) + s sin(xi) mean(U U)].
    All three are real dot products of T, U and V at theta and theta + xi.

    At xi = 0 the values are exactly (1, 1, 0, 1): the column masses are 1 by
    unitarity and the cross sum is the inner product of two orthogonal
    columns, so the normalization shortcut is the exact value.
    """
    psi = np.asarray(psi, dtype=complex)
    _check_unit(psi)
    check_polar(s, t)
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if xi == 0.0:
        return (1.0 + 0j, 1.0 + 0j, 0j, 1.0 + 0j)
    g = _cheb_gram(n, s, xi)  # rows T, U, V at theta and theta + xi
    w = complex(np.cos(xi), np.sin(xi))
    even = g[0, 0] + g[2, 2]
    odd = 1j * (g[0, 2] - g[2, 0])
    comp_p = complex(even + odd + t * t * w * g[1, 1])
    comp_q = complex(even - odd + t * t * w.conjugate() * g[1, 1])
    comp_r = complex(-1j * t * (2.0 / s * g[2, 0] + s * np.sin(xi) * g[1, 1]))
    weight = 2.0 * (psi[0] * psi[1].conjugate()).real
    e = abs(psi[0]) ** 2 * comp_p + abs(psi[1]) ** 2 * comp_q + weight * comp_r
    return comp_p, comp_q, comp_r, e
