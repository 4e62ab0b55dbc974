"""Closed-form walk distributions via Chebyshev coefficients in a Laurent basis.

The n-step walk operator acts on the two cyclic basis columns through four
Laurent polynomials with real coefficients, all built from first- and
second-kind Chebyshev polynomials evaluated at s*(z + 1/z)/2.  On the unit
circle z = e^{i theta} these are T_n = cos(n phi) and U_{n-1} =
sin(n phi) / sin(phi) with cos(phi) = s cos(theta), so one row builder
samples them in trigonometric form and everything else is a circle mean:

- the coefficients, hence :func:`transfer_polys` and :func:`qn_distribution`,
  are one real FFT of the samples, O(n log n) per n;
- the characteristic-function components and the contour integrals of
  :mod:`qwalk1d.limit_law` are entries of one Gram kernel, batched over
  shifts and phases: it samples the rows once at theta and once per distinct
  shift, reads cos(theta), sin(theta) and every phase e^{i k theta} from one
  table of e^{i theta}, and forms the shifted cosines and sines from that
  table by angle addition, so a whole grid of sums costs O(n) per distinct
  shift plus O(n) per distinct (k, shift) pair;
- :func:`cross_series_quadrature` evaluates two polynomials at the roots of
  unity from one buffer holding both coefficient rows, each placed from
  p's lowest exponent: one in-place FFT of a (2, m) array per call, with
  no fold when the supports fit in m, as every transfer pair's do.

Every circle mean takes its nodes from one trapezoid rule, sized by the
integrand's trigonometric bandwidth B: B + 16 nodes (:func:`_node_count`;
the rule has no override), or the power of two above B for the coefficient
FFT; an integrand of unbounded bandwidth, such as the limit-law integrals of
:mod:`qwalk1d.limit_law`, doubles a power-of-two node count until
successive means agree (:func:`_circle_mean`).  The O(n^2) three-term
recurrence in coefficient space and the textbook binomial sums (which blow
up for large n) live only in the test suite, as oracles for the FFT
coefficients.

Exponent convention: ``c_x`` multiplies z**x with x increasing to the right,
matching the lattice-site indexing of :mod:`qwalk1d.direct_walk`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coin import INPUT_NORM_TOL, _check_unit, check_polar
from .direct_walk import Distribution
from .errors import ParamViolation, QuadratureDivergence, QuadratureFailure

CROSS_CHECK_TOL = 1e-6  # coefficient side vs quadrature side agreement
_QUAD_TOL = 1e-10  # absolute accuracy target of _circle_mean
_MAX_NODES = 1 << 20  # node cap of _circle_mean


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


def _columns(tn: np.ndarray, um: np.ndarray, s: float, t: float) -> tuple[np.ndarray, ...]:
    """Coefficients of p1, p2, q1, q2 from those of T_n and U_{n-1} on [-n, n].

    For n > 0, p1 at -n and q2 at n lie outside their columns' support and
    are set to exactly 0, so with the parity zeros every site the walk cannot
    reach has probability exactly 0.
    """
    z_um = np.zeros_like(um)
    z_um[1:] = um[:-1]          # z * U
    zinv_um = np.zeros_like(um)
    zinv_um[:-1] = um[1:]       # (1/z) * U
    odd = (s / 2) * (z_um - zinv_um)
    p1, q2 = tn + odd, tn - odd
    if tn.size > 1:
        # the first column lives on [2 - n, n] and the second on [-n, n - 2]
        p1[0] = q2[-1] = 0.0
    return p1, t * z_um, -t * zinv_um, q2


def _check_walk(n: int, s: float, t: float) -> None:
    """The closed form's entry checks: :func:`~qwalk1d.coin.check_polar`, then n >= 0."""
    check_polar(s, t)
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")


def transfer_polys(n: int, s: float, t: float) -> TransferQuadruple:
    """Build the four column polynomials for the n-step operator.

    With T = T_n(s(z+1/z)/2) and U = U_{n-1}(s(z+1/z)/2):

        p1 = T + (s/2)(z - 1/z) U      q1 = -t (1/z) U
        p2 = t z U                     q2 = T - (s/2)(z - 1/z) U

    The coefficients come from :func:`_cheb_coeffs` in O(n log n).

    Raises
    ------
    ParamViolation
        If s^2 + t^2 differs from 1 by more than 1e-10, or s, t are not
        strictly inside (0, 1).
    ValueError
        If n is negative.
    """
    _check_walk(n, s, t)
    return TransferQuadruple(*(LaurentPoly(-n, c) for c in _columns(*_cheb_coeffs(n, s), s, t)))


def _node_count(band: int) -> int:
    """Trapezoid node count m = band + 16 for a circle mean of bandwidth ``band``.

    The m-node mean of a trigonometric polynomial of bandwidth B is exact
    once m > B (Trefethen & Weideman, SIAM Review 56, 2014).
    """
    return band + 16


def _circle(m: int) -> np.ndarray:
    """Trapezoid angles 2 pi j / m, j < m."""
    return 2.0 * np.pi * np.arange(m) / m


def _circle_mean(f, band: float) -> np.ndarray:
    """Circle mean of a smooth 2 pi-periodic integrand, to 1e-10 absolute.

    ``f`` maps an array of angles to values whose last axis runs over them;
    the result has the remaining shape.  The trapezoid rule converges
    geometrically on such integrands (Trefethen & Weideman, SIAM Review 56,
    2014).  The node count m starts at the power of two >=
    ``_node_count(ceil(band))`` and doubles, evaluating only the new midpoints, until two successive means
    agree within ``_QUAD_TOL``.  Powers of two matter: the limit-law
    integrands are invariant under theta -> pi - theta, so their Fourier
    coefficients obey c_{-j} = (-1)^j c_j; at an odd m the aliases c_{+-m}
    cancel, and the m- and 2m-node means share their leading error c_{+-2m}
    and agree before either is accurate.  The tolerance applies to the
    values ``f`` returns, so ``f`` carries every scale factor of the result.

    Raises
    ------
    QuadratureFailure
        If the means still disagree at ``_MAX_NODES`` nodes, or the starting
        count already reaches it or ``band`` is NaN (checked before ``f`` is
        called).
    """
    if not _node_count(band) <= _MAX_NODES // 2:  # else the starting count reaches the cap
        raise QuadratureFailure(
            f"circle mean of bandwidth {float(band):.3g} needs more than {_MAX_NODES} nodes"
        )
    m = 1 << (_node_count(math.ceil(band)) - 1).bit_length()
    mean = np.mean(f(_circle(m)), axis=-1)
    while m < _MAX_NODES:
        prev, mean = mean, (mean + np.mean(f(_circle(m) + np.pi / m), axis=-1)) / 2
        m *= 2
        if np.max(np.abs(mean - prev)) < _QUAD_TOL:
            return mean
    raise QuadratureFailure(
        f"circle mean did not stabilize to {_QUAD_TOL} within {_MAX_NODES} nodes"
    )


def _cheb_rows(n: int, s: float, cos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Samples of T_n and U_{n-1} at s*cos(theta), given cos(theta).

    That is s*(z + 1/z)/2 on z = e^{i theta}, in trigonometric form: with
    phi = acos(s cos theta), T_n = cos(n phi) and U_{n-1} = sin(n phi) / sin(phi),
    where sin(phi) >= t > 0 because s < 1.  Each has bandwidth at most n.
    """
    ac = np.arccos(s * cos)
    return np.cos(n * ac), np.sin(n * ac) / np.sin(ac)


def _cheb_coeffs(n: int, s: float) -> tuple[np.ndarray, np.ndarray]:
    """Laurent coefficients of T_n and U_{n-1} at s*(z+1/z)/2 on [-n, n], by FFT.

    Both are read off their samples on m circle nodes by one real FFT, m the
    power of two above 2n: the m-node trapezoid rule is exact for bandwidth
    n < m / 2, and both are even in theta, so the coefficients are real and
    palindromic.  Coefficients of the wrong parity (T_n has the parity of n,
    U_{n-1} that of n - 1) are set to exactly 0.  Cost is O(n log n).  This
    is the package's only source of these coefficients; the tests check it
    against the three-term recurrence in coefficient space.
    """
    theta = _circle(1 << (2 * n).bit_length())
    # coefficients of z^0 .. z^n
    half = np.fft.rfft(_cheb_rows(n, s, np.cos(theta)))[:, :n + 1].real / theta.size
    half[0, (n + 1) % 2::2] = 0.0
    half[1, n % 2::2] = 0.0
    tn, um = np.concatenate([half[:, :0:-1], half], axis=1)
    return tn, um


def qn_distribution(psi: np.ndarray, n: int, s: float, t: float) -> Distribution:
    """Walk distribution after n steps from spin psi, via the closed form.

    The columns are built by :func:`_columns` from the FFT coefficients of
    :func:`_cheb_coeffs` in O(n log n), so every site the walk cannot reach
    has probability exactly 0.

    The quadratic form in the four coefficient columns is grouped as two
    squared moduli, |psi_1 c(p1) + psi_2 c(q1)|^2 + |psi_1 c(p2) + psi_2 c(q2)|^2,
    which is the same real value as the expanded cross-term formula but keeps
    every entry non-negative in floating point.

    Raises
    ------
    NormViolation
        If psi is not a unit vector.
    ParamViolation
        If (s, t) fails :func:`~qwalk1d.coin.check_polar`.
    ValueError
        If n is negative.
    """
    psi = np.asarray(psi, dtype=complex)
    _check_unit(psi)
    _check_walk(n, s, t)
    p1, p2, q1, q2 = _columns(*_cheb_coeffs(n, s), s, t)
    a1 = psi[0] * p1 + psi[1] * q1
    a2 = psi[0] * p2 + psi[1] * q2
    probs = np.abs(a1) ** 2 + np.abs(a2) ** 2
    return Distribution(offset=-n, probs=probs)


def cross_series_quadrature(p: LaurentPoly, q: LaurentPoly, w: complex) -> complex:
    """Trapezoid value of the contour integral of p(w z) q(1/z) dz/(2 pi i z).

    The integrand's exponents span p.lo - q.hi .. p.hi - q.lo, so the circle
    rule of :func:`_node_count` is exact to roundoff.  Both factors go into
    one zeroed two-row buffer, each coefficient of z**x at slot (x - p.lo)
    mod m: p's row from slot 0 as c_x conj(w)**x, q's from slot (q.lo - p.lo)
    mod m.  One FFT of the buffer then gives, at the m roots of unity z_j,
    conj(z_j**-p.lo p(w z_j)) in row 0 and z_j**p.lo q(1/z_j) in row 1, so
    the conjugating dot product of the rows, over m, is the trapezoid value.
    That relies on the coefficients being real, as :class:`LaurentPoly`'s
    are.  Shared supports, as of every transfer pair, fill m slots with room
    to spare; a row that overruns m is folded onto the m slots first, so a
    node count below the degree aliases as pointwise evaluation does.
    """
    pc, qc = p.coeffs, q.coeffs
    p_lo, q_lo = p.lo, q.lo
    p_hi, q_hi = p_lo + pc.size - 1, q_lo + qc.size - 1
    m = _node_count(max(abs(p_lo - q_hi), abs(p_hi - q_lo)))
    k = (q_lo - p_lo) % m
    blocks = -(-max(pc.size, k + qc.size) // m)
    buf = np.zeros((2, blocks * m), dtype=complex)
    # powers over p.lo .. p.hi, not 0 .. p.hi - p.lo: numpy's power is faster
    # on the transfer polynomials' centred exponents
    np.multiply(pc, complex(w).conjugate() ** np.arange(p_lo, p_hi + 1), out=buf[0, :pc.size])
    buf[1, k:k + qc.size] = qc
    if blocks > 1:
        buf = buf.reshape(2, blocks, m).sum(axis=1)
    # in place: numpy then allocates no second array for the values
    np.fft.fft(buf, out=buf)
    return complex(np.vdot(buf[0], buf[1])) / m


def cross_series(p: LaurentPoly, q: LaurentPoly, w: complex) -> complex:
    """Convolution sum_x c_x(p) c_x(q) w**x, cross-checked against quadrature.

    Returns the coefficient-side value.  The quadrature side is recomputed
    via :func:`cross_series_quadrature` and the two must agree within 1e-6.

    Raises
    ------
    ParamViolation
        If w is not on the unit circle within 1e-10.
    QuadratureDivergence
        If the two sides differ by more than 1e-6 or either is NaN.  The
        circle rule is exact for any degree, so that means a NaN coefficient
        or a defect in the quadrature.
    """
    w = complex(w)
    if not abs(abs(w) - 1.0) <= INPUT_NORM_TOL:
        raise ParamViolation(f"w must lie on the unit circle, got |w| = {abs(w)!r}")
    pc, qc = p.coeffs, q.coeffs
    p_lo, q_lo = p.lo, q.lo
    lo = max(p_lo, q_lo)
    hi = min(p_lo + pc.size, q_lo + qc.size) - 1
    if lo > hi:
        coef = 0j
    else:
        cp = pc[lo - p_lo: hi - p_lo + 1]
        cq = qc[lo - q_lo: hi - q_lo + 1]
        coef = complex((cp * cq) @ w ** np.arange(lo, hi + 1))
    quad = cross_series_quadrature(p, q, w)
    if not abs(coef - quad) <= CROSS_CHECK_TOL:
        raise QuadratureDivergence(
            f"coefficient side {coef!r} and quadrature side {quad!r} differ by "
            f"{abs(coef - quad):.3e}: a NaN coefficient or a quadrature defect"
        )
    return coef


def _gram_rows(n: int, s: float, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """The rows T_n, U_{n-1} and V = s sin(theta) U_{n-1}, stacked, from cos and sin of theta."""
    tn, um = _cheb_rows(n, s, cos)
    return np.array([tn, um, s * sin * um])


def _cheb_gram(n: int, s: float, shifts, ks=(0,)) -> np.ndarray:
    """Circle means g[a, b, i, j] = mean(e^{i k_a theta} r_i(theta) r_j(theta + shifts[b])).

    The rows are r = (T_n, U_{n-1}, V = s sin(theta) U_{n-1}), with T_n and
    U_{n-1} from :func:`_cheb_rows`.  Every integrand has bandwidth at most
    2n + max|k|, so one circle rule with that bandwidth is exact to roundoff
    for every (k, shift) pair.  One table of e^{i theta} gives cos(theta),
    sin(theta) and, at index k j mod m, every phase e^{i k theta}.  The rows
    are sampled once at theta and once per distinct non-zero shift d, whose
    cos(theta + d) and sin(theta + d) come from the table by angle addition
    rather than by fresh trigonometric passes.  Each distinct k takes one
    phase row and one product per distinct shift, shared by every repeat of
    that k or shift.  Shifts run in the outer loop and phases in the inner
    one, so only O(m) arrays are held at a time.  The result has shape
    (len(ks), len(shifts), 3, 3) and is real when every k is 0.
    """
    theta = _circle(_node_count(2 * n + max(map(abs, ks), default=0)))
    m = theta.size
    table = np.exp(1j * theta)
    cos, sin = table.real, table.imag
    rows = _gram_rows(n, s, cos, sin)
    out = np.empty((len(ks), len(shifts), 3, 3), dtype=complex if any(ks) else float)
    columns, phases = _positions(shifts), _positions(ks)
    for shift, bs in columns.items():
        if shift == 0:
            # a copy: numpy takes rows @ rows.T by a slower A A^T path
            other = rows.copy()
        else:
            cd, sd = math.cos(shift), math.sin(shift)
            other = _gram_rows(n, s, cos * cd - sin * sd, sin * cd + cos * sd)
        for k, ak in phases.items():
            if k:
                # two real products: a complex left factor would make numpy
                # promote ``other`` to complex and take the slower complex product
                phase = np.take(table, np.arange(0, k * m, k), mode="wrap")  # table[k j mod m]
                block = ((rows * phase.real) @ other.T + 1j * ((rows * phase.imag) @ other.T)) / m
            else:
                block = rows @ other.T / m
            for a in ak:
                out[a, bs] = block
    return out


def _positions(values) -> dict:
    """Each distinct value mapped to the list of its positions in ``values``."""
    out: dict = {}
    for i, v in enumerate(values):
        out.setdefault(v, []).append(i)
    return out


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
    columns, so the normalization shortcut is the exact value.  This is the
    one-entry case of :func:`char_fn_grid`.
    """
    return tuple(complex(v) for v in char_fn_grid(psi, n, s, t, [xi])[0])


def char_fn_grid(psi: np.ndarray, n: int, s: float, t: float, xis) -> np.ndarray:
    """:func:`char_fn_components` at every xi of ``xis``, as rows (P, Q, R, E).

    Returns a complex array of shape (len(xis), 4).  Every non-zero xi is a
    shift of one batched :func:`_cheb_gram` call, which samples the rows once
    at theta and once per distinct non-zero xi, so the sampling costs O(n)
    per n and per distinct xi.  Each row takes the same arithmetic as a lone
    call, so it is bit for bit the one-entry value.
    """
    psi = np.asarray(psi, dtype=complex)
    _check_unit(psi)
    _check_walk(n, s, t)
    out = np.empty((len(xis), 4), dtype=complex)
    out[:] = (1.0, 1.0, 0.0, 1.0)
    shifted = [b for b, xi in enumerate(xis) if xi != 0.0]
    if not shifted:
        return out
    weight = 2.0 * (psi[0] * psi[1].conjugate()).real
    for b, g in zip(shifted, _cheb_gram(n, s, [xis[b] for b in shifted])[0]):
        # rows T, U, V at theta and theta + xi
        xi = xis[b]
        w = complex(np.cos(xi), np.sin(xi))
        even = g[0, 0] + g[2, 2]
        odd = 1j * (g[0, 2] - g[2, 0])
        comp_p = complex(even + odd + t * t * w * g[1, 1])
        comp_q = complex(even - odd + t * t * w.conjugate() * g[1, 1])
        comp_r = complex(-1j * t * (2.0 / s * g[2, 0] + s * np.sin(xi) * g[1, 1]))
        e = abs(psi[0]) ** 2 * comp_p + abs(psi[1]) ** 2 * comp_q + weight * comp_r
        out[b] = comp_p, comp_q, comp_r, e
    return out
