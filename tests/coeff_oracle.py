"""The three-term recurrence in coefficient space: a test oracle.

``qwalk1d.cheb_engine`` reads the Laurent coefficients of T_n and U_{n-1}
at s(z + 1/z)/2 off one real FFT of their samples on the unit circle.  This
module builds the same coefficients by the recurrence
p_{k+1} = s(z + 1/z) p_k - p_{k-1}, which shares no code with the FFT path,
and assembles the four column polynomials with its own column builder.  It
costs O(n^2), so keep n moderate.
"""

from __future__ import annotations

import numpy as np

from qwalk1d.cheb_engine import LaurentPoly, TransferQuadruple
from qwalk1d.coin import check_polar


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


def recurrence_quadruple(n: int, s: float, t: float) -> TransferQuadruple:
    """The four column polynomials of the n-step operator, by the recurrence.

    T_n and U_{n-1} come from one stacked pass: the rows advance T_1 and U_1
    together, and U_{n-1} is the U row one step behind the last.  The
    columns are p1, q2 = T +- (s/2)(z - 1/z) U, p2 = t z U and
    q1 = -t U / z, all on [-n, n].  Unlike the package, nothing is zeroed:
    p1 at -n and q2 at n keep the recurrence's roundoff.
    """
    if n == 0:
        tn, um = np.array([1.0]), np.array([0.0])
    else:
        prev, curr = _recurrence(np.array([[s / 2, s], [0.0, 0.0], [s / 2, s]]), n, s)
        tn, um = curr[:, 0], prev[:, 1]
    z_um = np.concatenate([[0.0], um[:-1]])
    zinv_um = np.concatenate([um[1:], [0.0]])
    odd = (s / 2) * (z_um - zinv_um)
    cols = (tn + odd, t * z_um, -t * zinv_um, tn - odd)
    return TransferQuadruple(*(LaurentPoly(-n, c) for c in cols))
