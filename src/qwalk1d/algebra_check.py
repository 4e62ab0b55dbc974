"""Finite cyclic realization of the walk's operator axioms and exact checks.

Three unitaries V, W, Sigma on a cyclic lattice of N sites (dimension 2N)
satisfy the same algebraic relations as the infinite-lattice walk: every
identity among V, W, Sigma, the unitary shift T, and the skew element
VW can be verified to machine precision.  All three operators are block
circulant, so each is held as its N Fourier-mode 2 x 2 symbols: a product or
adjoint costs O(N) and a residual one FFT, instead of dense 2N x 2N matrices
at O(N^3) time and O(N^2) memory (P. J. Davis, *Circulant Matrices*, 1979).
The symbols are held mode-last, as (2, 2, N) arrays, and every product is
written out entry by entry by :func:`_mul`: a fixed number of array
operations for any N, each looping over the modes.  Each residual is taken
as soon as its two sides exist, so only a few symbols are live at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .coin import INPUT_NORM_TOL, check_polar, make_coin, split
from .errors import ParamViolation, RelationFailure

@dataclass(frozen=True, eq=False)
class CyclicRep:
    """Unitaries V, W, Sigma on 2N dimensions, each as its (N, 2, 2) Fourier symbol.

    The operators are block circulant on the cyclic lattice, site-major
    component-minor: the dense 2 x 2 block (x, y) depends on d = (x - y) mod N
    only, and equals ``np.fft.ifft(op, axis=0)[d]``.  ``op[k]`` is
    sum_d block(d) exp(-2 pi i k d / N), so products of operators are
    products of symbols mode by mode and the adjoint is the conjugate
    transpose of each symbol.

    :func:`build_rep` stores the symbols mode-last, as (2, 2, N) arrays, and
    each field is an (N, 2, 2) view of one, so that :func:`verify_relations`
    reads them back mode-last without a copy.  Any (N, 2, 2) array works.
    """

    N: int
    V: np.ndarray
    W: np.ndarray
    Sigma: np.ndarray
    alpha: complex
    beta: complex


@dataclass(frozen=True)
class RelationReport:
    """Max-abs residual of every verified operator identity, by name."""

    residuals: dict

    def max_residual(self) -> float:
        return max(self.residuals.values())

    def to_json(self) -> str:
        return json.dumps(self.residuals, indent=2)


# The private helpers below take symbols mode-last: entry [i, j, k] of a
# (2, 2, N) array is entry (i, j) of the symbol at mode k, and a constant
# matrix is (2, 2, 1).


def _adjoint(op: np.ndarray) -> np.ndarray:
    return op.conj().swapaxes(0, 1)


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mode-wise product of mode-last 2 x 2 symbols, as two broadcast outer products.

    Column i of a times row i of b, summed over i: a fixed number of ufunc
    calls for any N, each running over the modes in its inner loop.  A
    stacked complex ``@`` on (N, 2, 2) dispatches once per mode, and the same
    outer products on (N, 2, 2) run inner loops of length 2; at N = 128 one
    product took 33, 13 and 5 microseconds in the three forms.
    """
    return a[:, :1] * b[None, 0] + a[:, 1:] * b[None, 1]


def _residual(lhs: np.ndarray, rhs) -> float:
    """Largest entry of the block-circulant operator with symbol lhs - rhs."""
    return float(np.max(np.abs(np.fft.ifft(lhs - rhs, axis=-1))))


def _walk_symbol(p0: np.ndarray, q0: np.ndarray, n_sites: int) -> np.ndarray:
    """Mode-last symbol of p0*shift + q0*shift^{-1} with the cyclic shift on Z_N."""
    # signed frequencies: modes k and N - k get exactly conjugate phases
    phase = np.exp(-2j * np.pi * np.fft.fftfreq(n_sites))[:, None, None]
    # formed mode-first and then copied: broadcasting the same products
    # mode-last rounds some entries differently in the last bit
    return np.moveaxis(phase * p0 + phase.conj() * q0, 0, -1).copy()


def build_rep(N: int, alpha: complex, beta: complex) -> CyclicRep:
    """Fourier symbols of V, W, Sigma on the cyclic lattice of N sites.

    V comes from the diagonal coin (alpha, 0), W from the off-diagonal coin
    (0, beta); Sigma is diag(1, -1) per site, so its symbol is the same at
    every mode.  The induced shift T equals alpha times the cyclic site shift.

    alpha and beta need unit modulus within ``INPUT_NORM_TOL``; the operators
    are built from the phases alpha/|alpha| and beta/|beta|, as
    :func:`qwalk1d.coin.polar` takes alpha = a/s, so V and W are unitary to
    roundoff.
    """
    if N < 3:
        raise ParamViolation(f"need N >= 3, got {N}")
    alpha = complex(alpha)
    beta = complex(beta)
    for name, val in (("alpha", alpha), ("beta", beta)):
        if not abs(abs(val) - 1.0) <= INPUT_NORM_TOL:
            raise ParamViolation(f"{name} must have unit modulus, got |{name}| = {abs(val)!r}")
    alpha, beta = alpha / abs(alpha), beta / abs(beta)
    v = _walk_symbol(*split(make_coin(alpha, 0.0)), N)
    w = _walk_symbol(*split(make_coin(0.0, beta)), N)
    sigma = np.repeat(np.diag([1.0, -1.0]).astype(complex)[..., None], N, axis=-1)
    v, w, sigma = (np.moveaxis(m, -1, 0) for m in (v, w, sigma))
    return CyclicRep(N=N, V=v, W=w, Sigma=sigma, alpha=alpha, beta=beta)


def verify_relations(rep: CyclicRep, tol: float, s: float, t: float) -> RelationReport:
    """Residuals of every operator identity the axioms imply.

    (s, t) enter only the last two identities, which involve the scaled
    pieces x = s*X, y = s*Y, w = t*W of the walk operator; s^2 + t^2 = 1 is
    required for the resolution-of-identity check.

    Raises
    ------
    ParamViolation
        If (s, t) fails :func:`qwalk1d.coin.check_polar`.
    RelationFailure
        Listing every identity whose residual exceeds ``tol`` or is NaN; the
        full report rides on the exception.
    """
    check_polar(s, t)
    v, w, sigma = (np.moveaxis(m, 0, -1) for m in (rep.V, rep.W, rep.Sigma))
    eye = np.eye(2)[..., None]
    vh = _adjoint(v)
    pi_p = (eye + sigma) / 2
    pi_m = (eye - sigma) / 2
    x_op = (v + vh) / 2
    y_op = (v - vh) / 2j
    t_op = x_op + 1j * _mul(sigma, y_op)
    th = _adjoint(t_op)
    eps = _mul(v, w)
    xs, ys, ws = s * x_op, s * y_op, t * w

    res = _residual
    report = {
        "W^2 = -I": res(_mul(w, w), -eye),
        "V W = W V^-1": res(_mul(v, w), _mul(w, vh)),
        "sigma W + W sigma = 0": res(_mul(sigma, w) + _mul(w, sigma), 0),
        "sigma V - V sigma = 0": res(_mul(sigma, v) - _mul(v, sigma), 0),
        "sigma^* = sigma": res(_adjoint(sigma), sigma),
        "T^* T = I": res(_mul(th, t_op), eye),
        "T = pi+ V + pi- V^*": res(t_op, _mul(pi_p, v) + _mul(pi_m, vh)),
        "V = pi+ T + pi- T^*": res(v, _mul(pi_p, t_op) + _mul(pi_m, th)),
        "eps^* = -eps": res(_adjoint(eps), -eps),
        "eps pi+ = pi- eps": res(_mul(eps, pi_p), _mul(pi_m, eps)),
        "eps pi- = pi+ eps": res(_mul(eps, pi_m), _mul(pi_p, eps)),
        "eps W = -V": res(_mul(eps, w), -v),
        "W eps = -V^*": res(_mul(w, eps), -vh),
        "eps V = V^* eps": res(_mul(eps, v), _mul(vh, eps)),
        "eps sigma + sigma eps = 0": res(_mul(eps, sigma) + _mul(sigma, eps), 0),
        "X Y = Y X": res(_mul(x_op, y_op), _mul(y_op, x_op)),
        "X W = W X": res(_mul(x_op, w), _mul(w, x_op)),
        "Y W + W Y = 0": res(_mul(y_op, w) + _mul(w, y_op), 0),
        "V T = T V": res(_mul(v, t_op), _mul(t_op, v)),
        "T W = W T": res(_mul(t_op, w), _mul(w, t_op)),
        "X sigma = sigma X": res(_mul(x_op, sigma), _mul(sigma, x_op)),
        "Y sigma = sigma Y": res(_mul(y_op, sigma), _mul(sigma, y_op)),
        "T sigma = sigma T": res(_mul(t_op, sigma), _mul(sigma, t_op)),
        "(iy + w)^2 = -(y^2 + t^2)": res(
            _mul(1j * ys + ws, 1j * ys + ws), -(_mul(ys, ys) + t * t * eye)
        ),
        "x^2 + y^2 + t^2 = I": res(_mul(xs, xs) + _mul(ys, ys) + t * t * eye, eye),
    }
    failing = {k: r for k, r in report.items() if not r <= tol}
    if failing:
        raise RelationFailure(failing, report)
    return RelationReport(residuals=report)

