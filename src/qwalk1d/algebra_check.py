"""Finite cyclic realization of the walk's operator axioms and exact checks.

Three unitaries V, W, Sigma on a cyclic lattice of N sites (dimension 2N)
satisfy the same algebraic relations as the infinite-lattice walk: every
identity among V, W, Sigma, the unitary shift T, and the skew element
VW can be verified to machine precision on dense matrices.  The cyclicity
condition on the seed vector holds for offsets 0 < x < N only; at x = N the
shift wraps with phase alpha**N, which is documented and excluded from the
check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .coin import check_polar, make_coin, split
from .errors import ParamViolation, RelationFailure

_INV_SQRT2 = math.sqrt(0.5)


@dataclass(frozen=True, eq=False)
class CyclicRep:
    """Unitaries V, W, Sigma on 2N dimensions, site-major component-minor."""

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


def _cyclic_walk_matrix(p0: np.ndarray, q0: np.ndarray, n_sites: int) -> np.ndarray:
    """Walk operator p0*shift + q0*shift^{-1} with the cyclic shift on Z_N."""
    shift = np.roll(np.eye(n_sites), 1, axis=0)
    return np.kron(shift, p0) + np.kron(shift.T, q0)


def build_rep(N: int, alpha: complex, beta: complex) -> CyclicRep:
    """Explicit 2N x 2N matrices V, W, Sigma for the cyclic lattice.

    V comes from the diagonal coin (alpha, 0), W from the off-diagonal coin
    (0, beta); Sigma is diag(1, -1) per site.  The induced shift T equals
    alpha times the cyclic site shift.
    """
    if N < 3:
        raise ParamViolation(f"need N >= 3, got {N}")
    alpha = complex(alpha)
    beta = complex(beta)
    for name, val in (("alpha", alpha), ("beta", beta)):
        if not abs(abs(val) - 1.0) <= 1e-10:
            raise ParamViolation(f"{name} must have unit modulus, got |{name}| = {abs(val)!r}")
    pv, qv = split(make_coin(alpha, 0.0))
    pw, qw = split(make_coin(0.0, beta))
    v = _cyclic_walk_matrix(pv, qv, N)
    w = _cyclic_walk_matrix(pw, qw, N)
    sigma = np.kron(np.eye(N), np.diag([1.0, -1.0])).astype(complex)
    eye = np.eye(2 * N)
    for name, m in (("V", v), ("W", w), ("Sigma", sigma)):
        if np.max(np.abs(m.conj().T @ m - eye)) > 1e-12:
            raise ParamViolation(f"constructed {name} is not unitary")
    return CyclicRep(N=N, V=v, W=w, Sigma=sigma, alpha=alpha, beta=beta)


def verify_relations(
    rep: CyclicRep,
    tol: float = 1e-12,
    s: float = _INV_SQRT2,
    t: float = _INV_SQRT2,
) -> RelationReport:
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
    v, w, sigma = rep.V, rep.W, rep.Sigma
    dim = v.shape[0]
    eye = np.eye(dim)
    vh = v.conj().T
    pi_p = (eye + sigma) / 2
    pi_m = (eye - sigma) / 2
    x_op = (v + vh) / 2
    y_op = (v - vh) / 2j
    t_op = x_op + 1j * (sigma @ y_op)
    th = t_op.conj().T
    eps = v @ w
    xs, ys, ws = s * x_op, s * y_op, t * w

    def res(lhs: np.ndarray, rhs: np.ndarray) -> float:
        return float(np.max(np.abs(lhs - rhs)))

    zero = np.zeros_like(v)
    report = {
        "W^2 = -I": res(w @ w, -eye),
        "V W = W V^-1": res(v @ w, w @ vh),
        "sigma W + W sigma = 0": res(sigma @ w + w @ sigma, zero),
        "sigma V - V sigma = 0": res(sigma @ v - v @ sigma, zero),
        "sigma^* = sigma": res(sigma.conj().T, sigma),
        "T^* T = I": res(th @ t_op, eye),
        "T = pi+ V + pi- V^*": res(t_op, pi_p @ v + pi_m @ vh),
        "V = pi+ T + pi- T^*": res(v, pi_p @ t_op + pi_m @ th),
        "eps^* = -eps": res(eps.conj().T, -eps),
        "eps pi+ = pi- eps": res(eps @ pi_p, pi_m @ eps),
        "eps pi- = pi+ eps": res(eps @ pi_m, pi_p @ eps),
        "eps W = -V": res(eps @ w, -v),
        "W eps = -V^*": res(w @ eps, -vh),
        "eps V = V^* eps": res(eps @ v, vh @ eps),
        "eps sigma + sigma eps = 0": res(eps @ sigma + sigma @ eps, zero),
        "X Y = Y X": res(x_op @ y_op, y_op @ x_op),
        "X W = W X": res(x_op @ w, w @ x_op),
        "Y W + W Y = 0": res(y_op @ w + w @ y_op, zero),
        "V T = T V": res(v @ t_op, t_op @ v),
        "T W = W T": res(t_op @ w, w @ t_op),
        "X sigma = sigma X": res(x_op @ sigma, sigma @ x_op),
        "Y sigma = sigma Y": res(y_op @ sigma, sigma @ y_op),
        "T sigma = sigma T": res(t_op @ sigma, sigma @ t_op),
        "(iy + w)^2 = -(y^2 + t^2)": res(
            (1j * ys + ws) @ (1j * ys + ws), -(ys @ ys + t * t * eye)
        ),
        "x^2 + y^2 + t^2 = I": res(xs @ xs + ys @ ys + t * t * eye, eye),
    }
    failing = {k: r for k, r in report.items() if not r <= tol}
    if failing:
        raise RelationFailure(failing, report)
    return RelationReport(residuals=report)


def build_basis(rep: CyclicRep) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis vectors generated from the seed at site 0.

    Returns (e1, e2) with shape (N, 2N): ``e1[x]`` is the x-fold shift of the
    seed, ``e2[x]`` the x-fold shift of its skew partner VW*seed.
    """
    dim = 2 * rep.N
    x_op = (rep.V + rep.V.conj().T) / 2
    y_op = (rep.V - rep.V.conj().T) / 2j
    t_op = x_op + 1j * (rep.Sigma @ y_op)
    seed = np.zeros(dim, dtype=complex)
    seed[0] = 1.0
    e1 = np.empty((rep.N, dim), dtype=complex)
    e2 = np.empty((rep.N, dim), dtype=complex)
    e1[0] = seed
    e2[0] = rep.V @ (rep.W @ seed)
    for x in range(1, rep.N):
        e1[x] = t_op @ e1[x - 1]
        e2[x] = t_op @ e2[x - 1]
    return e1, e2


def qwr_check(rep: CyclicRep) -> float:
    """max over 0 < x < N of |<V^x seed, seed>|; zero when cyclicity holds.

    The wrap value at x = N is |alpha|^N = 1 and is deliberately outside the
    checked range.
    """
    dim = 2 * rep.N
    seed = np.zeros(dim, dtype=complex)
    seed[0] = 1.0
    worst = 0.0
    vec = seed
    for _ in range(1, rep.N):
        vec = rep.V @ vec
        worst = max(worst, abs(np.vdot(seed, vec)))
    return worst
