"""Dense 2N x 2N construction of the cyclic representation: a test oracle.

``qwalk1d.algebra_check`` holds V, W and Sigma as their Fourier symbols.
This module builds the same operators as explicit matrices with Kronecker
products, checks the same identities on them, and adds the seed basis and
the cyclicity check that only the tests use.  It costs O(N^3) time and
O(N^2) memory, so keep N small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qwalk1d.coin import make_coin, split

_INV_SQRT2 = math.sqrt(0.5)


@dataclass(frozen=True, eq=False)
class DenseRep:
    """Unitaries V, W, Sigma as 2N x 2N matrices, site-major component-minor."""

    N: int
    V: np.ndarray
    W: np.ndarray
    Sigma: np.ndarray


def _cyclic_walk_matrix(p0: np.ndarray, q0: np.ndarray, n_sites: int) -> np.ndarray:
    """Walk operator p0*shift + q0*shift^{-1} with the cyclic shift on Z_N."""
    shift = np.roll(np.eye(n_sites), 1, axis=0)
    return np.kron(shift, p0) + np.kron(shift.T, q0)


def dense_rep(N: int, alpha: complex, beta: complex) -> DenseRep:
    """Explicit matrices V, W, Sigma for the cyclic lattice of N sites."""
    pv, qv = split(make_coin(alpha, 0.0))
    pw, qw = split(make_coin(0.0, beta))
    v = _cyclic_walk_matrix(pv, qv, N)
    w = _cyclic_walk_matrix(pw, qw, N)
    sigma = np.kron(np.eye(N), np.diag([1.0, -1.0])).astype(complex)
    return DenseRep(N=N, V=v, W=w, Sigma=sigma)


def dense_relations(rep: DenseRep, s: float = _INV_SQRT2, t: float = _INV_SQRT2) -> dict:
    """Max-abs residual of each identity that ``verify_relations`` checks, same order."""
    v, w, sigma = rep.V, rep.W, rep.Sigma
    eye = np.eye(v.shape[0])
    vh = v.conj().T
    pi_p = (eye + sigma) / 2
    pi_m = (eye - sigma) / 2
    x_op = (v + vh) / 2
    y_op = (v - vh) / 2j
    t_op = x_op + 1j * (sigma @ y_op)
    th = t_op.conj().T
    eps = v @ w
    xs, ys, ws = s * x_op, s * y_op, t * w

    def res(lhs: np.ndarray, rhs) -> float:
        return float(np.max(np.abs(lhs - rhs)))

    return {
        "W^2 = -I": res(w @ w, -eye),
        "V W = W V^-1": res(v @ w, w @ vh),
        "sigma W + W sigma = 0": res(sigma @ w + w @ sigma, 0),
        "sigma V - V sigma = 0": res(sigma @ v - v @ sigma, 0),
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
        "eps sigma + sigma eps = 0": res(eps @ sigma + sigma @ eps, 0),
        "X Y = Y X": res(x_op @ y_op, y_op @ x_op),
        "X W = W X": res(x_op @ w, w @ x_op),
        "Y W + W Y = 0": res(y_op @ w + w @ y_op, 0),
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


def build_basis(rep: DenseRep) -> tuple[np.ndarray, np.ndarray]:
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


def qwr_check(rep: DenseRep) -> float:
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
