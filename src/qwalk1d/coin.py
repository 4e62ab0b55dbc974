"""Special-unitary coin matrices and their derived parameterizations.

A coin is the 2x2 matrix [[a, b], [-conj(b), conj(a)]] with |a|^2 + |b|^2 = 1.
This module validates coins, splits them into the right-moving / left-moving
parts used by the walk operator, extracts the polar parameters (s, t, alpha,
beta), and maps an initial spin from the position basis to the algebra basis
the closed form uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCoin, NormViolation, ParamViolation

INPUT_NORM_TOL = 1e-10   # inputs may come from text parsing


@dataclass(frozen=True)
class CoinMatrix:
    """Validated coin entries a, b with |a|^2 + |b|^2 = 1."""

    a: complex
    b: complex

    @property
    def matrix(self) -> np.ndarray:
        """The full 2x2 special-unitary matrix."""
        a, b = self.a, self.b
        return np.array([[a, b], [-b.conjugate(), a.conjugate()]], dtype=complex)


@dataclass(frozen=True)
class PolarParams:
    """Modulus/phase split of a coin: a = s*alpha, b = t*beta.

    s and t are the moduli (0 < s, t < 1 and s^2 + t^2 = 1); alpha and beta
    are unit-modulus phases.  Only defined for coins with both entries
    non-zero.
    """

    s: float
    t: float
    alpha: complex
    beta: complex


def make_coin(a: complex, b: complex) -> CoinMatrix:
    """Build a validated coin from its two independent entries.

    Raises
    ------
    NormViolation
        If |a|^2 + |b|^2 differs from 1 by more than 1e-10, or is NaN.
    """
    a = complex(a)
    b = complex(b)
    norm2 = abs(a) ** 2 + abs(b) ** 2
    if not abs(norm2 - 1.0) <= INPUT_NORM_TOL:
        raise NormViolation(f"|a|^2 + |b|^2 = {norm2!r}, expected 1")
    return CoinMatrix(a, b)


def split(c: CoinMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Decompose the coin into P (right-moving) and Q (left-moving) parts.

    P keeps the first column of the coin matrix, Q the second; P + Q equals
    the coin matrix exactly.
    """
    a, b = c.a, c.b
    p = np.array([[a, 0.0], [-b.conjugate(), 0.0]], dtype=complex)
    q = np.array([[0.0, b], [0.0, a.conjugate()]], dtype=complex)
    return p, q


def polar(c: CoinMatrix) -> PolarParams:
    """Extract s = |a|, t = |b| and the unit phases alpha = a/|a|, beta = b/|b|.

    The split returned always passes :func:`check_polar`, which every closed
    form downstream relies on.

    Raises
    ------
    DegenerateCoin
        If a = 0 or b = 0; the polar split is undefined there.
    ParamViolation
        If s or t rounds to 0 or 1, as for a = 1, b = 1e-9.
    """
    if c.a == 0 or c.b == 0:
        raise DegenerateCoin(f"polar parameters need a != 0 and b != 0, got a={c.a}, b={c.b}")
    s = abs(c.a)
    t = abs(c.b)
    check_polar(s, t)
    return PolarParams(s=s, t=t, alpha=c.a / s, beta=c.b / t)


def check_polar(s: float, t: float | None = None) -> None:
    """Require 0 < s < 1 and, when t is given, 0 < t < 1 with s^2 + t^2 = 1.

    Every closed form, the limit density and the scaled operator identities
    rely on this check.  NaN fails every comparison, so it is rejected too.

    Raises
    ------
    ParamViolation
        If s (or t) lies outside (0, 1), or s^2 + t^2 differs from 1 by more
        than 1e-10.
    """
    if not 0.0 < s < 1.0:
        raise ParamViolation(f"s must lie strictly between 0 and 1, got {s!r}")
    if t is None:
        return
    if not 0.0 < t < 1.0:
        raise ParamViolation(f"t must lie strictly between 0 and 1, got {t!r}")
    if not abs(s * s + t * t - 1.0) <= INPUT_NORM_TOL:
        raise ParamViolation(f"s^2 + t^2 = {s * s + t * t!r}, expected 1")


def psi_from_phi(phi: np.ndarray, p: PolarParams) -> np.ndarray:
    """Map a position-basis initial spin phi to its algebra-basis twin psi.

    psi = (phi_1, -alpha*beta*phi_2).  The map is a phase on the second
    component, so it preserves the norm.

    Raises
    ------
    NormViolation
        If phi is not a unit vector within 1e-10.
    """
    phi = np.asarray(phi, dtype=complex)
    _check_unit(phi)
    return np.array([phi[0], -p.alpha * p.beta * phi[1]], dtype=complex)


def _check_unit(v: np.ndarray) -> None:
    norm = float(np.linalg.norm(v))
    if not abs(norm - 1.0) <= INPUT_NORM_TOL:
        raise NormViolation(f"expected a unit vector, got norm {norm!r}")


def hadamard_coin() -> CoinMatrix:
    """The real symmetric coin with a = b = 1/sqrt(2)."""
    r = 1.0 / math.sqrt(2.0)
    return make_coin(r, r)
