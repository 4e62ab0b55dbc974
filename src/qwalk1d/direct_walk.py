"""Exact evolution of the walk on a growing window of the integer lattice.

The state is a finite window of 2-component complex amplitudes.  One step
sends the amplitude at site x to P*amps[x-1] + Q*amps[x+1], so the window
grows by exactly one site per side per step and no truncation ever happens:
evolution is exact up to floating-point roundoff.  Started from one site, a
site whose parity differs from the step count's holds an exact zero, so
evolution stores and advances only the k + 1 sites of step k's parity.  The
norm is never re-imposed; its drift from 1 is a diagnostic, not something to
hide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .coin import CoinMatrix, split, _check_unit
from .errors import ResourceLimit

DEFAULT_MAX_STEPS = 100_000


@dataclass(frozen=True, eq=False)
class WalkState:
    """Amplitudes over a contiguous window of lattice sites.

    ``amps[i]`` is the 2-component amplitude at site ``offset + i``.
    """

    offset: int
    amps: np.ndarray  # shape (L, 2), complex

    @property
    def sites(self) -> np.ndarray:
        return np.arange(self.offset, self.offset + self.amps.shape[0])

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amps) ** 2)))


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probabilities over a contiguous window of lattice sites."""

    offset: int
    probs: np.ndarray  # shape (L,), float

    @property
    def sites(self) -> np.ndarray:
        return np.arange(self.offset, self.offset + self.probs.shape[0])

    def prob(self, x: int) -> float:
        i = x - self.offset
        if 0 <= i < self.probs.shape[0]:
            return float(self.probs[i])
        return 0.0

    def total(self) -> float:
        return float(np.sum(self.probs))


def initial_state(phi: np.ndarray) -> WalkState:
    """State concentrated at site 0 with spin phi (must be a unit vector)."""
    phi = np.asarray(phi, dtype=complex)
    _check_unit(phi)
    return WalkState(offset=0, amps=phi.reshape(1, 2).copy())


def _coefficients(c: CoinMatrix) -> tuple[np.ndarray, ...]:
    """P's first and Q's second column as (4, 1) real multipliers of Re and Im.

    For a column w, w * u has real and imaginary parts (Re w, Im w) * Re u +
    (-Im w, Re w) * Im u; the four rows stack those pairs for w's two entries.
    """
    p, q = split(c)
    out = []
    for w in (p[:, 0].copy(), q[:, 1].copy()):
        out += [w.view(float)[:, None], (1j * w).view(float)[:, None]]
    return tuple(out)


def _advance(cur: np.ndarray, new: np.ndarray, tmp: np.ndarray, coef: tuple, m: int) -> None:
    """One step of one parity class: m sites in ``cur`` become m + 1 in ``new``.

    Rows are Re/Im of spin component 1, then of component 2; consecutive
    columns are sites two apart, so site j's right-mover lands in column j + 1
    and its left-mover in column j.  ``new`` needs m + 1 columns and ``tmp``
    shape (2, 4, m).  Every product and sum is its own real ufunc call, so the
    result rounds exactly as scalar complex arithmetic does, where numpy's
    complex multiply may fuse a multiply-add on some CPUs.
    """
    x, y = tmp[0, :, :m], tmp[1, :, :m]
    np.multiply(coef[0], cur[0, :m], out=x)
    np.multiply(coef[1], cur[1, :m], out=y)
    np.add(x, y, out=new[:, 1:m + 1])
    np.multiply(coef[2], cur[2, :m], out=x)
    np.multiply(coef[3], cur[3, :m], out=y)
    np.add(x, y, out=x)
    new[:, 0] = 0.0
    np.add(new[:, :m], x, out=new[:, :m])


def _snapshots(
    phi: np.ndarray, c: CoinMatrix, ns: Iterable[int], max_steps: int
) -> Iterator[tuple[int, WalkState]]:
    """Evolve from site 0 keeping only the k + 1 sites of parity k at step k."""
    targets = list(ns)
    if any(n < 0 for n in targets):
        raise ValueError("step counts must be non-negative")
    if targets != sorted(targets):
        raise ValueError("step counts must be sorted ascending")
    if targets and targets[-1] > max_steps:
        raise ResourceLimit(f"n = {targets[-1]} exceeds the configured maximum {max_steps}")
    st = initial_state(phi)
    coef = _coefficients(c)
    top = targets[-1] if targets else 0
    cur = np.zeros((4, top + 1))
    new = np.zeros_like(cur)
    tmp = np.empty((2, 4, top))
    cur[:, 0] = st.amps[0].view(float)
    k = 0
    for n in targets:
        while k < n:
            _advance(cur, new, tmp, coef, k + 1)
            cur, new = new, cur
            k += 1
        amps = np.zeros((2 * k + 1, 2), dtype=complex)
        amps.view(float)[0::2] = cur[:, :k + 1].T
        yield n, WalkState(offset=-k, amps=amps)


def evolve(phi: np.ndarray, c: CoinMatrix, n: int, max_steps: int = DEFAULT_MAX_STEPS) -> WalkState:
    """The state n steps after the one concentrated at site 0 with spin phi.

    Raises
    ------
    ResourceLimit
        If n exceeds ``max_steps`` (default 100000).
    """
    (_, st), = _snapshots(phi, c, [n], max_steps)
    return st


def evolve_snapshots(
    phi: np.ndarray, c: CoinMatrix, ns: Iterable[int], max_steps: int = DEFAULT_MAX_STEPS
) -> Iterator[tuple[int, WalkState]]:
    """Yield (n, state) at each requested step count in one evolution pass.

    ``ns`` must be sorted ascending; the largest entry is bounded by
    ``max_steps`` exactly as in :func:`evolve`.
    """
    return _snapshots(phi, c, ns, max_steps)


def distribution(st: WalkState) -> Distribution:
    """Per-site probabilities: the squared amplitude norm at each site."""
    probs = np.sum(np.abs(st.amps) ** 2, axis=1)
    return Distribution(offset=st.offset, probs=probs)


def _csv_text(header: str, columns) -> str:
    """CSV text: the header line, then one line per row of equal-length columns.

    An integer column is written as is (``%d``); any other is written with
    17 significant digits (``%.17g``), so every double round-trips.  All rows
    are formatted by one ``%`` on the row template repeated once per row.
    """
    arrays = [np.asarray(col) for col in columns]
    width, rows = len(arrays), len(arrays[0]) if arrays else 0
    values = [None] * (width * rows)
    for j, col in enumerate(arrays):
        values[j::width] = col.tolist()
    row = ",".join("%d" if col.dtype.kind in "iu" else "%.17g" for col in arrays) + "\n"
    return header + "\n" + (row * rows) % tuple(values)


def distribution_to_csv(d: Distribution) -> str:
    """CSV with header ``x,prob`` covering the whole window."""
    return _csv_text("x,prob", [d.sites, d.probs])
