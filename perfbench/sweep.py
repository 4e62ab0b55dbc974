"""Layer scaling sweep: each layer entry timed once at n = 200, 2000, 20000.

The exponent fitted between n = 2000 and n = 20000 shows the asymptotic cost
of each entry (2 for the O(n^2) evolution and recurrence today).  Each entry
runs once per n, so the times are informational, not gated.
"""

from __future__ import annotations

import math
import time

from qwalk1d import cheb_engine, coin, direct_walk, limit_law

NS = (200, 2000, 20000)
XI = 1.0
K = 1
ENTRIES = [
    "evolve",
    "transfer_polys",
    "qn_distribution",
    "char_fn_components",
    "kolmogorov_distance",
    "asym_integrals",
]


def metric_names(ns: tuple[int, ...]) -> list[str]:
    return [f"sweep.{e}.{suffix}" for e in ENTRIES
            for suffix in [f"n{n}_s" for n in ns] + ["exponent"]]


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def run(phi) -> dict[str, tuple[float, str]]:
    """Hadamard coin, initial spin ``phi``; returns name -> (value, unit)."""
    c = coin.hadamard_coin()
    pol = coin.polar(c)
    s, t = pol.s, pol.t
    psi = coin.psi_from_phi(phi, pol)
    ld = limit_law.LimitDensity(s, t, limit_law.lambda_phi(phi, c))
    times: dict[str, list[float]] = {e: [] for e in ENTRIES}
    for n in NS:
        dt, st = _timed(direct_walk.evolve, phi, c, n)
        times["evolve"].append(dt)
        times["transfer_polys"].append(_timed(cheb_engine.transfer_polys, n, s, t)[0])
        times["qn_distribution"].append(_timed(cheb_engine.qn_distribution, psi, n, s, t)[0])
        times["char_fn_components"].append(
            _timed(cheb_engine.char_fn_components, psi, n, s, t, XI / n)[0])
        dist = direct_walk.distribution(st)
        times["kolmogorov_distance"].append(
            _timed(limit_law.kolmogorov_distance, dist, ld, n)[0])
        times["asym_integrals"].append(_timed(limit_law.asym_integrals, n, K, XI, s)[0])
    out = {}
    for entry, ts in times.items():
        for n, dt in zip(NS, ts):
            out[f"sweep.{entry}.n{n}_s"] = (dt, "s")
        out[f"sweep.{entry}.exponent"] = (math.log(ts[2] / ts[1]) / math.log(NS[2] / NS[1]), "1")
    return out
