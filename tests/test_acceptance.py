"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Pinned convergence constants come from one-time oracle runs recorded
in the repository (README, "Pinned thresholds"); they are asserted with a
1.1 safety factor and each pinned Kolmogorov distance is itself required to
be below 0.05.
"""

import math
import time

import numpy as np
import pytest

from dense_oracle import build_basis, dense_rep, qwr_check
from qwalk1d.algebra_check import build_rep, verify_relations
from qwalk1d.cheb_engine import (
    char_fn_components,
    cross_series,
    cross_series_quadrature,
    qn_distribution,
    transfer_polys,
)
from qwalk1d.coin import hadamard_coin, make_coin, polar, psi_from_phi
from qwalk1d.direct_walk import distribution, evolve_snapshots
from qwalk1d.limit_law import (
    LimitDensity,
    asym_integrals,
    asym_limits,
    density,
    kolmogorov_distance,
    lambda_phi,
    lambda_psi,
    limit_char_fn,
)

R = math.sqrt(0.5)

# one-time oracle pins (Hadamard coin); see README "Pinned thresholds"
PINNED_D2000 = {"symmetric": 0.014243679387957835, "right": 0.02324860651367433}
PINNED_ASYM_GAP_N2000 = {
    (0, 0.0): 0.008921734891157884,
    (0, 1.0): 0.008920624646567399,
    (1, 0.0): 0.006307042875450217,
    (1, 1.0): 0.0063460137231026404,
    (2, 0.0): 0.008926193527610232,
    (2, 1.0): 0.00892538116877533,
}
SAFETY = 1.1


def report(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def random_unit2(rng):
    v = rng.normal(size=4)
    u = np.array([complex(v[0], v[1]), complex(v[2], v[3])])
    return u / np.linalg.norm(u)


def random_nondegenerate_coin(rng):
    while True:
        g = rng.normal(size=4)
        a, b = complex(g[0], g[1]), complex(g[2], g[3])
        nrm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        a, b = a / nrm, b / nrm
        if abs(a) > 1e-3 and abs(b) > 1e-3:
            return make_coin(a, b)


def test_criterion_1_dual_path_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    coins = [hadamard_coin()] + [random_nondegenerate_coin(rng) for _ in range(20)]
    n_max = 200
    worst = 0.0
    for c in coins:
        pp = polar(c)
        for _ in range(10):
            phi = random_unit2(rng)
            psi = psi_from_phi(phi, pp)
            for n, st in evolve_snapshots(phi, c, list(range(1, n_max + 1))):
                direct = distribution(st)
                closed = qn_distribution(psi, n, pp.s, pp.t)
                assert closed.offset == direct.offset
                worst = max(worst, float(np.max(np.abs(direct.probs - closed.probs))))
    elapsed = time.monotonic() - start
    report(
        1,
        worst < 1e-10 and elapsed < 60.0,
        f"dual-path max gap {worst:.3e} over 21 coins x 10 spins x n<=200 "
        f"(tol 1e-10), runtime {elapsed:.1f}s (target < 60s)",
    )


def test_criterion_2_hand_derived_pins():
    phi = np.array([1.0, 0.0])
    pins = {
        1: {1: 1.0},
        2: {2: 0.5, 0: 0.5},
        3: {3: 0.25, 1: 0.5, -1: 0.25},
    }
    worst = 0.0
    for n, st in evolve_snapshots(phi, hadamard_coin(), [1, 2, 3]):
        d = distribution(st)
        for x in d.sites:
            expected = pins[n].get(int(x), 0.0)
            worst = max(worst, abs(d.prob(int(x)) - expected))
    report(2, worst < 1e-12, f"hand-derived pins at n=1,2,3 max deviation {worst:.3e} (tol 1e-12)")


def test_criterion_3_normalization_and_unitarity():
    phi = np.array([R, 1j * R])
    worst_mass = 0.0
    worst_norm = 0.0
    for n, st in evolve_snapshots(phi, hadamard_coin(), [500, 1000, 2000, 3500, 5000]):
        worst_norm = max(worst_norm, abs(st.norm() - 1.0))
        worst_mass = max(worst_mass, abs(distribution(st).total() - 1.0))
    report(
        3,
        worst_mass < 1e-12 and worst_norm < 1e-12,
        f"n up to 5000: mass deviation {worst_mass:.3e}, norm drift {worst_norm:.3e} (tol 1e-12)",
    )


def test_criterion_4_algebra_suite():
    rng = np.random.default_rng(1004)
    worst_resid = 0.0
    worst_gram = 0.0
    worst_qwr = 0.0
    for n_sites in (3, 4, 8, 16, 64):
        for _ in range(20):
            alpha = complex(np.exp(2j * np.pi * rng.random()))
            beta = complex(np.exp(2j * np.pi * rng.random()))
            s_val = rng.uniform(0.1, 0.99)
            rep = build_rep(n_sites, alpha, beta)
            rep_report = verify_relations(rep, tol=1e-12, s=s_val, t=math.sqrt(1 - s_val**2))
            worst_resid = max(worst_resid, rep_report.max_residual())
            dense = dense_rep(n_sites, alpha, beta)
            e1, e2 = build_basis(dense)
            basis = np.vstack([e1, e2])
            gram = basis.conj() @ basis.T
            worst_gram = max(worst_gram, float(np.max(np.abs(gram - np.eye(2 * n_sites)))))
            worst_qwr = max(worst_qwr, qwr_check(dense))
    report(
        4,
        worst_resid <= 1e-12 and worst_gram < 1e-12 and worst_qwr < 1e-14,
        f"N in {{3,4,8,16,64}} x 20 draws: max identity residual {worst_resid:.3e} "
        f"(tol 1e-12), max Gram deviation {worst_gram:.3e} (tol 1e-12), "
        f"max cyclicity overlap {worst_qwr:.3e} (tol 1e-14)",
    )


def test_criterion_5_weak_limit_convergence():
    start = time.monotonic()
    coin = hadamard_coin()
    pp = polar(coin)
    grid = [125, 250, 500, 1000, 2000]
    cases = {
        "symmetric": np.array([R, 1j * R]),
        "right": np.array([1.0, 0.0]),
    }
    ok = True
    messages = []
    for name, phi in cases.items():
        ld = LimitDensity(pp.s, pp.t, lambda_phi(phi, coin))
        values = [
            kolmogorov_distance(distribution(st), ld, n)
            for n, st in evolve_snapshots(phi, coin, grid)
        ]
        misses = sum(1 for a, b in zip(values, values[1:]) if b >= a)
        pinned = PINNED_D2000[name]
        case_ok = misses <= 1 and values[-1] < pinned * SAFETY and pinned < 0.05
        ok = ok and case_ok
        messages.append(
            f"{name}: D_2000 = {values[-1]:.6g} (pinned {pinned:.6g} x {SAFETY}), "
            f"{misses} non-monotone steps"
        )
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    report(5, ok, "; ".join(messages) + f"; runtime {elapsed:.1f}s (target < 120s)")


def test_criterion_6_char_fn_convergence():
    coin = hadamard_coin()
    pp = polar(coin)
    grid = [125, 250, 500, 1000, 2000]
    xis = (0.5, 1.0, 2.0)
    ok = True
    messages = []
    for name, phi in (("symmetric", np.array([R, 1j * R])), ("right", np.array([1.0, 0.0]))):
        psi = psi_from_phi(phi, pp)
        ld = LimitDensity(pp.s, pp.t, lambda_phi(phi, coin))
        limits = {xi: limit_char_fn(ld, xi) for xi in xis}
        for xi in xis:
            gaps = [
                abs(char_fn_components(psi, n, pp.s, pp.t, xi / n)[3] - limits[xi])
                for n in grid
            ]
            misses = sum(1 for a, b in zip(gaps, gaps[1:]) if b >= a)
            if misses > 1:
                ok = False
            messages.append(f"{name} xi={xi}: gap {gaps[0]:.2e} -> {gaps[-1]:.2e}")
        for n in grid:
            _, _, _, e0 = char_fn_components(psi, n, pp.s, pp.t, 0.0)
            zero_gap = abs(e0 - limit_char_fn(ld, 0.0))
            if zero_gap != 0.0:
                ok = False
                messages.append(f"{name} xi=0 gap {zero_gap!r} at n={n}, expected exactly 0")
    report(6, ok, "decreasing char-fn gaps; xi=0 gap identically 0; " + "; ".join(messages[:4]))


def test_criterion_7_convolution_identity():
    rng = np.random.default_rng(1007)
    ws = np.exp(2j * np.pi * rng.random(25))
    worst = 0.0
    for n in range(1, 101):
        quad = transfer_polys(n, R, R)
        for poly in (quad.p1, quad.p2, quad.q1, quad.q2):
            for w in ws:
                coef = cross_series(poly, poly, complex(w))
                side = cross_series_quadrature(poly, poly, complex(w))
                worst = max(worst, abs(coef - side))
    report(
        7,
        worst < 1e-10,
        f"coefficient vs quadrature convolution gap {worst:.3e} over transfer "
        f"polynomials n<=100 at 25 unit-circle points (tol 1e-10)",
    )


def test_criterion_8_asym_integral_convergence():
    s = R
    grid = [200, 500, 1000, 2000]
    worst_parity = 0.0
    ok = True
    messages = []
    for (k, xi), pinned in PINNED_ASYM_GAP_N2000.items():
        lim = asym_limits(k, xi, s)
        for n in grid:
            fin = asym_integrals(n, k, xi, s)
            vanishing = (fin[0], fin[3]) if k % 2 else (fin[1], fin[2])
            worst_parity = max(worst_parity, max(abs(v) for v in vanishing))
            if n == grid[-1]:
                gap = max(abs(f - l) for f, l in zip(fin, lim))
                if gap >= pinned * SAFETY:
                    ok = False
                messages.append(f"(k={k},xi={xi}): gap {gap:.3e} vs pinned {pinned:.3e}")
    ok = ok and worst_parity < 1e-10
    report(
        8,
        ok,
        f"n=2000 gaps within pinned x {SAFETY}; parity columns max {worst_parity:.3e} "
        f"(tol 1e-10); " + "; ".join(messages[:3]),
    )


def test_criterion_9_lambda_consistency_and_density_sign():
    rng = np.random.default_rng(1009)
    worst = 0.0
    min_density = np.inf
    ys = np.linspace(-0.999, 0.999, 101)
    for _ in range(10000):
        c = random_nondegenerate_coin(rng)
        pp = polar(c)
        phi = random_unit2(rng)
        lp = lambda_phi(phi, c)
        lq = lambda_psi(psi_from_phi(phi, pp), pp.s, pp.t)
        worst = max(worst, abs(lp - lq))
        # the LimitDensity constructor itself enforces |lambda| <= 1/s
        d = LimitDensity(pp.s, pp.t, lq)
        min_density = min(min_density, float(np.min(density(d, ys))))
    report(
        9,
        worst < 1e-12 and min_density >= 0.0,
        f"lambda consistency max gap {worst:.3e} over 10000 draws (tol 1e-12); "
        f"min density value {min_density:.3e} (must be >= 0)",
    )
