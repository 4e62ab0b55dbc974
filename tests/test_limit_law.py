"""Tests for the limit density, its integrals, and the contour integrals.

Frozen constants were produced once by an independent adaptive quadrature
(scipy.integrate.quad on the raw y-integrand with endpoint splitting) and
are asserted here against the package's own panel integrator.
"""

import math

import numpy as np
import pytest

from qwalk1d.cheb_engine import cheb_T_laurent, cheb_U_laurent
from qwalk1d.coin import hadamard_coin, make_coin, polar, psi_from_phi
from qwalk1d.direct_walk import distribution, evolve
from qwalk1d.errors import DegenerateCoin, ParamViolation, QuadratureFailure
from qwalk1d.limit_law import (
    LimitDensity,
    _adaptive_gl,
    asym_integrals,
    asym_limits,
    cdf,
    cdf_grid,
    density,
    density_cdf_csv,
    kolmogorov_distance,
    lambda_phi,
    lambda_psi,
    limit_char_fn,
    limit_mean,
)

R = math.sqrt(0.5)

# one-time oracle value of the symmetric-case characteristic-function limit at xi = 1
CHAR_FN_XI1_SYMMETRIC = 0.8583229252324154


def theta_oracle(f, num=200_001):
    """Plain trapezoid on the theta grid, independent of the Gauss panels."""
    theta = np.linspace(-math.pi / 2, math.pi / 2, num)
    return np.trapezoid(f(theta), theta)


class TestLambda:
    def test_psi_first_basis(self):
        assert lambda_psi(np.array([1.0, 0.0]), 0.6, 0.8) == pytest.approx(1.0, abs=1e-15)

    def test_psi_symmetric(self):
        val = lambda_psi(np.array([R, 1j * R]), 0.6, 0.8)
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_psi_real_balanced(self):
        val = lambda_psi(np.array([R, R]), R, R)
        assert val == pytest.approx(1.0, abs=1e-15)

    def test_phi_symmetric_hadamard(self):
        val = lambda_phi(np.array([R, 1j * R]), hadamard_coin())
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_phi_first_basis(self):
        assert lambda_phi(np.array([1.0, 0.0]), hadamard_coin()) == pytest.approx(1.0)

    def test_phi_degenerate_coin(self):
        with pytest.raises(DegenerateCoin):
            lambda_phi(np.array([1.0, 0.0]), make_coin(1.0, 0.0))

    def test_phi_psi_consistency(self):
        rng = np.random.default_rng(51)
        for _ in range(300):
            g = rng.normal(size=4)
            a, b = complex(g[0], g[1]), complex(g[2], g[3])
            nrm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
            c = make_coin(a / nrm, b / nrm)
            pp = polar(c)
            v = rng.normal(size=4)
            phi = np.array([complex(v[0], v[1]), complex(v[2], v[3])])
            phi /= np.linalg.norm(phi)
            lp = lambda_phi(phi, c)
            lq = lambda_psi(psi_from_phi(phi, pp), pp.s, pp.t)
            assert abs(lp - lq) < 1e-12

    def test_bad_params(self):
        with pytest.raises(ParamViolation):
            lambda_psi(np.array([1.0, 0.0]), 0.6, 0.7)


class TestDensity:
    def test_center_value(self):
        d = LimitDensity(R, R, 0.0)
        assert density(d, 0.0) == pytest.approx(1.0 / math.pi, abs=1e-15)

    def test_outside_support(self):
        d = LimitDensity(R, R, 0.3)
        assert density(d, R) == 0.0
        assert density(d, -0.9) == 0.0

    def test_even_for_zero_lambda(self):
        d = LimitDensity(0.6, 0.8, 0.0)
        ys = np.linspace(0.01, 0.59, 40)
        np.testing.assert_allclose(density(d, ys), density(d, -ys), atol=1e-15)

    def test_lambda_bound_enforced(self):
        with pytest.raises(ParamViolation):
            LimitDensity(0.5, math.sqrt(0.75), 2.5)

    def test_nonnegative_for_admissible_lambda(self):
        rng = np.random.default_rng(52)
        ys = np.linspace(-0.99, 0.99, 301)
        for _ in range(200):
            s = rng.uniform(0.15, 0.95)
            t = math.sqrt(1 - s * s)
            v = rng.normal(size=4)
            psi = np.array([complex(v[0], v[1]), complex(v[2], v[3])])
            psi /= np.linalg.norm(psi)
            d = LimitDensity(s, t, lambda_psi(psi, s, t))
            assert np.min(density(d, ys)) >= 0.0


class TestCdf:
    def test_left_of_support(self):
        d = LimitDensity(R, R, 0.4)
        assert cdf(d, -R) == 0.0
        assert cdf(d, -1.0) == 0.0

    def test_symmetric_midpoint(self):
        d = LimitDensity(R, R, 0.0)
        assert cdf(d, 0.0) == pytest.approx(0.5, abs=1e-10)

    def test_total_mass(self):
        for lam in (0.0, 1.0, -0.7):
            d = LimitDensity(R, R, lam)
            assert cdf(d, d.s) == pytest.approx(1.0, abs=1e-10)
            assert cdf(d, 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_monotone(self):
        d = LimitDensity(0.6, 0.8, 0.9)
        ys = np.linspace(-0.7, 0.7, 41)
        vals = cdf_grid(d, ys)
        assert np.all(np.diff(vals) >= -1e-13)

    def test_grid_matches_pointwise(self):
        d = LimitDensity(0.6, 0.8, -0.5)
        ys = np.linspace(-0.65, 0.65, 17)
        grid_vals = cdf_grid(d, ys)
        for y, v in zip(ys, grid_vals):
            assert v == pytest.approx(cdf(d, float(y)), abs=1e-10)

    @pytest.mark.parametrize("s", [0.3, R, 0.95])
    def test_grid_closed_form_matches_quadrature(self, s):
        t = math.sqrt(1 - s * s)
        inside = np.linspace(-s, s, 23)[1:-1]
        ys = np.concatenate([[-2.0, -s], inside, [s, 1.5]])
        for lam in (-1 / s, -0.4, 0.0, 0.7, 1 / s):
            d = LimitDensity(s, t, lam)
            vals = cdf_grid(d, ys)
            assert list(vals[:2]) == [0.0, 0.0] and list(vals[-2:]) == [1.0, 1.0]
            for y, v in zip(ys, vals):
                assert abs(v - cdf(d, float(y))) < 1e-13

    def test_grid_rejects_descending(self):
        d = LimitDensity(0.6, 0.8, 0.0)
        with pytest.raises(ValueError):
            cdf_grid(d, np.array([0.5, 0.0]))


class TestLimitCharFn:
    def test_normalization(self):
        d = LimitDensity(R, R, 0.0)
        assert limit_char_fn(d, 0.0) == 1.0 + 0j

    def test_real_for_zero_lambda(self):
        d = LimitDensity(R, R, 0.0)
        for xi in (0.5, 1.0, 3.0):
            assert abs(limit_char_fn(d, xi).imag) < 1e-12

    def test_conjugate_symmetry(self):
        d = LimitDensity(0.6, 0.8, 0.7)
        for xi in (0.5, 1.7):
            assert abs(limit_char_fn(d, -xi).conjugate() - limit_char_fn(d, xi)) < 1e-10

    def test_pinned_symmetric_value(self):
        d = LimitDensity(R, R, 0.0)
        assert limit_char_fn(d, 1.0).real == pytest.approx(CHAR_FN_XI1_SYMMETRIC, abs=1e-10)

    def test_against_trapezoid_oracle(self):
        d = LimitDensity(0.6, 0.8, 0.4)
        xi = 1.3

        def f(theta):
            y = d.s * np.sin(theta)
            return d.t / np.pi * np.exp(1j * xi * y) * (1 + d.lam * y) / (1 - y**2)

        assert abs(limit_char_fn(d, xi) - theta_oracle(f)) < 1e-8

    def test_gap_symmetric_in_xi(self):
        # |E_n(xi/n) - limit(xi)| = |E_n(-xi/n) - limit(-xi)| since both sides
        # conjugate under xi -> -xi for a real distribution
        from qwalk1d.cheb_engine import char_fn_components

        d = LimitDensity(R, R, 0.0)
        psi = np.array([R, -1j * R])
        for xi in (0.5, 1.5):
            gap_p = abs(char_fn_components(psi, 60, R, R, xi / 60)[3] - limit_char_fn(d, xi))
            gap_m = abs(char_fn_components(psi, 60, R, R, -xi / 60)[3] - limit_char_fn(d, -xi))
            assert gap_p == pytest.approx(gap_m, abs=1e-12)


class TestLimitMean:
    def test_against_trapezoid_oracle(self):
        d = LimitDensity(R, R, 1.0)

        def f(theta):
            y = d.s * np.sin(theta)
            return y * d.t * (1 + d.lam * y) / (np.pi * (1 - y**2))

        assert limit_mean(d) == pytest.approx(theta_oracle(f), abs=1e-8)

    def test_zero_for_symmetric(self):
        assert limit_mean(LimitDensity(0.6, 0.8, 0.0)) == pytest.approx(0.0, abs=1e-12)


class TestAsymIntegrals:
    def test_odd_k_kills_a_and_d(self):
        for n in (50, 300):
            a, b, c, d = asym_integrals(n, 1, 0.5, R)
            assert abs(a) < 1e-10 and abs(d) < 1e-10
            assert abs(b) > 1e-4 or abs(c) > 1e-4

    def test_even_k_kills_b_and_c(self):
        for n in (50, 300):
            a, b, c, d = asym_integrals(n, 2, 0.5, R)
            assert abs(b) < 1e-10 and abs(c) < 1e-10

    def test_diagonal_average_approaches_half(self):
        gaps = [abs(asym_integrals(n, 0, 0.0, R)[0] - 0.5) for n in (200, 2000)]
        assert gaps[1] < gaps[0]
        assert gaps[1] < 0.006

    def test_invalid_s(self):
        with pytest.raises(ParamViolation):
            asym_integrals(10, 0, 0.0, 1.0)

    @pytest.mark.parametrize("s", [0.3, R, 0.95])
    def test_matches_coefficient_sums(self, s):
        # independent oracle: with a, b the Laurent coefficients of T_n and
        # U_{n-1}, each circle mean is sum_y p_y q_{-y-k} e^{i y xi/n}
        for n in (1, 2, 7, 60, 300):
            a, b = cheb_T_laurent(n, s), cheb_U_laurent(n - 1, s)
            ys = np.arange(-n, n + 1)
            for k in (-3, 0, 1, 2, 5):
                for xi in (0.0, 1.0, -2.5):
                    phase = np.exp(1j * ys * xi / n)
                    ref = [
                        np.sum(np.array([p.c(y) * q.c(-y - k) for y in ys]) * phase)
                        for p, q in ((a, a), (a, b), (b, a), (b, b))
                    ]
                    got = asym_integrals(n, k, xi, s)
                    assert max(abs(g - r) for g, r in zip(got, ref)) < 1e-12, (n, k, xi)


class TestAsymLimits:
    def test_odd_k_exact_zeros(self):
        a, b, c, d = asym_limits(1, 0.7, R)
        assert a == 0j and d == 0j
        assert b == -c

    def test_even_k_exact_zeros(self):
        a, b, c, d = asym_limits(2, 0.7, R)
        assert b == 0j and c == 0j

    def test_arcsine_normalization(self):
        a, _, _, d = asym_limits(0, 0.0, R)
        assert a.real == pytest.approx(0.5, abs=1e-12)
        # integral of 1/((1-x^2) sqrt(s^2-x^2)) over (-s, s) is pi/t
        assert d.real == pytest.approx(1.0 / (2.0 * R), abs=1e-10)

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("xi", [0.0, 1.0, 2.0])
    def test_convergence_trend(self, k, xi):
        lim = asym_limits(k, xi, R)
        grid = [200, 632, 2000]
        gaps = []
        for n in grid:
            fin = asym_integrals(n, k, xi, R)
            gaps.append(max(abs(f - l) for f, l in zip(fin, lim)))
        misses = sum(1 for g0, g1 in zip(gaps, gaps[1:]) if g1 >= g0)
        assert misses <= 1
        assert gaps[-1] < gaps[0]

    def test_b_plus_c_vanishes(self):
        for k, xi in ((1, 0.5), (3, 1.0)):
            sums = []
            for n in (200, 2000):
                _, b, c, _ = asym_integrals(n, k, xi, R)
                sums.append(abs(b + c))
            assert sums[1] < sums[0]


def panel_cdf_grid(d, ys):
    """CDF on an ascending grid by 20-point Gauss-Legendre panels, segment by segment.

    Each segment between consecutive grid points in theta = asin(y/s) gets
    panels no wider than 0.05 rad; the running sum of the segments is the CDF.
    """
    nodes, weights = np.polynomial.legendre.leggauss(20)
    s, t, lam = d.s, d.t, d.lam
    edges = np.concatenate([[-math.pi / 2], np.arcsin(np.clip(ys / s, -1.0, 1.0))])
    increments = np.zeros(ys.size)
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        if hi == lo:
            continue
        cuts = np.linspace(lo, hi, max(1, math.ceil((hi - lo) / 0.05)) + 1)
        half = (cuts[1:] - cuts[:-1]) / 2
        theta = ((cuts[1:] + cuts[:-1]) / 2)[:, None] + half[:, None] * nodes
        sn = np.sin(theta)
        g = t * (1.0 + lam * s * sn) / (np.pi * (1.0 - s**2 * sn**2))
        increments[i] = np.sum(half[:, None] * weights * g)
    return np.cumsum(increments)


class TestKolmogorov:
    @pytest.mark.parametrize("phi", [np.array([R, 1j * R]), np.array([1.0, 0.0])])
    def test_matches_panel_quadrature_at_n_2000(self, phi):
        coin = hadamard_coin()
        pp = polar(coin)
        d = LimitDensity(pp.s, pp.t, lambda_phi(phi, coin))
        n = 2000
        dist = distribution(evolve(phi, coin, n))
        f_lim = panel_cdf_grid(d, dist.sites / n)
        cum = np.cumsum(dist.probs)
        ref = np.max(np.maximum(np.abs(cum - f_lim), np.abs(cum - dist.probs - f_lim)))
        assert abs(kolmogorov_distance(dist, d, n) - ref) < 1e-14

    def test_decreases_with_n(self):
        coin = hadamard_coin()
        pp = polar(coin)
        phi = np.array([R, 1j * R])
        d = LimitDensity(pp.s, pp.t, lambda_phi(phi, coin))
        values = []
        for n in (100, 400):
            dist = distribution(evolve(phi, coin, n))
            values.append(kolmogorov_distance(dist, d, n))
        assert 0.0 < values[1] < values[0]


class TestRescaledMean:
    def test_symmetric_mean_vanishes(self):
        coin = hadamard_coin()
        phi = np.array([R, 1j * R])
        dist = distribution(evolve(phi, coin, 400))
        mean = float(np.sum(dist.sites * dist.probs)) / 400
        assert abs(mean) < 1e-12

    def test_tilted_mean_approaches_limit(self):
        coin = hadamard_coin()
        pp = polar(coin)
        phi = np.array([1.0, 0.0])
        d = LimitDensity(pp.s, pp.t, lambda_phi(phi, coin))
        target = limit_mean(d)
        gaps = []
        for n in (100, 800):
            dist = distribution(evolve(phi, coin, n))
            mean = float(np.sum(dist.sites * dist.probs)) / n
            gaps.append(abs(mean - target))
        assert gaps[1] < gaps[0]
        assert gaps[1] < 0.01


class TestQuadratureMachinery:
    def test_failure_on_pathological_integrand(self):
        with pytest.raises(QuadratureFailure):
            _adaptive_gl(lambda theta: np.cos(1e7 * theta), 0.0, 1.0, tol=1e-12)

    def test_csv_table(self):
        d = LimitDensity(R, R, 0.0)
        ys = np.linspace(-0.6, 0.6, 5)
        lines = density_cdf_csv(d, ys).strip().splitlines()
        assert lines[0] == "y,density,cdf"
        assert len(lines) == 6
        mid = lines[3].split(",")
        assert float(mid[1]) == pytest.approx(1.0 / math.pi, abs=1e-12)
        assert float(mid[2]) == pytest.approx(0.5, abs=1e-9)
