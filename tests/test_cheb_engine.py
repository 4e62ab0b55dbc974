"""Tests for the Laurent-coefficient engine.

Two independent oracles appear here: a dict-based Laurent arithmetic that
expands the explicit binomial sums for the Chebyshev polynomials (slow and
precision-losing, which is why it is the cross-check and not the engine),
and the direct-evolution walk from qwalk1d.direct_walk.
"""

import math

import numpy as np
import pytest

from qwalk1d.cheb_engine import (
    LaurentPoly,
    char_fn_components,
    cheb_T_laurent,
    cheb_U_laurent,
    cross_series,
    cross_series_quadrature,
    qn_distribution,
    transfer_polys,
)
from qwalk1d.coin import hadamard_coin, make_coin, polar, psi_from_phi
from qwalk1d.direct_walk import char_fn, distribution, evolve
from qwalk1d.errors import NormViolation, ParamViolation, QuadratureDivergence

R = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# dict-based Laurent arithmetic for the binomial-sum oracle

def lp_add(p, q):
    return {k: p.get(k, 0.0) + q.get(k, 0.0) for k in set(p) | set(q)}


def lp_scale(p, c):
    return {k: c * v for k, v in p.items()}


def lp_mul(p, q):
    out = {}
    for i, a in p.items():
        for j, b in q.items():
            out[i + j] = out.get(i + j, 0.0) + a * b
    return out


def lp_pow(p, m):
    out = {0: 1.0}
    for _ in range(m):
        out = lp_mul(out, p)
    return out


def binom_T(n, s):
    """T_n at s(z+1/z)/2 via the explicit binomial sum."""
    x = {1: s / 2, -1: s / 2}
    x2m1 = lp_add(lp_mul(x, x), {0: -1.0})
    out = {}
    for l in range(n // 2 + 1):
        term = lp_mul(lp_pow(x, n - 2 * l), lp_pow(x2m1, l))
        out = lp_add(out, lp_scale(term, math.comb(n, 2 * l)))
    return out


def binom_U(nm1, s):
    """U_{n-1} at s(z+1/z)/2 via the explicit binomial sum (argument n = nm1+1)."""
    n = nm1 + 1
    x = {1: s / 2, -1: s / 2}
    x2m1 = lp_add(lp_mul(x, x), {0: -1.0})
    out = {}
    for l in range((n - 1) // 2 + 1):
        term = lp_mul(lp_pow(x, n - 2 * l - 1), lp_pow(x2m1, l))
        out = lp_add(out, lp_scale(term, math.comb(n, 2 * l + 1)))
    return out


class TestChebLaurent:
    def test_t0_is_one(self):
        p = cheb_T_laurent(0, 0.3)
        assert p.lo == 0
        np.testing.assert_array_equal(p.coeffs, [1.0])

    def test_t1(self):
        p = cheb_T_laurent(1, R)
        assert p.lo == -1
        np.testing.assert_allclose(p.coeffs, [R / 2, 0.0, R / 2], atol=1e-15)

    def test_t2(self):
        s = 0.6
        p = cheb_T_laurent(2, s)
        np.testing.assert_allclose(
            p.coeffs, [s**2 / 2, 0.0, s**2 - 1.0, 0.0, s**2 / 2], atol=1e-15
        )

    def test_u_minus_one_is_zero(self):
        p = cheb_U_laurent(-1, 0.5)
        assert np.all(p.coeffs == 0.0)

    def test_u0_is_one(self):
        np.testing.assert_array_equal(cheb_U_laurent(0, 0.5).coeffs, [1.0])

    def test_u1(self):
        p = cheb_U_laurent(1, R)
        np.testing.assert_allclose(p.coeffs, [R, 0.0, R], atol=1e-15)

    @pytest.mark.parametrize("s", [0.3, R, 0.9])
    def test_recurrence_matches_binomial_sum(self, s):
        for n in range(31):
            rec = cheb_T_laurent(n, s)
            ref = binom_T(n, s)
            for x in range(-n, n + 1):
                assert rec.c(x) == pytest.approx(ref.get(x, 0.0), abs=1e-9)
            rec_u = cheb_U_laurent(n - 1, s)
            ref_u = binom_U(n - 1, s)
            for x in range(-n, n + 1):
                assert rec_u.c(x) == pytest.approx(ref_u.get(x, 0.0), abs=1e-9)

    def test_symmetry_bit_for_bit(self):
        for n in (5, 12, 37):
            t = cheb_T_laurent(n, 0.77).coeffs
            assert np.array_equal(t, t[::-1])
            u = cheb_U_laurent(n, 0.77).coeffs
            assert np.array_equal(u, u[::-1])

    def test_invalid_s(self):
        with pytest.raises(ParamViolation):
            cheb_T_laurent(3, 1.5)
        with pytest.raises(ParamViolation):
            cheb_U_laurent(3, 0.0)


class TestTransferPolys:
    def test_n1(self):
        s, t = 0.6, 0.8
        quad = transfer_polys(1, s, t)
        assert quad.p1.c(1) == pytest.approx(s, abs=1e-15)
        assert quad.p1.c(-1) == pytest.approx(0.0, abs=1e-15)
        assert quad.p2.c(1) == pytest.approx(t, abs=1e-15)
        assert quad.q1.c(-1) == pytest.approx(-t, abs=1e-15)
        assert quad.q2.c(-1) == pytest.approx(s, abs=1e-15)

    def test_n2_first_column(self):
        s = t = R
        quad = transfer_polys(2, s, t)
        assert quad.p1.c(2) == pytest.approx(s**2, abs=1e-15)
        assert quad.p1.c(0) == pytest.approx(s**2 - 1.0, abs=1e-15)
        assert quad.p1.c(-2) == pytest.approx(0.0, abs=1e-15)

    def test_param_violation(self):
        with pytest.raises(ParamViolation):
            transfer_polys(3, 0.6, 0.7)

    def test_column_mass(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            s = rng.uniform(0.1, 0.95)
            t = math.sqrt(1.0 - s * s)
            for n in (1, 9, 40):
                quad = transfer_polys(n, s, t)
                mass_p = np.sum(quad.p1.coeffs**2 + quad.p2.coeffs**2)
                mass_q = np.sum(quad.q1.coeffs**2 + quad.q2.coeffs**2)
                assert abs(mass_p - 1.0) < 1e-12
                assert abs(mass_q - 1.0) < 1e-12

    @pytest.mark.parametrize("s", [0.3, R, 0.9])
    def test_stacked_pass_matches_single_polynomials_bit_for_bit(self, s):
        # transfer_polys advances T and U in one pass; the coefficients must
        # equal the one-polynomial recurrences exactly, not just to rounding
        t = math.sqrt(1.0 - s * s)
        for n in list(range(8)) + [63, 200]:
            quad = transfer_polys(n, s, t)
            tn = cheb_T_laurent(n, s).coeffs
            um = np.zeros(2 * n + 1)
            if n > 0:
                um[1:-1] = cheb_U_laurent(n - 1, s).coeffs
            z_um = np.concatenate([[0.0], um[:-1]])
            zinv_um = np.concatenate([um[1:], [0.0]])
            odd = (s / 2) * (z_um - zinv_um)
            assert np.array_equal(quad.p1.coeffs, tn + odd)
            assert np.array_equal(quad.q2.coeffs, tn - odd)
            assert np.array_equal(quad.p2.coeffs, t * z_um)
            assert np.array_equal(quad.q1.coeffs, -t * zinv_um)

    def test_parity_zeros_exact(self):
        quad = transfer_polys(9, 0.6, 0.8)
        for poly in (quad.p1, quad.p2, quad.q1, quad.q2):
            for x in range(-9, 10):
                if (x + 9) % 2 == 1:
                    assert poly.c(x) == 0.0

    def test_mirror_relation(self):
        # coefficients of q1 are the negated reversal of p2
        for n in (1, 6, 21):
            quad = transfer_polys(n, 0.6, 0.8)
            assert np.array_equal(quad.q1.coeffs, -quad.p2.coeffs[::-1])


class TestQnDistribution:
    def test_right_basis_one_step(self):
        d = qn_distribution(np.array([1.0, 0.0]), 1, 0.6, 0.8)
        assert d.prob(1) == pytest.approx(1.0, abs=1e-15)
        assert d.prob(-1) == 0.0

    def test_left_basis_one_step(self):
        d = qn_distribution(np.array([0.0, 1.0]), 1, 0.6, 0.8)
        assert d.prob(-1) == pytest.approx(1.0, abs=1e-15)
        assert d.prob(1) == 0.0

    def test_hadamard_three_steps(self):
        pp = polar(hadamard_coin())
        psi = psi_from_phi(np.array([1.0, 0.0]), pp)
        d = qn_distribution(psi, 3, pp.s, pp.t)
        assert d.prob(3) == pytest.approx(0.25, abs=1e-12)
        assert d.prob(1) == pytest.approx(0.5, abs=1e-12)
        assert d.prob(-1) == pytest.approx(0.25, abs=1e-12)

    def test_norm_violation(self):
        with pytest.raises(NormViolation):
            qn_distribution(np.array([1.0, 1.0]), 2, 0.6, 0.8)

    def test_grouped_equals_expanded_form(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            s = rng.uniform(0.2, 0.9)
            t = math.sqrt(1 - s * s)
            v = rng.normal(size=4)
            psi = np.array([complex(v[0], v[1]), complex(v[2], v[3])])
            psi /= np.linalg.norm(psi)
            n = int(rng.integers(1, 30))
            d = qn_distribution(psi, n, s, t)
            quad = transfer_polys(n, s, t)
            w1, w2 = abs(psi[0]) ** 2, abs(psi[1]) ** 2
            cross = 2.0 * (psi[0] * psi[1].conjugate()).real
            expanded = (
                w1 * (quad.p1.coeffs**2 + quad.p2.coeffs**2)
                + w2 * (quad.q1.coeffs**2 + quad.q2.coeffs**2)
                + cross * (quad.p1.coeffs * quad.q1.coeffs + quad.p2.coeffs * quad.q2.coeffs)
            )
            np.testing.assert_allclose(d.probs, expanded, atol=1e-14)

    def test_mass(self):
        d = qn_distribution(np.array([R, -1j * R]), 123, 0.6, 0.8)
        assert abs(d.total() - 1.0) < 1e-12

    def test_zero_steps(self):
        d = qn_distribution(np.array([R, 1j * R]), 0, 0.6, 0.8)
        assert d.prob(0) == pytest.approx(1.0, abs=1e-15)


class TestDualPath:
    def test_matches_direct_evolution(self):
        rng = np.random.default_rng(33)
        coins = [hadamard_coin()]
        for _ in range(3):
            g = rng.normal(size=4)
            a, b = complex(g[0], g[1]), complex(g[2], g[3])
            nrm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
            coins.append(make_coin(a / nrm, b / nrm))
        for c in coins:
            pp = polar(c)
            v = rng.normal(size=4)
            phi = np.array([complex(v[0], v[1]), complex(v[2], v[3])])
            phi /= np.linalg.norm(phi)
            psi = psi_from_phi(phi, pp)
            for n in (1, 2, 13, 64):
                ref = distribution(evolve(phi, c, n))
                got = qn_distribution(psi, n, pp.s, pp.t)
                assert got.offset == ref.offset
                assert np.max(np.abs(got.probs - ref.probs)) < 1e-10


class TestCrossSeries:
    def test_shared_support(self):
        p = LaurentPoly(lo=-1, coeffs=np.array([1.0, 0.0, 1.0]))
        assert cross_series(p, p, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_disjoint_support(self):
        p = LaurentPoly(lo=1, coeffs=np.array([1.0]))
        q = LaurentPoly(lo=-1, coeffs=np.array([1.0]))
        assert cross_series(p, q, complex(np.exp(0.3j))) == pytest.approx(0.0, abs=1e-12)

    def test_quadrature_agreement_on_transfer_poly(self):
        quad = transfer_polys(3, R, R)
        w = complex(np.exp(0.7j))
        coef = cross_series(quad.p1, quad.p1, w, nodes=64)
        side = cross_series_quadrature(quad.p1, quad.p1, w, nodes=64)
        assert abs(coef - side) < 1e-10

    def test_off_circle_rejected(self):
        p = LaurentPoly(lo=0, coeffs=np.array([1.0]))
        with pytest.raises(ParamViolation):
            cross_series(p, p, 1.2)

    def test_aliasing_detected(self):
        # 3 nodes alias a degree-12 product badly enough to trip the check
        quad = transfer_polys(12, R, R)
        with pytest.raises(QuadratureDivergence):
            cross_series(quad.p1, quad.p1, 1.0, nodes=3)

    @pytest.mark.parametrize("nodes", [0, -4])
    def test_non_positive_node_count_rejected(self, nodes):
        # no nodes would make the quadrature side NaN and the check vacuous
        quad = transfer_polys(12, R, R)
        with pytest.raises(ValueError):
            cross_series(quad.p1, quad.p1, 1.0, nodes=nodes)
        with pytest.raises(ValueError):
            cross_series_quadrature(quad.p1, quad.p1, 1.0, nodes=nodes)

    def test_nan_coefficient_fails_the_check(self):
        p = LaurentPoly(lo=-1, coeffs=np.array([1.0, math.nan, 1.0]))
        with pytest.raises(QuadratureDivergence):
            cross_series(p, p, 1.0)


def coefficient_sums(quad, psi, xi):
    """(P, Q, R, E) summed over the transfer polynomials' coefficients."""
    n = quad.n
    phases = np.exp(1j * xi * np.arange(-n, n + 1))
    p1, p2 = quad.p1.coeffs, quad.p2.coeffs
    q1, q2 = quad.q1.coeffs, quad.q2.coeffs
    comp_p = np.sum((p1 * p1 + p2 * p2) * phases)
    comp_q = np.sum((q1 * q1 + q2 * q2) * phases)
    comp_r = np.sum((p1 * q1 + p2 * q2) * phases)
    weight = 2.0 * (psi[0] * psi[1].conjugate()).real
    return comp_p, comp_q, comp_r, abs(psi[0]) ** 2 * comp_p + abs(psi[1]) ** 2 * comp_q + weight * comp_r


class TestCharFnComponents:
    @pytest.mark.parametrize("s", [0.3, R, 0.95])
    def test_circle_sums_match_coefficient_sums(self, s):
        t = math.sqrt(1 - s * s)
        psi = np.array([0.6, 0.48 + 0.64j])
        for n in (1, 2, 5, 60, 2000, 6000):
            quad = transfer_polys(n, s, t)
            for xi in (0.5 / n, -0.5 / n, 2 / n, math.pi):
                got = char_fn_components(psi, n, s, t, xi)
                ref = coefficient_sums(quad, psi, xi)
                assert max(abs(g - r) for g, r in zip(got, ref)) < 1e-11
            assert char_fn_components(psi, n, s, t, 0.0) == (1.0 + 0j, 1.0 + 0j, 0j, 1.0 + 0j)

    def test_normalization_shortcut(self):
        p, q, r, e = char_fn_components(np.array([R, 1j * R]), 7, 0.6, 0.8, 0.0)
        assert (p, q, r, e) == (1.0 + 0j, 1.0 + 0j, 0j, 1.0 + 0j)

    @pytest.mark.parametrize("xi", [0.0, 0.4])
    @pytest.mark.parametrize(
        "psi, n, s, t, error",
        [
            ([1.0, 0.0], 3, 1.5, 0.2, ParamViolation),
            ([1.0, 0.0], 3, math.nan, 0.8, ParamViolation),
            ([1.0, 0.0], 3, 0.6, 0.9, ParamViolation),
            ([1.0, 0.0], -3, 0.6, 0.8, ValueError),
            ([1.0, 1.0], 3, 0.6, 0.8, NormViolation),
        ],
    )
    def test_invalid_parameters(self, psi, n, s, t, error, xi):
        # xi = 0 takes the exact shortcut, but only after the same validation
        with pytest.raises(error):
            char_fn_components(np.array(psi), n, s, t, xi)

    def test_first_basis_keeps_first_bracket(self):
        p, q, r, e = char_fn_components(np.array([1.0, 0.0]), 5, 0.6, 0.8, 0.9)
        assert e == pytest.approx(p, abs=1e-15)

    def test_one_step_point_mass(self):
        _, _, _, e = char_fn_components(np.array([1.0, 0.0]), 1, R, R, math.pi)
        assert e == pytest.approx(-1.0, abs=1e-12)

    def test_combination_matches_distribution_char_fn(self):
        rng = np.random.default_rng(34)
        for _ in range(5):
            s = rng.uniform(0.3, 0.9)
            t = math.sqrt(1 - s * s)
            v = rng.normal(size=4)
            psi = np.array([complex(v[0], v[1]), complex(v[2], v[3])])
            psi /= np.linalg.norm(psi)
            n = int(rng.integers(1, 40))
            xi = rng.uniform(-2.0, 2.0)
            _, _, _, e = char_fn_components(psi, n, s, t, xi)
            ref = char_fn(qn_distribution(psi, n, s, t), xi)
            assert abs(e - ref) < 1e-12
