"""Tests for the Laurent-coefficient engine.

Independent oracles appear here: a dict-based Laurent arithmetic that
expands the explicit binomial sums for the Chebyshev polynomials (slow and
precision-losing, which is why it is the cross-check and not the engine),
the coefficient-space recurrence of ``coeff_oracle`` for the FFT
coefficients (the package has no other coefficient path, so a reference
built from ``transfer_polys`` would compare the FFT with itself), 30-digit
trapezoid sums in mpmath where the recurrence is too slow, and the
direct-evolution walk from qwalk1d.direct_walk.
"""

import math

import mpmath
import numpy as np
import pytest

from coeff_oracle import cheb_T_laurent, cheb_U_laurent, recurrence_quadruple
from qwalk1d import cheb_engine
from qwalk1d.cheb_engine import (
    LaurentPoly,
    _cheb_coeffs,
    char_fn_components,
    cross_series,
    cross_series_quadrature,
    qn_distribution,
    transfer_polys,
)
from qwalk1d.coin import hadamard_coin, make_coin, polar, psi_from_phi
from qwalk1d.direct_walk import distribution, evolve, evolve_snapshots
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

    @pytest.mark.parametrize("s", [0.3, R, 0.9])
    def test_stacked_pass_matches_single_polynomials_bit_for_bit(self, s):
        # the oracle's quadruple advances T and U in one pass; the coefficients
        # must equal the one-polynomial recurrences exactly, not just to rounding
        t = math.sqrt(1.0 - s * s)
        for n in list(range(8)) + [63, 200]:
            quad = recurrence_quadruple(n, s, t)
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

    @pytest.mark.parametrize("s", [0.3, R, 0.9])
    def test_stacked_pass_matches_single_polynomials_bit_for_bit(self, s):
        # transfer_polys builds all four columns from one stacked FFT of T_n
        # and U_{n-1}; the columns must equal the column formulas applied to
        # those two polynomials exactly, not just to rounding, with p1 at -n
        # and q2 at n set to exactly 0
        t = math.sqrt(1.0 - s * s)
        for n in list(range(8)) + [63, 200]:
            quad = transfer_polys(n, s, t)
            tn, um = _cheb_coeffs(n, s)
            z_um = np.concatenate([[0.0], um[:-1]])
            zinv_um = np.concatenate([um[1:], [0.0]])
            odd = (s / 2) * (z_um - zinv_um)
            p1, q2 = tn + odd, tn - odd
            if n > 0:
                assert quad.p1.coeffs[0] == 0.0 and quad.q2.coeffs[-1] == 0.0
                p1[0] = q2[-1] = 0.0
            assert np.array_equal(quad.p1.coeffs, p1)
            assert np.array_equal(quad.q2.coeffs, q2)
            assert np.array_equal(quad.p2.coeffs, t * z_um)
            assert np.array_equal(quad.q1.coeffs, -t * zinv_um)

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

    def test_parity_zeros_exact(self):
        quad = transfer_polys(9, 0.6, 0.8)
        for poly in (quad.p1, quad.p2, quad.q1, quad.q2):
            for x in range(-9, 10):
                if (x + 9) % 2 == 1:
                    assert poly.c(x) == 0.0

    def test_mirror_relation(self):
        # coefficients of q1 are the negated reversal of p2
        for n in (0, 1, 6, 21, 1000, 10**4):
            quad = transfer_polys(n, 0.6, 0.8)
            assert np.array_equal(quad.q1.coeffs, -quad.p2.coeffs[::-1])

    @pytest.mark.parametrize(
        "n, s, t, error",
        [
            (3, 0.6, 0.8, AssertionError),
            (3, 1.5, 0.2, ParamViolation),
            (3, math.nan, 0.8, ParamViolation),
            (3, 0.6, 0.7, ParamViolation),
            (-3, 0.6, 0.8, ValueError),
        ],
    )
    def test_reads_fft_coefficients_after_validating(self, n, s, t, error, monkeypatch):
        # valid parameters reach the FFT coefficients; invalid ones never do
        def boom(*args):
            raise AssertionError("reads _cheb_coeffs")

        monkeypatch.setattr(cheb_engine, "_cheb_coeffs", boom)
        with pytest.raises(error):
            transfer_polys(n, s, t)

    @pytest.mark.parametrize("s", [0.3, R, 0.95])
    def test_unreachable_edges_are_exact_zero(self, s):
        # the first column lives on [2 - n, n] and the second on [-n, n - 2];
        # at n = 10^4, s = sqrt(1/2) the recurrence leaves 5e-324 on both edges
        t = math.sqrt(1 - s * s)
        for n in list(range(1, 101)) + [1000, 10**4]:
            quad = transfer_polys(n, s, t)
            assert quad.p1.c(-n) == 0.0 and quad.q2.c(n) == 0.0


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
            quad = recurrence_quadruple(n, s, t)
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
    def test_invalid_parameters(self, psi, n, s, t, error, monkeypatch):
        # every check runs before the circle samples are allocated
        def boom(*args):
            raise AssertionError("sampled before validating")

        monkeypatch.setattr(cheb_engine, "_cheb_coeffs", boom)
        with pytest.raises(error):
            qn_distribution(np.array(psi), n, s, t)

    @pytest.mark.parametrize("s", [0.3, R, 0.95])
    def test_unreachable_edge_is_exact_zero(self, s):
        # from the first basis spin the walk cannot be at -n, from the second not at n
        t = math.sqrt(1 - s * s)
        for n in range(1, 41):
            assert qn_distribution(np.array([1.0, 0.0]), n, s, t).probs[0] == 0.0
            assert qn_distribution(np.array([0.0, 1.0]), n, s, t).probs[-1] == 0.0


def mp_t_coefficients(n, s, xs):
    """Coefficients of z^x of T_n(s(z+1/z)/2), by a 30-digit trapezoid sum.

    The samples cos(n acos(s cos theta)) need the extra digits at large n; the
    weights cos(x theta_j) are exact to rounding once x j is reduced mod m.
    """
    m = 2 * n + 2
    js = np.arange(m // 2 + 1)  # theta and -theta give the same sample
    with mpmath.workdps(30):
        step = 2 * mpmath.pi / m
        f = np.array([float(mpmath.cos(n * mpmath.acos(s * mpmath.cos(j * step)))) for j in js])
    f[1:-1] *= 2
    return [float(f @ np.cos(2 * np.pi * (x * js % m) / m)) / m for x in xs]


class TestFftCoefficients:
    @pytest.mark.parametrize("s", [0.3, R, 0.95])
    def test_match_recurrence_at_large_n(self, s):
        t = math.sqrt(1 - s * s)
        for n in list(range(101)) + [1000, 10**4]:
            quad = transfer_polys(n, s, t)
            ref = recurrence_quadruple(n, s, t)
            for got, want in zip((quad.p1, quad.p2, quad.q1, quad.q2), (ref.p1, ref.p2, ref.q1, ref.q2)):
                assert got.lo == want.lo == -n and got.coeffs.shape == want.coeffs.shape
                assert np.max(np.abs(got.coeffs - want.coeffs)) < 1e-12
                assert np.all(got.coeffs[1::2] == 0.0)  # parity zeros are exact

    def test_parity_zeros_exact(self):
        for n in (0, 1, 2, 9, 100, 1001):
            tn, um = _cheb_coeffs(n, 0.6)
            assert np.all(tn[1::2] == 0.0) and np.all(um[0::2] == 0.0)
            assert np.array_equal(tn, tn[::-1]) and np.array_equal(um, um[::-1])

    def test_t_coefficients_match_mpmath_at_n_10000(self):
        n, s = 10**4, R
        xs = [0, 2, 5000, 7070, n - 2]  # centre, bulk, ballistic front, tail
        tn, _ = _cheb_coeffs(n, s)
        ref = mp_t_coefficients(n, s, xs)
        assert np.max(np.abs(tn[n + np.array(xs)] - ref)) < 1e-13
        assert abs(ref[3]) > 0.01  # the front coefficient is not a vacuous zero


class TestLargeN:
    def test_mass_at_n_100000(self):
        n = 10**5
        for psi in (np.array([1.0, 0.0]), np.array([R, 1j * R]), np.array([0.6, 0.48 - 0.64j])):
            d = qn_distribution(psi, n, R, R)
            assert abs(1.0 - d.total()) <= 1e-13
            assert np.all(d.probs[1::2] == 0.0)

    @pytest.mark.parametrize(
        "phi, coin",
        [
            (np.array([R, 1j * R]), hadamard_coin()),
            (np.array([1.0, 0.0]), hadamard_coin()),
            (np.array([0.6, 0.8j]), make_coin(0.36 + 0.48j, 0.8j)),
        ],
        ids=["symmetric", "right", "complex"],
    )
    def test_matches_direct_evolution_at_n_6000(self, phi, coin):
        n = 6000
        pp = polar(coin)
        (_, st), = evolve_snapshots(phi, coin, [n])
        ref = distribution(st)
        got = qn_distribution(psi_from_phi(phi, pp), n, pp.s, pp.t)
        assert got.offset == ref.offset and got.probs.shape == ref.probs.shape
        assert np.max(np.abs(got.probs - ref.probs)) < 1e-13
        # sites of the wrong parity are exact zeros on both paths
        assert np.all(got.probs[1::2] == 0.0) and np.all(ref.probs[1::2] == 0.0)


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


def aliased_mean(p, q, w, m):
    """The m-node trapezoid mean of p(w z) q(1/z), exactly, from the coefficients.

    The mean of z**d over the m-th roots of unity is 1 when m divides d and
    0 otherwise, so the mean pairs c_x(p) w**x with c_y(q) wherever x = y
    mod m.  Summed in 30-digit mpmath, by residue class.
    """
    with mpmath.workdps(30):
        w = mpmath.mpc(w)
        sums_p, sums_q = [mpmath.mpc(0)] * m, [mpmath.mpf(0)] * m
        for i, c in enumerate(p.coeffs):
            sums_p[(p.lo + i) % m] += mpmath.mpf(float(c)) * w ** (p.lo + i)
        for i, c in enumerate(q.coeffs):
            sums_q[(q.lo + i) % m] += mpmath.mpf(float(c))
        return complex(mpmath.fsum(a * b for a, b in zip(sums_p, sums_q)))


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
        coef = cross_series(quad.p1, quad.p1, w)
        side = cross_series_quadrature(quad.p1, quad.p1, w)
        assert abs(coef - side) < 1e-10

    def test_off_circle_rejected(self):
        p = LaurentPoly(lo=0, coeffs=np.array([1.0]))
        with pytest.raises(ParamViolation):
            cross_series(p, p, 1.2)

    def test_aliasing_detected(self, monkeypatch):
        # 3 nodes alias a degree-12 product badly enough to trip the check
        monkeypatch.setattr(cheb_engine, "_node_count", lambda band: 3)
        quad = transfer_polys(12, R, R)
        with pytest.raises(QuadratureDivergence):
            cross_series(quad.p1, quad.p1, 1.0)

    def test_nan_coefficient_fails_the_check(self):
        nan = LaurentPoly(lo=-1, coeffs=np.array([1.0, math.nan, 1.0]))
        finite = LaurentPoly(lo=-1, coeffs=np.array([1.0, 0.5, 1.0]))
        w = complex(np.exp(0.3j))
        # a NaN in both factors, in p only and in q only
        for p, q, x in [(nan, nan, 1.0), (nan, finite, w), (finite, nan, w)]:
            with pytest.raises(QuadratureDivergence, match="a NaN coefficient or a quadrature defect"):
                cross_series(p, q, x)

    def test_nan_outside_the_overlap_fails_the_check(self):
        # only the quadrature side sees p's NaN at z**-2: the coefficient side is finite
        p = LaurentPoly(lo=-2, coeffs=np.array([math.nan, 1.0, 0.5, 1.0]))
        q = LaurentPoly(lo=-1, coeffs=np.array([1.0, 2.0, 1.0]))
        w = complex(np.exp(0.3j))
        assert math.isfinite(abs(sum(p.c(x) * q.c(x) * w ** x for x in range(-1, 2))))
        assert np.isnan(cross_series_quadrature(p, q, w))
        with pytest.raises(QuadratureDivergence):
            cross_series(p, q, w)

    def test_coefficient_side_matches_plain_sum(self):
        # random supports: negative lo, partial overlap, nesting and disjoint ranges
        rng = np.random.default_rng(36)
        for _ in range(200):
            p = LaurentPoly(lo=int(rng.integers(-30, 10)), coeffs=rng.normal(size=int(rng.integers(1, 40))))
            q = LaurentPoly(lo=int(rng.integers(-30, 10)), coeffs=rng.normal(size=int(rng.integers(1, 40))))
            w = complex(np.exp(2j * np.pi * rng.random()))
            ref = sum(p.c(x) * q.c(x) * w ** x for x in range(min(p.lo, q.lo), max(p.hi, q.hi) + 1))
            assert abs(cross_series(p, q, w) - ref) < 1e-14

    @pytest.mark.parametrize("nodes", [None, 1, 2, 3, 7, 24, 25, 100])
    def test_folded_fft_matches_pointwise_evaluation(self, monkeypatch, nodes):
        # the same nodes through Horner's LaurentPoly.eval and through the
        # exact aliased sum; below the degree all sides alias the same way
        if nodes:
            monkeypatch.setattr(cheb_engine, "_node_count", lambda band: nodes)
        rng = np.random.default_rng(35)
        quad = transfer_polys(12, 0.6, 0.8)
        odd = LaurentPoly(lo=5, coeffs=rng.normal(size=9))
        # p on [-40, 1], q at -23: p's 42 coefficients overrun the default m = 40
        wide = LaurentPoly(lo=-40, coeffs=rng.normal(size=42))
        point = LaurentPoly(lo=-23, coeffs=np.array([0.7]))
        pairs = [(quad.p1, quad.p1), (quad.p2, quad.q1), (odd, quad.q2), (quad.q1, odd), (wide, point)]
        # q more than the patched m to the left or the right of p, q longer
        # than p, and p on [-50, 50] around a q at 3 (m = 69 < 101).  Horner's
        # own roundoff reaches 1e-13 at these exponents, so only the exact sum
        # checks them.
        left = LaurentPoly(lo=-90, coeffs=rng.normal(size=4))
        right = LaurentPoly(lo=70, coeffs=rng.normal(size=6))
        long_q = LaurentPoly(lo=-7, coeffs=rng.normal(size=60))
        long_p = LaurentPoly(lo=-50, coeffs=rng.normal(size=101))
        short = LaurentPoly(lo=3, coeffs=rng.normal(size=2))
        far = [(odd, left), (odd, right), (left, right), (right, left), (odd, long_q), (long_p, short)]
        for p, q in pairs + far:
            for w in (1.0, -1.0, 1j, complex(np.exp(2.1j))):
                m = nodes or max(abs(p.lo - q.hi), abs(p.hi - q.lo)) + 16
                got = cross_series_quadrature(p, q, w)
                assert abs(got - aliased_mean(p, q, w, m)) < 1e-13
                if (p, q) in pairs:
                    z = np.exp(2j * np.pi * np.arange(m) / m)
                    assert abs(got - np.mean(p.eval(w * z) * q.eval(z.conj()))) < 1e-13

    def test_shared_support_takes_one_unfolded_fft(self, monkeypatch):
        # both rows from slot 0 of one (2, m) buffer: p's as c_x conj(w)^x, q's as is
        fft, handed = np.fft.fft, []
        monkeypatch.setattr(np.fft, "fft", lambda a, **kw: handed.append(a.copy()) or fft(a, **kw))
        n, w = 9, complex(np.exp(0.7j))
        quad = transfer_polys(n, 0.6, 0.8)
        cross_series_quadrature(quad.p2, quad.q1, w)
        m = cheb_engine._node_count(2 * n)
        (buf,) = handed
        assert buf.shape == (2, m)
        expected = np.zeros((2, m), dtype=complex)
        expected[0, :2 * n + 1] = quad.p2.coeffs * w.conjugate() ** np.arange(-n, n + 1)
        expected[1, :2 * n + 1] = quad.q1.coeffs
        assert np.array_equal(buf, expected)


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
            quad = recurrence_quadruple(n, s, t)
            for xi in (0.5 / n, -0.5 / n, 2 / n, math.pi):
                got = char_fn_components(psi, n, s, t, xi)
                ref = coefficient_sums(quad, psi, xi)
                assert max(abs(g - r) for g, r in zip(got, ref)) < 1e-11
            assert char_fn_components(psi, n, s, t, 0.0) == (1.0 + 0j, 1.0 + 0j, 0j, 1.0 + 0j)

    def test_grid_rows_are_lone_calls(self):
        # one batched Gram call per n; a repeated xi shares its sampled rows
        psi = np.array([0.6, 0.48 + 0.64j])
        xis = [0.0, 0.3, -1.1, 0.3, math.pi]
        for n in (1, 40, 2000):
            grid = cheb_engine.char_fn_grid(psi, n, R, R, xis)
            assert grid.shape == (len(xis), 4)
            quad = recurrence_quadruple(n, R, R)
            for row, xi in zip(grid, xis):
                assert tuple(row) == char_fn_components(psi, n, R, R, xi)
                assert max(abs(g - r) for g, r in zip(row, coefficient_sums(quad, psi, xi))) < 1e-11

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
        def char_fn(d, xi):
            """The reference: sum_x probs[x] e^{i xi x} over the distribution's window."""
            return complex(np.sum(d.probs * np.exp(1j * xi * d.sites)))

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


def resampled_gram(n, s, shifts, ks, dtype=float):
    """The Gram kernel with the rows sampled afresh at theta + d, per shift.

    In float64 the rows come from ``_cheb_rows`` at cos(theta + d); in
    ``np.longdouble`` the same trigonometric form runs in extended precision
    on the same float64 grid and shifts.
    """
    theta = cheb_engine._circle(cheb_engine._node_count(2 * n + max(map(abs, ks)))).astype(dtype)

    def rows(x):
        if dtype is float:
            tn, um = cheb_engine._cheb_rows(n, s, np.cos(x))
        else:
            ac = np.arccos(dtype(s) * np.cos(x))
            tn, um = np.cos(n * ac), np.sin(n * ac) / np.sin(ac)
        return np.array([tn, um, dtype(s) * np.sin(x) * um])

    base = rows(theta)
    out = np.empty((len(ks), len(shifts), 3, 3), dtype=np.result_type(dtype, 1j))
    for b, d in enumerate(shifts):
        other = rows(theta + dtype(d))
        for a, k in enumerate(ks):
            out[a, b] = (base * np.exp(1j * k * theta)) @ other.T / theta.size
    return out


class TestChebGram:
    KS = (-2, -1, 0, 1, 2)

    @staticmethod
    def shifts(n):
        return [0.0, 1 / n, -2.5 / n]

    @pytest.mark.parametrize(
        "s, n",
        [(s, n) for s in (0.3, R, 0.95) for n in (1, 7, 500, 8000)] + [(0.99999, 1), (0.99999, 7)],
    )
    def test_angle_added_shifts_match_resampled_rows(self, s, n):
        got = cheb_engine._cheb_gram(n, s, self.shifts(n), self.KS)
        ref = resampled_gram(n, s, self.shifts(n), self.KS)
        scale = max(1.0, got[self.KS.index(0), 0, 1, 1].real)  # mean(U_{n-1}^2)
        assert np.max(np.abs(got - ref)) <= 1e-12 * scale

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18, reason="no extended precision")
    @pytest.mark.parametrize("n", [500, 8000])
    def test_angle_added_shifts_no_less_accurate_near_s_one(self, n):
        # At s = 0.99999 a one-ulp change of cos(theta) moves these entries by
        # about 1e-9 at n = 8000, so a float64 resample is no oracle; both
        # float64 kernels are held against extended precision instead.
        s = 0.99999
        truth = resampled_gram(n, s, self.shifts(n), self.KS, np.longdouble)
        got = cheb_engine._cheb_gram(n, s, self.shifts(n), self.KS)
        ref = resampled_gram(n, s, self.shifts(n), self.KS)
        assert np.max(np.abs(got - truth)) <= 2 * np.max(np.abs(ref - truth))

    def test_repeated_k_takes_one_phase_row(self, monkeypatch):
        # a repeat of k or of a shift reuses its block: 2 distinct shifts x 2 distinct non-zero k
        take, phase_rows = np.take, []
        monkeypatch.setattr(np, "take", lambda *a, **kw: phase_rows.append(1) or take(*a, **kw))
        ks = [1, 0, 1, -2, 0, -2]
        g = cheb_engine._cheb_gram(40, 0.6, [0.0, 0.1, 0.0], ks)
        assert len(phase_rows) == 4
        for a, k in enumerate(ks):
            assert np.array_equal(g[a], g[ks.index(k)])
        assert np.array_equal(g[:, 0], g[:, 2])
        lone = cheb_engine._cheb_gram(40, 0.6, [0.0, 0.1], [-2, 0, 1])
        assert np.array_equal(g[[3, 1, 0]][:, :2], lone)

    def test_real_without_phases(self):
        # the e^{i theta} table is always built, but only a non-zero k makes the result complex
        g = cheb_engine._cheb_gram(60, 0.6, [0.0, 0.1])
        assert g.dtype == float and g.shape == (1, 2, 3, 3)
