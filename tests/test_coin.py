"""Tests for coin construction, splitting, polar parameters, spin conversion."""

import math

import numpy as np
import pytest

from qwalk1d.coin import (
    check_polar,
    hadamard_coin,
    make_coin,
    polar,
    psi_from_phi,
    split,
)
from qwalk1d.errors import DegenerateCoin, NormViolation, ParamViolation

R = 1.0 / math.sqrt(2.0)


def random_coin(rng):
    g = rng.normal(size=4)
    a = complex(g[0], g[1])
    b = complex(g[2], g[3])
    nrm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    return make_coin(a / nrm, b / nrm)


def random_unit2(rng):
    v = rng.normal(size=4)
    u = np.array([complex(v[0], v[1]), complex(v[2], v[3])])
    return u / np.linalg.norm(u)


class TestMakeCoin:
    def test_hadamard_accepted(self):
        c = make_coin(R, R)
        assert c.a == pytest.approx(R)
        assert c.b == pytest.approx(R)

    def test_degenerate_accepted(self):
        c = make_coin(1.0, 0.0)
        assert c.a == 1.0 and c.b == 0.0

    def test_norm_violation(self):
        with pytest.raises(NormViolation):
            make_coin(0.9, 0.5)

    @pytest.mark.parametrize("a", [complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0)])
    def test_non_finite_rejected(self, a):
        with pytest.raises(NormViolation):
            make_coin(a, 0.0)

    def test_matrix_is_special_unitary(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = random_coin(rng).matrix
            assert np.max(np.abs(m.conj().T @ m - np.eye(2))) < 1e-12
            assert abs(np.linalg.det(m) - 1.0) < 1e-12


class TestSplit:
    def test_hadamard_blocks(self):
        p, q = split(hadamard_coin())
        np.testing.assert_allclose(p, [[R, 0], [-R, 0]], atol=1e-15)
        np.testing.assert_allclose(q, [[0, R], [0, R]], atol=1e-15)

    def test_degenerate_blocks(self):
        p, q = split(make_coin(1.0, 0.0))
        np.testing.assert_array_equal(p, [[1, 0], [0, 0]])
        np.testing.assert_array_equal(q, [[0, 0], [0, 1]])

    def test_sum_reproduces_coin_exactly(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            c = random_coin(rng)
            p, q = split(c)
            assert np.array_equal(p + q, c.matrix)

    def test_column_norms(self):
        # ||P u||^2 = |u_1|^2 and ||Q u||^2 = |u_2|^2 by column structure
        rng = np.random.default_rng(13)
        for _ in range(200):
            c = random_coin(rng)
            p, q = split(c)
            u = rng.normal(size=2) + 1j * rng.normal(size=2)
            assert np.linalg.norm(p @ u) ** 2 == pytest.approx(abs(u[0]) ** 2, abs=1e-12)
            assert np.linalg.norm(q @ u) ** 2 == pytest.approx(abs(u[1]) ** 2, abs=1e-12)

    def test_pythagoras_many_trials(self):
        rng = np.random.default_rng(14)
        for _ in range(1000):
            c = random_coin(rng)
            p, q = split(c)
            u = rng.normal(size=2) + 1j * rng.normal(size=2)
            total = np.linalg.norm(p @ u) ** 2 + np.linalg.norm(q @ u) ** 2
            assert abs(total - np.linalg.norm(u) ** 2) < 1e-12 * max(1.0, np.linalg.norm(u) ** 2)


class TestPolar:
    def test_hadamard(self):
        pp = polar(hadamard_coin())
        assert pp.s == pytest.approx(R, abs=1e-15)
        assert pp.t == pytest.approx(R, abs=1e-15)
        assert pp.alpha == pytest.approx(1.0)
        assert pp.beta == pytest.approx(1.0)

    def test_phase_split(self):
        pp = polar(make_coin(0.5j, math.sqrt(3) / 2))
        assert pp.s == pytest.approx(0.5, abs=1e-15)
        assert pp.t == pytest.approx(math.sqrt(3) / 2, abs=1e-15)
        assert pp.alpha == pytest.approx(1j)
        assert pp.beta == pytest.approx(1.0)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateCoin):
            polar(make_coin(1.0, 0.0))
        with pytest.raises(DegenerateCoin):
            polar(make_coin(0.0, 1.0))

    @pytest.mark.parametrize("a, b", [(1.0, 1e-9), (1e-9, 1.0)])
    def test_split_that_rounds_to_an_edge_rejected(self, a, b):
        # |a|^2 + |b|^2 rounds to 1, so the coin is valid, but s or t rounds to 1
        with pytest.raises(ParamViolation):
            polar(make_coin(a, b))

    @pytest.mark.parametrize("s, t", [(R, R), (0.6, 0.8), (0.6, None), (1e-300, None)])
    def test_check_polar_accepts(self, s, t):
        check_polar(s, t)

    @pytest.mark.parametrize(
        "s, t",
        [
            (math.nan, None),
            (0.0, None),
            (1.0, None),
            (math.nan, R),
            (R, math.nan),
            (1.0, 0.0),
            (-0.6, 0.8),
            (0.6, 0.7),
            (0.6, math.inf),
        ],
    )
    def test_check_polar_rejects(self, s, t):
        with pytest.raises(ParamViolation):
            check_polar(s, t)

    def test_round_trip(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            c = random_coin(rng)
            pp = polar(c)
            assert abs(pp.s * pp.alpha - c.a) < 1e-12
            assert abs(pp.t * pp.beta - c.b) < 1e-12
            assert abs(pp.s**2 + pp.t**2 - 1.0) < 1e-12
            assert abs(abs(pp.alpha) - 1.0) < 1e-12
            assert abs(abs(pp.beta) - 1.0) < 1e-12


class TestSpinConversion:
    def test_hadamard_first_basis(self):
        pp = polar(hadamard_coin())
        np.testing.assert_allclose(psi_from_phi(np.array([1.0, 0.0]), pp), [1, 0], atol=1e-15)

    def test_hadamard_symmetric(self):
        pp = polar(hadamard_coin())
        psi = psi_from_phi(np.array([R, 1j * R]), pp)
        np.testing.assert_allclose(psi, [R, -1j * R], atol=1e-15)

    def test_phase_coin(self):
        pp = polar(make_coin(0.5j, math.sqrt(3) / 2))  # alpha = i, beta = 1
        psi = psi_from_phi(np.array([0.0, 1.0]), pp)
        np.testing.assert_allclose(psi, [0, -1j], atol=1e-15)

    def test_norm_preserved(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            pp = polar(random_coin(rng))
            phi = random_unit2(rng)
            assert abs(np.linalg.norm(psi_from_phi(phi, pp)) - 1.0) < 1e-12

    def test_round_trip_inverse(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            pp = polar(random_coin(rng))
            phi = random_unit2(rng)
            psi = psi_from_phi(phi, pp)
            back = np.array([psi[0], -(pp.alpha * pp.beta).conjugate() * psi[1]])
            np.testing.assert_allclose(back, phi, atol=1e-14)

    def test_norm_violation(self):
        pp = polar(hadamard_coin())
        with pytest.raises(NormViolation):
            psi_from_phi(np.array([2.0, 0.0]), pp)

    @pytest.mark.parametrize("phi", [[math.nan, 0.0], [1.0, complex(0.0, math.nan)]])
    def test_non_finite_rejected(self, phi):
        with pytest.raises(NormViolation):
            psi_from_phi(np.array(phi), polar(hadamard_coin()))
