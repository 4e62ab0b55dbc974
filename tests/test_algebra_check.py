"""Tests for the cyclic representation and its operator identities."""

import math
import tracemalloc

import numpy as np
import pytest

from dense_oracle import DenseRep, build_basis, dense_relations, dense_rep, qwr_check
from qwalk1d.algebra_check import CyclicRep, _mul, build_rep, verify_relations
from qwalk1d.cheb_engine import qn_distribution
from qwalk1d.errors import ParamViolation, RelationFailure

R = math.sqrt(0.5)  # s = t of the Hadamard coin

EXPECTED_IDENTITIES = {
    "W^2 = -I",
    "V W = W V^-1",
    "sigma W + W sigma = 0",
    "sigma V - V sigma = 0",
    "sigma^* = sigma",
    "T^* T = I",
    "T = pi+ V + pi- V^*",
    "V = pi+ T + pi- T^*",
    "eps^* = -eps",
    "eps pi+ = pi- eps",
    "eps pi- = pi+ eps",
    "eps W = -V",
    "W eps = -V^*",
    "eps V = V^* eps",
    "eps sigma + sigma eps = 0",
    "X Y = Y X",
    "X W = W X",
    "Y W + W Y = 0",
    "V T = T V",
    "T W = W T",
    "X sigma = sigma X",
    "Y sigma = sigma Y",
    "T sigma = sigma T",
    "(iy + w)^2 = -(y^2 + t^2)",
    "x^2 + y^2 + t^2 = I",
}


def random_phase(rng):
    return complex(np.exp(2j * np.pi * rng.random()))


def blocks(symbol):
    """Dense 2 x 2 blocks (d, 0), d = 0..N-1, of the operator with this symbol."""
    return np.fft.ifft(symbol, axis=0)


def adjoint(symbol):
    return symbol.conj().swapaxes(-1, -2)


def dense_from_symbol(symbol):
    """The full 2N x 2N block-circulant matrix: block (x, y) is blocks[(x - y) mod N]."""
    n = symbol.shape[0]
    col = blocks(symbol)
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return col[idx].transpose(0, 2, 1, 3).reshape(2 * n, 2 * n)


class TestBuildRep:
    def test_real_parameters_give_real_matrices(self):
        # a real operator has a conjugate-symmetric symbol: op[N - k] = conj(op[k])
        rep = build_rep(3, 1.0, 1.0)
        mirror = -np.arange(3) % 3
        assert np.max(np.abs(rep.V[mirror] - rep.V.conj())) == 0.0
        assert np.max(np.abs(rep.W[mirror] - rep.W.conj())) == 0.0
        assert np.max(np.abs(blocks(adjoint(rep.V) @ rep.V - np.eye(2)))) < 1e-12

    def test_w_squared_is_minus_identity(self):
        for n in (3, 4, 8):
            rep = build_rep(n, complex(np.exp(0.31j)), complex(np.exp(1.7j)))
            assert np.max(np.abs(blocks(rep.W @ rep.W + np.eye(2)))) < 1e-12

    def test_shift_period_with_phase(self):
        # V^N applied to the seed (column 0) returns alpha^N times the seed
        rep = build_rep(4, 1j, 1.0)
        seed = np.zeros(8, dtype=complex)
        seed[0] = 1.0
        vec = blocks(np.linalg.matrix_power(rep.V, 4))[:, :, 0].reshape(-1)
        np.testing.assert_allclose(vec, (1j) ** 4 * seed, atol=1e-14)

    def test_never_builds_a_dense_operator(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("dense Kronecker product built")

        monkeypatch.setattr(np, "kron", boom)
        rep = build_rep(64, complex(np.exp(0.4j)), complex(np.exp(2.2j)))
        assert rep.V.shape == rep.W.shape == rep.Sigma.shape == (64, 2, 2)
        assert verify_relations(rep, tol=1e-12, s=R, t=R).max_residual() <= 1e-12

    def test_too_small_lattice(self):
        with pytest.raises(ParamViolation):
            build_rep(2, 1.0, 1.0)

    def test_non_unit_phase(self):
        with pytest.raises(ParamViolation):
            build_rep(4, 1.1, 1.0)

    @pytest.mark.parametrize("alpha", [1 + 4e-11, 1j * (1 + 5e-11)])
    def test_phase_within_input_tolerance_builds_from_its_unit_phase(self, alpha):
        # |alpha| is within INPUT_NORM_TOL of 1, so the input is accepted; the
        # operators come from alpha/|alpha| and pass the 1e-12 identity checks
        rep = build_rep(8, alpha, 1.0)
        assert rep.alpha == alpha / abs(alpha)
        assert verify_relations(rep, tol=1e-12, s=R, t=R).max_residual() <= 1e-12


@pytest.mark.parametrize("n", [3, 4, 8, 16, 64])
class TestSymbolsMatchDenseOracle:
    def test_symbols_are_the_dense_operators(self, n):
        rng = np.random.default_rng(50 + n)
        alpha, beta = random_phase(rng), random_phase(rng)
        rep, dense = build_rep(n, alpha, beta), dense_rep(n, alpha, beta)
        for name in ("V", "W", "Sigma"):
            sym, mat = getattr(rep, name), getattr(dense, name)
            assert np.max(np.abs(blocks(sym) - mat[:, :2].reshape(n, 2, 2))) <= 1e-15
            assert np.max(np.abs(dense_from_symbol(sym) - mat)) <= 1e-15

    def test_residuals_match_dense_oracle(self, n):
        rng = np.random.default_rng(60 + n)
        alpha, beta = random_phase(rng), random_phase(rng)
        s_val = rng.uniform(0.1, 0.99)
        t_val = math.sqrt(1 - s_val**2)
        got = verify_relations(build_rep(n, alpha, beta), tol=1e-12, s=s_val, t=t_val).residuals
        ref = dense_relations(dense_rep(n, alpha, beta), s=s_val, t=t_val)
        assert list(got) == list(ref)
        for name in ref:
            assert abs(got[name] - ref[name]) <= 1e-15, name
            assert got[name] <= 1e-12 and ref[name] <= 1e-12, name

    def test_failing_residuals_match_dense_oracle(self, n):
        # a block-circulant perturbation of W: each residual is read off the symbols
        rng = np.random.default_rng(70 + n)
        rep = build_rep(n, random_phase(rng), random_phase(rng))
        dense = dense_rep(n, rep.alpha, rep.beta)
        noise = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
        delta = np.fft.fft(1e-3 * noise, axis=0)
        broken = CyclicRep(N=n, V=rep.V, W=rep.W + delta, Sigma=rep.Sigma, alpha=rep.alpha, beta=rep.beta)
        with pytest.raises(RelationFailure) as exc_info:
            verify_relations(broken, tol=1e-12, s=R, t=R)
        got = exc_info.value.report
        w_bad = dense.W + dense_from_symbol(delta)
        ref = dense_relations(DenseRep(N=n, V=dense.V, W=w_bad, Sigma=dense.Sigma))
        assert list(got) == list(ref)
        assert got["W^2 = -I"] > 1e-4
        for name in ref:
            assert abs(got[name] - ref[name]) <= 1e-14, name


class TestVerifyRelations:
    def test_all_pass_real_case(self):
        rep = build_rep(8, 1.0, 1.0)
        report = verify_relations(rep, tol=1e-12, s=R, t=R)
        assert set(report.residuals) == EXPECTED_IDENTITIES
        assert report.max_residual() <= 1e-12

    def test_all_pass_random_phases(self):
        rng = np.random.default_rng(41)
        rep = build_rep(8, complex(np.exp(1j * np.pi / 5)), complex(np.exp(1.1j)))
        report = verify_relations(rep, tol=1e-12, s=R, t=R)
        assert report.max_residual() <= 1e-12
        for _ in range(5):
            rep = build_rep(5, random_phase(rng), random_phase(rng))
            verify_relations(rep, tol=1e-12, s=R, t=R)

    def test_general_s_t(self):
        rep = build_rep(6, complex(np.exp(0.4j)), complex(np.exp(2.2j)))
        report = verify_relations(rep, tol=1e-12, s=0.6, t=0.8)
        assert report.max_residual() <= 1e-12

    def test_bad_s_t_pair(self):
        rep = build_rep(4, 1.0, 1.0)
        with pytest.raises(ParamViolation):
            verify_relations(rep, tol=1e-12, s=0.6, t=0.7)

    @pytest.mark.parametrize("s, t", [(math.nan, 0.8), (0.6, math.nan), (1.0, 0.0)])
    def test_non_finite_or_edge_s_t(self, s, t):
        with pytest.raises(ParamViolation):
            verify_relations(build_rep(4, 1.0, 1.0), tol=1e-12, s=s, t=t)

    def test_nan_residual_fails(self):
        rep = build_rep(4, 1.0, 1.0)
        w_nan = rep.W.copy()
        w_nan[0, 1] = np.nan
        broken = CyclicRep(N=rep.N, V=rep.V, W=w_nan, Sigma=rep.Sigma, alpha=rep.alpha, beta=rep.beta)
        with pytest.raises(RelationFailure) as exc_info:
            verify_relations(broken, tol=1e-12, s=R, t=R)
        assert "W^2 = -I" in exc_info.value.failing
        assert math.isnan(exc_info.value.failing["W^2 = -I"])

    def test_perturbed_w_fails_named_identity(self):
        rep = build_rep(8, 1.0, 1.0)
        rng = np.random.default_rng(42)
        w_bad = rep.W + 0.01 * rng.normal(size=rep.W.shape)
        broken = CyclicRep(N=rep.N, V=rep.V, W=w_bad, Sigma=rep.Sigma, alpha=rep.alpha, beta=rep.beta)
        with pytest.raises(RelationFailure) as exc_info:
            verify_relations(broken, tol=1e-12, s=R, t=R)
        assert "W^2 = -I" in exc_info.value.failing
        assert set(exc_info.value.report) == EXPECTED_IDENTITIES

    def test_report_json_round_trip(self):
        import json

        report = verify_relations(build_rep(4, 1.0, 1.0), tol=1e-12, s=R, t=R)
        parsed = json.loads(report.to_json())
        assert set(parsed) == EXPECTED_IDENTITIES


class TestModeProduct:
    def random_stack(self, rng, n):
        # entries of modulus below 1, as in the symbols of unitaries, so products stay below 2
        return rng.uniform(-0.5, 0.5, size=(n, 2, 2)) + 1j * rng.uniform(-0.5, 0.5, size=(n, 2, 2))

    @staticmethod
    def mode_last(stack):
        return np.moveaxis(stack, 0, -1)

    @pytest.mark.parametrize("n", [1, 3, 128, 4096])
    def test_matches_matmul_on_stacks(self, n):
        rng = np.random.default_rng(n)
        a, b = self.random_stack(rng, n), self.random_stack(rng, n)
        prod = _mul(self.mode_last(a), self.mode_last(b))
        assert prod.shape == (2, 2, n)
        assert np.max(np.abs(np.moveaxis(prod, -1, 0) - a @ b)) <= 1e-15

    def test_matches_matmul_with_a_constant_factor(self):
        # a constant matrix enters mode-last as (2, 2, 1) and broadcasts over the modes
        rng = np.random.default_rng(7)
        a = self.random_stack(rng, 16)
        const = self.random_stack(rng, 1)
        for left, right in ((a, const), (const, a), (const, const)):
            prod = np.moveaxis(_mul(self.mode_last(left), self.mode_last(right)), -1, 0)
            assert prod.shape == (max(len(left), len(right)), 2, 2)
            assert np.max(np.abs(prod - left @ right)) <= 1e-15

    def test_fields_are_mode_last_views(self):
        rep = build_rep(8, 1.0, 1.0)
        for op in (rep.V, rep.W, rep.Sigma):
            assert op.shape == (8, 2, 2)
            assert np.moveaxis(op, 0, -1).flags.c_contiguous


class TestRelationMemory:
    def test_peak_at_n_4096(self):
        # one residual at a time; collecting all 25 (lhs, rhs) pairs first peaked at 14.4 MiB
        tracemalloc.start()
        try:
            verify_relations(
                build_rep(4096, complex(np.exp(0.3j)), complex(np.exp(-1.1j))), tol=1e-12, s=R, t=R
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20, peak


class TestBuildBasis:
    def test_seed_vectors(self):
        alpha = complex(np.exp(0.31j))
        beta = complex(np.exp(1.7j))
        rep = dense_rep(6, alpha, beta)
        e1, e2 = build_basis(rep)
        expected_e1 = np.zeros(12, dtype=complex)
        expected_e1[0] = 1.0
        np.testing.assert_allclose(e1[0], expected_e1, atol=1e-14)
        expected_e2 = np.zeros(12, dtype=complex)
        expected_e2[1] = -(alpha * beta).conjugate()
        np.testing.assert_allclose(e2[0], expected_e2, atol=1e-14)

    def test_shifted_vectors_carry_phase(self):
        alpha = complex(np.exp(0.9j))
        rep = dense_rep(7, alpha, 1.0)
        e1, _ = build_basis(rep)
        for x in range(7):
            expected = np.zeros(14, dtype=complex)
            expected[2 * x] = alpha**x
            np.testing.assert_allclose(e1[x], expected, atol=1e-13)

    def test_gram_identity(self):
        rng = np.random.default_rng(43)
        for n in (3, 8):
            rep = dense_rep(n, random_phase(rng), random_phase(rng))
            e1, e2 = build_basis(rep)
            basis = np.vstack([e1, e2])
            gram = basis.conj() @ basis.T
            assert np.max(np.abs(gram - np.eye(2 * n))) < 1e-12

    def test_action_identities_with_wrap_phase(self):
        # V e1^x = e1^{x+1}, V e2^x = e2^{x-1}, W e1^x = e2^{x+1}, W e2^x = -e1^{x-1};
        # crossing the cyclic seam multiplies by alpha^{+-N}
        rng = np.random.default_rng(44)
        n = 6
        alpha, beta = random_phase(rng), random_phase(rng)
        rep = dense_rep(n, alpha, beta)
        e1, e2 = build_basis(rep)
        up = alpha**n
        down = alpha ** (-n)
        for x in range(n):
            r1 = rep.V @ e1[x] - (up if x == n - 1 else 1.0) * e1[(x + 1) % n]
            r2 = rep.V @ e2[x] - (down if x == 0 else 1.0) * e2[(x - 1) % n]
            r3 = rep.W @ e1[x] - (up if x == n - 1 else 1.0) * e2[(x + 1) % n]
            r4 = rep.W @ e2[x] + (down if x == 0 else 1.0) * e1[(x - 1) % n]
            for r in (r1, r2, r3, r4):
                assert np.max(np.abs(r)) < 1e-12


class TestQwrCheck:
    @pytest.mark.parametrize("n", [3, 5, 16])
    def test_cyclicity_holds_inside_period(self, n):
        rng = np.random.default_rng(45 + n)
        rep = dense_rep(n, random_phase(rng), random_phase(rng))
        assert qwr_check(rep) < 1e-14

    def test_wrap_value_is_one(self):
        rep = dense_rep(5, complex(np.exp(0.2j)), 1.0)
        seed = np.zeros(10, dtype=complex)
        seed[0] = 1.0
        vec = seed
        for _ in range(5):
            vec = rep.V @ vec
        assert abs(np.vdot(seed, vec)) == pytest.approx(1.0, abs=1e-13)


class TestWalkOnCyclicLattice:
    def test_matches_closed_form_before_wraparound(self):
        s = t = math.sqrt(0.5)
        n_sites = 24
        rep = dense_rep(n_sites, complex(np.exp(1j * np.pi / 5)), complex(np.exp(1.1j)))
        e1, e2 = build_basis(rep)
        walk_op = s * rep.V + t * rep.W
        psi = np.array([0.3 + 0.4j, math.sqrt(0.75)], dtype=complex)
        psi /= np.linalg.norm(psi)
        vec = psi[0] * e1[0] + psi[1] * e2[0]
        for n in range(1, n_sites // 2):
            vec = walk_op @ vec
            ref = qn_distribution(psi, n, s, t)
            for x in range(-n, n + 1):
                xi = x % n_sites
                got = abs(np.vdot(e1[xi], vec)) ** 2 + abs(np.vdot(e2[xi], vec)) ** 2
                assert abs(got - ref.prob(x)) < 1e-10
