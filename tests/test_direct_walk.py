"""Tests for the windowed direct evolution against a dict-based oracle.

The oracle below evolves amplitudes in a plain {site: [c1, c2]} dictionary
with scalar complex arithmetic, sharing no code with the array engine.
"""

import math

import numpy as np
import pytest

from qwalk1d.coin import hadamard_coin, make_coin
from qwalk1d.direct_walk import (
    Distribution,
    _csv_text,
    char_fn,
    distribution,
    distribution_to_csv,
    evolve,
    evolve_snapshots,
    initial_state,
    step,
)
from qwalk1d.errors import NormViolation, ResourceLimit

R = 1.0 / math.sqrt(2.0)


def oracle_evolve(phi, a, b, n):
    """Brute-force dictionary evolution, independent of the array engine."""
    state = {0: (complex(phi[0]), complex(phi[1]))}
    for _ in range(n):
        nxt = {}
        for x, (u1, u2) in state.items():
            # right-mover takes the first column, left-mover the second
            r1, r2 = a * u1, -b.conjugate() * u1
            l1, l2 = b * u2, a.conjugate() * u2
            c1, c2 = nxt.get(x + 1, (0j, 0j))
            nxt[x + 1] = (c1 + r1, c2 + r2)
            c1, c2 = nxt.get(x - 1, (0j, 0j))
            nxt[x - 1] = (c1 + l1, c2 + l2)
        state = nxt
    return state


class TestInitialState:
    def test_basis(self):
        st = initial_state(np.array([1.0, 0.0]))
        assert st.offset == 0
        np.testing.assert_array_equal(st.amps, [[1, 0]])

    def test_complex_spin(self):
        st = initial_state(np.array([R, 1j * R]))
        np.testing.assert_allclose(st.amps, [[R, 1j * R]], atol=1e-15)

    def test_norm_violation(self):
        with pytest.raises(NormViolation):
            initial_state(np.array([2.0, 0.0]))


class TestStep:
    def test_right_mover(self):
        st = step(initial_state(np.array([1.0, 0.0])), hadamard_coin())
        np.testing.assert_allclose(st.amplitude(1), [R, -R], atol=1e-15)
        assert np.max(np.abs(st.amplitude(-1))) == 0.0
        assert np.max(np.abs(st.amplitude(0))) == 0.0

    def test_left_mover(self):
        st = step(initial_state(np.array([0.0, 1.0])), hadamard_coin())
        np.testing.assert_allclose(st.amplitude(-1), [R, R], atol=1e-15)
        assert np.max(np.abs(st.amplitude(1))) == 0.0

    def test_pure_shift_coin(self):
        st = step(initial_state(np.array([1.0, 0.0])), make_coin(1.0, 0.0))
        np.testing.assert_array_equal(st.amplitude(1), [1, 0])

    def test_window_grows_by_one_per_side(self):
        st = initial_state(np.array([1.0, 0.0]))
        for k in range(1, 6):
            st = step(st, hadamard_coin())
            assert st.offset == -k
            assert st.amps.shape == (2 * k + 1, 2)


class TestEvolve:
    def test_zero_steps(self):
        st = evolve(np.array([R, 1j * R]), hadamard_coin(), 0)
        assert st.offset == 0
        np.testing.assert_allclose(st.amps, [[R, 1j * R]], atol=1e-15)

    def test_two_steps_amplitudes(self):
        st = evolve(np.array([1.0, 0.0]), hadamard_coin(), 2)
        np.testing.assert_allclose(st.amplitude(2), [0.5, -0.5], atol=1e-15)
        np.testing.assert_allclose(st.amplitude(0), [-0.5, -0.5], atol=1e-15)
        assert np.max(np.abs(st.amplitude(-2))) == 0.0

    def test_three_steps_distribution(self):
        d = distribution(evolve(np.array([1.0, 0.0]), hadamard_coin(), 3))
        assert d.prob(3) == pytest.approx(0.25, abs=1e-15)
        assert d.prob(1) == pytest.approx(0.5, abs=1e-15)
        assert d.prob(-1) == pytest.approx(0.25, abs=1e-15)
        assert d.prob(-3) == 0.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(4):
            g = rng.normal(size=4)
            a, b = complex(g[0], g[1]), complex(g[2], g[3])
            nrm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
            a, b = a / nrm, b / nrm
            c = make_coin(a, b)
            v = rng.normal(size=4)
            phi = np.array([complex(v[0], v[1]), complex(v[2], v[3])])
            phi /= np.linalg.norm(phi)
            for n in (1, 5, 17):
                st = evolve(phi, c, n)
                ref = oracle_evolve(phi, a, b, n)
                for x in range(-n, n + 1):
                    expected = np.array(ref.get(x, (0j, 0j)))
                    np.testing.assert_allclose(st.amplitude(x), expected, atol=1e-13)

    def test_resource_limit(self):
        with pytest.raises(ResourceLimit):
            evolve(np.array([1.0, 0.0]), hadamard_coin(), 11, max_steps=10)

    def test_snapshots_match_single_runs(self):
        c = hadamard_coin()
        phi = np.array([R, 1j * R])
        snaps = dict(evolve_snapshots(phi, c, [0, 3, 7]))
        for n, st in snaps.items():
            ref = evolve(phi, c, n)
            np.testing.assert_array_equal(st.amps, ref.amps)

    def test_snapshots_match_repeated_step_and_oracle_bit_for_bit(self):
        rng = np.random.default_rng(24)
        ns = [0, 0, 1, 2, 2, 37, 300]
        for _ in range(3):
            g = rng.normal(size=4)
            a, b = complex(g[0], g[1]), complex(g[2], g[3])
            nrm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
            a, b = a / nrm, b / nrm
            c = make_coin(a, b)
            v = rng.normal(size=4)
            phi = np.array([complex(v[0], v[1]), complex(v[2], v[3])])
            phi /= np.linalg.norm(phi)
            stepped = [initial_state(phi)]
            for _ in range(ns[-1]):
                stepped.append(step(stepped[-1], c))
            snaps = list(evolve_snapshots(phi, c, ns))
            assert [n for n, _ in snaps] == ns
            for n, st in snaps:
                assert st.offset == stepped[n].offset == -n
                np.testing.assert_array_equal(st.amps, stepped[n].amps)
                ref = oracle_evolve(phi, a, b, n)
                expected = np.array([ref.get(int(x), (0j, 0j)) for x in st.sites])
                np.testing.assert_array_equal(st.amps, expected)

    def test_snapshots_validate_order(self):
        with pytest.raises(ValueError):
            list(evolve_snapshots(np.array([1.0, 0.0]), hadamard_coin(), [5, 3]))


class TestDistribution:
    def test_point_mass(self):
        d = distribution(initial_state(np.array([1.0, 0.0])))
        assert d.prob(0) == 1.0
        assert d.total() == 1.0

    def test_one_step(self):
        d = distribution(evolve(np.array([1.0, 0.0]), hadamard_coin(), 1))
        assert d.prob(1) == pytest.approx(1.0, abs=1e-15)
        assert d.prob(-1) == 0.0

    def test_unitarity_drift(self):
        st = evolve(np.array([R, 1j * R]), hadamard_coin(), 1000)
        assert abs(st.norm() - 1.0) < 1e-12
        assert abs(distribution(st).total() - 1.0) < 1e-12

    def test_support_and_parity_exact(self):
        rng = np.random.default_rng(22)
        g = rng.normal(size=4)
        a, b = complex(g[0], g[1]), complex(g[2], g[3])
        nrm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        c = make_coin(a / nrm, b / nrm)
        for n in (4, 9):
            d = distribution(evolve(np.array([1.0, 0.0]), c, n))
            for x in d.sites:
                if (x + n) % 2 == 1:
                    assert d.prob(int(x)) == 0.0
            assert d.prob(n + 1) == 0.0 and d.prob(-n - 1) == 0.0

    def test_linearity_on_amplitudes(self):
        rng = np.random.default_rng(23)
        c = hadamard_coin()
        v = rng.normal(size=4)
        alpha = complex(v[0], v[1])
        beta = complex(v[2], v[3])
        nrm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
        alpha, beta = alpha / nrm, beta / nrm
        combo = np.array([alpha, beta])
        n = 40
        st_combo = evolve(combo, c, n)
        st_e1 = evolve(np.array([1.0, 0.0]), c, n)
        st_e2 = evolve(np.array([0.0, 1.0]), c, n)
        merged = alpha * st_e1.amps + beta * st_e2.amps
        assert np.max(np.abs(st_combo.amps - merged)) < 1e-12


class TestCharFn:
    def test_normalization(self):
        d = distribution(evolve(np.array([1.0, 0.0]), hadamard_coin(), 5))
        assert char_fn(d, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_point_mass_at_pi(self):
        d = Distribution(offset=1, probs=np.array([1.0]))
        assert char_fn(d, math.pi) == pytest.approx(-1.0, abs=1e-14)

    def test_three_step_cancellation(self):
        # 0.25 e^{3i pi/2} + 0.5 e^{i pi/2} + 0.25 e^{-i pi/2} = 0
        d = distribution(evolve(np.array([1.0, 0.0]), hadamard_coin(), 3))
        assert abs(char_fn(d, math.pi / 2)) < 1e-14


class TestSerialization:
    def test_distribution_csv(self):
        d = distribution(evolve(np.array([1.0, 0.0]), hadamard_coin(), 2))
        assert distribution_to_csv(d) == (
            "x,prob\n-2,0\n-1,0\n0,0.49999999999999978\n1,0\n2,0.49999999999999978\n"
        )

    def test_csv_text(self):
        floats = [0.1, 1.0 / 3.0, 5e-324, -0.0, 1e300, -2.5e-7]
        ints = [0, -1, 2, 3, -40000, 10**18 + 1]
        text = _csv_text("k,v", [np.array(ints), floats])
        assert text.endswith("\n") and not text.endswith("\n\n")
        lines = text.split("\n")[:-1]
        assert lines[0] == "k,v"
        assert len(lines) == 1 + len(ints)
        for line, k, v in zip(lines[1:], ints, floats):
            ks, vs = line.split(",")
            assert ks == str(k)
            assert float(vs) == v and math.copysign(1.0, float(vs)) == math.copysign(1.0, v)
        assert _csv_text("a,b", []) == "a,b\n"
