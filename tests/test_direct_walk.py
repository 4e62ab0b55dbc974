"""Tests for the windowed direct evolution against a dict-based oracle.

The oracle below evolves amplitudes in a plain {site: [c1, c2]} dictionary
with scalar complex arithmetic, sharing no code with the array engine.
"""

import math

import numpy as np
import pytest

from qwalk1d.cheb_engine import char_fn_components
from qwalk1d.coin import hadamard_coin, make_coin, polar, psi_from_phi
from qwalk1d.direct_walk import (
    _csv_text,
    distribution,
    distribution_to_csv,
    evolve,
    evolve_snapshots,
    initial_state,
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


def oracle_amps(st, phi, a, b, n):
    """The dict oracle after n steps, laid out over st's window."""
    ref = oracle_evolve(phi, a, b, n)
    return np.array([ref.get(int(x), (0j, 0j)) for x in st.sites])


def random_walk(rng):
    """A random coin's entries (a, b) and a random unit spin."""
    g = rng.normal(size=4)
    a, b = complex(g[0], g[1]), complex(g[2], g[3])
    nrm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    v = rng.normal(size=4)
    phi = np.array([complex(v[0], v[1]), complex(v[2], v[3])])
    return a / nrm, b / nrm, phi / np.linalg.norm(phi)


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
    # one step of evolve; the window holds sites -1, 0, 1
    def test_right_mover(self):
        phi = np.array([1.0, 0.0])
        st = evolve(phi, hadamard_coin(), 1)
        np.testing.assert_allclose(st.amps, [[0, 0], [0, 0], [R, -R]], atol=1e-15)
        np.testing.assert_array_equal(st.amps, oracle_amps(st, phi, R, R, 1))

    def test_left_mover(self):
        phi = np.array([0.0, 1.0])
        st = evolve(phi, hadamard_coin(), 1)
        np.testing.assert_allclose(st.amps, [[R, R], [0, 0], [0, 0]], atol=1e-15)
        np.testing.assert_array_equal(st.amps, oracle_amps(st, phi, R, R, 1))

    def test_pure_shift_coin(self):
        st = evolve(np.array([1.0, 0.0]), make_coin(1.0, 0.0), 1)
        np.testing.assert_array_equal(st.amps, [[0, 0], [0, 0], [1, 0]])

    def test_window_grows_by_one_per_side(self):
        for k in range(1, 6):
            st = evolve(np.array([1.0, 0.0]), hadamard_coin(), k)
            assert st.offset == -k
            assert st.amps.shape == (2 * k + 1, 2)


class TestEvolve:
    def test_zero_steps(self):
        st = evolve(np.array([R, 1j * R]), hadamard_coin(), 0)
        assert st.offset == 0
        np.testing.assert_allclose(st.amps, [[R, 1j * R]], atol=1e-15)

    def test_two_steps_amplitudes(self):
        st = evolve(np.array([1.0, 0.0]), hadamard_coin(), 2)
        expected = [[0, 0], [0, 0], [-0.5, -0.5], [0, 0], [0.5, -0.5]]  # sites -2..2
        np.testing.assert_allclose(st.amps, expected, atol=1e-15)
        assert np.max(np.abs(st.amps[0])) == 0.0

    def test_three_steps_distribution(self):
        d = distribution(evolve(np.array([1.0, 0.0]), hadamard_coin(), 3))
        assert d.prob(3) == pytest.approx(0.25, abs=1e-15)
        assert d.prob(1) == pytest.approx(0.5, abs=1e-15)
        assert d.prob(-1) == pytest.approx(0.25, abs=1e-15)
        assert d.prob(-3) == 0.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(4):
            a, b, phi = random_walk(rng)
            c = make_coin(a, b)
            for n in (1, 5, 17):
                st = evolve(phi, c, n)
                assert st.offset == -n
                np.testing.assert_allclose(st.amps, oracle_amps(st, phi, a, b, n), atol=1e-13)

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
        # the oracle repeats one scalar step n times
        rng = np.random.default_rng(24)
        ns = [0, 0, 1, 2, 2, 37, 300]
        for _ in range(3):
            a, b, phi = random_walk(rng)
            snaps = list(evolve_snapshots(phi, make_coin(a, b), ns))
            assert [n for n, _ in snaps] == ns
            for n, st in snaps:
                assert st.offset == -n
                np.testing.assert_array_equal(st.amps, oracle_amps(st, phi, a, b, n))

    def test_snapshots_validate_order(self):
        with pytest.raises(ValueError):
            list(evolve_snapshots(np.array([1.0, 0.0]), hadamard_coin(), [5, 3]))
        # evolve is the one-snapshot case and takes the same check
        with pytest.raises(ValueError):
            evolve(np.array([1.0, 0.0]), hadamard_coin(), -1)


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
        a, b, _ = random_walk(np.random.default_rng(22))
        c = make_coin(a, b)
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
    # sum_x p(x) e^{i xi x} at hand values of the direct walk, taken by the
    # closed-form char-fn sum; spin (1, 0) is its own algebra-basis twin
    def test_normalization(self):
        d = distribution(evolve(np.array([1.0, 0.0]), hadamard_coin(), 5))
        assert d.total() == pytest.approx(1.0, abs=1e-14)
        assert char_fn_components(np.array([1.0, 0.0]), 5, R, R, 0.0)[3] == pytest.approx(1.0, abs=1e-14)

    def test_point_mass_at_pi(self):
        # from spin (0, 1) one step of any coin puts all mass on site -1
        c, phi = make_coin(0.6, 0.8), np.array([0.0, 1.0])
        assert distribution(evolve(phi, c, 1)).prob(-1) == pytest.approx(1.0, abs=1e-15)
        e1 = char_fn_components(psi_from_phi(phi, polar(c)), 1, 0.6, 0.8, math.pi)[3]
        assert e1 == pytest.approx(-1.0, abs=1e-14)

    def test_three_step_cancellation(self):
        # 0.25 e^{3i pi/2} + 0.5 e^{i pi/2} + 0.25 e^{-i pi/2} = 0
        assert abs(char_fn_components(np.array([1.0, 0.0]), 3, R, R, math.pi / 2)[3]) < 1e-14


def per_cell_csv_text(header, columns):
    """The one-cell-at-a-time formatter the bulk template replaced, kept as its oracle."""
    cells = []
    for col in columns:
        values = np.asarray(col)
        fmt = str if values.dtype.kind in "iu" else "{:.17g}".format
        cells.append(map(fmt, values.tolist()))
    return "\n".join([header, *map(",".join, zip(*cells))]) + "\n"


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

    @pytest.mark.parametrize("rows", [0, 1, 9])
    def test_csv_text_matches_per_cell_formatter(self, rows):
        specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308, 0.1, -2.5e-7, 1.0]
        ints = np.arange(-4, rows - 4)
        floats = np.array(specials[:rows])
        columns = [ints, floats, floats[::-1].copy(), [bool(i % 2) for i in range(rows)]]
        assert _csv_text("k,a,b,c", columns) == per_cell_csv_text("k,a,b,c", columns)
