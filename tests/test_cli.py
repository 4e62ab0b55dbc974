"""End-to-end tests for the command-line harness: files, exit codes, configs."""

import cmath
import dataclasses
import itertools
import json
import math
import os
import re
import stat
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qwalk1d.cli import (
    EXIT_BAD_CONFIG,
    EXIT_CHECK_FAILED,
    EXIT_PASS,
    MAX_ALGEBRA_N,
    MAX_N,
    TOL_KEYS,
    atomic_write,
    load_config,
    main,
)
from qwalk1d import cheb_engine, cli, direct_walk, limit_law
from qwalk1d.coin import CoinMatrix, polar
from qwalk1d.direct_walk import Distribution
from qwalk1d.errors import InvalidConfig, ParamViolation

R = math.sqrt(0.5)
HADAMARD_RIGHT = Path(__file__).resolve().parent.parent / "configs" / "hadamard_right.json"


def base_config(**overrides):
    cfg = {
        "schema_version": 1,
        "coin": {"a": [R, 0.0], "b": [R, 0.0]},
        "phi": [[R, 0.0], [0.0, R]],
        "steps": [0, 1, 3],
        "n_grid": [25, 50],
        "xi_grid": [0.0, 0.5, 1.0],
        "algebra": {"N": 6, "alpha": None, "beta": None, "seed": 7},
        "asym": {"ks": [0, 1], "xis": [0.0, 1.0], "n_grid": [50, 100]},
        "tol": {
            "simulate_gap": 1e-10,
            "algebra": 1e-12,
            "kolmogorov_pinned": 0.2,
            "charfn_pinned": 1e-3,
            "asym_pinned": 0.2,
            "parity_zero": 1e-10,
            "safety_factor": 1.1,
        },
        "max_n": 100000,
    }
    cfg.update(overrides)
    return cfg


def assert_one_stderr_line(capsys, prefix):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(prefix), err


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def holder(cfg, key):
    """The object that holds the field at dotted ``key``, and the key's last part."""
    *parents, leaf = key.split(".")
    for name in parents:
        cfg = cfg[name]
    return cfg, leaf


def replaced(cfg, key, value):
    """cfg with the field at dotted ``key`` set to value; key None replaces it all."""
    if key is None:
        return value
    node, leaf = holder(cfg, key)
    node[leaf] = value
    return cfg


def deleted(cfg, key):
    """cfg without the field at dotted ``key``."""
    node, leaf = holder(cfg, key)
    del node[leaf]
    return cfg


def fields(cfg):
    """Every field of cfg, by dotted path."""
    return [
        f"{top}.{sub}" if sub else top
        for top, value in cfg.items()
        for sub in ([None] + list(value) if isinstance(value, dict) else [None])
    ]


FIELDS = fields(base_config())


class TestLoadConfig:
    def test_packaged_default(self):
        cfg = load_config(None)
        assert cfg.coin.a == pytest.approx(R)
        assert cfg.tol["kolmogorov_pinned"] < 0.05
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.max_n = 2  # a run is set by its config file alone

    def test_bad_schema_version(self, tmp_path):
        path = write_config(tmp_path, base_config(schema_version=2))
        with pytest.raises(InvalidConfig):
            load_config(path)

    def test_bad_coin_norm(self, tmp_path):
        path = write_config(tmp_path, base_config(coin={"a": [0.9, 0.0], "b": [0.5, 0.0]}))
        with pytest.raises(InvalidConfig):
            load_config(path)

    def test_bad_phi(self, tmp_path):
        path = write_config(tmp_path, base_config(phi=[[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(InvalidConfig):
            load_config(path)

    def test_steps_must_increase(self, tmp_path):
        path = write_config(tmp_path, base_config(steps=[3, 1]))
        with pytest.raises(InvalidConfig):
            load_config(path)

    def test_algebra_n_at_its_bound_loads(self, tmp_path):
        cfg = base_config(algebra={"N": MAX_ALGEBRA_N, "alpha": None, "beta": None, "seed": 0})
        assert load_config(write_config(tmp_path, cfg)).algebra["N"] == MAX_ALGEBRA_N

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(InvalidConfig):
            load_config(str(path))

    @pytest.mark.parametrize("key", FIELDS)
    def test_every_field_is_required(self, tmp_path, key):
        path = write_config(tmp_path, deleted(base_config(), key))
        with pytest.raises(InvalidConfig, match=re.escape(f"{key} missing from config")):
            load_config(path)

    def test_fields_is_the_whole_schema(self):
        packaged = resources.files("qwalk1d").joinpath("data/default_config.json").read_text()
        for raw in (json.loads(packaged), json.loads(HADAMARD_RIGHT.read_text())):
            assert sorted(fields(raw)) == sorted(FIELDS)

    def test_grids_load_at_max_n(self, tmp_path):
        cfg = base_config(max_n=100, steps=[0, 100], n_grid=[100])
        cfg["asym"].update(ks=[-100, 100], n_grid=[100])
        loaded = load_config(write_config(tmp_path, cfg))
        assert (loaded.steps, loaded.n_grid) == ([0, 100], [100])
        assert (loaded.asym["ks"], loaded.asym["n_grid"]) == ([-100, 100], [100])


class TestSimulate:
    def test_writes_files_and_passes(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == EXIT_PASS
        for n in (0, 1, 3):
            assert (out / f"direct_n{n}.csv").exists()
            assert (out / f"cheb_n{n}.csv").exists()
        gaps = (out / "gaps.csv").read_text().strip().splitlines()
        assert gaps[0] == "n,max_abs_gap"
        for row in gaps[1:]:
            assert float(row.split(",")[1]) < 1e-10

    def test_zero_steps_single_point(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config(steps=[0]))
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == EXIT_PASS
        rows = (out / "direct_n0.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 1
        x, prob = rows[0].split(",")
        assert x == "0"
        assert float(prob) == pytest.approx(1.0, abs=1e-12)

    def test_window_mismatch_is_a_failed_check(self, tmp_path, capsys, monkeypatch):
        def shifted(psi, n, s, t):
            return Distribution(offset=-n - 1, probs=np.zeros(2 * n + 3))

        monkeypatch.setattr(cheb_engine, "qn_distribution", shifted)
        cfg_path = write_config(tmp_path, base_config())
        assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")]) == EXIT_CHECK_FAILED
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("check failed: ")

    def test_deterministic_outputs(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", cfg_path, "--out", str(out_a)])
        main(["simulate", "--config", cfg_path, "--out", str(out_b)])
        assert (out_a / "gaps.csv").read_bytes() == (out_b / "gaps.csv").read_bytes()

    def test_max_n_guard(self, tmp_path, capsys):
        # a step count beyond max_n fails the load, before any file is written
        cfg_path = write_config(tmp_path, base_config(max_n=2))
        out = tmp_path / "o"
        code = main(["simulate", "--config", cfg_path, "--out", str(out)])
        assert code == EXIT_BAD_CONFIG
        assert_one_stderr_line(capsys, "invalid config: steps[2] must be an integer >= 0 and <= 2, got 3")
        assert not out.exists()

    def test_fail_with_impossible_tol(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, replaced(base_config(), "tol.simulate_gap", 1e-30))
        code = main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")])
        assert code == EXIT_CHECK_FAILED
        assert_one_stderr_line(capsys, "simulate: ")

    def test_no_temp_files_left(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        main(["simulate", "--config", cfg_path, "--out", str(out)])
        assert not list(out.glob("*.tmp"))


class TestLimit:
    def test_pass_with_generous_pin(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["limit", "--config", cfg_path, "--out", str(out)]) == EXIT_PASS
        rows = (out / "kolmogorov.csv").read_text().strip().splitlines()
        assert rows[0] == "n,Dn"
        assert len(rows) == 3
        table = (out / "density_cdf.csv").read_text().strip().splitlines()
        assert table[0] == "y,density,cdf"
        last = table[-1].split(",")
        assert float(last[2]) == pytest.approx(1.0, abs=1e-9)

    def test_fail_with_tiny_pin(self, tmp_path, capsys):
        cfg = base_config()
        cfg["tol"]["kolmogorov_pinned"] = 1e-8
        cfg_path = write_config(tmp_path, cfg)
        code = main(["limit", "--config", cfg_path, "--out", str(tmp_path / "o")])
        assert code == EXIT_CHECK_FAILED
        assert_one_stderr_line(capsys, "limit: ")

    def test_does_not_evolve(self, tmp_path, monkeypatch):
        # the closed form gives every Q_n; direct evolution is O(n^2)
        def boom(*args, **kwargs):
            raise AssertionError("limit evolved the walk")

        monkeypatch.setattr(direct_walk, "evolve", boom)
        monkeypatch.setattr(direct_walk, "evolve_snapshots", boom)
        cfg_path = write_config(tmp_path, base_config())
        assert main(["limit", "--config", cfg_path, "--out", str(tmp_path / "o")]) == EXIT_PASS

    @pytest.mark.parametrize("config", ["default", "right", "complex"])
    def test_matches_direct_evolution_on_shipped_grid(self, tmp_path, config):
        cfg_path = {"default": None, "right": str(HADAMARD_RIGHT)}.get(config)
        if config == "complex":
            raw = json.loads(HADAMARD_RIGHT.read_text())
            raw["coin"] = {"a": [0.36, 0.48], "b": [0.0, 0.8]}
            raw["phi"] = [[0.6, 0.0], [0.0, 0.8]]
            raw["tol"]["kolmogorov_pinned"] = 0.1
            cfg_path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        argv = ["limit", "--out", str(out)] + ([] if cfg_path is None else ["--config", cfg_path])
        assert main(argv) == EXIT_PASS
        cfg = load_config(cfg_path)
        assert cfg.n_grid == [125, 250, 500, 1000, 2000]
        pol = polar(cfg.coin)
        ld = limit_law.LimitDensity(pol.s, pol.t, limit_law.lambda_phi(cfg.phi, cfg.coin))
        rows = [line.split(",") for line in (out / "kolmogorov.csv").read_text().splitlines()[1:]]
        snaps = direct_walk.evolve_snapshots(cfg.phi, cfg.coin, cfg.n_grid)
        for (n, st), (n_row, d_row) in zip(snaps, rows, strict=True):
            ref = limit_law.kolmogorov_distance(direct_walk.distribution(st), ld, n)
            assert int(n_row) == n
            assert abs(float(d_row) - ref) < 1e-12

    def test_reaches_max_n(self, tmp_path):
        cfg = base_config()
        n_grid = cfg["n_grid"] = [1000, 10000, cfg["max_n"]]
        cfg["tol"]["kolmogorov_pinned"] = 0.014243679387957835  # the shipped pin for this spin
        out = tmp_path / "out"
        argv = ["limit", "--config", write_config(tmp_path, cfg), "--out", str(out)]
        assert main(argv) == EXIT_PASS
        rows = [line.split(",") for line in (out / "kolmogorov.csv").read_text().splitlines()[1:]]
        assert [int(n) for n, _ in rows] == n_grid
        d = [float(v) for _, v in rows]
        assert 0.0 < d[2] < d[1] < d[0]


class TestCharFn:
    def test_pass_and_zero_xi_row(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["charfn", "--config", cfg_path, "--out", str(out)]) == EXIT_PASS
        rows = (out / "charfn.csv").read_text().strip().splitlines()
        assert rows[0] == "n,xi,re_en,im_en,re_limit,im_limit,gap"
        zero_rows = [r for r in rows[1:] if r.split(",")[1] == "0"]
        assert zero_rows, "xi = 0 rows missing"
        for r in zero_rows:
            assert float(r.split(",")[-1]) == 0.0

    def test_fail_with_tiny_pin(self, tmp_path, capsys):
        cfg = base_config()
        cfg["tol"]["charfn_pinned"] = 1e-15
        cfg_path = write_config(tmp_path, cfg)
        assert main(["charfn", "--config", cfg_path, "--out", str(tmp_path / "o")]) == EXIT_CHECK_FAILED
        assert_one_stderr_line(capsys, "charfn: ")

    def test_samples_rows_once_per_n_and_distinct_shift(self, tmp_path, monkeypatch):
        calls = []
        rows = cheb_engine._cheb_rows
        monkeypatch.setattr(cheb_engine, "_cheb_rows", lambda *a: calls.append(a[0]) or rows(*a))
        cfg = base_config(xi_grid=[0.0, 0.5, 1.0, 0.5])
        assert main(["charfn", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == EXIT_PASS
        # 2 n values x (theta + 2 distinct non-zero xi); one call per
        # (n, xi) entry would sample 2 x 3 x 2 = 12 times
        assert sorted(calls) == [25] * 3 + [50] * 3


class TestAlgebra:
    def test_pass_writes_report(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["algebra", "--config", cfg_path, "--out", str(out)]) == EXIT_PASS
        report = json.loads((out / "relation_report.json").read_text())
        assert "W^2 = -I" in report
        assert max(report.values()) <= 1e-12

    def test_fail_with_impossible_tol(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, replaced(base_config(), "tol.algebra", 1e-20))
        out = tmp_path / "out"
        code = main(["algebra", "--config", cfg_path, "--out", str(out)])
        assert code == EXIT_CHECK_FAILED
        assert (out / "relation_report.json").exists()
        assert_one_stderr_line(capsys, "algebra: ")

    def test_failed_report_has_the_passing_layout(self, tmp_path):
        texts = {}
        for tol in (1e-12, 1e-30):
            cfg_path = write_config(tmp_path, replaced(base_config(), "tol.algebra", tol), f"{tol}.json")
            out = tmp_path / str(tol)
            code = main(["algebra", "--config", cfg_path, "--out", str(out)])
            assert code == (EXIT_CHECK_FAILED if tol == 1e-30 else EXIT_PASS)
            texts[tol] = (out / "relation_report.json").read_text()
        passed, failed = json.loads(texts[1e-12]), json.loads(texts[1e-30])
        assert len(failed) == 25
        assert list(failed) == list(passed)
        for text, report in ((texts[1e-12], passed), (texts[1e-30], failed)):
            assert text == json.dumps(report, indent=2)

    def test_explicit_phases(self, tmp_path):
        cfg = base_config(algebra={"N": 4, "alpha": [0.0, 1.0], "beta": [1.0, 0.0], "seed": 0})
        cfg_path = write_config(tmp_path, cfg)
        assert main(["algebra", "--config", cfg_path, "--out", str(tmp_path / "o")]) == EXIT_PASS


def test_algebra_at_a_large_lattice(tmp_path):
    # the symbol form holds O(N) memory; dense 2N x 2N matrices would need 1 GiB each
    cfg = base_config(algebra={"N": 4096, "alpha": None, "beta": None, "seed": 3})
    out = tmp_path / "out"
    assert main(["algebra", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == EXIT_PASS
    report = json.loads((out / "relation_report.json").read_text())
    assert len(report) == 25
    assert max(report.values()) <= 1e-12


class TestAsym:
    def test_pass_and_table_shape(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["asym", "--config", cfg_path, "--out", str(out)]) == EXIT_PASS
        rows = (out / "asym.csv").read_text().strip().splitlines()
        assert rows[0].startswith("n,k,xi,reA,imA")
        # 2 n values x 2 k values x 2 xi values
        assert len(rows) == 1 + 8

    def test_fail_with_tiny_pin(self, tmp_path, capsys):
        cfg = base_config()
        cfg["tol"]["asym_pinned"] = 1e-12
        cfg_path = write_config(tmp_path, cfg)
        assert main(["asym", "--config", cfg_path, "--out", str(tmp_path / "o")]) == EXIT_CHECK_FAILED
        assert_one_stderr_line(capsys, "asym: ")

    def test_rows_follow_product_order(self, tmp_path):
        cfg = base_config()
        cfg["asym"] = {"ks": [2, 0, -1], "xis": [1.0, 0.0, -2.5, 1.0], "n_grid": [3, 40]}
        out = tmp_path / "out"
        assert main(["asym", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == EXIT_PASS
        rows = [line.split(",")[:3] for line in (out / "asym.csv").read_text().splitlines()[1:]]
        a = cfg["asym"]
        expected = itertools.product(a["n_grid"], a["ks"], a["xis"])
        assert [(int(n), int(k), float(xi)) for n, k, xi in rows] == list(expected)

    def test_samples_rows_once_per_n_and_distinct_shift(self, tmp_path, monkeypatch):
        calls = []
        rows = cheb_engine._cheb_rows
        monkeypatch.setattr(cheb_engine, "_cheb_rows", lambda *a: calls.append(a[0]) or rows(*a))
        cfg = base_config()
        cfg["asym"] = {"ks": [0, 1, 2], "xis": [0.0, 1.0, -2.5, 1.0], "n_grid": [50, 100]}
        assert main(["asym", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == EXIT_PASS
        # 2 n values x (theta + 2 distinct non-zero xi); one sampling per
        # (n, k, xi) entry and side would be 2 x 2 x 3 x 4 = 48
        assert sorted(calls) == [50] * 3 + [100] * 3

    def test_parity_bound_scales_with_u_squared(self, tmp_path, capsys):
        # near s = 1 the vanishing entries' roundoff grows with mean(U_{n-1}^2),
        # 90 to 150 here; against an absolute 1e-10 they failed under any threshold
        cfg_path = write_config(tmp_path, near_one_coin_config())
        assert main(["asym", "--config", cfg_path, "--out", str(tmp_path / "o")]) == EXIT_PASS
        assert capsys.readouterr().err == ""

    def test_parity_violation_fails_at_scaled_bound(self, tmp_path, capsys, monkeypatch):
        grid_fn = limit_law.asym_grid
        planted = []

        def planted_grid(n, ks, xis, s):
            grid = grid_fn(n, ks, xis, s)
            scale = max(1.0, grid[ks.index(0), xis.index(0.0), 3].real)
            grid[ks.index(1), xis.index(1.0), 0] = 10 * base_config()["tol"]["parity_zero"] * scale
            planted.append(scale)
            return grid

        monkeypatch.setattr(limit_law, "asym_grid", planted_grid)
        cfg_path = write_config(tmp_path, near_one_coin_config())
        assert main(["asym", "--config", cfg_path, "--out", str(tmp_path / "o")]) == EXIT_CHECK_FAILED
        assert len(planted) == 4 and min(planted) > 10
        assert_one_stderr_line(capsys, "asym: parity")


def near_one_coin_config():
    """A real coin at s = 0.99999, where U_{n-1} is large, on the packaged asym grid.

    The gap pin is a generous 100, so only the parity check can fail.
    """
    s = 0.99999
    cfg = base_config(
        coin={"a": [s, 0.0], "b": [math.sqrt(1.0 - s * s), 0.0]},
        asym={"ks": [0, 1, 2], "xis": [0.0, 1.0], "n_grid": [200, 500, 1000, 2000]},
    )
    return replaced(cfg, "tol.asym_pinned", 100.0)


@pytest.mark.parametrize(
    "verb, changes",
    [
        ("charfn", {"xi_grid": [1e300]}),
        ("asym", {"asym.xis": [1e300]}),
        # a |k| within max_n whose limit integral still needs more than the node cap
        ("asym", {"max_n": 10**6, "asym.ks": [0, 600000], "asym.n_grid": [1]}),
    ],
    ids=["charfn-xi_grid", "asym-asym.xis", "asym-asym.ks"],
)
def test_unreachable_limit_quadrature_is_one_failed_check(tmp_path, capsys, verb, changes):
    # the circle rule would need more than _MAX_NODES nodes; it refuses before allocating
    cfg = base_config()
    for key, value in changes.items():
        cfg = replaced(cfg, key, value)
    cfg_path = write_config(tmp_path, cfg)
    assert main([verb, "--config", cfg_path, "--out", str(tmp_path / "o")]) == EXIT_CHECK_FAILED
    assert_one_stderr_line(capsys, "check failed: ")


@pytest.mark.parametrize("verb", ["simulate", "limit"])
def test_library_error_after_load_is_one_failed_check(tmp_path, capsys, monkeypatch, verb):
    # only InvalidConfig and an unwritable --out map to exit 2; any other library error is exit 1
    def rejects(psi, n, s, t):
        raise ParamViolation("planted")

    monkeypatch.setattr(cheb_engine, "qn_distribution", rejects)
    cfg_path = write_config(tmp_path, base_config())
    assert main([verb, "--config", cfg_path, "--out", str(tmp_path / "o")]) == EXIT_CHECK_FAILED
    assert_one_stderr_line(capsys, "check failed: planted")


MALFORMED = [
    ("simulate", None, ["a", "list"]),
    ("simulate", "coin", "x"),
    ("limit", "tol", [1]),
    ("charfn", "xi_grid", [0.5, "1.0"]),
    ("asym", "asym.xis", ["1.0"]),
    ("limit", "tol.safety_factor", "1.1"),
    ("simulate", "tol.simulate_gap", "1e-10"),
    ("algebra", "algebra.seed", "7"),
    ("algebra", "algebra.seed", -1),
    ("asym", "asym.ks", [0, 1.5]),
    ("asym", "asym.xis", [math.nan]),
    ("algebra", "coin.a", [math.nan, 0.0]),
    # build_rep would reject them after loading
    ("algebra", "algebra.alpha", [2.0, 0.0]),
    ("algebra", "algebra.beta", [0.0, 0.5]),
    ("limit", "phi", [[math.nan, 0.0], [0.0, R]]),
    ("limit", "tol.kolmogorov_pinned", math.inf),
    ("charfn", "xi_grid", [-math.inf, 1.0]),
    # nothing would be checked: exit 0 under any pin
    ("charfn", "xi_grid", []),
    ("charfn", "xi_grid", [0.0]),
    ("asym", "asym.ks", []),
    ("asym", "asym.xis", []),
    # beyond max_n: the circle rule would allocate 2n + |k| + 16 nodes
    ("asym", "asym.n_grid", [50, 10**12]),
    ("asym", "asym.ks", [0, -10**12]),
    # beyond the bound the symbols' O(N) memory and time grow past any use
    ("algebra", "algebra.N", MAX_ALGEBRA_N + 1),
    ("algebra", "algebra.N", 10**9),
    # beyond MAX_N: the closed form would ask for about 100 GB at n = 10**9
    ("limit", "max_n", 10**9),
    ("limit", "max_n", MAX_N + 1),
    # equal to 1 in Python, but not the integer 1
    ("simulate", "schema_version", True),
    ("simulate", "schema_version", 1.0),
    # the config path is a directory
    ("simulate", "<directory>", None),
]


@pytest.mark.parametrize("verb", list(cli.VERBS))
@pytest.mark.parametrize(
    "coin",
    [{"a": [1.0, 0.0], "b": [0.0, 0.0]}, {"a": [1.0, 0.0], "b": [1e-9, 0.0]}],
    ids=["b_zero", "s_rounds_to_1"],
)
def test_degenerate_coin_is_invalid_config(tmp_path, capsys, verb, coin):
    # no polar split, so no closed form and no scaled identity to check; |b| =
    # 1e-9 passes the coin's norm check but leaves s = 1.0 after rounding.
    # Every tolerance is 1e-30, so any check that ran would fail with exit 1.
    cfg = base_config(coin=coin)
    cfg["tol"] = dict.fromkeys(cfg["tol"], 1e-30)
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main([verb, "--config", cfg_path, "--out", str(out)]) == EXIT_BAD_CONFIG
    assert_one_stderr_line(capsys, "invalid config: ")
    assert not out.exists()


@pytest.mark.parametrize("verb, key, value", MALFORMED, ids=lambda v: repr(v)[:24])
def test_malformed_config_exits_2_with_one_line(tmp_path, capsys, verb, key, value):
    if key == "<directory>":
        cfg_path = str(tmp_path)
    else:
        cfg_path = write_config(tmp_path, replaced(base_config(), key, value))
    assert main([verb, "--config", cfg_path, "--out", str(tmp_path / "o")]) == EXIT_BAD_CONFIG
    assert_one_stderr_line(capsys, "invalid config: ")
    assert not (tmp_path / "o").exists()  # every config is checked before a verb runs


def assert_rejected_at_load(tmp_path, capsys, verb, cfg, message):
    """main exits 2 with one ``invalid config: <message>`` line and writes nothing."""
    out = tmp_path / "o"
    assert main([verb, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == EXIT_BAD_CONFIG
    assert_one_stderr_line(capsys, f"invalid config: {message}")
    assert not out.exists()


@pytest.mark.parametrize("verb", list(cli.VERBS))
@pytest.mark.parametrize(
    "changes",
    [
        # |phi| - 1 is just inside 1e-10, and the unit phase -alpha beta that
        # takes phi to psi moves the norm past it by roundoff
        {
            "coin": {
                "a": [0.4589053123706931, 0.3865306123426146],
                "b": [-0.2586316534908027, 0.7570400701499316],
            },
            "phi": [[0.186516876413583, -0.19597346004692398], [0.9500471032852226, 0.15561606443267437]],
        },
        # the top eigenvector of lambda's quadratic form scaled by 1 + 1e-11:
        # |phi| passes 1e-10, |lambda| = (1 + 1e-11)^2 / s passes 1/s + 1e-12
        {"phi": [[-0.9238795325205256, 0.0], [0.3826834323689166, 0.0]]},
    ],
    ids=["psi_norm", "lambda_beyond_1_over_s"],
)
def test_phi_whose_psi_or_limit_breaks_a_bound_is_invalid_config(tmp_path, capsys, verb, changes):
    # every verb, also those that read neither psi nor the limit law: both are checked at load
    cfg = dict(json.loads(HADAMARD_RIGHT.read_text()), **changes)
    assert_rejected_at_load(tmp_path, capsys, verb, cfg, "phi failed validation: ")


def test_dotted_key_is_not_a_field(tmp_path, capsys):
    # a top-level key spelt as a field's dotted path names no field
    cfg = base_config(**{"coin.a": [R, 0.0]})
    assert_rejected_at_load(tmp_path, capsys, "simulate", cfg, "coin.a is not a config field")


@pytest.mark.parametrize(
    "verb, key",
    [
        ("simulate", "steps"),
        ("limit", "tol.kolmogorov_pinned"),
        ("charfn", "xi_grid"),
        ("algebra", "algebra.seed"),
        ("asym", "asym.n_grid"),
    ],
)
def test_missing_field_exits_2(tmp_path, capsys, verb, key):
    # the parser holds no defaults: the packaged config is the only default experiment
    assert_rejected_at_load(tmp_path, capsys, verb, deleted(base_config(), key), f"{key} missing")


def test_misspelt_field_exits_2(tmp_path, capsys):
    cfg = base_config()
    cfg["stpes"] = cfg.pop("steps")
    assert_rejected_at_load(tmp_path, capsys, "simulate", cfg, "steps missing from config")


@pytest.mark.parametrize(
    "verb, key, value",
    [
        ("simulate", "stpes", [1, 2]),
        ("simulate", "coin.c", [0.0, 0.0]),
        ("algebra", "algebra.sed", 3),
        ("asym", "asym.kss", [0]),
        ("algebra", "tol.algebra_tol", 1.0),
    ],
)
def test_unknown_key_exits_2(tmp_path, capsys, verb, key, value):
    # one test per level; a misspelt copy next to the real field would otherwise be dropped
    cfg = replaced(base_config(), key, value)
    assert_rejected_at_load(tmp_path, capsys, verb, cfg, f"{key} is not a config field")


@pytest.mark.parametrize("verb", list(cli.VERBS))
@pytest.mark.parametrize("pin", [key for key in TOL_KEYS if key.endswith("_pinned")])
def test_null_pin_exits_2_for_every_verb(tmp_path, capsys, verb, pin):
    cfg = replaced(base_config(), f"tol.{pin}", None)
    assert_rejected_at_load(tmp_path, capsys, verb, cfg, f"tol.{pin} must be a finite number")


@pytest.mark.parametrize("verb", list(cli.VERBS))
@pytest.mark.parametrize("key", ["steps", "n_grid", "asym.n_grid", "asym.ks"])
def test_max_n_bounds_every_grid_for_every_verb(tmp_path, capsys, verb, key):
    cfg = base_config(max_n=100)
    assert_rejected_at_load(tmp_path, capsys, verb, replaced(cfg, key, [1, 101]), f"{key}[1] must be")


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


def all_ints(xs) -> bool:
    return all(type(x) is int for x in xs)


def all_finite_floats(xs) -> bool:
    return all(type(x) is float and math.isfinite(x) for x in xs)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(FIELDS), value=json_values)
def test_load_config_gives_typed_finite_values_or_invalid_config(tmp_path, key, value):
    path = write_config(tmp_path, replaced(base_config(), key, value))
    try:
        cfg = load_config(path)
    except InvalidConfig:
        return
    assert isinstance(cfg.coin, CoinMatrix)
    assert cfg.polar == polar(cfg.coin)
    assert all(type(v) is complex and cmath.isfinite(v) for v in (cfg.coin.a, cfg.coin.b))
    assert cfg.phi.shape == (2,) and cfg.phi.dtype == complex and np.all(np.isfinite(cfg.phi))
    assert cfg.psi.shape == (2,) and abs(np.linalg.norm(cfg.psi) - 1.0) <= 1e-10
    lam = limit_law.lambda_phi(cfg.phi, cfg.coin)
    assert cfg.limit == limit_law.LimitDensity(cfg.polar.s, cfg.polar.t, lam)
    assert all_ints(cfg.steps) and all_ints(cfg.n_grid) and all_ints([cfg.max_n])
    assert all_finite_floats(cfg.xi_grid) and any(cfg.xi_grid)
    assert all_ints([cfg.algebra["N"], cfg.algebra["seed"]])
    for phase in (cfg.algebra["alpha"], cfg.algebra["beta"]):
        assert phase is None or (type(phase) is complex and abs(abs(phase) - 1.0) <= 1e-10)
    assert all_ints(cfg.asym["ks"]) and cfg.asym["ks"]
    assert all_finite_floats(cfg.asym["xis"]) and cfg.asym["xis"]
    assert all_ints(cfg.asym["n_grid"])
    assert tuple(cfg.tol) == TOL_KEYS and all_finite_floats(cfg.tol.values())


class TestMainErrors:
    def test_missing_config_file(self, tmp_path):
        code = main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == EXIT_BAD_CONFIG

    @pytest.mark.parametrize("verb", ["algebra", "simulate"])
    def test_out_that_cannot_be_created(self, tmp_path, capsys, verb):
        cfg_path = write_config(tmp_path, base_config())
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main([verb, "--config", cfg_path, "--out", str(blocker / "sub")])
        assert code == EXIT_BAD_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("invalid config: cannot write output: ")


@pytest.mark.parametrize(
    "verb, key, value, code, err",
    [
        ("algebra", "algebra.N", 6, EXIT_PASS, ""),
        ("limit", "tol.kolmogorov_pinned", 1e-8, EXIT_CHECK_FAILED, "limit: "),
        ("simulate", "coin", {"a": [1.0, 0.0], "b": [0.0, 0.0]}, EXIT_BAD_CONFIG, "invalid config: "),
    ],
    ids=["algebra", "limit", "simulate"],
)
def test_process_exit_code(tmp_path, verb, key, value, code, err):
    # through the interpreter: sys.exit(main()) gives the process its exit code
    cfg_path = write_config(tmp_path, replaced(base_config(), key, value))
    argv = ["-m", "qwalk1d.cli", verb, "--config", cfg_path, "--out", str(tmp_path / "o")]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == code, done.stderr
    assert len(done.stderr.splitlines()) == bool(err) and done.stderr.startswith(err)


class TestParser:
    def test_built_once_per_process(self, tmp_path):
        cli._build_parser.cache_clear()
        for _ in range(2):
            assert main(["algebra", "--out", str(tmp_path / "o")]) == EXIT_PASS
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert cli._build_parser() is cli._build_parser()

    def test_unknown_verb_exits_2(self, capsys):
        for _ in range(2):  # the cached parser still rejects it on reuse
            with pytest.raises(SystemExit) as exc:
                main(["nope"])
            assert exc.value.code == EXIT_BAD_CONFIG
        assert "invalid choice: 'nope'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--tol", "--max-n"])
    def test_config_overrides_are_gone(self, capsys, flag):
        # a run is set by its config and --out alone
        with pytest.raises(SystemExit) as exc:
            main(["algebra", flag, "1"])
        assert exc.value.code == EXIT_BAD_CONFIG
        assert "unrecognized arguments" in capsys.readouterr().err


class TestAtomicWrite:
    def test_creates_parents_and_replaces(self, tmp_path):
        target = tmp_path / "deep" / "file.csv"
        atomic_write(target, "x,y\n1,2\n")
        atomic_write(target, "x,y\n3,4\n")
        assert target.read_text() == "x,y\n3,4\n"
        assert not list((tmp_path / "deep").glob("*.tmp"))

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_mode_follows_the_umask(self, tmp_path, umask, mode):
        # the mode open(path, "w") gives a new file, not mkstemp's 0o600
        old = os.umask(umask)
        try:
            atomic_write(tmp_path / "file.csv", "x\n")
            code = main(["limit", "--out", str(tmp_path / "out")])
        finally:
            os.umask(old)
        assert code == EXIT_PASS
        for path in (tmp_path / "file.csv", *(tmp_path / "out").iterdir()):
            assert stat.S_IMODE(path.stat().st_mode) == mode, path

    def test_never_touches_the_process_umask(self, tmp_path, monkeypatch):
        # setting the umask, even for a moment, would change the mode of files
        # that other threads create in that window
        def boom(*args):
            raise AssertionError("os.umask called")

        monkeypatch.setattr(os, "umask", boom)
        atomic_write(tmp_path / "file.csv", "x\n")
        assert (tmp_path / "file.csv").read_text() == "x\n"

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def boom(*args):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError, match="rename failed"):
            atomic_write(tmp_path / "file.csv", "x\n")
        assert not list(tmp_path.iterdir())
