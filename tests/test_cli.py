"""End-to-end tests for the command-line harness: files, exit codes, configs."""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qwalk1d.cli import (
    EXIT_BAD_CONFIG,
    EXIT_CHECK_FAILED,
    EXIT_PASS,
    MAX_ALGEBRA_N,
    TOL_DEFAULTS,
    atomic_write,
    load_config,
    main,
)
from qwalk1d import cheb_engine
from qwalk1d.coin import CoinMatrix
from qwalk1d.direct_walk import Distribution
from qwalk1d.errors import InvalidConfig

R = math.sqrt(0.5)


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


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def replaced(cfg, key, value):
    """cfg with the field at dotted ``key`` set to value; key None replaces it all."""
    if key is None:
        return value
    *parents, leaf = key.split(".")
    node = cfg
    for name in parents:
        node = node[name]
    node[leaf] = value
    return cfg


# Every field of base_config, by dotted path.
FIELDS = [
    f"{top}.{sub}" if sub else top
    for top, value in base_config().items()
    for sub in ([None] + list(value) if isinstance(value, dict) else [None])
]


class TestLoadConfig:
    def test_packaged_default(self):
        cfg = load_config(None)
        assert cfg.coin.a == pytest.approx(R)
        assert cfg.tol["kolmogorov_pinned"] < 0.05

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

    def test_degenerate_coin_is_invalid_config(self, tmp_path, capsys):
        # no closed form to compare with, so nothing would be checked
        cfg = base_config(coin={"a": [1.0, 0.0], "b": [0.0, 0.0]}, steps=[2])
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        code = main(["simulate", "--config", cfg_path, "--out", str(out), "--tol", "1e-30"])
        assert code == EXIT_BAD_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("invalid config: ")
        assert not out.exists()

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

    def test_max_n_guard(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        code = main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o"), "--max-n", "2"])
        assert code == EXIT_BAD_CONFIG

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

    def test_fail_with_tiny_pin(self, tmp_path):
        cfg = base_config()
        cfg["tol"]["kolmogorov_pinned"] = 1e-8
        cfg_path = write_config(tmp_path, cfg)
        code = main(["limit", "--config", cfg_path, "--out", str(tmp_path / "o")])
        assert code == EXIT_CHECK_FAILED

    def test_degenerate_coin_rejected(self, tmp_path):
        cfg = base_config(coin={"a": [1.0, 0.0], "b": [0.0, 0.0]})
        cfg_path = write_config(tmp_path, cfg)
        code = main(["limit", "--config", cfg_path, "--out", str(tmp_path / "o")])
        assert code == EXIT_BAD_CONFIG


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

    def test_fail_with_tiny_pin(self, tmp_path):
        cfg = base_config()
        cfg["tol"]["charfn_pinned"] = 1e-15
        cfg_path = write_config(tmp_path, cfg)
        assert main(["charfn", "--config", cfg_path, "--out", str(tmp_path / "o")]) == EXIT_CHECK_FAILED


class TestAlgebra:
    def test_pass_writes_report(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["algebra", "--config", cfg_path, "--out", str(out)]) == EXIT_PASS
        report = json.loads((out / "relation_report.json").read_text())
        assert "W^2 = -I" in report
        assert max(report.values()) <= 1e-12

    def test_fail_with_impossible_tol(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        code = main(["algebra", "--config", cfg_path, "--out", str(out), "--tol", "1e-20"])
        assert code == EXIT_CHECK_FAILED
        assert (out / "relation_report.json").exists()

    def test_failed_report_has_the_passing_layout(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        texts = {}
        for tol in (None, "1e-30"):
            out = tmp_path / str(tol)
            args = ["algebra", "--config", cfg_path, "--out", str(out)]
            code = main(args + (["--tol", tol] if tol else []))
            assert code == (EXIT_CHECK_FAILED if tol else EXIT_PASS)
            texts[tol] = (out / "relation_report.json").read_text()
        passed, failed = json.loads(texts[None]), json.loads(texts["1e-30"])
        assert len(failed) == 25
        assert list(failed) == list(passed)
        for text, report in ((texts[None], passed), (texts["1e-30"], failed)):
            assert text == json.dumps(report, indent=2)

    def test_explicit_phases(self, tmp_path):
        cfg = base_config(algebra={"N": 4, "alpha": [0.0, 1.0], "beta": [1.0, 0.0], "seed": 0})
        cfg_path = write_config(tmp_path, cfg)
        assert main(["algebra", "--config", cfg_path, "--out", str(tmp_path / "o")]) == EXIT_PASS


class TestAsym:
    def test_pass_and_table_shape(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["asym", "--config", cfg_path, "--out", str(out)]) == EXIT_PASS
        rows = (out / "asym.csv").read_text().strip().splitlines()
        assert rows[0].startswith("n,k,xi,reA,imA")
        # 2 n values x 2 k values x 2 xi values
        assert len(rows) == 1 + 8

    def test_fail_with_tiny_pin(self, tmp_path):
        cfg = base_config()
        cfg["tol"]["asym_pinned"] = 1e-12
        cfg_path = write_config(tmp_path, cfg)
        assert main(["asym", "--config", cfg_path, "--out", str(tmp_path / "o")]) == EXIT_CHECK_FAILED


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
    # 2N x 2N dense matrices: N beyond the bound would exhaust memory
    ("algebra", "algebra.N", MAX_ALGEBRA_N + 1),
    ("algebra", "algebra.N", 20000),
    # the config path is a directory
    ("simulate", "<directory>", None),
]


@pytest.mark.parametrize("verb, key, value", MALFORMED, ids=lambda v: repr(v)[:24])
def test_malformed_config_exits_2_with_one_line(tmp_path, capsys, verb, key, value):
    if key == "<directory>":
        cfg_path = str(tmp_path)
    else:
        cfg_path = write_config(tmp_path, replaced(base_config(), key, value))
    assert main([verb, "--config", cfg_path, "--out", str(tmp_path / "o")]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("invalid config: ")


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
    assert all(type(v) is complex and cmath.isfinite(v) for v in (cfg.coin.a, cfg.coin.b))
    assert cfg.phi.shape == (2,) and cfg.phi.dtype == complex and np.all(np.isfinite(cfg.phi))
    assert all_ints(cfg.steps) and all_ints(cfg.n_grid) and all_ints([cfg.max_n])
    assert all_finite_floats(cfg.xi_grid) and any(cfg.xi_grid)
    assert all_ints([cfg.algebra["N"], cfg.algebra["seed"]])
    for phase in (cfg.algebra["alpha"], cfg.algebra["beta"]):
        assert phase is None or (type(phase) is complex and cmath.isfinite(phase))
    assert all_ints(cfg.asym["ks"]) and cfg.asym["ks"]
    assert all_finite_floats(cfg.asym["xis"]) and cfg.asym["xis"]
    assert all_ints(cfg.asym["n_grid"])
    assert set(cfg.tol) == set(TOL_DEFAULTS)
    for name, tol in cfg.tol.items():
        assert (tol is None and name.endswith("_pinned")) or all_finite_floats([tol])


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

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tol_override(self, tmp_path, tol):
        cfg_path = write_config(tmp_path, base_config())
        code = main(["algebra", "--config", cfg_path, "--out", str(tmp_path / "o"), "--tol", tol])
        assert code == EXIT_BAD_CONFIG


class TestAtomicWrite:
    def test_creates_parents_and_replaces(self, tmp_path):
        target = tmp_path / "deep" / "file.csv"
        atomic_write(target, "x,y\n1,2\n")
        atomic_write(target, "x,y\n3,4\n")
        assert target.read_text() == "x,y\n3,4\n"
        assert not list((tmp_path / "deep").glob("*.tmp"))
