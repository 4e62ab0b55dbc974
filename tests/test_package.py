"""The package's public names."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import qwalk1d
from qwalk1d import cli, coin, direct_walk, limit_law

REPO = Path(__file__).resolve().parent.parent


def read_identifiers(path: Path) -> set[str]:
    """Every name and attribute name the module reads; definitions and strings do not count."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def test_every_public_name_resolves():
    for name in qwalk1d.__all__:
        assert getattr(qwalk1d, name) is not None, name


def test_every_public_name_has_a_caller():
    # the package itself, the benchmark or the acceptance tests read each public name
    sources = [p for p in (REPO / "src" / "qwalk1d").glob("*.py") if p.name != "__init__.py"]
    sources += (REPO / "perfbench").glob("*.py")
    sources.append(REPO / "tests" / "test_acceptance.py")
    read = set().union(*map(read_identifiers, sources))
    assert [name for name in qwalk1d.__all__ if name not in read] == []


def test_caller_less_paths_are_gone():
    # no verb, benchmark or acceptance test called them; the tests keep their own references
    for module, name in [
        (direct_walk, "step"),
        (direct_walk, "char_fn"),
        (coin, "phi_from_psi"),
        (limit_law, "limit_mean"),
    ]:
        assert name not in qwalk1d.__all__
        assert not hasattr(qwalk1d, name)
        assert not hasattr(module, name)
    assert not hasattr(qwalk1d.WalkState, "amplitude")
    # polar validates its own split; load_config calls it directly
    assert not hasattr(cli, "_polar")


def test_removed_writers_are_gone():
    for name in ("state_to_csv", "quadruple_to_csv"):
        assert name not in qwalk1d.__all__
        assert not hasattr(qwalk1d, name)
    assert not hasattr(qwalk1d.LaurentPoly, "exponents")
    assert not hasattr(qwalk1d.coin, "INTERNAL_TOL")


def test_test_only_algebra_helpers_are_gone():
    # the seed basis and the cyclicity check live in the tests' dense oracle
    for name in ("build_basis", "qwr_check"):
        assert name not in qwalk1d.__all__
        assert not hasattr(qwalk1d, name)
        assert not hasattr(qwalk1d.algebra_check, name)


def test_second_quadrature_rule_is_gone():
    # every limit-law integral is a circle mean; the closed-form cdf_grid stays
    assert "cdf" not in qwalk1d.__all__
    for name in ("cdf", "_adaptive_gl", "_gl_panels"):
        assert not hasattr(qwalk1d.limit_law, name)
    assert not hasattr(qwalk1d, "cdf")


def test_coefficient_recurrence_is_gone():
    # the FFT is the package's one coefficient path; the recurrence is the tests' oracle
    for name in ("_recurrence", "cheb_T_laurent", "cheb_U_laurent"):
        assert name not in qwalk1d.__all__
        assert not hasattr(qwalk1d, name)
        assert not hasattr(qwalk1d.cheb_engine, name)


def test_fold_helper_is_gone():
    # the quadrature side places both factors from p's lowest exponent and folds only
    # a row that overruns the nodes; the tests' Horner sum is its oracle
    assert not hasattr(qwalk1d.cheb_engine, "_fold")


def test_node_count_override_is_gone():
    # the convolution check always takes the B + 16 circle rule
    for fn in (qwalk1d.cross_series, qwalk1d.cross_series_quadrature):
        assert list(inspect.signature(fn).parameters) == ["p", "q", "w"]
    assert list(inspect.signature(qwalk1d.cheb_engine._node_count).parameters) == ["band"]
    assert list(inspect.signature(qwalk1d.cheb_engine._circle).parameters) == ["m"]


def test_parser_defaults_are_gone():
    # every config field is required, and max_n bounds every grid while parsing
    assert not hasattr(cli, "TOL_DEFAULTS")
    assert not hasattr(cli, "_require_within_max")
    assert cli.TOL_KEYS == tuple(cli.load_config(None).tol)


def test_invalid_config_is_raised_only_while_parsing():
    # once a config loads, no verb rejects it
    tree = ast.parse((REPO / "src" / "qwalk1d" / "cli.py").read_text())
    raisers = {
        fn.name
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Raise) and "InvalidConfig" in ast.unparse(node)
    }
    parsers = {"load_config", "_number", "_integer", "_complex", "_object", "_field", "_phase", "_list",
               "_grid", "_reject_unread"}
    assert raisers <= parsers, raisers - parsers


def test_main_maps_no_resource_limit_to_exit_2():
    # max_n bounds steps at load, so no verb raises ResourceLimit; evolve_snapshots keeps its own check.
    # A coin without a polar split is an InvalidConfig at load, so exit 2 has two sources only:
    # the config and an unwritable --out.
    tree = ast.parse((REPO / "src" / "qwalk1d" / "cli.py").read_text())
    main = next(fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == "main")
    handlers = [node for node in ast.walk(main) if isinstance(node, ast.ExceptHandler)]
    exit_2 = [h for h in handlers if "EXIT_BAD_CONFIG" in ast.unparse(h)]
    assert sorted(ast.unparse(h.type) for h in exit_2) == ["InvalidConfig", "OSError"]
    assert not hasattr(cli, "ResourceLimit")


def test_polar_is_taken_only_while_loading():
    # the split, psi and the limit law are pure functions of the config: load_config takes
    # each once, and the verbs read cfg.polar, cfg.psi and cfg.limit
    tree = ast.parse((REPO / "src" / "qwalk1d" / "cli.py").read_text())
    derived = ["polar", "psi_from_phi", "lambda_phi", "LimitDensity"]
    callers = {
        name: [
            getattr(top, "name", None)
            for top in tree.body
            for node in ast.walk(top)
            if isinstance(node, ast.Call) and ast.unparse(node.func).rpartition(".")[2] == name
        ]
        for name in derived
    }
    assert callers == {name: ["load_config"] for name in derived}
    assert not hasattr(cli, "_limit_setup")


def test_algebra_check_has_no_matmul():
    # a stacked complex @ dispatches once per 2 x 2 mode; algebra_check._mul does not
    tree = ast.parse((REPO / "src" / "qwalk1d" / "algebra_check.py").read_text())
    assert not any(isinstance(node, ast.MatMult) for node in ast.walk(tree))


def test_import_does_not_load_numpy_polynomial():
    code = "import sys, qwalk1d; print('numpy.polynomial' in sys.modules)"
    src = str(Path(qwalk1d.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
