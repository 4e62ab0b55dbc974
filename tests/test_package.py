"""The package's public names."""

import os
import subprocess
import sys
from pathlib import Path

import qwalk1d


def test_every_public_name_resolves():
    for name in qwalk1d.__all__:
        assert getattr(qwalk1d, name) is not None, name


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
    # the quadrature side folds both factors in one buffer; the tests' Horner sum is its oracle
    assert not hasattr(qwalk1d.cheb_engine, "_fold")


def test_import_does_not_load_numpy_polynomial():
    code = "import sys, qwalk1d; print('numpy.polynomial' in sys.modules)"
    src = str(Path(qwalk1d.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
