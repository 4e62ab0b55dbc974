"""The package's public names."""

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
