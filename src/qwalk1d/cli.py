"""Command-line harness wiring the modules into reproducible experiments.

Verbs: ``simulate`` (direct vs closed-form distributions), ``limit``
(Kolmogorov distance of the rescaled distribution to the limit CDF),
``charfn`` (characteristic-function convergence), ``algebra`` (operator
identity residuals), ``asym`` (contour-integral convergence).  Every command
is deterministic given its config, writes CSV/JSON outputs atomically, and
exits 0 only when its numeric checks pass (1 on a failed check, 2 on an
invalid config).

Convergence thresholds are pinned: each was produced by a one-time oracle
run recorded in the repository, is stored in the default config, and is
asserted with a 1.1 safety factor.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import cheb_engine, direct_walk, limit_law
from .algebra_check import RelationReport, build_rep, verify_relations
from .coin import CoinMatrix, PolarParams, _check_unit, check_polar, make_coin, polar, psi_from_phi
from .errors import (
    DegenerateCoin,
    InvalidConfig,
    NormViolation,
    ParamViolation,
    PathMismatch,
    QuadratureFailure,
    QWalkError,
    RelationFailure,
    ResourceLimit,
)

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2

# build_rep and verify_relations hold about 19 dense 2N x 2N complex matrices
# at once: peak RSS is about 31 MB + 1.2 KB * N^2, so about 345 MB at this bound.
MAX_ALGEBRA_N = 512

# Verb name -> help text; ``main`` runs the module's ``cmd_<verb>``.
VERBS = {
    "simulate": "direct vs closed-form distributions per step count",
    "limit": "Kolmogorov distance of the rescaled law to the limit CDF",
    "charfn": "characteristic-function convergence to its limit",
    "algebra": "operator identity residuals on a cyclic lattice",
    "asym": "contour-integral convergence to closed limits",
}

# Tolerance defaults; a pinned threshold has none and is None when omitted.
TOL_DEFAULTS = {
    "simulate_gap": 1e-10,
    "algebra": 1e-12,
    "kolmogorov_pinned": None,
    "charfn_pinned": None,
    "asym_pinned": None,
    "parity_zero": 1e-10,
    "safety_factor": 1.1,
}


@dataclass
class ExperimentConfig:
    """Parsed and validated experiment description; every number is finite.

    ``algebra`` maps ``N`` and ``seed`` to ints and ``alpha``/``beta`` to a
    complex or None; ``asym`` maps ``ks`` to a list of ints, ``xis`` to a list
    of floats and ``n_grid`` to a list of ints; ``tol`` maps every key of
    :data:`TOL_DEFAULTS` to a float, or to None for an omitted pinned value.
    """

    coin: CoinMatrix
    phi: np.ndarray
    steps: list[int]
    n_grid: list[int]
    xi_grid: list[float]
    algebra: dict
    asym: dict
    tol: dict
    max_n: int


def _number(value, name: str) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an int beyond the float range
            pass
    raise InvalidConfig(f"{name} must be a finite number, got {value!r}")


def _integer(value, name: str, low: int | None = None, high: int | None = None) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        if (low is None or value >= low) and (high is None or value <= high):
            return value
    bound = "" if low is None else f" >= {low}"
    bound += "" if high is None else f" and <= {high}"
    raise InvalidConfig(f"{name} must be an integer{bound}, got {value!r}")


def _complex(pair, name: str) -> complex:
    if not isinstance(pair, list) or len(pair) != 2:
        raise InvalidConfig(f"{name} must be a [re, im] pair, got {pair!r}")
    return complex(_number(pair[0], f"{name}.re"), _number(pair[1], f"{name}.im"))


def _object(raw: dict, key: str) -> dict:
    value = raw.get(key, {})
    if not isinstance(value, dict):
        raise InvalidConfig(f"{key} must be a JSON object, got {value!r}")
    return value


def _list(values, name: str, parse) -> list:
    if not isinstance(values, list) or not values:
        raise InvalidConfig(f"{name} must be a non-empty list")
    return [parse(v, f"{name}[{i}]") for i, v in enumerate(values)]


def _grid(values, name: str, low: int) -> list[int]:
    out = _list(values, name, lambda v, where: _integer(v, where, low))
    if any(b <= a for a, b in zip(out, out[1:])):
        raise InvalidConfig(f"{name} must be strictly increasing")
    return out


def load_config(path: str | None) -> ExperimentConfig:
    """Load a JSON config, or the packaged default when path is None.

    The only place config values are parsed: every field comes back typed
    and finite, and anything malformed raises :class:`InvalidConfig`.
    """
    try:
        if path is None:
            text = resources.files("qwalk1d").joinpath("data/default_config.json").read_text()
        else:
            text = Path(path).read_text()
        raw = json.loads(text)
    except OSError as exc:
        raise InvalidConfig(f"cannot read config: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise InvalidConfig(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InvalidConfig(f"config must be a JSON object, got {type(raw).__name__}")
    if raw.get("schema_version") != 1:
        raise InvalidConfig(f"unsupported schema_version {raw.get('schema_version')!r}")
    coin_raw = _object(raw, "coin")
    try:
        coin = make_coin(
            _complex(coin_raw.get("a"), "coin.a"), _complex(coin_raw.get("b"), "coin.b")
        )
    except NormViolation as exc:
        raise InvalidConfig(f"coin failed validation: {exc}") from exc
    phi_raw = raw.get("phi")
    if not isinstance(phi_raw, list) or len(phi_raw) != 2:
        raise InvalidConfig("phi must be a list of two [re, im] pairs")
    phi = np.array([_complex(phi_raw[0], "phi[0]"), _complex(phi_raw[1], "phi[1]")])
    try:
        _check_unit(phi)
    except NormViolation as exc:
        raise InvalidConfig(f"phi failed validation: {exc}") from exc
    xi_grid = _list(raw.get("xi_grid", [0.5, 1.0, 2.0]), "xi_grid", _number)
    if not any(xi_grid):
        raise InvalidConfig("xi_grid needs a non-zero entry: at xi = 0 every gap is 0")
    alg = _object(raw, "algebra")
    asym = _object(raw, "asym")
    tol_raw = _object(raw, "tol")
    tol = {}
    for key, default in TOL_DEFAULTS.items():
        value = tol_raw.get(key, default)
        tol[key] = None if value is None and default is None else _number(value, f"tol.{key}")
    return ExperimentConfig(
        coin=coin,
        phi=phi,
        steps=_grid(raw.get("steps", [1, 2, 3]), "steps", 0),
        n_grid=_grid(raw.get("n_grid", [125, 250, 500, 1000, 2000]), "n_grid", 1),
        xi_grid=xi_grid,
        algebra={
            "N": _integer(alg.get("N", 16), "algebra.N", 3, MAX_ALGEBRA_N),
            "alpha": None if alg.get("alpha") is None else _complex(alg["alpha"], "algebra.alpha"),
            "beta": None if alg.get("beta") is None else _complex(alg["beta"], "algebra.beta"),
            "seed": _integer(alg.get("seed", 0), "algebra.seed", 0),
        },
        asym={
            "ks": _list(asym.get("ks", [0, 1, 2]), "asym.ks", _integer),
            "xis": _list(asym.get("xis", [0.0, 1.0]), "asym.xis", _number),
            "n_grid": _grid(asym.get("n_grid", [200, 2000]), "asym.n_grid", 1),
        },
        tol=tol,
        max_n=_integer(raw.get("max_n", direct_walk.DEFAULT_MAX_STEPS), "max_n", 0),
    )


def _require_within_max(cfg: ExperimentConfig, ns: list[int], what: str = "n") -> None:
    if max(ns) > cfg.max_n:
        raise InvalidConfig(f"requested {what} = {max(ns)} exceeds max_n = {cfg.max_n}")


def atomic_write(path: Path, text: str) -> None:
    """Write via a temp file in the same directory plus rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: Path, header: str, rows) -> None:
    """Write the rows as CSV, atomically."""
    atomic_write(path, direct_walk._csv_text(header, zip(*rows)))


def _polar(cfg: ExperimentConfig, what: str) -> PolarParams:
    """The coin's polar parameters; for ``what``, a degenerate coin is a config error."""
    try:
        return polar(cfg.coin)
    except DegenerateCoin as exc:
        raise InvalidConfig(f"{what} needs a, b != 0: {exc}") from exc


def _threshold(cfg: ExperimentConfig, key: str, override: float | None) -> float:
    """The --tol override, else the pinned ``tol.<key>`` times the safety factor."""
    if override is not None:
        return override
    if cfg.tol[key] is None:
        raise InvalidConfig(f"tol.{key} missing from config")
    return cfg.tol[key] * cfg.tol["safety_factor"]


def cmd_simulate(cfg: ExperimentConfig, out_dir: Path, override: float | None = None) -> int:
    """Direct and closed-form distributions per step count, plus their gap."""
    gap_tol = cfg.tol["simulate_gap"] if override is None else override
    _require_within_max(cfg, cfg.steps)
    pol = _polar(cfg, "simulate")
    psi = psi_from_phi(cfg.phi, pol)
    rows = []
    failed_n = None
    for n, st in direct_walk.evolve_snapshots(cfg.phi, cfg.coin, cfg.steps, cfg.max_n):
        d = direct_walk.distribution(st)
        atomic_write(out_dir / f"direct_n{n}.csv", direct_walk.distribution_to_csv(d))
        q = cheb_engine.qn_distribution(psi, n, pol.s, pol.t)
        atomic_write(out_dir / f"cheb_n{n}.csv", direct_walk.distribution_to_csv(q))
        if q.offset != d.offset or q.probs.shape != d.probs.shape:
            raise PathMismatch(
                f"n = {n}: direct window starts at {d.offset} with {d.probs.size} sites, "
                f"closed form at {q.offset} with {q.probs.size}"
            )
        gap = float(np.max(np.abs(d.probs - q.probs)))
        rows.append((n, gap))
        ok = gap < gap_tol
        print(f"simulate n={n}: max |direct - cheb| = {gap:.3e} [{'ok' if ok else 'FAIL'}]")
        if not ok and failed_n is None:
            failed_n = n
    _write_csv(out_dir / "gaps.csv", "n,max_abs_gap", rows)
    if failed_n is not None:
        print(f"simulate: first failing n = {failed_n}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_PASS


def cmd_limit(cfg: ExperimentConfig, out_dir: Path, override: float | None = None) -> int:
    """Kolmogorov distance between the rescaled distribution and the limit CDF."""
    threshold = _threshold(cfg, "kolmogorov_pinned", override)
    _require_within_max(cfg, cfg.n_grid)
    pol = _polar(cfg, "limit law")
    ld = limit_law.LimitDensity(pol.s, pol.t, limit_law.lambda_phi(cfg.phi, cfg.coin))
    rows = []
    for n, st in direct_walk.evolve_snapshots(cfg.phi, cfg.coin, cfg.n_grid, cfg.max_n):
        rows.append((n, limit_law.kolmogorov_distance(direct_walk.distribution(st), ld, n)))
        print(f"limit n={n}: D_n = {rows[-1][1]:.6g}")
    _write_csv(out_dir / "kolmogorov.csv", "n,Dn", rows)
    ys = np.linspace(-pol.s, pol.s, 401)
    atomic_write(out_dir / "density_cdf.csv", limit_law.density_cdf_csv(ld, ys))
    final_n, final_d = rows[-1]
    if not final_d < threshold:
        print(
            f"limit: D_{final_n} = {final_d:.17g} exceeds threshold {threshold:.17g}",
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILED
    return EXIT_PASS


def cmd_charfn(cfg: ExperimentConfig, out_dir: Path, override: float | None = None) -> int:
    """Gap between the finite-n characteristic function at xi/n and its limit."""
    threshold = _threshold(cfg, "charfn_pinned", override)
    _require_within_max(cfg, cfg.n_grid)
    pol = _polar(cfg, "charfn")
    psi = psi_from_phi(cfg.phi, pol)
    ld = limit_law.LimitDensity(pol.s, pol.t, limit_law.lambda_phi(cfg.phi, cfg.coin))
    limits = {xi: limit_law.limit_char_fn(ld, xi) for xi in cfg.xi_grid}
    rows = []
    for n in cfg.n_grid:
        gaps = []
        for xi in cfg.xi_grid:
            _, _, _, e_n = cheb_engine.char_fn_components(psi, n, pol.s, pol.t, xi / n)
            lim = limits[xi]
            gaps.append(abs(e_n - lim))
            rows.append((n, xi, e_n.real, e_n.imag, lim.real, lim.imag, gaps[-1]))
        row_max = float(np.max(gaps))  # unlike max(), np.max keeps a NaN
        print(f"charfn n={n}: max gap over xi grid = {row_max:.3e}")
    _write_csv(out_dir / "charfn.csv", "n,xi,re_en,im_en,re_limit,im_limit,gap", rows)
    if not row_max < threshold:
        print(
            f"charfn: largest-n row max {row_max:.17g} exceeds threshold {threshold:.17g}",
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILED
    return EXIT_PASS


def cmd_algebra(cfg: ExperimentConfig, out_dir: Path, override: float | None = None) -> int:
    """Operator identity residuals on the cyclic representation, as JSON."""
    resid_tol = cfg.tol["algebra"] if override is None else override
    alg = cfg.algebra
    rng = np.random.default_rng(alg["seed"])
    alpha = alg["alpha"] if alg["alpha"] is not None else complex(np.exp(2j * np.pi * rng.random()))
    beta = alg["beta"] if alg["beta"] is not None else complex(np.exp(2j * np.pi * rng.random()))
    try:
        pol = polar(cfg.coin)
        check_polar(pol.s, pol.t)
        s_val, t_val = pol.s, pol.t
    except (DegenerateCoin, ParamViolation):
        # the moduli enter only the two scaled identities; check them at the Hadamard values
        s_val = t_val = math.sqrt(0.5)
    rep = build_rep(alg["N"], alpha, beta)
    try:
        report = verify_relations(rep, tol=resid_tol, s=s_val, t=t_val)
    except RelationFailure as exc:
        atomic_write(out_dir / "relation_report.json", RelationReport(exc.report).to_json())
        print("algebra: FAILED identities: " + ", ".join(exc.failing), file=sys.stderr)
        return EXIT_CHECK_FAILED
    atomic_write(out_dir / "relation_report.json", report.to_json())
    print(
        f"algebra N={alg['N']}: all {len(report.residuals)} identities pass "
        f"(max residual {report.max_residual():.3e})"
    )
    return EXIT_PASS


def cmd_asym(cfg: ExperimentConfig, out_dir: Path, override: float | None = None) -> int:
    """Finite-n contour integrals vs their limits over the n grid."""
    threshold = _threshold(cfg, "asym_pinned", override)
    ks, xis, n_grid = cfg.asym["ks"], cfg.asym["xis"], cfg.asym["n_grid"]
    # the circle rule takes 2n + |k| + 16 nodes
    _require_within_max(cfg, n_grid)
    _require_within_max(cfg, [abs(k) for k in ks], "|k|")
    s = _polar(cfg, "asym").s
    try:
        limits = {(k, xi): limit_law.asym_limits(k, xi, s) for k in ks for xi in xis}
    except QuadratureFailure as exc:
        print(f"asym: quadrature failed (s={s!r}): {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    rows, final_gaps, vanishing = [], [], []
    for n, k, xi in itertools.product(n_grid, ks, xis):
        fin = limit_law.asym_integrals(n, k, xi, s)
        gaps = [abs(f - l) for f, l in zip(fin, limits[(k, xi)])]
        if n == n_grid[-1]:
            final_gaps.extend(gaps)
        vanishing.extend(abs(v) for v in ((fin[0], fin[3]) if k % 2 else (fin[1], fin[2])))
        rows.append((n, k, xi, *(v for f in fin for v in (f.real, f.imag)), *gaps))
    _write_csv(out_dir / "asym.csv", "n,k,xi,reA,imA,reB,imB,reC,imC,reD,imD,gapA,gapB,gapC,gapD", rows)
    final_max_gap = float(np.max(final_gaps))
    print(f"asym: max gap at n={n_grid[-1]} is {final_max_gap:.3e} (threshold {threshold:.3e})")
    if not np.max(vanishing) < cfg.tol["parity_zero"]:
        print("asym: parity-vanishing columns exceed tolerance", file=sys.stderr)
        return EXIT_CHECK_FAILED
    if not final_max_gap < threshold:
        print(
            f"asym: gap {final_max_gap:.17g} at n={n_grid[-1]} exceeds {threshold:.17g}",
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILED
    return EXIT_PASS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwalk1d",
        description="quantum-walk distribution experiments with pass/fail exit codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in VERBS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON config path (default: packaged config)")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        p.add_argument(
            "--tol",
            type=float,
            default=None,
            help="override the command's pass tolerance/threshold",
        )
        p.add_argument("--max-n", type=int, default=None, help="override config max_n")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.max_n is not None:
            if args.max_n < 0:
                raise InvalidConfig(f"--max-n must be non-negative, got {args.max_n}")
            cfg.max_n = args.max_n
        if args.tol is not None and not math.isfinite(args.tol):
            raise InvalidConfig(f"--tol must be finite, got {args.tol}")
        # looked up at call time, so a cmd_<verb> swapped into the module is the one run
        verb = globals()[f"cmd_{args.command}"]
        code = verb(cfg, Path(args.out), args.tol)
    except (InvalidConfig, NormViolation, ParamViolation, ResourceLimit) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except QWalkError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except OSError as exc:
        print(f"invalid config: cannot write output: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    return code


if __name__ == "__main__":
    sys.exit(main())
