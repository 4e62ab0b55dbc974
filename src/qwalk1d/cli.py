"""Command-line harness wiring the modules into reproducible experiments.

Verbs: ``simulate`` (direct vs closed-form distributions), ``limit``
(Kolmogorov distance of the rescaled distribution to the limit CDF),
``charfn`` (characteristic-function convergence), ``algebra`` (operator
identity residuals), ``asym`` (contour-integral convergence).  Every command
is deterministic given its config, writes CSV/JSON outputs atomically, and
returns its numeric checks (:class:`Check`) in the order it judged them.
``main`` alone turns them into an exit code: 0 when every check passes, 1
with the first failing check's message as the one stderr line, and 2 on an
invalid config.

Convergence thresholds are pinned: each was produced by a one-time oracle
run recorded in the repository, is stored in the default config, and is
asserted with a 1.1 safety factor.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import cheb_engine, direct_walk, limit_law
from .algebra_check import RelationReport, build_rep, verify_relations
from .coin import INPUT_NORM_TOL, CoinMatrix, PolarParams, _check_unit, make_coin, polar, psi_from_phi
from .errors import (
    DegenerateCoin,
    InvalidConfig,
    NormViolation,
    ParamViolation,
    PathMismatch,
    QWalkError,
    RelationFailure,
)

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2

# build_rep and verify_relations hold about 19 operators as 2 x 2 complex
# Fourier symbols over N modes at once: about 1.15 KB * N (tracemalloc peak),
# so 72 MiB and about 0.5 s at this bound (2 vCPUs, numpy 2.4).
MAX_ALGEBRA_N = 65536

# Bound on the config's max_n, the largest n any verb computes.
# The closed form holds O(n) floats: one Q_n at this bound takes about 0.9 s
# and 153 MiB (tracemalloc peak), where n = 10**9 would ask for about 100 GB.
MAX_N = 10**6

# Verb name -> help text; ``main`` runs the module's ``cmd_<verb>``.
VERBS = {
    "simulate": "direct vs closed-form distributions per step count",
    "limit": "Kolmogorov distance of the rescaled law to the limit CDF",
    "charfn": "characteristic-function convergence to its limit",
    "algebra": "operator identity residuals on a cyclic lattice",
    "asym": "contour-integral convergence to closed limits",
}

# The seven tol.* keys; every one is a required finite number.
TOL_KEYS = (
    "simulate_gap",
    "algebra",
    "kolmogorov_pinned",
    "charfn_pinned",
    "asym_pinned",
    "parity_zero",
    "safety_factor",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed and validated experiment description; every number is finite.

    ``polar`` is the coin's split a = s alpha, b = t beta, which passes
    :func:`qwalk1d.coin.check_polar`.  ``psi`` is phi's algebra-basis twin,
    a unit vector within 1e-10, and ``limit`` the weak-limit law of phi and
    the coin.  ``algebra`` maps ``N`` and ``seed`` to ints and
    ``alpha``/``beta`` to a unit-modulus complex, or to None to draw it from
    the seed; ``asym`` maps ``ks`` to a list of ints, ``xis`` to a list of
    floats and ``n_grid`` to a list of ints; ``tol`` maps every key of
    :data:`TOL_KEYS` to a float.  Every n in ``steps``, ``n_grid``
    and ``asym["n_grid"]``, and every |k| in ``asym["ks"]``, is at most
    ``max_n``.
    """

    coin: CoinMatrix
    polar: PolarParams
    phi: np.ndarray
    psi: np.ndarray
    limit: limit_law.LimitDensity
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


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise InvalidConfig(f"{name} must be a JSON object, got {value!r}")
    return value


def _field(raw: dict, key: str, parse, *args):
    """The required field at the dotted ``key``, as ``parse(value, key, *args)``."""
    parent, _, leaf = key.rpartition(".")
    node = _field(raw, parent, _object) if parent else raw
    if leaf not in node:
        raise InvalidConfig(f"{key} missing from config")
    return parse(node[leaf], key, *args)


def _phase(value, name: str) -> complex | None:
    """A unit [re, im] phase, or None for a JSON null: draw it from algebra.seed."""
    phase = None if value is None else _complex(value, name)
    if phase is not None and not abs(abs(phase) - 1.0) <= INPUT_NORM_TOL:
        raise InvalidConfig(f"{name} must have unit modulus, got |{name}| = {abs(phase)!r}")
    return phase


def _list(values, name: str, parse) -> list:
    if not isinstance(values, list) or not values:
        raise InvalidConfig(f"{name} must be a non-empty list")
    return [parse(v, f"{name}[{i}]") for i, v in enumerate(values)]


def _grid(values, name: str, low: int, high: int) -> list[int]:
    out = _list(values, name, lambda v, where: _integer(v, where, low, high))
    if any(b <= a for a, b in zip(out, out[1:])):
        raise InvalidConfig(f"{name} must be strictly increasing")
    return out


def _reject_unread(node: dict, read: set[str], prefix: str = "") -> None:
    """Raise :class:`InvalidConfig` naming the first key of ``node`` that no field read.

    Keys at every level count.  ``read`` holds the dotted keys of every
    parsed field; a key that only heads some of them is a JSON object once
    they have parsed, and is walked in turn.  No field's name holds a dot.
    """
    for key, value in node.items():
        dotted = prefix + key
        parent = any(r.startswith(dotted + ".") for r in read)
        if "." in key or not (parent or dotted in read):
            raise InvalidConfig(f"{dotted} is not a config field")
        if parent:
            _reject_unread(value, read, dotted + ".")


def load_config(path: str | None) -> ExperimentConfig:
    """Load a JSON config, or the packaged default when path is None.

    The only place config values are parsed and :class:`InvalidConfig` is
    raised.  Every field is required (the parser holds no defaults), comes
    back typed and finite, and every n and |k| is at most ``max_n``.  The
    coin's ``polar`` split is taken here, so a coin without one (a or b
    zero, or s or t rounding to 0 or 1) is rejected.  So are phi's
    algebra-basis twin ``psi`` and its ``limit`` law, so a phi whose psi is
    not a unit vector within 1e-10, or whose lambda exceeds 1/s, is
    rejected too.  A key that is not a field, at any level, is rejected
    once every field has parsed, so a missing field reports first.  Once a
    config loads, no verb rejects it.
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
    read: set[str] = set()

    def field(key: str, parse, *args):
        read.add(key)
        return _field(raw, key, parse, *args)

    version = field("schema_version", _integer)  # rejects JSON true and 1.0
    if version != 1:
        raise InvalidConfig(f"unsupported schema_version {version}")
    max_n = field("max_n", _integer, 0, MAX_N)
    try:
        coin = make_coin(field("coin.a", _complex), field("coin.b", _complex))
        pol = polar(coin)
    except (NormViolation, DegenerateCoin, ParamViolation) as exc:
        raise InvalidConfig(f"coin failed validation: {exc}") from exc
    phi = np.array(field("phi", _list, _complex))
    if phi.shape != (2,):
        raise InvalidConfig("phi must be a list of two [re, im] pairs")
    try:
        psi = psi_from_phi(phi, pol)  # checks phi itself first
        _check_unit(psi)
        limit = limit_law.LimitDensity(pol.s, pol.t, limit_law.lambda_phi(phi, coin))
    except (NormViolation, ParamViolation) as exc:
        raise InvalidConfig(f"phi failed validation: {exc}") from exc
    xi_grid = field("xi_grid", _list, _number)
    if not any(xi_grid):
        raise InvalidConfig("xi_grid needs a non-zero entry: at xi = 0 every gap is 0")
    cfg = ExperimentConfig(
        coin=coin,
        polar=pol,
        phi=phi,
        psi=psi,
        limit=limit,
        steps=field("steps", _grid, 0, max_n),
        n_grid=field("n_grid", _grid, 1, max_n),
        xi_grid=xi_grid,
        algebra={
            "N": field("algebra.N", _integer, 3, MAX_ALGEBRA_N),
            "alpha": field("algebra.alpha", _phase),
            "beta": field("algebra.beta", _phase),
            "seed": field("algebra.seed", _integer, 0),
        },
        # the circle rule takes cheb_engine._node_count(2n + max|k|) nodes
        asym={
            "ks": field("asym.ks", _list, lambda v, where: _integer(v, where, -max_n, max_n)),
            "xis": field("asym.xis", _list, _number),
            "n_grid": field("asym.n_grid", _grid, 1, max_n),
        },
        tol={key: field(f"tol.{key}", _number) for key in TOL_KEYS},
        max_n=max_n,
    )
    _reject_unread(raw, read)
    return cfg


def atomic_write(path: Path, text: str) -> None:
    """Write via a temp file in the same directory plus rename.

    The temp file is opened with mode 0o666 and the kernel applies the
    umask, so the file gets the mode a new file from ``open(path, "w")``
    would get.  The process umask is never changed, not even for a moment,
    so concurrent writers in other threads are unaffected.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_csv(path: Path, header: str, rows) -> None:
    """Write the rows as CSV, atomically."""
    atomic_write(path, direct_walk._csv_text(header, zip(*rows)))


def _threshold(cfg: ExperimentConfig, key: str) -> float:
    """The pinned ``tol.<key>`` times the safety factor."""
    return cfg.tol[key] * cfg.tol["safety_factor"]


@dataclass(frozen=True)
class Check:
    """One numeric verdict of a verb: ``value`` judged against ``bound``.

    ``passed`` is the verb's own comparison: strict ``<`` for every gap,
    D_n, char-fn and parity check, ``<=`` for the algebra residuals, so a
    NaN never passes.  ``message`` is the stderr line ``main`` prints when
    this is the first failing check of the run.
    """

    name: str
    value: float
    bound: float
    passed: bool
    message: str


def cmd_simulate(cfg: ExperimentConfig, out_dir: Path) -> list[Check]:
    """Direct and closed-form distributions per step count, plus their gap."""
    tol = cfg.tol["simulate_gap"]
    rows, checks = [], []
    for n, st in direct_walk.evolve_snapshots(cfg.phi, cfg.coin, cfg.steps, cfg.max_n):
        d = direct_walk.distribution(st)
        atomic_write(out_dir / f"direct_n{n}.csv", direct_walk.distribution_to_csv(d))
        q = cheb_engine.qn_distribution(cfg.psi, n, cfg.polar.s, cfg.polar.t)
        atomic_write(out_dir / f"cheb_n{n}.csv", direct_walk.distribution_to_csv(q))
        if q.offset != d.offset or q.probs.shape != d.probs.shape:
            raise PathMismatch(
                f"n = {n}: direct window starts at {d.offset} with {d.probs.size} sites, "
                f"closed form at {q.offset} with {q.probs.size}"
            )
        gap = float(np.max(np.abs(d.probs - q.probs)))
        rows.append((n, gap))
        checks.append(Check(f"gap[n={n}]", gap, tol, gap < tol, f"simulate: first failing n = {n}"))
        print(f"simulate n={n}: max |direct - cheb| = {gap:.3e} [{'ok' if checks[-1].passed else 'FAIL'}]")
    _write_csv(out_dir / "gaps.csv", "n,max_abs_gap", rows)
    return checks


def cmd_limit(cfg: ExperimentConfig, out_dir: Path) -> list[Check]:
    """Kolmogorov distance between the rescaled distribution and the limit CDF.

    Each distribution comes from the closed form in O(n log n), not from
    direct evolution, so n up to ``max_n`` is in reach.
    """
    threshold = _threshold(cfg, "kolmogorov_pinned")
    rows = []
    for n in cfg.n_grid:
        q = cheb_engine.qn_distribution(cfg.psi, n, cfg.polar.s, cfg.polar.t)
        rows.append((n, limit_law.kolmogorov_distance(q, cfg.limit, n)))
        print(f"limit n={n}: D_n = {rows[-1][1]:.6g}")
    _write_csv(out_dir / "kolmogorov.csv", "n,Dn", rows)
    ys = np.linspace(-cfg.polar.s, cfg.polar.s, 401)
    atomic_write(out_dir / "density_cdf.csv", limit_law.density_cdf_csv(cfg.limit, ys))
    final_n, final_d = rows[-1]
    message = f"limit: D_{final_n} = {final_d:.17g} exceeds threshold {threshold:.17g}"
    return [Check(f"D_n[n={final_n}]", final_d, threshold, final_d < threshold, message)]


def cmd_charfn(cfg: ExperimentConfig, out_dir: Path) -> list[Check]:
    """Gap between the finite-n characteristic function at xi/n and its limit."""
    threshold = _threshold(cfg, "charfn_pinned")
    limits = {xi: limit_law.limit_char_fn(cfg.limit, xi) for xi in cfg.xi_grid}
    rows = []
    for n in cfg.n_grid:
        grid = cheb_engine.char_fn_grid(cfg.psi, n, cfg.polar.s, cfg.polar.t, [xi / n for xi in cfg.xi_grid])
        gaps = []
        for xi, e_n in zip(cfg.xi_grid, grid[:, 3]):
            lim = limits[xi]
            gaps.append(abs(e_n - lim))
            rows.append((n, xi, e_n.real, e_n.imag, lim.real, lim.imag, gaps[-1]))
        row_max = float(np.max(gaps))  # unlike max(), np.max keeps a NaN
        print(f"charfn n={n}: max gap over xi grid = {row_max:.3e}")
    _write_csv(out_dir / "charfn.csv", "n,xi,re_en,im_en,re_limit,im_limit,gap", rows)
    message = f"charfn: largest-n row max {row_max:.17g} exceeds threshold {threshold:.17g}"
    return [Check(f"row_max[n={cfg.n_grid[-1]}]", row_max, threshold, row_max < threshold, message)]


def cmd_algebra(cfg: ExperimentConfig, out_dir: Path) -> list[Check]:
    """Operator identity residuals on the cyclic representation, as JSON."""
    alg = cfg.algebra
    rng = np.random.default_rng(alg["seed"])
    alpha = alg["alpha"] if alg["alpha"] is not None else complex(np.exp(2j * np.pi * rng.random()))
    beta = alg["beta"] if alg["beta"] is not None else complex(np.exp(2j * np.pi * rng.random()))
    rep = build_rep(alg["N"], alpha, beta)
    failing = {}
    try:
        report = verify_relations(rep, tol=cfg.tol["algebra"], s=cfg.polar.s, t=cfg.polar.t)
    except RelationFailure as exc:
        report, failing = RelationReport(exc.report), exc.failing
    atomic_write(out_dir / "relation_report.json", report.to_json())
    if not failing:
        print(
            f"algebra N={alg['N']}: all {len(report.residuals)} identities pass "
            f"(max residual {report.max_residual():.3e})"
        )
    message = "algebra: FAILED identities: " + ", ".join(failing)
    return [Check("max_residual", report.max_residual(), cfg.tol["algebra"], not failing, message)]


def cmd_asym(cfg: ExperimentConfig, out_dir: Path) -> list[Check]:
    """Finite-n contour integrals vs their limits over the n grid."""
    threshold = _threshold(cfg, "asym_pinned")
    ks, xis, n_grid = cfg.asym["ks"], cfg.asym["xis"], cfg.asym["n_grid"]
    limits = {(k, xi): limit_law.asym_limits(k, xi, cfg.polar.s) for k in ks for xi in xis}
    # The vanishing entries carry roundoff on the scale of U_{n-1}^2, so each
    # n holds them to parity_zero * max(1, mean(U_{n-1}^2)).  That mean is the
    # D entry at k = 0, xi = 0, which leads every grid; a repeated shift 0
    # shares its column, and k = 0 leaves max|k| as it is.
    rows, final_gaps, checks = [], [], []
    for n in n_grid:
        grid = limit_law.asym_grid(n, [0, *ks], [0.0, *xis], cfg.polar.s)
        bound = cfg.tol["parity_zero"] * max(1.0, float(grid[0, 0, 3].real))
        vanishing = []
        for (a, k), (b, xi) in itertools.product(enumerate(ks), enumerate(xis)):
            fin = grid[a + 1, b + 1]
            gaps = [abs(f - l) for f, l in zip(fin, limits[(k, xi)])]
            if n == n_grid[-1]:
                final_gaps.extend(gaps)
            vanishing.extend(abs(v) for v in ((fin[0], fin[3]) if k % 2 else (fin[1], fin[2])))
            rows.append((n, k, xi, *(v for f in fin for v in (f.real, f.imag)), *gaps))
        worst = float(np.max(vanishing))
        message = "asym: parity-vanishing columns exceed tolerance"
        checks.append(Check(f"parity[n={n}]", worst, bound, worst < bound, message))
    _write_csv(out_dir / "asym.csv", "n,k,xi,reA,imA,reB,imB,reC,imC,reD,imD,gapA,gapB,gapC,gapD", rows)
    final_max_gap = float(np.max(final_gaps))
    print(f"asym: max gap at n={n_grid[-1]} is {final_max_gap:.3e} (threshold {threshold:.3e})")
    message = f"asym: gap {final_max_gap:.17g} at n={n_grid[-1]} exceeds {threshold:.17g}"
    checks.append(Check(f"gap[n={n_grid[-1]}]", final_max_gap, threshold, final_max_gap < threshold, message))
    return checks


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every ``main`` after it."""
    parser = argparse.ArgumentParser(
        prog="qwalk1d",
        description="quantum-walk distribution experiments with pass/fail exit codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in VERBS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON config path (default: packaged config)")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        # looked up at call time, so a cmd_<verb> swapped into the module is the one run
        verb = globals()[f"cmd_{args.command}"]
        checks = verb(cfg, Path(args.out))
    except InvalidConfig as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except QWalkError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except OSError as exc:
        print(f"invalid config: cannot write output: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    failed = next((check for check in checks if not check.passed), None)
    if failed is None:
        return EXIT_PASS
    print(failed.message, file=sys.stderr)
    return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
