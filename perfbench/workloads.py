"""The benchmark's workloads: configs from a seed, tasks, and output checks.

A task is one verb invocation through ``qwalk1d.cli.main`` (in-process, with
its stdout and stderr captured, writing into the output directory it is
given) or one block of library checks.  Every task
reads its results back and raises :class:`CheckFailed` when they are wrong,
incomplete or vacuous; a verb exit code other than 0 is a failure too.  Each
task also returns numeric-health values (gaps, residuals and their margins to
the pass thresholds) read from the verbs' own outputs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable

import numpy as np

from qwalk1d import cheb_engine, cli, direct_walk

ROOT = Path(__file__).resolve().parent.parent
HADAMARD_RIGHT = ROOT / "configs" / "hadamard_right.json"

# simulate configs in weak_limit.  Each writes 402 CSV files, and file
# creation cost drifts with earlier deletions (README.md, Steadiness).
DUAL_PATH_CONFIGS = 1
DUAL_PATH_STEPS = list(range(201))
# The shipped grid, continued geometrically (ratio sqrt 3) to n = 6000.
WEAK_LIMIT_N_GRID = [125, 250, 500, 1000, 2000, 3464, 6000]
ASYM_N_GRID = [500, 1000, 2000, 4000, 8000]
ALGEBRA_NS = [64, 96, 128]
CONVOLUTION_NS = list(range(2, 61, 2))
CONVOLUTION_POINTS = 6
CONVOLUTION_TOL = 1e-10  # acceptance criterion 7
ALGEBRA_IDENTITIES = 25  # identities that verify_relations reports
R = math.sqrt(0.5)


class CheckFailed(Exception):
    """A task's outputs are wrong, incomplete or vacuous."""


@dataclass
class Outcome:
    failed: int
    health: dict


@dataclass
class Task:
    name: str
    attempted: int
    run: Callable[[Path], Outcome]  # takes the task's output directory


@dataclass
class Workload:
    name: str
    tasks: list[Task]
    # informational health measured once per run, outside the timed rounds
    extra_health: Callable[[], dict] | None = None


def default_config() -> dict:
    text = resources.files("qwalk1d").joinpath("data/default_config.json").read_text()
    return json.loads(text)


def _random_unit2(rng: np.random.Generator) -> list[list[float]]:
    g = rng.normal(size=4)
    v = np.array([complex(g[0], g[1]), complex(g[2], g[3])])
    v /= np.linalg.norm(v)
    return [[z.real, z.imag] for z in v]


def _random_coin(rng: np.random.Generator) -> dict:
    """A seeded coin with |a|, |b| >= 0.01, so the closed form applies."""
    while True:
        (ar, ai), (br, bi) = _random_unit2(rng)
        if min(math.hypot(ar, ai), math.hypot(br, bi)) >= 0.01:
            return {"a": [ar, ai], "b": [br, bi]}


def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _invoke(verb: str, config: Path, out: Path) -> None:
    """Run one verb in-process; a non-zero exit code is a failure."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        code = cli.main([verb, "--config", str(config), "--out", str(out)])
    if code != 0:
        tail = captured.getvalue().strip().splitlines()[-1:]
        raise CheckFailed(f"{verb} {config.name} exited {code}: {' '.join(tail)}")


def _threshold(cfg: dict, key: str) -> float:
    return cfg["tol"][key] * cfg["tol"]["safety_factor"]


def _simulate_task(name: str, path: Path, cfg: dict) -> Task:
    def run(out: Path) -> Outcome:
        _invoke("simulate", path, out)
        rows = _rows(out / "gaps.csv")
        # a degenerate coin skips the closed form and still exits 0
        if [int(r["n"]) for r in rows] != cfg["steps"]:
            raise CheckFailed("gaps.csv does not hold one row per requested step")
        gap = max(float(r["max_abs_gap"]) for r in rows)
        tol = cfg["tol"]["simulate_gap"]
        if not gap < tol:
            raise CheckFailed(f"dual-path gap {gap:.3e} >= {tol:.3e}")
        last = cfg["steps"][-1]
        if not (out / f"cheb_n{last}.csv").is_file():
            raise CheckFailed(f"closed-form output for n={last} missing")
        mass = sum(float(r["prob"]) for r in _rows(out / f"direct_n{last}.csv"))
        return Outcome(0, {
            "dual_path.max_gap": gap,
            "dual_path.gap_margin": gap / tol,
            f"dual_path.direct_mass_dev_n{last}": abs(mass - 1.0),
        })

    return Task(name, 1, run)


def _limit_task(name: str, path: Path, cfg: dict) -> Task:
    def run(out: Path) -> Outcome:
        _invoke("limit", path, out)
        rows = _rows(out / "kolmogorov.csv")
        if [int(r["n"]) for r in rows] != cfg["n_grid"]:
            raise CheckFailed("kolmogorov.csv does not cover the n grid")
        d_n = float(rows[-1]["Dn"])
        threshold = _threshold(cfg, "kolmogorov_pinned")
        # a lattice law never matches the continuous limit exactly: 0 is vacuous
        if not 0.0 < d_n < threshold:
            raise CheckFailed(f"D_n {d_n:.6g} outside (0, {threshold:.6g})")
        cdf_end = float(_rows(out / "density_cdf.csv")[-1]["cdf"])
        if abs(cdf_end - 1.0) > 1e-8:
            raise CheckFailed(f"limit CDF ends at {cdf_end!r}, not 1")
        n = cfg["n_grid"][-1]
        return Outcome(0, {f"{name}.D_{n}": d_n, f"{name}.D_{n}_margin": d_n / threshold})

    return Task(name, 1, run)


def _charfn_task(name: str, path: Path, cfg: dict) -> Task:
    def run(out: Path) -> Outcome:
        _invoke("charfn", path, out)
        rows = _rows(out / "charfn.csv")
        if len(rows) != len(cfg["n_grid"]) * len(cfg["xi_grid"]):
            raise CheckFailed("charfn.csv does not cover the (n, xi) grid")
        n = cfg["n_grid"][-1]
        last = [r for r in rows if int(r["n"]) == n and float(r["xi"]) != 0.0]
        if not last:
            raise CheckFailed(f"no non-zero xi checked at n={n}")
        row_max = max(float(r["gap"]) for r in last)
        threshold = _threshold(cfg, "charfn_pinned")
        if not 0.0 < row_max < threshold:
            raise CheckFailed(f"char-fn row max {row_max:.3e} outside (0, {threshold:.3e})")
        return Outcome(0, {
            f"{name}.row_max_{n}": row_max,
            f"{name}.row_max_{n}_margin": row_max / threshold,
        })

    return Task(name, 1, run)


def _asym_task(name: str, path: Path, cfg: dict) -> Task:
    def run(out: Path) -> Outcome:
        _invoke("asym", path, out)
        rows = _rows(out / "asym.csv")
        a = cfg["asym"]
        if len(rows) != len(a["n_grid"]) * len(a["ks"]) * len(a["xis"]):
            raise CheckFailed("asym.csv does not cover the (n, k, xi) grid")
        if not any(float(r["xi"]) != 0.0 for r in rows):
            raise CheckFailed("no non-zero xi checked")
        parity = 0.0
        final_gap = 0.0
        for r in rows:
            vanishing = "AD" if int(r["k"]) % 2 else "BC"
            parity = max(parity, *(abs(complex(float(r[f"re{c}"]), float(r[f"im{c}"])))
                                   for c in vanishing))
            if int(r["n"]) == a["n_grid"][-1]:
                final_gap = max(final_gap, *(float(r[f"gap{c}"]) for c in "ABCD"))
        threshold = _threshold(cfg, "asym_pinned")
        if not parity < cfg["tol"]["parity_zero"] or not 0.0 < final_gap < threshold:
            raise CheckFailed(f"parity max {parity:.3e}, final gap {final_gap:.3e}")
        return Outcome(0, {
            "asym.parity_max": parity,
            "asym.final_gap_margin": final_gap / threshold,
        })

    return Task(name, 1, run)


def _algebra_task(name: str, path: Path, cfg: dict) -> Task:
    def run(out: Path) -> Outcome:
        _invoke("algebra", path, out)
        residuals = json.loads((out / "relation_report.json").read_text())
        worst = max(residuals.values(), default=math.inf)
        if len(residuals) != ALGEBRA_IDENTITIES or not worst <= cfg["tol"]["algebra"]:
            raise CheckFailed(f"{len(residuals)} identities, max residual {worst:.3e}")
        return Outcome(0, {"algebra.max_residual": worst})

    return Task(name, 1, run)


def _convolution_task(n: int, ws: list[complex]) -> Task:
    """Acceptance 7 at one n: coefficient side vs circle quadrature."""

    def run(_out: Path) -> Outcome:
        quad = cheb_engine.transfer_polys(n, R, R)
        worst = 0.0
        failed = 0
        for poly in (quad.p1, quad.p2, quad.q1, quad.q2):
            for w in ws:
                coef = cheb_engine.cross_series(poly, poly, w)
                side = cheb_engine.cross_series_quadrature(poly, poly, w)
                gap = abs(coef - side)
                worst = max(worst, gap)
                failed += not gap < CONVOLUTION_TOL
        return Outcome(failed, {"convolution.max_gap": worst})

    return Task(f"convolution[n={n}]", 4 * len(ws), run)


def _write_config(work: Path, name: str, cfg: dict) -> tuple[Path, cli.ExperimentConfig]:
    """Write a config and parse it the way every verb does."""
    path = work / f"{name}.json"
    path.write_text(json.dumps(cfg, indent=2))
    return path, cli.load_config(str(path))


def _mass_health(parsed: cli.ExperimentConfig) -> Callable[[], dict]:
    """Direct-evolution mass deviation and norm drift at the largest n."""

    def measure() -> dict:
        n = parsed.n_grid[-1]
        (_, st), = direct_walk.evolve_snapshots(parsed.phi, parsed.coin, [n])
        return {
            f"weak_limit.direct_mass_dev_n{n}": abs(direct_walk.distribution(st).total() - 1.0),
            f"weak_limit.direct_norm_drift_n{n}": abs(st.norm() - 1.0),
        }

    return measure


def setup(name: str, seed: int, work: Path) -> Workload:
    """Build, write and parse the configs of one workload and its tasks."""
    work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    base = default_config()
    tasks: list[Task] = []

    def add(task_name: str, cfg: dict, factory) -> cli.ExperimentConfig:
        path, parsed = _write_config(work, task_name, cfg)
        tasks.append(factory(task_name, path, cfg))
        return parsed

    if name == "weak_limit":
        # The pinned thresholds exist only for these two shipped configs, so
        # the seed changes only the simulate configs, where no pin applies.
        right = json.loads(HADAMARD_RIGHT.read_text())
        parsed = []
        for spin, cfg in (("symmetric", base), ("right", right)):
            cfg = dict(cfg, n_grid=WEAK_LIMIT_N_GRID)
            parsed.append(add(f"limit[{spin}]", cfg, _limit_task))
            add(f"charfn[{spin}]", cfg, _charfn_task)
        for i in range(DUAL_PATH_CONFIGS):
            cfg = dict(base, coin=_random_coin(rng), phi=_random_unit2(rng), steps=DUAL_PATH_STEPS)
            add(f"simulate[{i}]", cfg, _simulate_task)
        return Workload(name, tasks, _mass_health(parsed[0]))
    if name == "contour":
        add("asym", dict(base, asym=dict(base["asym"], n_grid=ASYM_N_GRID)), _asym_task)
        for n_sites in ALGEBRA_NS:
            algebra = dict(base["algebra"], N=n_sites, seed=int(rng.integers(2**31)))
            add(f"algebra[N={n_sites}]", dict(base, algebra=algebra), _algebra_task)
        ws = [complex(w) for w in np.exp(2j * np.pi * rng.random(CONVOLUTION_POINTS))]
        tasks.extend(_convolution_task(n, ws) for n in CONVOLUTION_NS)
        return Workload(name, tasks)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ["weak_limit", "contour"]
