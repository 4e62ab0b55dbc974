"""qwalk1d benchmark: time to a verified result, per workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads (see ``workloads.py``) drive the package the way its users do,
through the CLI verbs in-process and one public library function.  A round is
one pass over a workload's tasks; rounds repeat until ``--seconds`` have
passed.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds an
informational record (provenance, machine-speed probes, numeric health).

``--trace 0`` reports the end-to-end metrics:

- ``wall_s``: median round time, from the first verb or library call to the
  last verified result, at reference machine speed (``at_reference_speed``);
- ``setup_s``: median over fresh interpreters of importing numpy and qwalk1d
  and building, writing and parsing the workload's configs, at reference
  machine speed;
- ``peak_rss_mb``: peak resident memory of the measuring process;
- ``pass_ratio``: operations that passed over operations attempted.

``--trace 1`` alternates untraced and traced rounds and reports per-layer
self times, call, exception and work counts per round, the tracing overhead
against the untraced rounds, and the layer scaling sweep (``sweep.py``).
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import bootstrap  # pins BLAS threads before numpy loads

bootstrap.import_package()

import numpy as np  # noqa: E402

import sweep  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from qwalk1d import cli  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 120
# What speed_probe_ms read on the 2-vCPU build machine in its slower phase.
REFERENCE_PROBE_MS = 30.0
# The host's speed phases last seconds to minutes, so probe at least this often.
PROBE_EVERY_S = 0.5


def run_round(
    workload: workloads.Workload,
    out: Path,
    probe_ms: float,
    tracer: tracing.Tracer | None = None,
) -> dict:
    """One pass over the workload's tasks, writing into the new directory ``out``.

    ``probe_ms`` is the speed probe taken just before the round.  The probe
    runs again, untimed, after the first task that ends ``PROBE_EVERY_S`` or
    more past the last probe, and after the last task.  Each segment of tasks
    between two probes is scaled to reference speed by the probes at its
    ends.  Failures are counted, not raised.
    """
    attempted = failed = 0
    health: dict[str, float] = {}
    task_s: dict[str, float] = {}
    segments: list[tuple[float, float, float]] = []  # seconds, probe before, probe after
    user_s = sys_s = 0.0
    segment_start, cpu_start = time.perf_counter(), os.times()
    for i, task in enumerate(workload.tasks):
        attempted += task.attempted
        task_start = time.perf_counter()
        outcome = None
        try:
            if tracer is None:
                outcome = task.run(out / task.name)
            else:
                with tracer.task():
                    outcome = task.run(out / task.name)
        except workloads.CheckFailed as exc:
            failed += task.attempted
            print(f"perfbench: {task.name}: {exc}", file=sys.stderr)
        except Exception:  # a crashing task is a failed operation; keep measuring
            failed += task.attempted
            print(f"perfbench: {task.name} raised:", file=sys.stderr)
            traceback.print_exc()
        now = time.perf_counter()
        task_s[task.name] = now - task_start
        if outcome is not None:
            failed += outcome.failed
            for key, value in outcome.health.items():
                health[key] = max(value, health.get(key, value))
        if now - segment_start >= PROBE_EVERY_S or i == len(workload.tasks) - 1:
            cpu_now = os.times()
            user_s += cpu_now.user - cpu_start.user
            sys_s += cpu_now.system - cpu_start.system
            before, probe_ms = probe_ms, speed_probe_ms()
            segments.append((now - segment_start, before, probe_ms))
            segment_start, cpu_start = time.perf_counter(), os.times()
    return {
        "wall_s": sum(seconds for seconds, _, _ in segments),
        "ref_s": sum(at_reference_speed(seconds, [a, b]) for seconds, a, b in segments),
        "segments": segments,
        "last_probe_ms": probe_ms,
        "user_s": user_s,
        "sys_s": sys_s,
        "task_s": task_s,
        "attempted": attempted,
        "failed": failed,
        "health": health,
    }


def measure(workload: workloads.Workload, seconds: float, trace: bool, work: Path) -> dict:
    """Rounds until ``seconds`` have passed; traced runs alternate rounds.

    Every round writes into a fresh directory under ``work``, and none is
    deleted before the run ends: replacing or deleting output files slows
    file creation in later rounds.  Each round's ``ref_s`` is its time at
    reference speed (``run_round``).
    """
    tracer = tracing.Tracer() if trace else None
    untraced: list[dict] = []
    traced: list[dict] = []
    first_probe_ms = probe_ms = speed_probe_ms()
    start = time.perf_counter()
    while True:
        out = work / f"round{len(untraced) + len(traced)}"
        if tracer is not None and len(traced) < len(untraced):
            with tracing.installed(tracer):
                round_ = run_round(workload, out, probe_ms, tracer)
            traced.append(round_)
        else:
            round_ = run_round(workload, out, probe_ms)
            untraced.append(round_)
        probe_ms = round_["last_probe_ms"]
        if time.perf_counter() - start >= seconds and (tracer is None or traced):
            break
    rounds = untraced + traced
    return {
        "first_probe_ms": first_probe_ms,
        "last_probe_ms": probe_ms,
        "untraced": untraced,
        "traced": traced,
        "tracer": tracer,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "health": rounds[-1]["health"],
    }


def setup_samples(name: str, seed: int, work: Path) -> list[float]:
    """Set-up seconds reported by fresh interpreters (``setup_probe.py``)."""
    samples = []
    for i in range(SETUP_SAMPLES):
        cmd = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(work / f"setup{i}")]
        done = subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S, cwd=bootstrap.ROOT,
                              capture_output=True, text=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def speed_probe_ms() -> float:
    """Median of three runs of a fixed kernel (BLAS, numpy and Python loops)."""
    a = np.random.default_rng(0).random((128, 128)) / 64
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        b = a
        for _ in range(40):
            b = np.tanh(b @ a)
        acc = 0
        for i in range(300_000):
            acc += i * i
        samples.append(time.perf_counter() - start)
    return 1e3 * statistics.median(samples)


def at_reference_speed(seconds: float, probes_ms: list[float]) -> float:
    """``seconds`` scaled to a machine on which ``speed_probe_ms`` reads
    ``REFERENCE_PROBE_MS``, given the probes taken just before and just after.

    The host's speed shifts by up to 40 % for seconds to minutes at a time,
    in the probe and the workloads alike (README.md, Steadiness).  The probe runs no
    package code, so a change to the package moves the scaled time as much
    as the raw one.
    """
    return seconds * REFERENCE_PROBE_MS / statistics.mean(probes_ms)


def _blas_threads() -> int | str:
    """Threads the bundled OpenBLAS will use, or the pinned setting if unknown."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return os.environ["OPENBLAS_NUM_THREADS"]


def _commit() -> str | None:
    if not (bootstrap.ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=bootstrap.ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    """sha256 over the package sources, which identifies them without git."""
    digest = hashlib.sha256()
    package = bootstrap.SRC / "qwalk1d"
    for path in sorted(package.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(package)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "seed": seed,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    work = bootstrap.ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        workload = workloads.setup(args.workload, args.seed, work / "main")
        setup_probe_ms = speed_probe_ms()
        setups = setup_samples(args.workload, args.seed, work)
        run = measure(workload, args.seconds, bool(args.trace), work / "rounds")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        health = dict(run["health"])
        if workload.extra_health is not None:
            health.update(workload.extra_health())
        layers = sweep.run(cli.load_config(None).phi) if args.trace else {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    attempted, failed = run["attempted"], run["failed"]
    if attempted < 1:
        raise RuntimeError("no operation was attempted")
    untraced_wall = statistics.median([r["ref_s"] for r in run["untraced"]])
    setup_s = at_reference_speed(statistics.median(setups), [setup_probe_ms, run["first_probe_ms"]])
    if args.trace:
        traced_wall = statistics.median([r["ref_s"] for r in run["traced"]])
        metrics = {
            name: _metric(value, unit)
            for name, (value, unit) in run["tracer"].metrics(len(run["traced"])).items()
        }
        metrics["trace.untraced_wall_s"] = _metric(untraced_wall, "s")
        metrics["trace.traced_wall_s"] = _metric(traced_wall, "s")
        metrics["trace.overhead_ratio"] = _metric(traced_wall / untraced_wall - 1.0, "ratio")
        metrics["probe.before_ms"] = _metric(run["first_probe_ms"], "ms")
        metrics["probe.after_ms"] = _metric(run["last_probe_ms"], "ms")
        metrics.update({name: _metric(v, u) for name, (v, u) in layers.items()})
    else:
        metrics = {
            "wall_s": _metric(untraced_wall, "s"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            "pass_ratio": _metric((attempted - failed) / attempted, "ratio"),
        }
    record = {
        "workload": args.workload,
        "provenance": provenance(args.seed),
        "rounds": {kind: [r["wall_s"] for r in run[kind]] for kind in ("untraced", "traced")},
        "rounds_at_reference_s": {
            kind: [r["ref_s"] for r in run[kind]] for kind in ("untraced", "traced")
        },
        "segments": {kind: [r["segments"] for r in run[kind]] for kind in ("untraced", "traced")},
        "cpu_rounds": {
            kind: [r[kind] for r in run["untraced"]] for kind in ("user_s", "sys_s")
        },
        "task_median_s": {
            name: statistics.median([r["task_s"][name] for r in run["untraced"]])
            for name in run["untraced"][0]["task_s"]
        },
        "setup_samples_s": setups,
        "probe_ms": {"setup": setup_probe_ms, "first": run["first_probe_ms"]},
        "health": health,
    }
    print(json.dumps({"perfbench_record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
