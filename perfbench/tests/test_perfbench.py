"""The benchmark's own tests, at tiny sizes.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import bootstrap
import run
import sweep
import tracer
import workloads
from qwalk1d import cheb_engine, cli, direct_walk

SPEC = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
SWEEP_NS = sweep.NS
TINY_SWEEP_NS = (10, 20, 40)


@pytest.fixture
def tiny(monkeypatch):
    """Workload and sweep sizes small enough for a unit test.

    The weak-limit and asym grids end at n = 2000, where the pinned
    thresholds were measured, so the shipped thresholds still apply.
    """
    monkeypatch.setattr(workloads, "DUAL_PATH_CONFIGS", 2)
    monkeypatch.setattr(workloads, "DUAL_PATH_STEPS", list(range(21)))
    monkeypatch.setattr(workloads, "WEAK_LIMIT_N_GRID", [125, 250, 500, 1000, 2000])
    monkeypatch.setattr(workloads, "ASYM_N_GRID", [500, 2000])
    monkeypatch.setattr(workloads, "ALGEBRA_NS", [8])
    monkeypatch.setattr(workloads, "CONVOLUTION_NS", [2, 5])
    monkeypatch.setattr(workloads, "CONVOLUTION_POINTS", 2)
    monkeypatch.setattr(sweep, "NS", TINY_SWEEP_NS)


def bench(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_untraced_run_emits_end_to_end_metrics(tiny, capsys, workload):
    result = bench(capsys, workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["metrics"]["pass_ratio"]["value"] == 1.0


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_run_emits_every_per_layer_metric(tiny, capsys, workload):
    result = bench(capsys, workload, 1)
    assert result["correct"] is True
    # the spec names the full-size sweep; this run swept the tiny sizes
    renamed = dict(zip(sweep.metric_names(SWEEP_NS), sweep.metric_names(TINY_SWEEP_NS)))
    expected = {renamed.get(m["name"], m["name"]): m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_wall_s_scales_each_segment_by_the_probes_around_it(tiny, capsys):
    assert run.main(["--workload", "contour", "--seed", "7", "--seconds", "0", "--trace", "0"]) == 0
    record_line, result_line = capsys.readouterr().out.strip().splitlines()[-2:]
    record = json.loads(record_line)["perfbench_record"]
    rounds = record["segments"]["untraced"]
    flat = [segment for segments in rounds for segment in segments]
    assert flat[0][1] == record["probe_ms"]["first"]
    assert all(prev[2] == nxt[1] for prev, nxt in zip(flat, flat[1:]))
    raw = [sum(s for s, _, _ in segments) for segments in rounds]
    scaled = [sum(s * run.REFERENCE_PROBE_MS / ((a + b) / 2) for s, a, b in segments)
              for segments in rounds]
    assert record["rounds"]["untraced"] == pytest.approx(raw)
    assert record["rounds_at_reference_s"]["untraced"] == pytest.approx(scaled)
    wall_s = json.loads(result_line)["metrics"]["wall_s"]["value"]
    assert wall_s == pytest.approx(statistics.median(scaled))


def test_workloads_and_bounds_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == workloads.NAMES
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_failing_simulate_config_is_counted(tiny, capsys, monkeypatch):
    """A simulate config that no gap can pass must lower pass_ratio."""
    base = workloads.default_config()
    base["tol"] = dict(base["tol"], simulate_gap=0.0)
    monkeypatch.setattr(workloads, "default_config", lambda: base)
    result = bench(capsys, "weak_limit", 0)
    per_round = 4 + workloads.DUAL_PATH_CONFIGS  # two limit, two charfn, the simulate tasks
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] // per_round * workloads.DUAL_PATH_CONFIGS > 0
    assert result["metrics"]["pass_ratio"]["value"] < 1.0


def test_degenerate_coin_does_not_pass_vacuously(tiny, tmp_path):
    """simulate exits 0 on a degenerate coin but writes no gaps: a failure."""
    workload = workloads.setup("weak_limit", 7, tmp_path)
    cfg = dict(workloads.default_config(), coin={"a": [1.0, 0.0], "b": [0.0, 0.0]},
               steps=workloads.DUAL_PATH_STEPS)
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(cfg))
    workload.tasks = [workloads._simulate_task("degenerate", path, cfg)]
    round_ = run.run_round(workload, tmp_path / "out", run.REFERENCE_PROBE_MS)
    assert round_["failed"] == round_["attempted"] == 1


def test_same_seed_gives_same_inputs(tiny, tmp_path):
    for name in workloads.NAMES:
        workloads.setup(name, 3, tmp_path / "a" / name)
        workloads.setup(name, 3, tmp_path / "b" / name)
        for path in (tmp_path / "a" / name).glob("*.json"):
            assert path.read_text() == (tmp_path / "b" / name / path.name).read_text()


def test_tracing_restores_the_package():
    originals = [getattr(owner, attr) for owner, attr, _ in tracer.TARGETS]
    t = tracer.Tracer()
    with tracer.installed(t):
        assert cli.cmd_simulate is not originals[0]
        list(direct_walk.evolve_snapshots([1.0, 0.0], cli.load_config(None).coin, [3, 5]))
        cheb_engine.transfer_polys(4, 0.6, 0.8)
    assert [getattr(owner, attr) for owner, attr, _ in tracer.TARGETS] == originals
    assert cli.build_rep is originals[[a for _, a, _ in tracer.TARGETS].index("build_rep")]
    assert t.counts["direct_walk.site_steps"] == 25
    assert t.calls["direct_walk.evolve"] == 3  # two snapshots and the exhausted next()
    assert t.counts["cheb_engine.recurrence_steps"] == 4


def test_exits_nonzero_without_the_package(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: no result, non-zero exit."""
    shutil.copy(bootstrap.ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(bootstrap.ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        SPEC["command"] + ["--workload", "contour", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
