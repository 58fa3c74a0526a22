"""Self-tests of the benchmark: tracer counts, trace transparency, metric names.

Run from the root of a checkout with ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402

TINY = [
    {"check": "star", "config": {"p": 3, "n": 1, "m": 2, "pairs": [[1, 1]], "sample": 12}, "cases": 12},
    {"check": "homomorphism", "config": {"p": 3, "n": 1, "m": 2, "sample": 2}, "cases": 133},
    {"check": "sl2-torus", "config": {"p": 3, "n": 1, "m": 2}, "cases": 232},
]


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def worker(trace: bool) -> dict:
    spec = {"src": str(run.SRC), "seed": 5, "mode": "verify", "configs": TINY, "trace": trace}
    out, _ = run.run_worker(spec)
    assert "worker_error" not in out, out
    return out


@pytest.fixture(scope="module")
def untraced():
    return worker(False)


@pytest.fixture(scope="module")
def traced():
    return worker(True)


def test_tracer_counts_equal_an_independent_count():
    sys.path.insert(0, str(run.SRC))
    from weilbc import normmap, schrodinger
    from weilbc.checks import RunConfig, Workspace, run_check

    targets = {normmap.lang_solve.__code__: "normmap.lang_solve",
               schrodinger.RepContext.build_rho.__code__: "schrodinger.build_rho"}
    seen = dict.fromkeys(targets.values(), 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in targets:
            seen[targets[frame.f_code]] += 1

    cfg = RunConfig(p=3, n=1, m=3, pairs=((1, 1), (2, 2)), sample=6, seed=3)
    ws = Workspace(cfg)
    tracer = Tracer()
    tracer.install()
    sys.setprofile(profile)
    try:
        run_check("star", cfg, ws)
    finally:
        sys.setprofile(None)
        tracer.uninstall()
    assert seen["normmap.lang_solve"] > 0 and seen["schrodinger.build_rho"] > 0
    for name, count in seen.items():
        assert tracer.calls[tracer.names.index(name)] == count, name
    assert normmap.lang_solve.__code__ in targets  # uninstall restored the original


def test_traced_run_reproduces_untraced_cases(untraced, traced):
    for plain, with_trace in zip(untraced["results"], traced["results"]):
        assert plain["error"] is None and plain["fail"] == 0
        assert plain["digest"] == with_trace["digest"]
        assert plain["cases"] == with_trace["cases"]


def test_layer_metric_names_match_benchmark_json(traced):
    declared = [(m["name"], m["unit"], m["better"]) for m in benchmark_json()["per_layer"]]
    assert declared == [(name, unit, better) for name, unit, better, _ in LAYER_METRICS]
    printed = {name: m["unit"] for name, m in traced["metrics"].items()}
    assert printed == {name: unit for name, unit, _ in declared}
    assert printed["checks.cases"] and traced["metrics"]["checks.cases"]["value"] == 12 + 133 + 232


def test_end_to_end_metric_names_match_benchmark_json():
    workload = {"configs": TINY[:1]}
    out = run.measure("tiny", workload, seed=5, seconds=0, trace=False, recorded_seed=0)
    assert out["correct"] and out["attempted"] == 1 and out["failed"] == 0
    declared = {m["name"]: m["unit"] for m in benchmark_json()["end_to_end"]}
    assert {name: m["unit"] for name, m in out["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_workloads_match_benchmark_json():
    declared = [w["name"] for w in benchmark_json()["workloads"]]
    assert declared == list(run.load_workloads()["workloads"])


def test_wrong_count_or_digest_fails_the_run(untraced):
    workload = {"configs": [dict(TINY[0], cases=13)]}
    out = run.measure("tiny", workload, seed=5, seconds=0, trace=False, recorded_seed=0)
    assert not out["correct"] and out["failed"] == out["attempted"] == 1
    one = dict(untraced, results=untraced["results"][:1])
    assert not run.judge({"configs": TINY[:1]}, [one], seed=5, recorded_seed=5)
    wrong = {"configs": [dict(TINY[0], digest="0" * 64)]}
    assert run.judge(wrong, [one], seed=5, recorded_seed=5)
    assert not run.judge(wrong, [one], seed=6, recorded_seed=5)  # other seeds: no digest gate


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "star-sl2", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
