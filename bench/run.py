"""The weilbc benchmark: batch verification workloads, timed end to end or traced.

Usage (from the root of a checkout):

    python3 bench/run.py --workload star-sl2 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 0

Traffic is a closed loop with one client.  Each iteration runs the
workload's configurations (``workloads.json``) one after another through
``checks.run_check`` in a fresh interpreter, because towers, embeddings and
operator caches are process-global and a second iteration in one process
would be warm.  Iterations are a few seconds long, so that a run holds
several.  The set-up samples and the iterations repeat until the next
iteration would end after ``--seconds``; at least one runs.  The operator
disk cache stays off.

``--trace 0`` reports the end-to-end metrics:

* ``verify_s``: mean over the run's iterations of the wall time from the
  first check call to the last serialized report.  Every iteration does the
  same work, and a shared host's speed swings by tens of percent from one
  second to the next, so the mean (total verify time over iterations) is
  steadier from run to run than the median, which jumps between fast and
  slow iterations;
* ``setup_s``: median time, in a fresh interpreter, to import weilbc and build
  every configuration's Workspace (several set-ups per run);
* ``peak_rss_mb``: median peak resident memory of an iteration's process.

``--trace 1`` runs one untraced and one traced iteration and reports the
per-module metrics of ``tracer.LAYER_METRICS``; spans go to
``.bench_out/trace-<workload>-<seed>.json``.

Every run checks every report: no unequal case, no exception, the expected
case count and probed cases, the same case digest in every iteration, and, for
the recorded seed, the digest stored in ``workloads.json``.  Each
configuration of each iteration is one operation; ``fail_share`` is failed
operations over attempted ones, and any failure makes the exit code 1.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, str(BENCH))
from tracer import MODULES  # noqa: E402


def load_workloads() -> dict:
    return json.loads((BENCH / "workloads.json").read_text())


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    return env


def run_worker(spec: dict) -> tuple[dict, float]:
    """One fresh interpreter; returns its result (or {"worker_error": text}) and wall seconds."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"worker_error": (proc.stderr.strip().splitlines() or [f"exit code {proc.returncode}"])[-1]}, wall
    return json.loads(lines[-1]), wall


def base_spec(workload: dict, seed: int, mode: str) -> dict:
    return {"src": str(SRC), "seed": seed, "mode": mode, "configs": workload["configs"]}


def judge(workload: dict, results: list, seed: int, recorded_seed: int) -> list[str]:
    """Failure messages, one per failed operation (configuration × iteration)."""
    problems = []
    first_digest: dict[int, str] = {}
    for it, result in enumerate(results):
        for k, item in enumerate(workload["configs"]):
            label = f"iteration {it} {item['check']} {item['config']}"
            if "worker_error" in result:
                problems.append(f"{label}: worker failed: {result['worker_error']}")
                continue
            r = result["results"][k]
            why = []
            if r["error"]:
                why.append(r["error"])
            else:
                if r["fail"]:
                    why.append(f"{r['fail']} unequal cases")
                if r["cases"] != item["cases"]:
                    why.append(f"{r['cases']} cases, expected {item['cases']}")
                for inp, want in item.get("probes", {}).items():
                    if r["probes"].get(inp) != want:
                        why.append(f"case {inp!r} is {r['probes'].get(inp)}, expected {want}")
                if first_digest.setdefault(k, r["digest"]) != r["digest"]:
                    why.append("case digest differs between iterations")
                if seed == recorded_seed and item.get("digest") and r["digest"] != item["digest"]:
                    why.append("case digest differs from the recorded digest")
            if why:
                problems.append(f"{label}: {'; '.join(why)}")
    return problems


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4f} q3={q3:.4f}"


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "weilbc").glob("*.py")))
    return {"git_sha": sha, "python": platform.python_version(), "nproc": os.cpu_count(),
            "src_weilbc_lines": lines}


def measure(name: str, workload: dict, seed: int, seconds: float, trace: bool, recorded_seed: int) -> dict:
    """One benchmark run of one workload; returns the result object plus details."""
    warm, _ = run_worker(base_spec(workload, seed, "setup"))  # compiles bytecode; not timed
    if "worker_error" in warm:
        raise SystemExit(f"error: weilbc does not import from {SRC}: {warm['worker_error']}")
    if trace:
        plain, _ = run_worker(base_spec(workload, seed, "verify"))
        OUT.mkdir(exist_ok=True)
        spec = base_spec(workload, seed, "verify")
        spec.update(trace=True, workload=name, trace_out=str(OUT / f"trace-{name}-{seed}.json"),
                    untraced_s=plain.get("verify_s", 0.0))
        traced, _ = run_worker(spec)
        results = [plain, traced]
        ok = [r for r in results if "worker_error" not in r]
        metrics = traced.get("metrics", {})
        details = {"verify_s": [r["verify_s"] for r in ok]}
    else:
        start = time.perf_counter()
        setups = []
        for _ in range(SETUP_SAMPLES):
            res, _ = run_worker(base_spec(workload, seed, "setup"))
            if "worker_error" not in res:
                setups.append(res["setup_s"])
        results = []
        while True:
            res, wall = run_worker(base_spec(workload, seed, "verify"))
            results.append(res)
            elapsed = time.perf_counter() - start
            if "worker_error" in res or elapsed + wall > seconds:
                break
        ok = [r for r in results if "worker_error" not in r]
        setups += [r["setup_s"] for r in ok]
        details = {
            "verify_s": [r["verify_s"] for r in ok],
            "setup_s": setups,
            "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
            "cpu_s": [r["cpu_s"] for r in ok],
        }
        units = {"verify_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        stats = {"verify_s": statistics.mean, "setup_s": statistics.median, "peak_rss_mb": statistics.median}
        metrics = {k: {"value": stats[k](details[k]) if details[k] else 0.0, "unit": u}
                   for k, u in units.items()}
    problems = judge(workload, results, seed, recorded_seed)
    digests = [r["digest"] for r in ok[0]["results"] if r["error"] is None] if ok else []
    return {"correct": not problems, "digests": digests, "attempted": len(results) * len(workload["configs"]),
            "failed": len(problems), "metrics": metrics, "problems": problems, "details": details,
            "numpy": next((r["numpy"] for r in ok), None)}


def report(name: str, workload: dict, out: dict, trace: bool) -> None:
    print(f"== {name}: {len(workload['configs'])} configurations, "
          f"{out['attempted']} operations, {out['failed']} failed, "
          f"fail_share={out['failed'] / out['attempted']:.4f} ratio")
    for problem in out["problems"]:
        print(f"  FAIL {problem}")
    for item, digest in zip(workload["configs"], out["digests"]):
        print(f"  case digest {digest} {item['check']} {json.dumps(item['config'])}")
    if trace:
        metrics = out["metrics"]
        if not metrics:
            return
        mods = {m: metrics[f"{m}.self_s"]["value"] for m in MODULES}
        total = metrics["trace.verify_s"]["value"]
        for module, seconds in sorted(mods.items(), key=lambda kv: -kv[1]):
            print(f"  self {module:<12} {seconds:9.3f} s  {seconds / total:6.1%}")
        top = max(mods, key=mods.get)
        verdict = "matches" if top in workload["predicted_top"] else "DOES NOT match"
        print(f"  largest self time: {top}; {verdict} the prediction {workload['predicted_top']}")
        print(f"  self times cover {metrics['trace.self_share']['value']:.1%} of traced verify_s; "
              f"overhead ratio {metrics['trace.overhead_ratio']['value']:.3f}")
        return
    for key, values in out["details"].items():
        unit = {"peak_rss_mb": "MB"}.get(key, "s")
        if values:
            print(f"  {key:<12} mean={statistics.mean(values):.4f} median={statistics.median(values):.4f} {unit}"
                  f"  {spread(values)}")


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "weilbc" / "__init__.py").is_file():
        print(f"error: no weilbc sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    spec = load_workloads()
    names = list(spec["workloads"])
    ap = argparse.ArgumentParser(description="weilbc batch-verification benchmark")
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=spec["recorded_seed"])
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    chosen = names if args.workload == "all" else [args.workload]
    outs = {}
    for name in chosen:
        workload = spec["workloads"][name]
        outs[name] = measure(name, workload, args.seed, args.seconds, bool(args.trace), spec["recorded_seed"])
        report(name, workload, outs[name], bool(args.trace))
    print("env: " + json.dumps(dict(environment(), numpy=next(iter(outs.values()))["numpy"])))
    if len(outs) == 1:
        metrics = outs[chosen[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, o in outs.items() for k, v in o["metrics"].items()}
    result = {
        "correct": all(o["correct"] for o in outs.values()),
        "attempted": sum(o["attempted"] for o in outs.values()),
        "failed": sum(o["failed"] for o in outs.values()),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
