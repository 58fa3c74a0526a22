"""One benchmark iteration in a fresh interpreter.

Usage: python3 bench/worker.py '<json spec>'

The spec names the library source directory, the configurations (check name,
RunConfig fields, probe inputs), the seed, and the mode:

* ``setup``: time ``import weilbc`` plus one ``Workspace`` per configuration;
* ``verify``: the same set-up, then run every check through
  ``checks.run_check`` and serialize each report, timed from the first check
  call to the last serialized report.  With ``trace`` the tracer is
  installed after the import and before the workspaces are built.

Reports are serialized as TSV (``weil-verify --format tsv``), because
``Report.to_json`` raises TypeError on Sp4 reports, whose ``Case.equal`` can
be a numpy bool.

The last line of standard output is one JSON object with the timings, the
peak resident memory, and per configuration the case count, failure count,
SHA-256 digest of the (input, lhs, rhs, equal) case list, the probed cases
and any exception.  Correctness is judged by the caller.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
from time import perf_counter, process_time


def case_digest(cases) -> str:
    rows = [[c.input, c.lhs, c.rhs, bool(c.equal)] for c in cases]
    return hashlib.sha256(json.dumps(rows, ensure_ascii=False).encode()).hexdigest()


def run(spec: dict) -> dict:
    src = os.path.realpath(spec["src"])
    sys.path.insert(0, src)
    t0 = perf_counter()
    import weilbc
    from weilbc.checks import RunConfig, Workspace, run_check

    if not os.path.realpath(weilbc.__file__).startswith(src + os.sep):
        raise SystemExit(f"weilbc imported from {weilbc.__file__}, not from {src}")
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    runs = []
    for item in spec["configs"]:
        fields = dict(item["config"])
        fields["pairs"] = tuple(tuple(pair) for pair in fields.get("pairs", ()))
        cfg = RunConfig(seed=spec["seed"], **fields)
        runs.append((item, cfg, Workspace(cfg)))
    setup_s = perf_counter() - t0
    out = {"setup_s": setup_s}
    if spec["mode"] == "setup":
        return out

    results = []
    c0 = process_time()
    t1 = perf_counter()
    for item, cfg, ws in runs:
        try:
            report = run_check(item["check"], cfg, ws)
            report.to_tsv()
        except Exception as exc:  # a failed operation: record it and go on with the next one
            results.append({"error": f"{type(exc).__name__}: {exc}"})
            continue
        probes = {c.input: [c.lhs, c.rhs] for c in report.cases if c.input in item.get("probes", {})}
        results.append({
            "error": None,
            "cases": len(report.cases),
            "fail": report.n_fail,
            "digest": case_digest(report.cases),
            "probes": probes,
        })
    verify_s = perf_counter() - t1
    import numpy

    out.update(
        verify_s=verify_s,
        cpu_s=process_time() - c0,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        results=results,
        numpy=numpy.__version__,
    )
    if tracer is not None:
        tracer.uninstall()
        cases = sum(r.get("cases", 0) for r in results)
        out["metrics"] = tracer.metrics(verify_s, spec.get("untraced_s", 0.0), cases)
        if spec.get("trace_out"):
            tracer.write_json(spec["trace_out"], {"workload": spec.get("workload"), "seed": spec["seed"]})
    return out


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
