#!/usr/bin/env python3
"""Quick-scale self-check of the DMac benchmark.

Run from the repository root:

    python3 perfbench/selfcheck.py

Runs every workload named in BENCHMARK.json once untraced and once traced,
at --quick scale (every dimension divided, sparsity and factor size kept),
and checks that the result line has exactly its four keys, that every
end-to-end (untraced) or per-layer (traced) metric of BENCHMARK.json is
printed, and only those, each with its declared unit and a finite value,
and that the outputs were correct with no failed run. Exits 0 when all pass.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def check(spec, workload, trace):
    cmd = [sys.executable, str(REPO / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--quick"]
    proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append("outputs not correct")
    if result.get("failed") != 0 or result.get("attempted", 0) < 1:
        errors.append(f"failed_frac {result.get('failed')}/"
                      f"{result.get('attempted')} runs")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    for name, unit in wanted.items():
        metric = got.get(name)
        if metric is None:
            errors.append(f"missing metric {name}")
        elif metric.get("unit") != unit:
            errors.append(f"{name}: unit {metric.get('unit')!r}, "
                          f"expected {unit!r}")
        elif not isinstance(metric.get("value"), (int, float)) or \
                not math.isfinite(metric["value"]):
            errors.append(f"{name}: value {metric.get('value')!r}")
    errors += [f"unlisted metric {name}" for name in got if name not in wanted]
    return errors


def main():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            errors = check(spec, workload, trace)
            failures += bool(errors)
            print(f"{'FAIL' if errors else 'ok  '} {workload} --trace {trace}")
            for error in errors:
                print(f"     {error}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
