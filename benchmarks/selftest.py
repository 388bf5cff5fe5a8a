"""Structural self-test of the benchmark.  It asserts no speed.

    python3 benchmarks/selftest.py

Runs every workload for a fraction of a second, untraced and traced, and
checks that:

- the last line of output is the result object, with every metric that
  BENCHMARK.json names and its unit, and no failed operation or check;
- end-to-end metrics are positive, and the traced scopes add up: their
  node counts sum to tensor.tape_nodes and the trace checks ran and passed,
  among them that every layer the workload runs shows work;
- in a directory holding only BENCHMARK.json and benchmarks/, the
  benchmark exits non-zero without printing a result.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import env

HERE = Path(__file__).resolve().parent
SEED = 5
TRACE_CHECKS = {
    "trace: scope node counts sum to tensor.tape_nodes",
    "trace: scope forward self times sum to model.forward_ms",
    "trace: scope backward times sum within tensor.backward_ms",
    "trace: spans nest with non-negative self time",
    "trace: each layer that runs shows forward time, and tape nodes where "
    "it trains; no other layer shows any",
}


def run_benchmark(script, cwd, workload, trace):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.3", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_workload(failures, spec, workload, trace):
    def expect(ok, message):
        if not ok:
            failures.append(f"{workload} trace={trace}: {message}")
        return ok

    proc = run_benchmark(HERE / "run.py", env.ROOT, workload, trace)
    if not expect(proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr[-2000:]}"):
        return
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(line) == {"correct", "attempted", "failed", "metrics"}, f"keys {sorted(line)}")
    expect(line["correct"] is True and line["failed"] == 0, f"not correct: {proc.stderr[-2000:]}")
    expect(isinstance(line["attempted"], int) and line["attempted"] >= 1, "attempted < 1")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in line["metrics"].items()}
    expect(printed == declared, f"metrics/units differ: {sorted(set(printed.items()) ^ set(declared.items()))}")
    values = {name: m["value"] for name, m in line["metrics"].items()}
    expect(all(isinstance(v, float) and math.isfinite(v) for v in values.values()),
           "a metric is not a finite number")
    if not trace:
        expect(all(v > 0 for v in values.values()),
               f"zero end-to-end metrics: {[n for n, v in values.items() if v <= 0]}")
        return
    scoped = sum(v for name, v in values.items()
                 if name.endswith(".nodes") and name != "tensor.tape_nodes")
    expect(scoped == values["tensor.tape_nodes"],
           f"scope nodes {scoped} != tape nodes {values['tensor.tape_nodes']}")
    expect(values["model.forward_ms"] > 0, "no forward time traced")
    record = json.loads((env.ROOT / ".bench_out" / f"{workload}-seed{SEED}-trace1.json").read_text())
    ran = {c["name"] for c in record["checks"]}
    expect(TRACE_CHECKS <= ran, f"trace checks missing: {sorted(TRACE_CHECKS - ran)}")


def check_bare_directory(failures):
    bare = env.ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(env.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_benchmark(bare / HERE.name / "run.py", bare, "finetune_dvpt", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}")


def main():
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_workload(failures, spec, workload, trace)
    check_bare_directory(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "failed" if failures else "ok")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
