"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload finetune_dvpt --seed 0 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run; BENCHMARK.json at the repository root names both
sets with their units.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  A fuller
record (software versions, BLAS threads, sample counts, every check) goes
to .bench_out/, and a traced run also writes its spans there.
"""

import argparse
import json
import os
import shutil
import sys

import env

env.pin_blas_threads()
try:
    env.use_source_tree()
except env.MissingSourceError as exc:
    sys.exit(f"benchmark: {exc}")

import workloads  # noqa: E402

WORKLOADS = {
    "finetune_dvpt": lambda **kw: workloads.finetune("dvpt", **kw),
    "finetune_full": lambda **kw: workloads.finetune("full_finetune", **kw),
    "serve_vitb16": lambda **kw: workloads.serve(**kw),
}
OUT = env.ROOT / ".bench_out"
WORK = env.ROOT / ".bench_work"


def declared_units(trace):
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    units = declared_units(args.trace)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = WORKLOADS[args.workload](seed=args.seed, seconds=args.seconds,
                                          trace=args.trace, work=work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = result.layer_metrics if args.trace else result.metrics
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    unbounded = {} if args.trace else {
        name: {"value": float(value), "unit": unit}
        for name, (value, unit) in result.unbounded.items()}
    correct = result.failed == 0 and result.attempted > 0
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env.describe(),
        "correct": correct, "attempted": result.attempted, "failed": result.failed,
        "failed_ratio": result.failed / max(result.attempted, 1), "samples": result.samples,
        "metrics": metrics, "unbounded_metrics": unbounded, "checks": result.checks,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if result.tracer is not None:
        result.tracer.write(OUT / f"{tag}.spans.jsonl")

    environment = record["environment"]
    print(f"# {args.workload} seed={args.seed} nproc={environment['nproc']} "
          f"blas_threads={environment['blas_threads']} numpy={environment['numpy']} "
          f"scipy={environment['scipy']} blas={environment['numpy_blas']}")
    for name, metric in [*metrics.items(), *unbounded.items()]:
        count = result.samples.get(name)
        note = f"  (n={count})" if count is not None else ""
        if name in unbounded:
            note += "  not bounded"
        print(f"{name:34s} {metric['value']:14.4f} {metric['unit']}{note}")
    print(f"{'failed_ratio':34s} {record['failed_ratio']:14.4f} "
          f"({result.failed} of {result.attempted} operations and checks)")
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
