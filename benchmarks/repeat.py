"""Run a workload over several seeds and summarise each end-to-end metric.

    python3 benchmarks/repeat.py [--workload NAME ...] [--seeds 0-9] [--out FILE]

For each metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread (third minus
first quartile, as a share of the median) and the bound from
BENCHMARK.json.  ``--out`` also writes every value to a JSON file.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import env

env.pin_blas_threads()  # so that the recorded environment matches the runs'
HERE = Path(__file__).resolve().parent


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=env.ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None):
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    summary = {"seconds": args.seconds, "trace": args.trace, "seeds": args.seeds,
               "environment": env.describe(), "workloads": {}}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        start = time.perf_counter()
        runs = [run_once(workload, seed, args.seconds, args.trace) for seed in args.seeds]
        entry = {"correct": all(r["correct"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "wall_s_per_run": (time.perf_counter() - start) / len(runs), "metrics": {}}
        print(f"{workload}: {len(runs)} runs, correct={entry['correct']}, failed={entry['failed']}, "
              f"{entry['wall_s_per_run']:.1f} s per run")
        for name in runs[0]["metrics"]:
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            entry["metrics"][name] = stats
            bound = bounds.get(name)
            flag = "" if bound is None else (
                f"bound {bound}" + ("" if stats["spread"] < bound / 3 else "  <-- spread >= bound/3"))
            print(f"  {name:30s} median {stats['median']:12.4f} {stats['unit']:6s} "
                  f"spread {stats['spread']:7.4f}  {flag}")
        summary["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
