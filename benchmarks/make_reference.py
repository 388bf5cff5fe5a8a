"""Regenerate reference.json: the loss trajectory of the first rounds of
each fine-tuning workload, for every input case.

    python3 benchmarks/make_reference.py

The benchmark compares each run's first rounds against these losses.
Regenerate only when a change is meant to alter the numbers, and say so
in the change.
"""

import json
import shutil
import sys

import env

env.pin_blas_threads()
env.use_source_tree()

import fixtures  # noqa: E402
import shapes  # noqa: E402
import workloads  # noqa: E402

# Float32 training on another CPU or BLAS build may round differently:
# forcing OpenBLAS's AVX2 kernels instead of its AVX-512 ones moved these
# losses by at most 1.6e-7 relative.  The bounds leave a tenfold margin and
# still catch a sign error in one backward function.
RTOL = 2e-6
ATOL = 1e-7


def trajectory(policy, case, work):
    spec = shapes.FINETUNE
    fixtures.build("finetune", case, work)
    model, freeze, dataset = workloads.finetune_setup(spec, policy, work)
    return [workloads.train_round(spec, model, freeze, dataset, index, work / "task.ckpt")[0]
            for index in range(shapes.REFERENCE_ROUNDS)]


def main():
    table = {"rtol": RTOL, "atol": ATOL, "rounds": shapes.REFERENCE_ROUNDS, "losses": {}}
    work = env.ROOT / ".bench_work" / "reference"
    for policy in ("dvpt", "full_finetune"):
        entry = table["losses"][policy] = {}
        for case in range(shapes.CASES):
            work.mkdir(parents=True, exist_ok=True)
            try:
                entry[str(case)] = trajectory(policy, case, work)
            finally:
                shutil.rmtree(work)
            print(f"{policy} case {case}: {entry[str(case)]}", file=sys.stderr)
    workloads.REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
