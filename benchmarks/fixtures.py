"""Seeded fixtures for the benchmark workloads.

A fixture is a file the workload reads during set-up or task switching:
the pre-trained backbone checkpoint, the task checkpoints and the DVDS
dataset.  The benchmark builds them in a child process, so neither their
build time nor their memory shows in any metric of the measured process.

Run:  python3 benchmarks/fixtures.py <finetune|serve> <case> <out_dir>
"""

import sys

import env

env.pin_blas_threads()
env.use_source_tree()

import numpy as np  # noqa: E402

import shapes  # noqa: E402
from dvpt import checkpoint, data  # noqa: E402
from dvpt.model import is_backbone_param, param_shapes  # noqa: E402


def random_tensors(shape_table, names, rng):
    """Small random weights: LN gammas near 1, adapter gates in [0.5, 1)
    so the adapter branch contributes, everything else N(0, 0.02)."""
    out = {}
    for name in names:
        shape = shape_table[name]
        if name.endswith(".gate"):
            arr = rng.uniform(0.5, 1.0, size=shape)
        else:
            arr = 0.02 * rng.standard_normal(shape, dtype=np.float32)
            if name.endswith(".gamma"):
                arr += 1.0
        out[name] = np.asarray(arr, dtype=np.float32)
    return out


def build(kind, case, out_dir):
    """Write the fixture files of workload kind ``kind`` for input case
    ``case`` into ``out_dir``; deterministic in (kind, case)."""
    if kind == "finetune":
        spec = shapes.FINETUNE
    elif kind == "serve":
        spec = shapes.SERVE
    else:
        raise ValueError(f"unknown fixture kind {kind!r}")
    rng = np.random.default_rng([case, 0])
    table = param_shapes(spec.vit, spec.dvpt)
    backbone = [n for n in table if is_backbone_param(n)]
    checkpoint.save_checkpoint(f"{out_dir}/backbone.ckpt", random_tensors(table, backbone, rng))
    if kind == "finetune":
        dataset = data.synth_generate(
            "classification", spec.train_count, seed=case, family="b",
            h=spec.vit.image_h, w=spec.vit.image_w, channels=spec.vit.channels,
            num_classes=spec.vit.num_classes,
        )
        data.save_dataset(f"{out_dir}/train.dvds", dataset)
        return
    task_names = [n for n in table if not is_backbone_param(n)]
    for task in range(spec.tasks):
        checkpoint.save_checkpoint(f"{out_dir}/task{task}.ckpt",
                                   random_tensors(table, task_names, rng))


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    build(sys.argv[1], int(sys.argv[2]), sys.argv[3])
