"""Print one SHA-256 per case of the bitwise sweep.

    python3 tools/bitwise_sweep.py

The sweep covers the four freeze policies x both tasks x float32/float64
on a small fixed-seed model (depth 5 with adapters shared every 2 layers,
so the last layer reads a remainder block).  Each case hashes the loss and
the ``.grad`` of every trainable tensor after one taped step, the history
CSV and every parameter after a two-epoch ``train_loop`` (whose last batch
is short), and ``predict``'s logits.  Two runs on one machine must print
identical lines; a change meant to keep the numbers must print the same
lines as its parent.
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from dvpt import DvptConfig, VitConfig, data, peft, training  # noqa: E402
from dvpt.model import model_for_policy  # noqa: E402
from dvpt.tensor import Tape, backward  # noqa: E402

DVPT = DvptConfig(num_prompts=8, hidden_dim=4, share_every=2, gate_init=0.3)
NUM_CLASSES = {"classification": 5, "segmentation": 2}


def case_digest(policy, task, dtype):
    cfg = VitConfig(image_h=16, image_w=16, channels=1, patch_size=4, embed_dim=32,
                    depth=5, heads=4, num_classes=NUM_CLASSES[task])
    model, freeze = model_for_policy(cfg, DVPT, policy, task=task, seed=1, dtype=dtype)
    dataset = data.synth_generate(task, 20, seed=3, num_classes=cfg.num_classes)
    images, labels = dataset.images, dataset.labels
    digest = hashlib.sha256()

    with Tape() as tape:
        loss = training.batch_loss(model, images[:8], labels[:8])
    backward(loss, tape)
    digest.update(loss.data.tobytes())
    for _, param in model.trainable():
        digest.update(param.grad.tobytes())

    history = training.train_loop(model, images, labels, freeze, epochs=2, batch_size=8, seed=2)
    digest.update(training.history_csv(history, task).encode())
    for param in model.params.values():
        digest.update(param.data.tobytes())
    digest.update(training.predict(model, images).tobytes())
    return digest.hexdigest()


def main():
    for policy in peft.POLICIES:
        for task in NUM_CLASSES:
            for dtype in (np.float32, np.float64):
                name = np.dtype(dtype).name
                print(f"{policy} {task} {name} {case_digest(policy, task, dtype)}")


if __name__ == "__main__":
    main()
