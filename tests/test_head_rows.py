"""The last block computes only the rows its head reads.

``Model.forward`` runs the last block's FFN residual and the adapter
branch's add on the head rows alone (``TokenSequence.head_rows``).  These
tests compare it with ``all_rows_forward``, which runs every block on every
row and lets the head take its rows from the whole sequence.

The cut is bitwise for every model whose head reads many rows an image.
A shorter product can still take another BLAS path than the longer one:
a plain model's classification head reads one row an image, so the cut
products have as many rows as the batch, and at small batches OpenBLAS
serves them with its small-matrix kernel or with gemv, which round
otherwise.  Plain classification models are compared by closeness.  The
bits also depend on which kernel serves the cut product under the thread
setting, so CI runs this file with one BLAS thread as well, the
benchmark's setting.
"""

import weakref

import numpy as np
import pytest

from dvpt import DvptConfig, VitConfig, peft, vit
from dvpt import tensor as T
from dvpt.model import Model, model_for_policy
from dvpt.tensor import Tape, Tensor, backward
from dvpt.training import batch_loss

DESK = (VitConfig(image_h=16, image_w=16, channels=1, patch_size=4,
                  embed_dim=32, depth=4, heads=4, num_classes=5),
        DvptConfig(num_prompts=8, hidden_dim=4, share_every=1, gate_init=0.3))
# The benchmark's mid config (benchmarks/shapes.py) at depth 2: the cut
# products have the mid config's shapes, and the last block is what is cut.
MID = (VitConfig(image_h=32, image_w=32, channels=1, patch_size=4,
                 embed_dim=128, depth=2, heads=4, num_classes=5),
       DvptConfig(num_prompts=16, hidden_dim=8, share_every=1, gate_init=0.3))
CONFIGS = {"desk": DESK, "mid": MID}
POLICIES = {"plain": "full_finetune", "prompts": "vpt_only", "dvpt": "dvpt"}
BATCHES = (1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 24, 31, 32)


def all_rows_forward(model, images):
    """``Model.forward`` with every row of the last block computed."""
    params, cfg = model.params, model.cfg
    seq = vit.patch_embed(images, params, cfg)
    if model.dvpt_cfg is not None:
        seq = peft.append_prompts(seq, params["prompts"])
    for layer in range(cfg.depth):
        block = f"block{layer}"
        mid = vit.attention_residual(seq.tokens, params, block, cfg)
        x = vit.ffn_residual(mid, params, block)
        if model.has_adapter:
            adapter = f"adapter{layer // model.dvpt_cfg.share_every}"
            x = T.add(x, peft.adapter_branch(seq.with_tokens(mid), params, adapter))
        seq = seq.with_tokens(x)
    if model.task == "classification":
        return vit.classification_head(seq, params)
    return vit.segmentation_head(seq, params, cfg)


def _model(config, variant, task="classification", dtype=np.float32):
    cfg, dvpt_cfg = CONFIGS[config]
    if task == "segmentation":
        cfg = VitConfig(**{**vars(cfg), "num_classes": 2})
    return model_for_policy(cfg, dvpt_cfg, POLICIES[variant], task=task, seed=4, dtype=dtype)[0]


def _images(model, batch, seed=0):
    cfg = model.cfg
    rng = np.random.default_rng(seed)
    return rng.normal(size=(batch, cfg.image_h, cfg.image_w, cfg.channels)).astype(model.dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("variant", ["prompts", "dvpt"])
@pytest.mark.parametrize("config", ["desk", "mid"])
def test_forward_keeps_the_all_rows_bits(config, variant, dtype):
    model = _model(config, variant, dtype=dtype)
    images = _images(model, max(BATCHES))
    for batch in BATCHES:
        x = Tensor(images[:batch])
        cut, full = model.forward(x).data, all_rows_forward(model, x).data
        assert cut.tobytes() == full.tobytes(), f"batch {batch}"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("config", ["desk", "mid"])
def test_plain_forward_is_close_to_all_rows(config, dtype):
    """One head row an image: the cut products may take another BLAS path
    at small batches (see the module docstring), so only closeness holds."""
    model = _model(config, "plain", dtype=dtype)
    images = _images(model, max(BATCHES))
    rtol, atol = (1e-5, 1e-6) if dtype == np.float32 else (1e-12, 1e-14)
    for batch in BATCHES:
        x = Tensor(images[:batch])
        np.testing.assert_allclose(model.forward(x).data, all_rows_forward(model, x).data,
                                   rtol=rtol, atol=atol, err_msg=f"batch {batch}")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("variant", ["plain", "dvpt"])
def test_segmentation_forward_keeps_the_all_rows_bits(variant, dtype):
    """The segmentation head reads every patch row, so the cut products
    keep many rows, plain model or not."""
    model = _model("mid", variant, task="segmentation", dtype=dtype)
    images = _images(model, 8)
    for batch in (1, 3, 8):
        x = Tensor(images[:batch])
        assert model.forward(x).data.tobytes() == all_rows_forward(model, x).data.tobytes()


def _step(model, images, labels):
    """Loss bytes and trainable gradients of one taped step."""
    model.zero_grad()
    with Tape() as tape:
        loss = batch_loss(model, images, labels)
    backward(loss, tape)
    return loss.data.tobytes(), {name: t.grad.copy() for name, t in model.trainable()}


def test_mid_dvpt_step_keeps_the_all_rows_loss_and_gradients(monkeypatch):
    """Each gradient of the cut block sums its terms in the all-rows order,
    so a taped step keeps every bit: the benchmark's mid config, batch 16."""
    cfg = VitConfig(image_h=32, image_w=32, channels=1, patch_size=4,
                    embed_dim=128, depth=6, heads=4, num_classes=5)
    model = model_for_policy(cfg, MID[1], "dvpt", seed=4)[0]
    images = _images(model, 16, seed=1)
    labels = np.random.default_rng(2).integers(0, 5, size=16)
    cut_loss, cut_grads = _step(model, images, labels)
    monkeypatch.setattr(model, "forward", lambda x: all_rows_forward(model, x))
    full_loss, full_grads = _step(model, images, labels)
    assert cut_loss == full_loss
    assert list(cut_grads) == list(full_grads)
    for name, grad in cut_grads.items():
        assert grad.tobytes() == full_grads[name].tobytes(), name


def test_the_head_gets_only_its_rows(monkeypatch):
    """``Model.forward`` hands each head a sequence of its rows alone, laid
    out as those rows are in the whole sequence."""
    seen = []
    for task, head in (("classification", "classification_head"),
                       ("segmentation", "segmentation_head")):
        real = getattr(vit, head)
        monkeypatch.setattr(vit, head, lambda seq, *rest, real=real: seen.append(seq)
                            or real(seq, *rest))
        cfg, dvpt_cfg = DESK
        if task == "segmentation":
            cfg = VitConfig(**{**vars(cfg), "num_classes": 2})
        Model(cfg, dvpt_cfg, task=task).forward(Tensor(np.ones((2, 16, 16, 1), np.float32)))
    layouts = [(s.tokens.shape, s.num_prompts, s.has_cls, s.num_patches) for s in seen]
    assert layouts == [((2, 9, 32), 8, True, 0), ((2, 16, 32), 0, False, 16)]


def test_no_branch_outlives_its_layer(monkeypatch):
    """Each layer's adapter branch is freed once added: at the next
    layer's attention no branch array is alive, so the forward's peak holds
    no extra ``[batch, seq_len, dim]`` array."""
    branches, alive = [], []
    real_branch, real_attention = peft.adapter_branch, vit.attention_residual

    def branch_spy(seq, params, prefix):
        out = real_branch(seq, params, prefix)
        branches.append(weakref.ref(out.data))
        return out

    def attention_spy(*args):
        alive.append(sum(ref() is not None for ref in branches))
        return real_attention(*args)

    monkeypatch.setattr(peft, "adapter_branch", branch_spy)
    monkeypatch.setattr(vit, "attention_residual", attention_spy)
    model = Model(*DESK)
    model.forward(Tensor(_images(model, 2)))
    assert len(branches) == DESK[0].depth and alive == [0] * DESK[0].depth


def test_head_rows_locate_each_task_s_rows():
    seq = vit.TokenSequence(Tensor(np.zeros((1, 8 + 1 + 16, 4))), 8, True, 16)
    assert seq.head_rows("classification") == (0, 9)
    assert seq.head_rows("segmentation") == (9, 25)
    plain = vit.TokenSequence(Tensor(np.zeros((1, 17, 4))), 0, True, 16)
    assert plain.head_rows("classification") == (0, 1)
    assert plain.head_rows("segmentation") == (1, 17)
    cut = seq.rows(0, 9, Tensor(np.zeros((1, 9, 4))))
    assert (cut.num_prompts, cut.has_cls, cut.num_patches) == (8, True, 0)
    assert cut.head_rows("classification") == (0, 9)
