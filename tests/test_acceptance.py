"""Acceptance gate: ten independently checkable guarantees of the package.

Each test prints a single PASS/FAIL line (on the real stdout, so it shows
through pytest's capture) in addition to its assertions, so a transcript
of this module doubles as an acceptance report.
"""

import time

import numpy as np
import pytest

from dvpt import accounting, checkpoint, peft, training
from dvpt.accounting import REFERENCE_TOTALS_VITB16, closed_form, report_from_config
from dvpt.model import Model, model_for_policy
from dvpt.peft import DvptConfig, cavpt
from dvpt.tensor import Tape, Tensor, backward
from dvpt.training import (AdamState, adam_step, batch_loss, dice_iou,
                           grad_check, quadratic_weighted_kappa, train_loop)
from dvpt.vit import TokenSequence, VitConfig


@pytest.fixture
def report(capfd):
    """One PASS/FAIL line per criterion, written through pytest's capture."""
    def _report(number, title, passed):
        status = "PASS" if passed else "FAIL"
        with capfd.disabled():
            print(f"[acceptance {number:2d}] {title}: {status}", flush=True)
        assert passed, f"acceptance criterion {number} ({title}) failed"
    return _report


def test_01_gradient_correctness(report, desk_cfg, desk_dvpt):
    start = time.perf_counter()
    model, _ = model_for_policy(desk_cfg, desk_dvpt, "dvpt", seed=5, dtype=np.float64)
    rng = np.random.default_rng(0)
    images = rng.normal(size=(2, 16, 16, 1))
    result = grad_check(model, images, np.array([1, 3]), samples=25, tol=1e-4)
    elapsed = time.perf_counter() - start
    ok = result["passed"] and len(result["samples"]) >= 25 and elapsed < 60.0
    report(1, "analytic gradients vs finite differences", ok)


def test_02_gate_off_identity(report, desk_cfg, desk_dvpt):
    cfg = DvptConfig(desk_dvpt.num_prompts, desk_dvpt.hidden_dim,
                     desk_dvpt.share_every, gate_init=0.0)
    model = Model(desk_cfg, cfg, seed=6)
    rng = np.random.default_rng(1)
    ok = True
    for _ in range(10):
        x = Tensor(rng.normal(size=(2, 16, 16, 1)).astype(np.float32))
        with_branch = model.forward(x, use_adapter=True).data
        without = model.forward(x, use_adapter=False).data
        ok = ok and np.array_equal(with_branch, without)
    report(2, "zero gates match the branch-free forward bitwise", ok)


def test_03_frozen_immutability(report, desk_cfg, desk_dvpt):
    model, policy = model_for_policy(desk_cfg, desk_dvpt, "dvpt", seed=7)
    frozen = {n: t.data.copy() for n, t in model.params.items() if not t.requires_grad}
    rng = np.random.default_rng(2)
    images = rng.normal(size=(10, 16, 16, 1)).astype(np.float32)
    labels = rng.integers(0, 5, size=10)
    # 5 batches/epoch x 10 epochs = 50 optimizer steps
    train_loop(model, images, labels, policy, epochs=10, lr=0.01, batch_size=2,
               seed=0, eval_metrics=False)
    ok = all(np.array_equal(model.params[n].data, snap) for n, snap in frozen.items())
    report(3, "frozen tensors bitwise unchanged after 50 steps", ok)


def test_04_parameter_accounting(report, paper_cfg):
    ok = closed_form(50, 20, 768, 12, 1) == 379_096
    ok = ok and closed_form(50, 20, 768, 12, 2) == 190_048
    for share_every, enumerated in ((1, 420_353), (2, 231_299)):
        rpt = report_from_config(paper_cfg, DvptConfig(50, 20, share_every, 0.0), "dvpt")
        ok = ok and rpt.trainable == enumerated
        ok = ok and sum(rpt.discrepancy_terms.values()) == rpt.discrepancy
        reference = REFERENCE_TOTALS_VITB16[share_every]
        text = accounting.format_report(rpt, reference_total=reference)
        ok = ok and f"{reference:,}" in text
        if share_every == 1:
            ok = ok and rpt.trainable_fraction < 0.006
            ok = ok and abs(rpt.trainable_fraction - 0.0054) < 0.0015
    report(4, "parameter counts, reference totals and gap decomposition", ok)


def test_05_sharing_consistency(report, desk_cfg, desk_dvpt):
    depth = desk_cfg.depth
    shared_cfg = DvptConfig(8, 4, share_every=depth, gate_init=0.3)
    ok = shared_cfg.num_blocks(depth) == 1

    shared = Model(desk_cfg, shared_cfg, seed=8, dtype=np.float64)
    ok = ok and sum(1 for n in shared.params if n.startswith("adapter")) == 5

    # untied twin: one adapter per layer, all initialized to the shared values
    untied = Model(desk_cfg, DvptConfig(8, 4, 1, 0.3), seed=8, dtype=np.float64)
    for layer in range(depth):
        for suffix in ("down.weight", "down.bias", "up.weight", "up.bias", "gate"):
            untied.params[f"adapter{layer}.{suffix}"].data = (
                shared.params[f"adapter0.{suffix}"].data.copy())
    for name, t in shared.params.items():
        if not name.startswith("adapter"):
            untied.params[name].data = t.data.copy()

    rng = np.random.default_rng(3)
    images = rng.normal(size=(2, 16, 16, 1))
    labels = np.array([0, 4])
    for m in (shared, untied):
        m.zero_grad()
        with Tape() as tape:
            loss = batch_loss(m, images, labels)
        backward(loss, tape)
    for suffix in ("down.weight", "down.bias", "up.weight", "up.bias", "gate"):
        tied = shared.params[f"adapter0.{suffix}"].grad
        per_layer = sum(untied.params[f"adapter{layer}.{suffix}"].grad
                        for layer in range(depth))
        ok = ok and np.max(np.abs(tied - per_layer)) < 1e-9
    report(5, "shared-block gradient equals the sum over tied layers", ok)


def test_06_storage_claim(report, paper_cfg, tmp_path):
    full_model, _ = model_for_policy(paper_cfg, None, "full_finetune", seed=0)
    full_path = tmp_path / "full.ckpt"
    checkpoint.save_trainable(full_path, full_model)
    del full_model

    task_model, _ = model_for_policy(paper_cfg, DvptConfig(50, 20, 1, 0.0),
                                     "dvpt", seed=0)
    task_path = tmp_path / "task.ckpt"
    checkpoint.save_trainable(task_path, task_model)

    full_bytes = full_path.stat().st_size
    task_bytes = task_path.stat().st_size
    ok = task_bytes < 0.01 * full_bytes
    report(6, "task checkpoint under 1% of the full checkpoint bytes "
              f"({task_bytes:,} / {full_bytes:,})", ok)


def test_07_learning_efficacy_ordering(report, desk_cfg):
    from dvpt.data import synth_generate
    start = time.perf_counter()
    pretrain = synth_generate("classification", 60, seed=100, family="a")
    source, policy = model_for_policy(desk_cfg, None, "full_finetune", seed=0)
    train_loop(source, pretrain.images, pretrain.labels, policy,
               epochs=15, lr=0.01, batch_size=10, seed=100, eval_metrics=False)
    backbone = {n: t.data.copy() for n, t in source.params.items()}

    finetune = synth_generate("classification", 40, seed=200, family="b")
    adapter_cfg = DvptConfig(8, 4, 1, gate_init=0.0)

    def final_loss(mode, seed):
        model, pol = model_for_policy(desk_cfg, adapter_cfg, mode, seed=seed)
        for name, t in model.params.items():
            if name in backbone:
                t.data = backbone[name].copy()
        history = train_loop(model, finetune.images, finetune.labels, pol,
                             epochs=30, lr=0.01, batch_size=8, seed=seed,
                             eval_metrics=False)
        return history[-1]["loss"]

    wins_vpt = wins_lp = 0
    for seed in range(5):
        dvpt_loss = final_loss("dvpt", seed)
        if dvpt_loss < final_loss("vpt_only", seed):
            wins_vpt += 1
        if dvpt_loss < final_loss("linear_probe", seed):
            wins_lp += 1
    elapsed = time.perf_counter() - start
    ok = wins_vpt >= 4 and wins_lp >= 4 and elapsed < 600.0
    report(7, "adapter beats prompt-only and linear probe in "
              f"{min(wins_vpt, wins_lp)}/5 seeds", ok)


def test_08_metric_oracles(report):
    rng = np.random.default_rng(4)
    ok = True

    def kappa_oracle(o):
        k = o.shape[0]
        total = o.sum()
        num = den = 0.0
        for i in range(k):
            for j in range(k):
                w = (i - j) ** 2 / (k - 1) ** 2
                num += w * o[i, j]
                den += w * o[i].sum() * o[:, j].sum() / total
        return 1.0 - num / den if den else 1.0

    checked = 0
    while checked < 100:
        k = int(rng.integers(2, 6))
        o = rng.integers(0, 6, size=(k, k)).astype(float)
        if o.sum() == 0:
            continue
        idx = np.arange(k)
        w = (idx[:, None] - idx[None, :]) ** 2
        if (w * np.outer(o.sum(1), o.sum(0))).sum() == 0:
            continue
        t, p = np.repeat(np.divmod(np.arange(k * k), k), o.ravel().astype(int), axis=1)
        ok = ok and abs(quadratic_weighted_kappa(t, p) - kappa_oracle(o)) < 1e-10
        ok = ok and abs(training.accuracy(t, p) - np.trace(o) / o.sum()) < 1e-10
        checked += 1

    for _ in range(100):
        a = rng.integers(0, 2, size=20).astype(bool)
        b = rng.integers(0, 2, size=20).astype(bool)
        dice, iou = dice_iou(a, b)
        inter = (a & b).sum()
        if a.sum() + b.sum():
            ok = ok and abs(dice - 2 * inter / (a.sum() + b.sum())) < 1e-10
            ok = ok and abs(iou - inter / (a | b).sum()) < 1e-10
        else:
            ok = ok and (dice, iou) == (1.0, 1.0)

    t = np.repeat(np.arange(3), [2, 3, 4])
    ok = ok and quadratic_weighted_kappa(t, t) == 1.0
    m = np.ones(8, dtype=bool)
    ok = ok and dice_iou(m, m) == (1.0, 1.0)
    ok = ok and dice_iou(m, ~m) == (0.0, 0.0)
    report(8, "metrics match brute-force oracles on 100 random instances", ok)


def test_09_cross_attention_properties(report):
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(100):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 7))
        d_prime = int(rng.integers(1, 6))
        tokens = rng.normal(scale=2.0, size=(2, m + 1 + n, d_prime))
        prompts, keys = tokens[:, :m], tokens[:, m:]
        scores = prompts @ keys.transpose(0, 2, 1) / np.sqrt(d_prime)
        attn = np.exp(scores - scores.max(axis=-1, keepdims=True))
        attn /= attn.sum(axis=-1, keepdims=True)
        ok = ok and np.abs(attn.sum(axis=-1) - 1.0).max() < 1e-6

        seq = TokenSequence(Tensor(tokens), num_prompts=m, has_cls=True,
                            num_patches=n)
        out = cavpt(seq).data
        ok = ok and np.allclose(out, attn @ keys, atol=1e-10)
        if d_prime == 1:
            lo = keys.min(axis=1, keepdims=True)
            hi = keys.max(axis=1, keepdims=True)
            ok = ok and (out >= lo - 1e-12).all() and (out <= hi + 1e-12).all()
    report(9, "attention rows sum to one; outputs stay in the key hull", ok)


def test_10_determinism(report, tmp_path):
    from dvpt import cli
    from test_config_cli import write_config

    pre_cfg = write_config(tmp_path, "pre.ini", policy="full_finetune",
                           epochs=2, count=16, data_seed=1, family="a")
    backbone = tmp_path / "backbone.ckpt"
    assert cli.main(["pretrain", "--config", pre_cfg, "--out", str(backbone)]) == 0

    ft_cfg = write_config(tmp_path, "ft.ini", policy="dvpt",
                          epochs=2, count=12, data_seed=2, family="b")
    outputs = []
    for tag in ("one", "two"):
        ckpt = tmp_path / f"task_{tag}.ckpt"
        csv = tmp_path / f"history_{tag}.csv"
        assert cli.main(["finetune", "--config", ft_cfg, "--backbone", str(backbone),
                         "--history", str(csv), "--out", str(ckpt)]) == 0
        outputs.append((ckpt.read_bytes(), csv.read_bytes()))
    ok = outputs[0] == outputs[1]
    report(10, "repeated finetune is byte-identical (checkpoint and CSV)", ok)
