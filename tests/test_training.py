import ctypes
import dataclasses
import gc
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dvpt import DvptConfig, VitConfig
from dvpt import tensor as T
from dvpt import training
from dvpt.binfile import atomic_write
from dvpt.checkpoint import load_backbone, load_checkpoint, load_task_params, save_trainable
from dvpt.data import load_dataset, save_dataset, synth_generate
from dvpt.model import Model, model_for_policy
from dvpt.tensor import Tape, Tensor, backward
from dvpt.training import (AdamState, ContractError, MetricsReport, adam_step,
                           accuracy, cross_entropy, dice_iou,
                           grad_check, hybrid_dice_ce, quadratic_weighted_kappa,
                           train_loop)
from dvpt.vit import ConfigError

from conftest import finite_diff, rel_err

SRC = str(Path(__file__).resolve().parent.parent / "src")


def kappa_oracle(confusion):
    """Brute-force weighted-kappa definition, independent of the library."""
    confusion = np.asarray(confusion, dtype=float)
    k = confusion.shape[0]
    total = confusion.sum()
    num = den = 0.0
    for i in range(k):
        for j in range(k):
            w = (i - j) ** 2 / (k - 1) ** 2
            num += w * confusion[i, j]
            den += w * confusion[i].sum() * confusion[:, j].sum() / total
    return 1.0 - num / den


def label_pairs(confusion):
    """The (y_true, y_pred) label arrays whose confusion matrix is ``confusion``."""
    k = len(confusion)
    return np.repeat(np.divmod(np.arange(k * k), k), np.ravel(confusion).astype(int), axis=1)


class TestCrossEntropy:
    def test_uniform_logits_ln2(self):
        logits = Tensor(np.zeros((3, 2)))
        assert cross_entropy(logits, np.array([0, 1, 0])).item() == pytest.approx(np.log(2))

    def test_confident_correct_near_zero(self):
        logits = np.zeros((2, 4))
        logits[0, 1] = 1000.0
        logits[1, 3] = 1000.0
        loss = cross_entropy(Tensor(logits), np.array([1, 3])).item()
        assert 0.0 <= loss < 1e-8

    def test_scalar_oracle(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(2, 3))
        labels = np.array([2, 0])
        expected = 0.0
        for b in range(2):
            z = logits[b]
            expected += -(z[labels[b]] - np.log(np.exp(z).sum()))
        expected /= 2
        assert cross_entropy(Tensor(logits), labels).item() == pytest.approx(expected)

    def test_out_of_range_label(self):
        with pytest.raises(ContractError):
            cross_entropy(Tensor(np.zeros((1, 3))), np.array([3]))

    @pytest.mark.parametrize("shape", [(4, 1), (3,)])
    def test_labels_that_do_not_fit_the_logits(self, shape):
        want = re.escape(f"labels shaped {shape} do not fit the label shape (4,)")
        with pytest.raises(ContractError, match=f"^{want}$"):
            cross_entropy(Tensor(np.zeros((4, 5))), np.zeros(shape, int))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(1)
        logits = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        labels = np.array([0, 2, 3])
        with Tape() as tape:
            loss = cross_entropy(logits, labels)
        backward(loss, tape)
        fd = finite_diff(lambda: cross_entropy(Tensor(logits.data), labels).item(),
                         logits.data)
        assert rel_err(logits.grad, fd, floor=1e-6).max() < 1e-4


class TestHybridDiceCe:
    def test_perfect_prediction_limit(self):
        masks = np.array([[0, 1], [1, 0]])
        logits = np.zeros((1, 2, 2, 2))
        for y in range(2):
            for x in range(2):
                logits[0, y, x, masks[y, x]] = 1000.0
        loss = hybrid_dice_ce(Tensor(logits), masks[None]).item()
        assert loss == pytest.approx(0.0, abs=1e-3)

    def test_uniform_logits_ce_term(self):
        masks = np.zeros((1, 2, 2), dtype=int)
        loss = hybrid_dice_ce(Tensor(np.zeros((1, 2, 2, 2))), masks).item()
        # CE term is exactly ln 2; the dice term is in (0, 1)
        assert np.log(2) < loss < np.log(2) + 1.0

    def test_scalar_oracle(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(1, 2, 2, 2))
        masks = np.array([[[0, 1], [1, 1]]])
        flat = logits.reshape(4, 2)
        labels = masks.reshape(4)
        probs = np.exp(flat) / np.exp(flat).sum(axis=1, keepdims=True)
        ce = -np.mean([np.log(probs[i, labels[i]]) for i in range(4)])
        onehot = np.eye(2)[labels]
        inter = (probs * onehot).sum(axis=0)
        denom = probs.sum(axis=0) + onehot.sum(axis=0)
        dice = ((2 * inter + 1) / (denom + 1)).mean()
        expected = (1 - dice) + ce
        assert hybrid_dice_ce(Tensor(logits), masks).item() == pytest.approx(expected)

    def test_mask_with_the_logits_pixel_count_but_not_their_shape(self):
        with pytest.raises(ContractError, match=r"^labels shaped \(2, 2, 4\) do not fit"):
            hybrid_dice_ce(Tensor(np.zeros((2, 4, 2, 2))), np.zeros((2, 2, 4), int))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(3)
        logits = Tensor(rng.normal(size=(1, 2, 2, 3)), requires_grad=True)
        masks = np.array([[[0, 2], [1, 1]]])
        with Tape() as tape:
            loss = hybrid_dice_ce(logits, masks)
        backward(loss, tape)
        fd = finite_diff(lambda: hybrid_dice_ce(Tensor(logits.data), masks).item(),
                         logits.data)
        assert rel_err(logits.grad, fd, floor=1e-6).max() < 1e-4


@pytest.mark.parametrize("loss, logits_shape", [
    (cross_entropy, (0, 5)), (hybrid_dice_ce, (0, 4, 4, 2)), (hybrid_dice_ce, (2, 0, 4, 2)),
])
def test_losses_reject_an_empty_batch_before_recording_a_node(loss, logits_shape):
    logits = Tensor(np.zeros(logits_shape), requires_grad=True)
    with Tape() as tape:
        with pytest.raises(ContractError, match=r"^empty batch: logits shaped "):
            loss(logits, np.zeros(logits_shape[:-1], int))
    assert len(tape) == 0


class TestAdam:
    def test_first_step_magnitude(self):
        # bias-corrected first step moves by ~lr regardless of gradient scale
        p = Tensor(np.array([0.0]), requires_grad=True)
        p.grad = np.array([1.0])
        adam_step([("p", p)], AdamState(lr=0.1))
        assert p.data[0] == pytest.approx(-0.1, rel=1e-6)

    def test_zero_gradient_no_motion(self):
        p = Tensor(np.array([1.5, -2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        adam_step([("p", p)], AdamState(lr=0.1))
        np.testing.assert_array_equal(p.data, [1.5, -2.0])

    def test_missing_gradient_rejected(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        with pytest.raises(ContractError):
            adam_step([("p", p)], AdamState())

    def test_deterministic_across_runs(self):
        def run():
            rng = np.random.default_rng(4)
            p = Tensor(rng.normal(size=5), requires_grad=True)
            state = AdamState(lr=0.01)
            for _ in range(10):
                p.grad = np.sin(p.data)
                adam_step([("p", p)], state)
            return p.data.copy()

        assert np.array_equal(run(), run())


class TestKappa:
    def test_perfect_agreement(self):
        assert quadratic_weighted_kappa(*label_pairs(np.diag([3, 1, 7]))) == 1.0

    def test_maximal_disagreement_two_classes(self):
        assert quadratic_weighted_kappa(*label_pairs([[0, 5], [5, 0]])) == -1.0

    def test_three_class_case_vs_oracle(self):
        o = np.array([[2, 1, 0], [0, 3, 0], [0, 1, 3]])
        assert quadratic_weighted_kappa(*label_pairs(o)) == pytest.approx(kappa_oracle(o),
                                                                          abs=1e-12)
        assert quadratic_weighted_kappa(*label_pairs(o)) == pytest.approx(0.8305084745762712)

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        o = rng.integers(0, 10, size=(4, 4))
        o[0, 0] += 1  # ensure off-diagonal expectation nonzero
        assert quadratic_weighted_kappa(*label_pairs(o)) == pytest.approx(
            quadratic_weighted_kappa(*label_pairs(7 * o)), abs=1e-12)

    def test_contract_errors(self):
        with pytest.raises(ContractError, match=r"^empty label arrays$"):
            quadratic_weighted_kappa(np.zeros(0, int), np.zeros(0, int))
        with pytest.raises(ContractError, match=r"^labels shaped \(2,\) do not fit"):
            quadratic_weighted_kappa(np.zeros(3, int), np.zeros(2, int))

    def test_random_matrices_vs_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            o = rng.integers(0, 8, size=(k, k)).astype(float)
            if o.sum() == 0 or kappa_denominator_zero(o):
                continue
            assert quadratic_weighted_kappa(*label_pairs(o)) == pytest.approx(kappa_oracle(o),
                                                                              abs=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(2, 6), data=st.data())
    def test_matches_the_oracle_on_the_confusion_matrix_of_the_same_labels(self, k, data):
        labels = data.draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
                                    min_size=1, max_size=40))
        y_true, y_pred = np.array(labels).T
        o = np.zeros((k, k), int)
        np.add.at(o, (y_true, y_pred), 1)
        expected = 1.0 if kappa_denominator_zero(o) else kappa_oracle(o)
        assert quadratic_weighted_kappa(y_true, y_pred) == pytest.approx(expected, abs=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(labels=st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), min_size=1,
                           max_size=40),
           shift=st.integers(0, (1 << 16) - 100), seed=st.integers(0, 2 ** 32 - 1))
    def test_a_shared_shift_or_permutation_of_the_labels_changes_nothing(self, labels,
                                                                         shift, seed):
        y_true, y_pred = np.array(labels).T
        kappa = quadratic_weighted_kappa(y_true, y_pred)
        assert quadratic_weighted_kappa(y_true + shift, y_pred + shift) == kappa
        order = np.random.default_rng(seed).permutation(len(labels))
        assert quadratic_weighted_kappa(y_true[order], y_pred[order]) == kappa

    def test_memory_does_not_grow_with_the_label_range(self):
        y_true, y_pred = np.random.default_rng(12).integers(0, 1 << 16, size=(2, 64))
        y_true[:2] = 0, (1 << 16) - 1  # labels span [0, 2**16)
        tracemalloc.start()
        try:
            accuracy(y_true, y_pred)
            quadratic_weighted_kappa(y_true, y_pred)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10


def kappa_denominator_zero(o):
    k = o.shape[0]
    idx = np.arange(k)
    w = (idx[:, None] - idx[None, :]) ** 2
    e = np.outer(o.sum(1), o.sum(0))
    return (w * e).sum() == 0


class TestDiceIou:
    def test_identical_masks(self):
        m = np.array([[1, 0], [1, 1]])
        assert dice_iou(m, m) == (1.0, 1.0)

    def test_disjoint_masks(self):
        assert dice_iou(np.array([1, 0, 0]), np.array([0, 1, 0])) == (0.0, 0.0)

    def test_half_overlap(self):
        a = np.array([1, 1, 1, 1, 0, 0])
        b = np.array([1, 1, 0, 0, 1, 1])
        dice, iou = dice_iou(a, b)
        assert dice == pytest.approx(0.5) and iou == pytest.approx(1.0 / 3.0)

    def test_both_empty_convention(self):
        assert dice_iou(np.zeros(4), np.zeros(4)) == (1.0, 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            dice_iou(np.zeros(3), np.zeros(4))

    def test_dice_dominates_iou(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = rng.integers(0, 2, size=12)
            b = rng.integers(0, 2, size=12)
            dice, iou = dice_iou(a, b)
            assert dice >= iou - 1e-12
            if dice not in (0.0, 1.0):
                assert dice > iou


class TestAccuracy:
    def test_trace_over_total(self):
        rng = np.random.default_rng(8)
        o = rng.integers(0, 9, size=(5, 5))
        o[0, 0] += 1
        assert accuracy(*label_pairs(o)) == np.trace(o) / o.sum()

    def test_the_share_of_matching_labels(self):
        y_true = np.array([0, 0, 1, 2, 2, 2])
        y_pred = np.array([0, 1, 1, 2, 0, 2])
        assert accuracy(y_true, y_pred) == 4 / 6


class TestGradCheck:
    def test_passes_on_desk_config(self, desk_cfg, desk_dvpt):
        model, _ = model_for_policy(desk_cfg, desk_dvpt, "dvpt", seed=11, dtype=np.float64)
        rng = np.random.default_rng(9)
        images = rng.normal(size=(2, 16, 16, 1))
        result = grad_check(model, images, np.array([0, 2]), samples=25, tol=1e-4)
        assert result["passed"]

    def test_frozen_tensor_never_selected(self, desk_cfg, desk_dvpt):
        model, _ = model_for_policy(desk_cfg, desk_dvpt, "dvpt", seed=12, dtype=np.float64)
        rng = np.random.default_rng(10)
        result = grad_check(model, rng.normal(size=(1, 16, 16, 1)), np.array([1]),
                            samples=40, tol=1e-4)
        trainable = {n for n, _ in model.trainable()}
        for record in result["samples"]:
            assert record["name"] in trainable

    def test_detects_corrupted_backward_rule(self, desk_cfg, desk_dvpt, monkeypatch):
        original = T.gelu

        def corrupted(a):
            tape = T.active_tape()
            before = None if tape is None else len(tape)
            out = original(a)
            if tape is not None and len(tape) == before + 1:  # gelu recorded its node
                node = tape._nodes[-1]
                real = node.backward_fn
                node.backward_fn = lambda og: tuple(
                    None if g is None else 1.5 * g for g in real(og))
            return out

        monkeypatch.setattr("dvpt.tensor.gelu", corrupted)
        model, _ = model_for_policy(desk_cfg, desk_dvpt, "dvpt", seed=13, dtype=np.float64)
        rng = np.random.default_rng(11)
        result = grad_check(model, rng.normal(size=(1, 16, 16, 1)), np.array([1]),
                            samples=25, tol=1e-4)
        assert not result["passed"]

    def test_requires_float64(self, desk_cfg, desk_dvpt):
        model, _ = model_for_policy(desk_cfg, desk_dvpt, "dvpt", dtype=np.float32)
        with pytest.raises(ContractError):
            grad_check(model, np.zeros((1, 16, 16, 1)), np.array([0]))

    def test_empty_dataset_rejected(self, desk_cfg, desk_dvpt):
        model, _ = model_for_policy(desk_cfg, desk_dvpt, "dvpt", dtype=np.float64)
        with pytest.raises(ContractError, match="empty dataset"):
            grad_check(model, np.zeros((0, 16, 16, 1)), np.zeros(0, np.uint16))

    @pytest.mark.parametrize("kwargs,match", [
        ({"samples": -1}, "samples must be >= 1, got -1"),
        ({"samples": 0}, "samples must be >= 1, got 0"),
        ({"tol": float("nan")}, "tol must be positive and finite, got nan"),
        ({"tol": float("inf")}, "tol must be positive and finite, got inf"),
        ({"tol": -1.0}, "tol must be positive and finite, got -1.0"),
        ({"tol": 0.0}, "tol must be positive and finite, got 0.0"),
    ], ids=["samples -1", "samples 0", "tol nan", "tol inf", "tol -1", "tol 0"])
    def test_rejects_samples_or_tol_it_cannot_check_with(self, desk_cfg, desk_dvpt, kwargs,
                                                         match):
        model, _ = model_for_policy(desk_cfg, desk_dvpt, "dvpt", dtype=np.float64)
        with pytest.raises(ContractError, match=match):
            grad_check(model, np.zeros((1, 16, 16, 1)), np.array([0]), **kwargs)

    def test_a_non_finite_loss_raises_before_any_grad_changes(self, desk_cfg, desk_dvpt):
        model, _ = model_for_policy(desk_cfg, desk_dvpt, "dvpt", seed=11, dtype=np.float64)
        images = np.random.default_rng(12).normal(size=(2, 16, 16, 1))
        images[1, 3, 3, 0] = np.inf
        grads = {name: np.full(t.shape, 7.0) for name, t in model.params.items()}
        for name, t in model.params.items():
            t.grad = grads[name]
        with pytest.raises(ContractError, match=r"^non-finite loss nan: the input data may"):
            grad_check(model, images, np.array([0, 2]), samples=3)
        assert all(t.grad is grads[name] for name, t in model.params.items())

    def test_a_non_finite_gradient_is_named(self, desk_cfg, desk_dvpt, monkeypatch):
        model, _ = model_for_policy(desk_cfg, desk_dvpt, "dvpt", seed=11, dtype=np.float64)
        name, param = model.trainable()[-1]
        real = T.backward

        def backward_with_a_nan_gradient(loss, tape):
            real(loss, tape)
            param.grad.flat[0] = np.nan

        monkeypatch.setattr(training, "backward", backward_with_a_nan_gradient)
        with pytest.raises(ContractError, match=rf"^gradient of {re.escape(repr(name))} is not"):
            grad_check(model, np.zeros((1, 16, 16, 1)), np.array([0]), samples=3)

    def test_a_non_finite_perturbed_loss_is_named(self, desk_cfg, desk_dvpt, monkeypatch):
        model, _ = model_for_policy(desk_cfg, desk_dvpt, "dvpt", seed=11, dtype=np.float64)
        real, calls = training.batch_loss, []

        def nan_after_the_analytic_pass(*args):
            calls.append(None)
            loss = real(*args)
            return loss if len(calls) == 1 else Tensor(np.array(np.nan))

        monkeypatch.setattr(training, "batch_loss", nan_after_the_analytic_pass)
        with pytest.raises(ContractError, match=r"^perturbing '.+' gives a non-finite loss"):
            grad_check(model, np.zeros((1, 16, 16, 1)), np.array([0]), samples=1)

    def test_finite_difference_forwards_run_with_no_tape_alive(self, desk_cfg, desk_dvpt,
                                                                monkeypatch):
        tapes = _watch_tapes(monkeypatch)
        alive = _count_alive_tapes_on_entry(monkeypatch, "batch_loss", tapes)
        model, _ = model_for_policy(desk_cfg, desk_dvpt, "dvpt", seed=11, dtype=np.float64)
        images = np.random.default_rng(9).normal(size=(2, 16, 16, 1))
        gc.disable()
        try:
            grad_check(model, images, np.array([0, 2]), samples=3)
        finally:
            gc.enable()
        assert len(tapes) == 1
        assert alive == [1] + [0] * 6  # the analytic forward, then 3 pairs of forwards


class TestTrainLoop:
    def _data(self, n=12, seed=0):
        rng = np.random.default_rng(seed)
        return (rng.normal(size=(n, 16, 16, 1)).astype(np.float32),
                rng.integers(0, 5, size=n))

    def test_zero_lr_leaves_weights_bitwise(self, desk_cfg, desk_dvpt):
        model, policy = model_for_policy(desk_cfg, desk_dvpt, "dvpt", seed=14)
        snapshot = {n: t.data.copy() for n, t in model.params.items()}
        images, labels = self._data()
        train_loop(model, images, labels, policy, epochs=2, lr=0.0, seed=0,
                   eval_metrics=False)
        for name, snap in snapshot.items():
            assert np.array_equal(model.params[name].data, snap), name

    def test_same_seed_identical_history(self, desk_cfg, desk_dvpt):
        images, labels = self._data()

        def run():
            model, policy = model_for_policy(desk_cfg, desk_dvpt, "dvpt", seed=15)
            return train_loop(model, images, labels, policy, epochs=3, lr=0.01,
                              seed=42, eval_metrics=False)

        assert run() == run()

    def test_empty_dataset_rejected(self, desk_cfg, desk_dvpt):
        model, policy = model_for_policy(desk_cfg, desk_dvpt, "dvpt")
        with pytest.raises(ContractError):
            train_loop(model, np.zeros((0, 16, 16, 1)), np.zeros(0), policy, epochs=1)

    def test_evaluate_on_empty_dataset_rejected(self, desk_cfg, desk_dvpt):
        model, _ = model_for_policy(desk_cfg, desk_dvpt, "dvpt")
        with pytest.raises(ContractError, match="empty dataset"):
            training.evaluate(model, np.zeros((0, 16, 16, 1)), np.zeros(0, np.uint16))

    def test_evaluate_names_first_sample_with_non_finite_logits(self, desk_cfg, desk_dvpt):
        model, _ = model_for_policy(desk_cfg, desk_dvpt, "dvpt")
        bad = training.PREDICT_BATCH + 4  # the fifth sample of the second batch
        images, labels = self._data(n=bad + 2)
        images[bad, 5, 7, 0] = 3e38  # finite, but it overflows float32 in the forward
        with pytest.raises(ContractError, match=rf"^non-finite logits for sample {bad}: "):
            training.evaluate(model, images, labels)

    def test_predict_names_first_sample_with_non_finite_logits(self, desk_cfg, desk_dvpt):
        model, _ = model_for_policy(desk_cfg, desk_dvpt, "dvpt")
        model.params["head.bias"].data[2] = np.nan
        images, _ = self._data(n=3)
        with pytest.raises(ContractError, match=r"^non-finite logits for sample 0: "):
            training.predict(model, images)

    def test_predict_on_a_huge_pixel_returns_the_logits_evaluate_scores(self, desk_cfg):
        # the plain model's LayerNorm zeroes the overflowing row, so its
        # logits stay finite
        model, _ = model_for_policy(desk_cfg, None, "full_finetune")
        images, labels = self._data(n=8)
        images[3, 5, 7, 0] = 3e38
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            logits = training.predict(model, images)
            report = training.evaluate(model, images, labels)
        assert np.isfinite(logits).all()
        preds = logits.argmax(axis=-1)
        assert report.accuracy == training.accuracy(labels, preds)
        assert report.kappa == training.quadratic_weighted_kappa(labels, preds)

    @pytest.mark.parametrize("task", ["classification", "segmentation"])
    @pytest.mark.parametrize("bad_label", [-1, 5, 7])
    def test_evaluate_rejects_a_label_outside_the_classes(self, desk_cfg, desk_dvpt,
                                                          task, bad_label):
        model, _ = model_for_policy(desk_cfg, desk_dvpt, "dvpt", task=task)
        rng = np.random.default_rng(3)
        images = rng.normal(size=(6, 16, 16, 1)).astype(np.float32)
        if task == "classification":
            labels = rng.integers(0, 5, size=6)
            labels[2] = bad_label
        else:  # a patch-centre pixel, which is what the metrics score
            labels = rng.integers(0, 5, size=(6, 16, 16))
            labels[2, 6, 10] = bad_label
        with pytest.raises(ContractError, match=rf"^labels outside \[0, 5\): range "):
            training.evaluate(model, images, labels)

    @pytest.mark.parametrize("kwargs", [
        dict(batch_size=0), dict(batch_size=-2), dict(lr=float("nan")), dict(lr=-1.0),
        dict(lr=float("inf")), dict(seed=-1), dict(epochs=-1),
    ], ids=["batch_size 0", "batch_size -2", "lr nan", "lr -1", "lr inf", "seed -1",
            "epochs -1"])
    def test_train_loop_rejects_what_optimizer_config_rejects(self, desk_cfg, desk_dvpt,
                                                              kwargs):
        model, policy = model_for_policy(desk_cfg, desk_dvpt, "dvpt", seed=2)
        snapshot = {n: t.data.copy() for n, t in model.params.items()}
        images, labels = self._data(n=4)
        args = dict(epochs=1, lr=0.01, batch_size=2, seed=0) | kwargs
        with pytest.raises(ConfigError, match=r"^\[optimizer\] "):
            train_loop(model, images, labels, policy, **args)
        assert all(np.array_equal(t.data, snapshot[n]) for n, t in model.params.items())

    def test_descent_sanity_small_lr(self, desk_cfg, desk_dvpt):
        from dvpt.training import batch_loss
        failures = 0
        for seed in range(20):
            model, policy = model_for_policy(desk_cfg, desk_dvpt, "dvpt", seed=seed)
            rng = np.random.default_rng(100 + seed)
            images = rng.normal(size=(4, 16, 16, 1)).astype(np.float32)
            labels = rng.integers(0, 5, size=4)
            before = training.batch_loss(model, images, labels).item()
            model.zero_grad()
            with Tape() as tape:
                loss = batch_loss(model, images, labels)
            backward(loss, tape)
            adam_step(model.trainable(), AdamState(lr=1e-4))
            after = training.batch_loss(model, images, labels).item()
            if after > before:
                failures += 1
        assert failures == 0

    def test_segmentation_loop_runs(self, desk_cfg):
        from dvpt import data as D
        from dvpt.vit import VitConfig
        cfg = VitConfig(num_classes=2)
        ds = D.synth_generate("segmentation", 8, seed=3)
        model, policy = model_for_policy(cfg, None, "full_finetune",
                                         task="segmentation", seed=16)
        history = train_loop(model, ds.images, ds.labels, policy, epochs=2,
                             lr=0.01, seed=1)
        assert len(history) == 2 and "dice" in history[-1]


def _watch_tapes(monkeypatch):
    """Make ``training`` build its tapes from a Tape subclass that keeps a
    weakref to each; returns the list the weakrefs go to."""
    refs = []

    class WatchedTape(Tape):
        def __init__(self):
            super().__init__()
            refs.append(weakref.ref(self))

    monkeypatch.setattr(training, "Tape", WatchedTape)
    return refs


def _count_alive_tapes_on_entry(monkeypatch, name, tapes):
    """Wrap ``training.<name>`` to note, on each call, how many of the
    watched ``tapes`` are still alive; returns the list of counts."""
    alive = []
    original = getattr(training, name)

    def counted(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in tapes))
        return original(*args, **kwargs)

    monkeypatch.setattr(training, name, counted)
    return alive


def _desk_batches_of_four(desk_cfg, desk_dvpt):
    """A dvpt model, its policy, 8 images and labels, and train_loop's
    sample order at seed 0 (two batches of four)."""
    model, policy = model_for_policy(desk_cfg, desk_dvpt, "dvpt", seed=3)
    rng = np.random.default_rng(14)
    images = rng.normal(size=(8, 16, 16, 1)).astype(np.float32)
    return model, policy, images, rng.integers(0, 5, size=8), np.random.default_rng(0).permutation(8)


def test_train_loop_stops_on_nan_loss_before_any_update(desk_cfg, desk_dvpt):
    model, policy, images, labels, order = _desk_batches_of_four(desk_cfg, desk_dvpt)
    images[order[2], 2, 2, 0] = np.nan
    before = {name: t.data.copy() for name, t in model.params.items()}
    with pytest.raises(ContractError, match=r"non-finite loss nan at epoch 0, batch 0"):
        training.train_loop(model, images, labels, policy, epochs=1, batch_size=4,
                            eval_metrics=False, seed=0)
    assert all(np.array_equal(t.data, before[n]) for n, t in model.params.items())


def test_train_loop_stops_on_gradient_too_large_to_square(desk_cfg, desk_dvpt):
    # while the gate is 0 the huge adapter output stays out of the loss but
    # not out of the gate's gradient, whose square overflows float32
    gate_off = DvptConfig(num_prompts=desk_dvpt.num_prompts, hidden_dim=desk_dvpt.hidden_dim,
                          gate_init=0.0)
    model, policy, images, labels, order = _desk_batches_of_four(desk_cfg, gate_off)
    images[order[2], 2, 2, 0] = 1e30
    with pytest.raises(ContractError, match=r"gradient of 'adapter.*' at epoch 0, batch 0 is not"):
        training.train_loop(model, images, labels, policy, epochs=1, batch_size=4,
                            eval_metrics=False, seed=0)
    assert all(np.isfinite(t.data).all() for t in model.params.values())


def test_train_loop_drops_each_tape_before_adam_and_evaluate(desk_cfg, desk_dvpt, monkeypatch):
    model, policy, images, labels, _ = _desk_batches_of_four(desk_cfg, desk_dvpt)
    tapes = _watch_tapes(monkeypatch)
    at_adam = _count_alive_tapes_on_entry(monkeypatch, "adam_step", tapes)
    at_evaluate = _count_alive_tapes_on_entry(monkeypatch, "evaluate", tapes)
    gc.disable()  # reference counting alone must free each tape
    try:
        training.train_loop(model, images, labels, policy, epochs=2, batch_size=4, seed=0)
    finally:
        gc.enable()
    assert len(tapes) == 4
    assert at_adam == [0] * 4 and at_evaluate == [0] * 2


# Counts the minor page faults of each train_loop step, from batch_loss entry
# to adam_step exit, in a process of its own: the heap pin lasts the process.
_STEP_FAULTS = """
import json, resource, sys
import numpy as np
from dvpt import DvptConfig, VitConfig, training
from dvpt.model import model_for_policy

cfg, dvpt, policy = {cfg!r}, {dvpt!r}, {policy!r}
model, freeze = model_for_policy(cfg, dvpt, policy, seed=0, dtype=np.float64)
rng = np.random.default_rng(6)
images, labels = rng.normal(size=(32, 16, 16, 1)), rng.integers(0, 5, size=32)
faults, batch_loss, adam_step = [], training.batch_loss, training.adam_step

def minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

def counted_batch_loss(*args):
    faults.append(-minflt())
    return batch_loss(*args)

def counted_adam_step(*args):
    adam_step(*args)
    faults[-1] += minflt()

training.batch_loss, training.adam_step = counted_batch_loss, counted_adam_step
training.train_loop(model, images, labels, freeze, epochs=3, batch_size=16, seed=0)
print(json.dumps({{"pinned": training._pin_heap(), "faults": faults}}))
"""


@pytest.mark.parametrize("policy", ["dvpt", "full_finetune"])
def test_steps_after_the_first_epoch_fault_almost_no_pages(desk_cfg, desk_dvpt, policy):
    # float64 at batch 16 makes the FFN's hidden activations (~270 KB) larger
    # than glibc's default mmap threshold (128 KiB)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    code = _STEP_FAULTS.format(cfg=desk_cfg, dvpt=desk_dvpt, policy=policy)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    if not report["pinned"]:
        pytest.skip("the C library has no mallopt")
    assert len(report["faults"]) == 6  # 3 epochs of 2 steps
    assert max(report["faults"][2:]) <= 128, report["faults"]


class _Libc:
    """Stands in for ``ctypes.CDLL(None)``; records each ``mallopt`` call."""

    def __init__(self):
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1


def test_pin_heap_sets_glibcs_mmap_and_trim_thresholds(monkeypatch):
    libc = _Libc()
    monkeypatch.setattr(training.ctypes, "CDLL", lambda name: libc)
    assert training._pin_heap() is True
    # M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD is -1 in glibc's malloc.h
    assert libc.calls == [(-3, 32 << 20), (-1, 1 << 30)]
    assert (training.HEAP_MMAP_THRESHOLD, training.HEAP_TRIM_THRESHOLD) == (32 << 20, 1 << 30)


def _no_mallopt(name):
    return object()  # a C library without mallopt: AttributeError


def _no_process_library(name):
    raise TypeError("CDLL(None) is not supported")  # as on Windows


@pytest.mark.parametrize("cdll", [_no_mallopt, _no_process_library],
                         ids=["no_mallopt", "no_process_library"])
def test_pin_heap_changes_nothing_without_mallopt(monkeypatch, cdll):
    monkeypatch.setattr(training.ctypes, "CDLL", cdll)
    assert training._pin_heap() is False


@pytest.mark.parametrize("entry, pins", [
    ("predict", 1), ("evaluate", 1), ("grad_check", 0), ("train_loop", 1),
    ("train_loop with metrics", 3),  # one pin, then one predict per epoch's evaluate
])
def test_the_forward_loops_pin_the_heap(desk_cfg, desk_dvpt, monkeypatch, entry, pins):
    model, freeze = model_for_policy(desk_cfg, desk_dvpt, "dvpt", seed=0, dtype=np.float64)
    rng = np.random.default_rng(8)
    images, labels = rng.normal(size=(4, 16, 16, 1)), rng.integers(0, 5, size=4)
    calls = []
    monkeypatch.setattr(training, "_pin_heap", lambda: calls.append(None))
    run = {
        "predict": lambda: training.predict(model, images),
        "evaluate": lambda: training.evaluate(model, images, labels),
        "grad_check": lambda: grad_check(model, images[:1], labels[:1], samples=2),
        "train_loop": lambda: train_loop(model, images, labels, freeze, epochs=2,
                                         batch_size=2, seed=0, eval_metrics=False),
        "train_loop with metrics": lambda: train_loop(model, images, labels, freeze, epochs=2,
                                                      batch_size=2, seed=0),
    }
    run[entry]()
    assert len(calls) == pins  # train_loop itself pins once per call, not once per epoch


@pytest.mark.parametrize("entry", ["predict", "evaluate", "train_loop"])
def test_a_rejected_forward_loop_pins_nothing(desk_cfg, desk_dvpt, monkeypatch, entry):
    model, freeze = model_for_policy(desk_cfg, desk_dvpt, "dvpt", seed=0)
    images, labels = np.zeros((2, 8, 8, 1)), np.zeros(2, int)  # not the model's geometry
    calls = []
    monkeypatch.setattr(training, "_pin_heap", lambda: calls.append(None))
    run = {
        "predict": lambda: training.predict(model, images),
        "evaluate": lambda: training.evaluate(model, images, labels),
        "train_loop": lambda: train_loop(model, images, labels, freeze, epochs=1),
    }
    with pytest.raises(ContractError, match="images shaped"):
        run[entry]()
    assert calls == []


def test_no_loader_or_writer_calls_mallopt(desk_cfg, desk_dvpt, monkeypatch, tmp_path):
    libc = _Libc()
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    src, _ = model_for_policy(desk_cfg, None, "full_finetune", seed=0)
    save_trainable(tmp_path / "full.ckpt", src)
    save_trainable(tmp_path / "task.ckpt", model_for_policy(desk_cfg, desk_dvpt, "dvpt")[0])
    save_dataset(tmp_path / "train.dvds", synth_generate("classification", 4, seed=0))
    atomic_write(tmp_path / "history.csv", [b"epoch,loss\n"])
    model, _ = model_for_policy(desk_cfg, desk_dvpt, "dvpt", seed=1)
    load_backbone(model, load_checkpoint(tmp_path / "full.ckpt"))
    load_task_params(model, load_checkpoint(tmp_path / "task.ckpt"))
    dataset = load_dataset(tmp_path / "train.dvds")
    assert libc.calls == []
    training.predict(model, dataset.images)  # the stand-in library sees a forward loop's pin
    assert len(libc.calls) == 2


# Counts the minor page faults of each predict call in a process of its own
# that serves a backbone written beforehand: load_backbone pins nothing, so
# whatever keeps the later calls from faulting is predict's own pin.
_PREDICT_FAULTS = """
import json, resource
import numpy as np
from dvpt import DvptConfig, VitConfig, training
from dvpt.checkpoint import load_backbone, load_checkpoint
from dvpt.model import model_for_policy

model, _ = model_for_policy({cfg!r}, {dvpt!r}, "dvpt", seed=1)
load_backbone(model, load_checkpoint({path!r}))
images = np.random.default_rng(6).normal(size=(16, 32, 32, 1)).astype(np.float32)
faults = []
for _ in range(6):
    faults.append(-resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    training.predict(model, images)
    faults[-1] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(json.dumps({{"pinned": training._pin_heap(), "faults": faults}}))
"""


def test_a_served_predict_after_the_first_faults_almost_no_pages(tmp_path):
    # the benchmark's mid config: at 16 images the FFN's hidden activations
    # (~2.6 MB) are far above glibc's default mmap threshold (128 KiB)
    cfg = VitConfig(image_h=32, image_w=32, channels=1, patch_size=4, embed_dim=128, depth=6,
                    heads=4, num_classes=5)
    dvpt = DvptConfig(num_prompts=16, hidden_dim=8)
    save_trainable(tmp_path / "backbone.ckpt", model_for_policy(cfg, None, "full_finetune")[0])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    code = _PREDICT_FAULTS.format(cfg=cfg, dvpt=dvpt, path=str(tmp_path / "backbone.ckpt"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    if not report["pinned"]:
        pytest.skip("the C library has no mallopt")
    assert max(report["faults"][1:]) <= 128, report["faults"]


def test_importing_the_file_formats_does_not_import_training():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    code = ("import sys, dvpt.checkpoint, dvpt.binfile, dvpt.data; "
            "print(sorted(name for name in sys.modules if name.startswith('dvpt.')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "dvpt.checkpoint" in proc.stdout and "dvpt.training" not in proc.stdout, proc.stdout


def test_train_loop_reports_a_frozen_tensor_that_changed(desk_cfg, desk_dvpt, monkeypatch):
    model, policy, images, labels, _ = _desk_batches_of_four(desk_cfg, desk_dvpt)
    frozen = next(name for name, t in model.params.items() if not t.requires_grad)
    original = training.adam_step

    def adam_step_that_writes_a_frozen_weight(trainable, state):
        original(trainable, state)
        if state.step == 2:
            model.params[frozen].data.flat[0] += 1.0

    monkeypatch.setattr(training, "adam_step", adam_step_that_writes_a_frozen_weight)
    with pytest.raises(AssertionError,
                       match=f"^frozen tensor {re.escape(repr(frozen))} changed during training$"):
        training.train_loop(model, images, labels, policy, epochs=2, batch_size=4,
                            eval_metrics=False, seed=0)


def test_train_loop_holds_no_copy_of_the_frozen_tensors():
    # wide and shallow on one-token images: the frozen weights outweigh
    # everything a step allocates
    cfg = VitConfig(image_h=4, image_w=4, channels=1, patch_size=4, embed_dim=256, depth=1,
                    heads=4, num_classes=2)
    model, policy = model_for_policy(cfg, DvptConfig(num_prompts=1, hidden_dim=2), "dvpt")
    # reading data draws the weights, before tracing starts
    frozen = sum(t.data.nbytes for t in model.params.values() if not t.requires_grad)
    tracemalloc.start()
    try:
        train_loop(model, np.zeros((2, 4, 4, 1), np.float32), np.array([0, 1]), policy,
                   epochs=1, batch_size=2, eval_metrics=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < frozen / 4, (peak, frozen)


def test_train_loop_reports_a_frozen_zero_that_changed_sign(desk_cfg, desk_dvpt, monkeypatch):
    # 0.0 and -0.0 compare equal, so only a bitwise check sees this write
    model, policy, images, labels, _ = _desk_batches_of_four(desk_cfg, desk_dvpt)
    frozen = next(name for name, t in model.params.items() if not t.requires_grad)
    model.params[frozen].data.flat[0] = 0.0
    original = training.adam_step

    def adam_step_that_negates_a_frozen_zero(trainable, state):
        original(trainable, state)
        model.params[frozen].data.flat[0] = -0.0

    monkeypatch.setattr(training, "adam_step", adam_step_that_negates_a_frozen_zero)
    with pytest.raises(AssertionError,
                       match=f"^frozen tensor {re.escape(repr(frozen))} changed during training$"):
        training.train_loop(model, images, labels, policy, epochs=1, batch_size=4,
                            eval_metrics=False, seed=0)


# ---------------------------------------------------------------------------
# the batch contract batch_loss, evaluate, train_loop and grad_check share

def _run_entry(entry, cfg, dvpt, task, images, labels):
    """Run ``entry`` on a fresh float64 dvpt model; its numbers as one array
    (for train_loop, also every parameter after training).  ``loss`` is the
    task's loss on fixed logits, with no model."""
    if entry == "loss":
        logits = np.linspace(-2.0, 2.0, np.size(labels) * cfg.num_classes)
        loss = cross_entropy if task == "classification" else hybrid_dice_ce
        return loss(Tensor(logits.reshape(np.shape(labels) + (cfg.num_classes,))), labels).data
    model, policy = model_for_policy(cfg, dvpt, "dvpt", task=task, seed=0, dtype=np.float64)
    if entry == "predict":
        return training.predict(model, images)
    if entry == "batch_loss":
        return training.batch_loss(model, images, labels).data
    if entry == "evaluate":
        return np.array(list(training.evaluate(model, images, labels)._columns().values()))
    if entry == "grad_check":
        result = grad_check(model, images, labels, samples=2)
        return np.array([result["max_rel_err"]] + [r[key] for r in result["samples"]
                                                   for key in ("analytic", "finite_diff")])
    history = train_loop(model, images, labels, policy, epochs=1, batch_size=2, seed=0)
    numbers = [value for h in history for key, value in h.items() if key != "epoch"]
    return np.concatenate([numbers] + [t.data.ravel() for t in model.params.values()])


_TAKEN = r"empty dataset|labels outside \[0, \d+\)"

_BROKEN_BATCHES = {  # name -> (model image H and W, images, labels)
    "6 images, 5 labels": (16, np.zeros((6, 16, 16, 1)), np.arange(5) % 5),
    "16x16 images on a 32x32 model": (32, np.zeros((6, 16, 16, 1)), np.arange(6) % 5),
    "3-channel images on a 1-channel model": (16, np.zeros((6, 16, 16, 3)), np.arange(6) % 5),
    "float labels": (16, np.zeros((6, 16, 16, 1)), np.arange(6) % 5 * 1.0),
    "mask labels for classification": (16, np.zeros((6, 16, 16, 1)), np.zeros((6, 16, 16), int)),
    "labels shaped (n, 1)": (16, np.zeros((6, 16, 16, 1)), (np.arange(6) % 5)[:, None]),
}


@pytest.mark.parametrize("entry", ["predict", "batch_loss"])
@pytest.mark.parametrize("images", [np.zeros((2, 8, 8, 1)), np.zeros((0, 16, 16, 1)),
                                    np.zeros((2, 16, 16, 3))],
                         ids=["8x8 images", "no images", "3-channel images"])
def test_predict_and_batch_loss_reject_images_the_model_cannot_read(desk_cfg, desk_dvpt,
                                                                    images, entry):
    labels = np.zeros(len(images), int)
    with pytest.raises(ContractError, match=r"^(empty dataset|images shaped)"):
        _run_entry(entry, desk_cfg, desk_dvpt, "classification", images, labels)


@pytest.mark.parametrize("entry", ["batch_loss", "evaluate", "train_loop", "grad_check"])
@pytest.mark.parametrize("case", list(_BROKEN_BATCHES))
def test_entry_points_reject_a_batch_that_breaks_the_contract(desk_cfg, desk_dvpt, case,
                                                              entry):
    size, images, labels = _BROKEN_BATCHES[case]
    cfg = dataclasses.replace(desk_cfg, image_h=size, image_w=size)
    with pytest.raises(ContractError) as caught:
        _run_entry(entry, cfg, desk_dvpt, "classification", images, labels)
    assert not re.match(_TAKEN, str(caught.value))


@pytest.mark.parametrize("entry", ["batch_loss", "evaluate", "train_loop", "grad_check"])
def test_entry_points_reject_a_mask_label_off_the_patch_centres(desk_cfg, desk_dvpt, entry):
    rng = np.random.default_rng(4)
    images = rng.normal(size=(2, 16, 16, 1))
    masks = rng.integers(0, 5, size=(2, 16, 16))
    masks[1, 0, 0] = 5  # the patch centres are the pixels at 2 mod 4
    with pytest.raises(ContractError, match=r"^labels outside \[0, 5\): range 0\.\.5$"):
        _run_entry(entry, desk_cfg, desk_dvpt, "segmentation", images, masks)


def test_train_loop_rejects_a_label_in_a_later_batch_before_any_update(desk_cfg, desk_dvpt):
    rng = np.random.default_rng(1)
    images = rng.normal(size=(16, 16, 16, 1)).astype(np.float32)
    labels = rng.integers(0, 5, size=16)
    labels[-1] = 7  # seeds 0 and 1 put it in the second batch of eight
    for seed in range(4):
        model, policy = model_for_policy(desk_cfg, desk_dvpt, "dvpt", seed=0)
        before = {name: t.data.copy() for name, t in model.params.items()}
        with pytest.raises(ContractError, match=r"^labels outside \[0, 5\): range 0\.\.7$"):
            train_loop(model, images, labels, policy, epochs=1, seed=seed)
        assert all(np.array_equal(t.data, before[n]) for n, t in model.params.items()), seed


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_entry_points_give_a_finite_rerun_stable_result_or_a_contract_error(
        desk_cfg, desk_dvpt, data):
    draw = data.draw
    entry = draw(st.sampled_from(["evaluate", "train_loop", "grad_check", "predict",
                                  "batch_loss", "loss"]))
    task = draw(st.sampled_from(["classification", "segmentation"]))
    # predict takes no labels and checks only the images; the loss takes no
    # images and checks only the labels
    fault = draw(st.sampled_from({
        "predict": ["none", "geometry", "empty"],
        "loss": ["none", "dtype", "range"],
    }.get(entry, ["none", "count", "geometry", "dtype", "rank", "range"])))
    n = 0 if fault == "empty" else draw(st.integers(1, 3))
    geometry, count = (16, 16, 1), n
    dtype = draw(st.sampled_from([np.int64, np.uint16, np.int8]))
    label_shape = {"classification": (), "segmentation": (16, 16)}[task]
    if fault == "count":
        count = draw(st.sampled_from([n - 1, n + 1]))
    elif fault == "geometry":
        geometry = draw(st.sampled_from([(8, 8, 1), (16, 8, 1), (32, 32, 1), (16, 16, 3)]))
    elif fault == "dtype":
        dtype = draw(st.sampled_from([np.float64, np.float32]))
    elif fault == "rank":  # the other task's labels, or one axis too many
        label_shape = draw(st.sampled_from([(16, 16) if task == "classification" else (),
                                            label_shape + (1,)]))
    rng = np.random.default_rng(draw(st.integers(0, 3)))
    images = rng.normal(size=(n,) + geometry)
    labels = rng.integers(0, 5, size=(count,) + label_shape).astype(dtype)
    valid = fault == "none"
    if fault == "range":  # one label, or one mask pixel, outside [0, 5)
        where = tuple(draw(st.integers(0, size - 1)) for size in labels.shape)
        labels[where] = np.array(draw(st.sampled_from([-1, 5, 7]))).astype(dtype)
    if draw(st.booleans()):
        images = list(images)  # the entry points take a Python list of images too
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            first = _run_entry(entry, desk_cfg, desk_dvpt, task, images, labels)
        except ContractError:
            assert not valid
            return
        assert valid
        second = _run_entry(entry, desk_cfg, desk_dvpt, task, images, labels)
    assert np.isfinite(first).all() and np.array_equal(first, second)


class TestMetricsReport:
    def test_csv_shapes(self):
        r = MetricsReport(task="classification", accuracy=0.5, kappa=0.25)
        assert r.csv_header() == "acc,kappa"
        assert r.csv_row() == "0.500000,0.250000"
        r = MetricsReport(task="segmentation", dice=1.0, iou=1.0)
        assert r.csv_header() == "dice,iou"
        r = MetricsReport(task="segmentation", dice=0.75, iou=0.6)
        assert r.csv_row() == "0.750000,0.600000"
        assert r.key_values() == "dice=0.750000\niou=0.600000"


@pytest.mark.parametrize("task, metrics, text", [
    ("classification", {"acc": 0.25, "kappa": 0.125},
     "epoch,loss,acc,kappa\n0,1.500000,0.250000,0.125000\n1,0.750000,nan,nan\n"),
    ("segmentation", {"dice": 0.5, "iou": 1.0 / 3.0},
     "epoch,loss,dice,iou\n0,1.500000,0.500000,0.333333\n1,0.750000,nan,nan\n"),
], ids=["classification", "segmentation"])
def test_history_csv_text(task, metrics, text):
    # the second epoch carries no metrics, as with eval_metrics=False
    history = [{"epoch": 0, "loss": 1.5, **metrics}, {"epoch": 1, "loss": 0.75}]
    assert training.history_csv(history, task) == text
