import numpy as np
import pytest

from dvpt import DvptConfig
from dvpt import tensor as T
from dvpt import training
from dvpt.model import Model, model_for_policy
from dvpt.tensor import Tape, Tensor, backward
from dvpt.training import (AdamState, ContractError, MetricsReport, adam_step,
                           accuracy, confusion_matrix, cross_entropy, dice_iou,
                           grad_check, hybrid_dice_ce, quadratic_weighted_kappa,
                           train_loop)

from conftest import finite_diff, rel_err


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
        assert quadratic_weighted_kappa(np.diag([3, 1, 7])) == 1.0

    def test_maximal_disagreement_two_classes(self):
        assert quadratic_weighted_kappa(np.array([[0, 5], [5, 0]])) == pytest.approx(-1.0)

    def test_three_class_case_vs_oracle(self):
        o = np.array([[2, 1, 0], [0, 3, 0], [0, 1, 3]])
        assert quadratic_weighted_kappa(o) == pytest.approx(kappa_oracle(o), abs=1e-12)
        assert quadratic_weighted_kappa(o) == pytest.approx(0.8305084745762712)

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        o = rng.integers(0, 10, size=(4, 4))
        o[0, 0] += 1  # ensure off-diagonal expectation nonzero
        assert quadratic_weighted_kappa(o) == pytest.approx(
            quadratic_weighted_kappa(7 * o), abs=1e-12)

    def test_contract_errors(self):
        with pytest.raises(ContractError):
            quadratic_weighted_kappa(np.zeros((3, 3)))
        with pytest.raises(ContractError):
            quadratic_weighted_kappa(np.array([[5.0]]))

    def test_random_matrices_vs_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            o = rng.integers(0, 8, size=(k, k)).astype(float)
            if o.sum() == 0 or kappa_denominator_zero(o):
                continue
            assert quadratic_weighted_kappa(o) == pytest.approx(kappa_oracle(o), abs=1e-10)


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
        assert accuracy(o) == np.trace(o) / o.sum()

    def test_confusion_row_sums(self):
        y_true = np.array([0, 0, 1, 2, 2, 2])
        y_pred = np.array([0, 1, 1, 2, 0, 2])
        o = confusion_matrix(y_true, y_pred, 3)
        np.testing.assert_array_equal(o.sum(axis=1), [2, 1, 3])


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
            out = original(a)
            tape = T.active_tape()
            if tape is not None and tape._nodes and tape._nodes[-1].output is out:
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_evaluate_names_first_sample_with_non_finite_logits(self, desk_cfg, desk_dvpt):
        model, _ = model_for_policy(desk_cfg, desk_dvpt, "dvpt")
        images, labels = self._data(n=6)
        images[4, 5, 7, 0] = 3e38  # finite, but it overflows float32 in the forward
        with pytest.raises(ContractError, match=r"^non-finite logits for sample 4: "):
            training.evaluate(model, images, labels, batch_size=4)

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


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
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
