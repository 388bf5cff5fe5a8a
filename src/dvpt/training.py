"""Losses, Adam optimizer, evaluation metrics, the finite-difference
gradient checker and the training loop.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import Tape, Tensor, backward
from .vit import ConfigError


class ContractError(ValueError):
    """Raised when a caller violates an operation's preconditions."""


_HUGE_INPUT = ": the input data may hold huge or non-finite values"
# numpy's errstate for the forward and backward of huge inputs: the finiteness
# checks after those calls report an overflow as one typed error.
_OVERFLOW_CHECKED = dict(over="ignore", invalid="ignore")
ADAM_B1, ADAM_B2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator eps
PREDICT_BATCH = 32  # images per untaped forward in predict and evaluate
FD_STEP = 1e-5  # grad_check's central-difference perturbation


# ---------------------------------------------------------------------------
# losses

def _check_labels(labels, num_classes):
    """``labels`` as an array; raises ContractError unless they are integers
    that all lie in [0, K)."""
    labels = np.asarray(labels)
    if not np.issubdtype(labels.dtype, np.integer):
        raise ContractError(f"labels must be integers, got {labels.dtype}")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ContractError(
            f"labels outside [0, {num_classes}): range {labels.min()}..{labels.max()}")
    return labels


def _one_hot(labels, num_classes, dtype):
    labels = _check_labels(labels, num_classes)
    out = np.zeros(labels.shape + (num_classes,), dtype=dtype)
    np.put_along_axis(out, labels[..., None], 1.0, axis=-1)
    return out


def cross_entropy(logits, labels):
    """Mean over the batch of -log softmax(logits)[label], via log-sum-exp."""
    num_classes = logits.shape[-1]
    onehot = Tensor(_one_hot(labels, num_classes, logits.dtype))
    log_z = T.logsumexp(logits, axis=-1)
    log_probs = T.add(logits, T.scale(log_z, -1.0))
    picked = T.tsum(T.mul(log_probs, onehot), axis=-1)
    return T.scale(T.tmean(picked), -1.0)


def hybrid_dice_ce(logits, masks):
    """Soft-Dice loss (smoothing 1) plus pixel cross-entropy, summed unweighted.

    ``logits``: [batch, ..., K] per-pixel class logits; ``masks``: integer
    labels of the matching spatial shape.
    """
    num_classes = logits.shape[-1]
    n_pixels = int(np.prod(logits.shape[:-1]))
    flat = T.reshape(logits, (n_pixels, num_classes))
    labels = np.asarray(masks).reshape(n_pixels)
    ce = cross_entropy(flat, labels)

    probs = T.softmax(flat, axis=-1)
    onehot = Tensor(_one_hot(labels, num_classes, logits.dtype))
    inter = T.tsum(T.mul(probs, onehot), axis=0)
    denom = T.add(T.tsum(probs, axis=0), T.tsum(onehot, axis=0))
    dice_per_class = T.div(
        T.add_const(T.scale(inter, 2.0), 1.0),
        T.add_const(denom, 1.0),
    )
    dice_loss = T.add_const(T.scale(T.tmean(dice_per_class), -1.0), 1.0)
    return T.add(dice_loss, ce)


# ---------------------------------------------------------------------------
# optimizer

@dataclass
class OptimizerConfig:
    """The ``[optimizer]`` section of a run config: ``train_loop``'s knobs."""

    lr: float = 0.01
    epochs: int = 10
    batch_size: int = 8
    seed: int = 0

    def validate(self):
        if not 0 <= self.lr < math.inf:
            raise ConfigError(f"[optimizer] lr must be finite and >= 0, got {self.lr}")
        if self.epochs < 0 or self.batch_size <= 0:
            raise ConfigError("[optimizer] epochs must be >= 0 and batch_size > 0")
        if self.seed < 0:
            raise ConfigError(f"[optimizer] seed must be >= 0, got {self.seed}")
        return self


@dataclass
class AdamState:
    lr: float = 1e-2
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(trainable, state):
    """One Adam update with bias correction over (name, tensor) pairs.

    Moment buffers are created lazily per trainable tensor; frozen tensors
    never appear here.
    """
    state.step += 1
    t = state.step
    for name, param in trainable:
        if param.grad is None:
            raise ContractError(f"trainable tensor {name!r} has no gradient")
        g = param.grad
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(param.data)
            state.m[name] = m
            state.v[name] = np.zeros_like(param.data)
        v = state.v[name]
        m += (1.0 - ADAM_B1) * (g - m)
        v += (1.0 - ADAM_B2) * (g * g - v)
        m_hat = m / (1.0 - ADAM_B1 ** t)
        v_hat = v / (1.0 - ADAM_B2 ** t)
        param.data = param.data - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# ---------------------------------------------------------------------------
# metrics

def confusion_matrix(y_true, y_pred, num_classes):
    y_true = np.asarray(y_true).ravel()
    y_pred = np.asarray(y_pred).ravel()
    out = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(out, (y_true, y_pred), 1)
    return out


def accuracy(confusion):
    total = confusion.sum()
    if total == 0:
        raise ContractError("empty confusion matrix")
    return float(np.trace(confusion)) / float(total)


def quadratic_weighted_kappa(confusion):
    """Chance-corrected ordinal agreement with (i-j)^2/(K-1)^2 weights."""
    confusion = np.asarray(confusion, dtype=np.float64)
    k = confusion.shape[0]
    if k < 2 or confusion.shape[1] != k:
        raise ContractError(f"confusion matrix must be KxK with K >= 2, got {confusion.shape}")
    if (confusion < 0).any():
        raise ContractError("confusion matrix has negative entries")
    total = confusion.sum()
    if total == 0:
        raise ContractError("confusion matrix is all zeros")
    idx = np.arange(k)
    weights = ((idx[:, None] - idx[None, :]) ** 2) / float((k - 1) ** 2)
    expected = np.outer(confusion.sum(axis=1), confusion.sum(axis=0)) / total
    denom = (weights * expected).sum()
    numer = (weights * confusion).sum()
    if denom == 0.0:
        return 1.0  # all mass in a single class on both sides
    return float(1.0 - numer / denom)


def dice_iou(pred_mask, true_mask):
    """(Dice, IoU) of two binary masks; both-empty counts as perfect."""
    pred_mask = np.asarray(pred_mask).astype(bool)
    true_mask = np.asarray(true_mask).astype(bool)
    if pred_mask.shape != true_mask.shape:
        raise ContractError(f"mask shapes differ: {pred_mask.shape} vs {true_mask.shape}")
    inter = np.logical_and(pred_mask, true_mask).sum()
    a, b = pred_mask.sum(), true_mask.sum()
    if a + b == 0:
        return 1.0, 1.0
    dice = 2.0 * inter / (a + b)
    union = a + b - inter
    iou = inter / union
    return float(dice), float(iou)


# Each task's metrics in CSV column order, as (CSV column, MetricsReport
# field) pairs; a pair written ``(name,) * 2`` is a column named after its
# field.
TASK_METRICS = {
    "classification": (("acc", "accuracy"), ("kappa",) * 2),
    "segmentation": (("dice",) * 2, ("iou",) * 2),
}


@dataclass
class MetricsReport:
    task: str
    accuracy: float = None
    kappa: float = None
    dice: float = None
    iou: float = None

    def _columns(self):
        """CSV column -> value, in column order."""
        return {column: getattr(self, name) for column, name in TASK_METRICS[self.task]}

    def csv_header(self):
        return ",".join(self._columns())

    def csv_row(self):
        return ",".join(f"{value:.6f}" for value in self._columns().values())

    def key_values(self):
        return "\n".join(f"{name}={getattr(self, name):.6f}"
                         for _, name in TASK_METRICS[self.task])


# ---------------------------------------------------------------------------
# batching / forward helpers

def reduce_mask_to_grid(masks, patch_size):
    """Pixel-resolution masks -> patch-grid labels by patch-center sampling."""
    half = patch_size // 2
    return np.asarray(masks)[:, half::patch_size, half::patch_size]


def _check_images(model, images):
    """The image half of the batch contract, from shapes alone: a non-empty
    (n, H, W, C) stack of the model's geometry.  Returns its shape."""
    cfg, shape = model.cfg, np.shape(images)
    if shape[:1] == (0,):
        raise ContractError("empty dataset")
    geometry = (cfg.image_h, cfg.image_w, cfg.channels)
    if shape[1:] != geometry:
        raise ContractError(f"images shaped {shape}, not (n, H, W, C) with (H, W, C) = {geometry}")
    return shape


def _check_batch(model, images, labels):
    """The batch contract of evaluate, train_loop and grad_check; returns the scored labels."""
    shape, labels, cfg = _check_images(model, images), np.asarray(labels), model.cfg
    want = shape[:1] if model.task == "classification" else shape[:3]
    if labels.shape != want:
        raise ContractError(f"labels must be shaped {want}, got {labels.shape}")
    if model.task == "segmentation":  # scored at the patch-centre pixels
        labels = reduce_mask_to_grid(labels, cfg.patch_size)
    return _check_labels(labels, cfg.num_classes)


def batch_loss(model, images, labels):
    """Forward + task loss as a Tensor (recordable on an active tape).
    Raises ContractError on images ``_check_images`` rejects."""
    _check_images(model, images)
    x = Tensor(np.asarray(images, dtype=model.dtype))
    logits = model.forward(x)
    if model.task == "classification":
        return cross_entropy(logits, labels)
    grid = reduce_mask_to_grid(labels, model.cfg.patch_size)
    return hybrid_dice_ce(logits, grid)


def predict(model, images):
    """Logits for a stack of images, computed without taping,
    ``PREDICT_BATCH`` images at a time.  Raises ContractError on images
    ``_check_images`` rejects."""
    _check_images(model, images)
    outs = []
    for start in range(0, len(images), PREDICT_BATCH):
        x = Tensor(np.asarray(images[start:start + PREDICT_BATCH], dtype=model.dtype))
        outs.append(model.forward(x).data)
    return np.concatenate(outs, axis=0)


def evaluate(model, images, labels):
    """MetricsReport on a dataset, order-independent by construction; raises
    ContractError on a batch ``_check_batch`` rejects or on non-finite logits."""
    labels = _check_batch(model, images, labels)
    with np.errstate(**_OVERFLOW_CHECKED):
        logits = predict(model, images)
    finite = np.isfinite(logits.reshape(len(logits), -1)).all(axis=1)
    if not finite.all():
        raise ContractError(
            f"non-finite logits for sample {np.argmin(finite)}{_HUGE_INPUT}")
    preds = logits.argmax(axis=-1)
    if model.task == "classification":
        confusion = confusion_matrix(labels, preds, model.cfg.num_classes)
        return MetricsReport(model.task, accuracy=accuracy(confusion),
                             kappa=quadratic_weighted_kappa(confusion))
    dice, iou = dice_iou(preds > 0, labels > 0)
    return MetricsReport(model.task, dice=dice, iou=iou)


# ---------------------------------------------------------------------------
# gradient checking

def grad_check(model, images, labels, samples=25, tol=1e-4, seed=0):
    """Compare analytic gradients against central finite differences.

    Samples trainable scalars uniformly (frozen tensors are never
    candidates), perturbs each by +-``FD_STEP`` and recomputes the loss with no
    tape alive: the analytic pass's tape is dropped once its backward has
    run.  Returns a dict with the max relative error and pass flag.
    Raises ContractError unless ``samples`` >= 1, ``tol`` is positive and
    finite and ``_check_batch`` accepts the batch.
    """
    if samples < 1:
        raise ContractError(f"grad_check samples must be >= 1, got {samples}")
    if not 0 < tol < math.inf:
        raise ContractError(f"grad_check tol must be positive and finite, got {tol}")
    if model.dtype != np.float64:
        raise ContractError("grad_check requires a float64 model")
    _check_batch(model, images, labels)
    model.zero_grad()
    with Tape() as tape:
        loss = batch_loss(model, images, labels)
    backward(loss, tape)
    del tape  # the finite-difference forwards below run untaped

    trainable = model.trainable()
    sizes = np.array([t.size for _, t in trainable])
    rng = np.random.default_rng(seed)
    flat_choices = rng.choice(int(sizes.sum()), size=min(samples, int(sizes.sum())),
                              replace=False)
    offsets = np.cumsum(sizes)

    worst = 0.0
    records = []
    for flat in sorted(flat_choices):
        tensor_idx = int(np.searchsorted(offsets, flat, side="right"))
        local = int(flat - (offsets[tensor_idx - 1] if tensor_idx else 0))
        name, param = trainable[tensor_idx]
        original = param.data.ravel()[local]
        param.data.ravel()[local] = original + FD_STEP
        up = batch_loss(model, images, labels).item()
        param.data.ravel()[local] = original - FD_STEP
        down = batch_loss(model, images, labels).item()
        param.data.ravel()[local] = original
        fd = (up - down) / (2.0 * FD_STEP)
        analytic = param.grad.ravel()[local]
        rel = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-6)
        worst = max(worst, rel)
        records.append({"name": name, "index": local, "analytic": float(analytic),
                        "finite_diff": float(fd), "rel_err": float(rel)})
    return {"max_rel_err": worst, "passed": worst < tol, "tol": tol,
            "samples": records}


# ---------------------------------------------------------------------------
# training loop


def train_loop(model, images, labels, policy, epochs, lr=1e-2, batch_size=8,
               seed=0, eval_metrics=True):
    """Seeded mini-batch fine-tuning.  ``policy`` is not read: the model's
    ``requires_grad`` flags already hold the freeze policy.

    Each step's tape is dropped once its backward has run, so Adam and
    ``evaluate`` run with none of that step's activations alive.  Returns a
    per-epoch history of loss (and metrics).  Raises ContractError on a batch
    ``_check_batch`` rejects (before any update) and, naming the epoch and
    batch, on a non-finite loss (before its update) or a gradient not finite
    or too large to square (after it); ConfigError on what
    ``OptimizerConfig.validate`` rejects.  Checks at the end that no frozen
    tensor moved."""
    OptimizerConfig(lr=lr, epochs=epochs, batch_size=batch_size, seed=seed).validate()
    images, labels = np.asarray(images), np.asarray(labels)  # batches index both
    _check_batch(model, images, labels)
    frozen_snapshot = {
        name: t.data.copy() for name, t in model.params.items() if not t.requires_grad
    }
    rng = np.random.default_rng(seed)
    state = AdamState(lr=lr)
    history = []
    for epoch in range(epochs):
        order = rng.permutation(len(images))
        losses = []
        # The epoch's steps draw their large forward arrays from one pool,
        # so from the second step on they allocate none.  Leaving the block
        # drops the pool before evaluate.
        with T.BufferPool():
            for start in range(0, len(images), batch_size):
                idx = order[start:start + batch_size]
                model.zero_grad()
                with np.errstate(**_OVERFLOW_CHECKED), Tape() as tape:
                    loss = batch_loss(model, images[idx], labels[idx])
                where = f"at epoch {epoch}, batch {start // batch_size}"
                if not np.isfinite(loss.item()):
                    raise ContractError(f"non-finite loss {loss.item()} {where}{_HUGE_INPUT}")
                trainable = model.trainable()
                with np.errstate(**_OVERFLOW_CHECKED):
                    backward(loss, tape)
                    del tape  # frees the step's activations before Adam and evaluate
                    adam_step(trainable, state)
                # The second moment (running mean of squared gradients) is the
                # first state to go non-finite, from a gradient that is NaN,
                # inf or too large to square; while it stays finite, each Adam
                # update is bounded by a multiple of lr.
                for name, _ in trainable:
                    if not np.isfinite(state.v[name]).all():
                        raise ContractError(
                            f"gradient of {name!r} {where} is not finite or too large to "
                            f"square{_HUGE_INPUT}")
                losses.append(loss.item())
        entry = {"epoch": epoch, "loss": float(np.mean(losses))}
        if eval_metrics:
            entry.update(evaluate(model, images, labels)._columns())
        history.append(entry)
    for name, snap in frozen_snapshot.items():
        current = model.params[name].data
        if not np.array_equal(current, snap):
            raise AssertionError(f"frozen tensor {name!r} changed during training")
    return history


def history_csv(history, task):
    """Render a training history as the CSV the CLI emits."""
    columns = [column for column, _ in TASK_METRICS[task]]
    lines = [",".join(["epoch", "loss"] + columns)]
    for h in history:
        metrics = [f"{h.get(column, float('nan')):.6f}" for column in columns]
        lines.append(",".join([str(h["epoch"]), f"{h['loss']:.6f}"] + metrics))
    return "\n".join(lines) + "\n"
