"""Losses, Adam optimizer, evaluation metrics, the finite-difference
gradient checker and the training loop.
"""

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import Tape, Tensor, backward
from .vit import ConfigError


class ContractError(ValueError):
    """Raised when a caller violates an operation's preconditions."""


_HUGE_INPUT = ": the input data may hold huge or non-finite values"


# ---------------------------------------------------------------------------
# losses

def _one_hot(labels, num_classes, dtype):
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ContractError(
            f"labels outside [0, {num_classes}): range {labels.min()}..{labels.max()}"
        )
    out = np.zeros(labels.shape + (num_classes,), dtype=dtype)
    np.put_along_axis(out, labels[..., None], 1.0, axis=-1)
    return out


def cross_entropy(logits, labels):
    """Mean over the batch of -log softmax(logits)[label], via log-sum-exp."""
    num_classes = logits.shape[-1]
    onehot = Tensor(_one_hot(labels, num_classes, logits.dtype))
    log_z = T.logsumexp(logits, axis=-1, keepdims=True)
    log_probs = T.add(logits, T.scale(log_z, -1.0))
    picked = T.tsum(T.mul(log_probs, onehot), axis=-1)
    return T.scale(T.tmean(picked), -1.0)


def hybrid_dice_ce(logits, masks, smooth=1.0):
    """Soft-Dice loss plus pixel cross-entropy, summed unweighted.

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
        T.add_const(T.scale(inter, 2.0), smooth),
        T.add_const(denom, smooth),
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
        if self.lr < 0 or self.epochs < 0 or self.batch_size <= 0:
            raise ConfigError("[optimizer] lr/epochs must be >= 0 and batch_size > 0")
        return self


@dataclass
class AdamState:
    lr: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
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
        m += (1.0 - state.beta1) * (g - m)
        v += (1.0 - state.beta2) * (g * g - v)
        m_hat = m / (1.0 - state.beta1 ** t)
        v_hat = v / (1.0 - state.beta2 ** t)
        param.data = param.data - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


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
    confusion: np.ndarray = None

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


def batch_loss(model, images, labels):
    """Forward + task loss as a Tensor (recordable on an active tape)."""
    x = Tensor(np.asarray(images, dtype=model.dtype))
    logits = model.forward(x)
    if model.task == "classification":
        return cross_entropy(logits, labels)
    grid = reduce_mask_to_grid(labels, model.cfg.patch_size)
    return hybrid_dice_ce(logits, grid)


def predict(model, images, batch_size=32):
    """Logits for a stack of images, computed without taping."""
    outs = []
    for start in range(0, len(images), batch_size):
        x = Tensor(np.asarray(images[start:start + batch_size], dtype=model.dtype))
        outs.append(model.forward(x).data)
    return np.concatenate(outs, axis=0)


def evaluate(model, images, labels, batch_size=32):
    """MetricsReport on a dataset; order-independent by construction."""
    if len(images) == 0:
        raise ContractError("empty dataset")
    logits = predict(model, images, batch_size)
    finite = np.isfinite(logits.reshape(len(logits), -1)).all(axis=1)
    if not finite.all():
        raise ContractError(
            f"non-finite logits for sample {np.argmin(finite)}{_HUGE_INPUT}")
    preds = logits.argmax(axis=-1)
    if model.task == "classification":
        confusion = confusion_matrix(labels, preds, model.cfg.num_classes)
        return MetricsReport(model.task, accuracy=accuracy(confusion),
                             kappa=quadratic_weighted_kappa(confusion), confusion=confusion)
    grid = reduce_mask_to_grid(labels, model.cfg.patch_size)
    dice, iou = dice_iou(preds > 0, grid > 0)
    return MetricsReport(model.task, dice=dice, iou=iou)


# ---------------------------------------------------------------------------
# gradient checking

def grad_check(model, images, labels, samples=25, tol=1e-4, step=1e-5, seed=0):
    """Compare analytic gradients against central finite differences.

    Samples trainable scalars uniformly (frozen tensors are never
    candidates), perturbs each by +-step and recomputes the loss.  Returns
    a dict with the max relative error and pass flag.
    """
    if model.dtype != np.float64:
        raise ContractError("grad_check requires a float64 model")
    if len(images) == 0:
        raise ContractError("empty dataset")
    model.zero_grad()
    with Tape() as tape:
        loss = batch_loss(model, images, labels)
    backward(loss, tape)

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
        param.data.ravel()[local] = original + step
        up = batch_loss(model, images, labels).item()
        param.data.ravel()[local] = original - step
        down = batch_loss(model, images, labels).item()
        param.data.ravel()[local] = original
        fd = (up - down) / (2.0 * step)
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
    """Seeded mini-batch fine-tuning under a freeze policy.

    Returns a per-epoch history of loss (and metrics).  Raises
    ContractError naming the epoch and batch when a batch's loss is not
    finite (before it updates anything), or when a gradient is not finite
    or too large to square (after its update).  Verifies at the end, by
    comparison against a snapshot, that frozen tensors did not move.
    """
    n = len(images)
    if n == 0:
        raise ContractError("empty dataset")
    frozen_snapshot = {
        name: t.data.copy() for name, t in model.params.items() if not t.requires_grad
    }
    rng = np.random.default_rng(seed)
    state = AdamState(lr=lr)
    history = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            model.zero_grad()
            with Tape() as tape:
                loss = batch_loss(model, images[idx], labels[idx])
            where = f"at epoch {epoch}, batch {start // batch_size}"
            if not np.isfinite(loss.item()):
                raise ContractError(f"non-finite loss {loss.item()} {where}{_HUGE_INPUT}")
            backward(loss, tape)
            trainable = model.trainable()
            adam_step(trainable, state)
            # The second moment (running mean of squared gradients) is the
            # first state to go non-finite, from a gradient that is NaN, inf
            # or too large to square; while it stays finite, each Adam
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
