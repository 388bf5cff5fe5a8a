"""Losses, Adam optimizer, evaluation metrics, the finite-difference
gradient checker and the training loop.
"""

import ctypes
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .data import as_array, check_labels, label_shape
from .tensor import Tape, Tensor, backward
from .vit import MAX_CLASSES, ConfigError, check_integers


class ContractError(ValueError):
    """Raised when a caller violates an operation's preconditions."""


_HUGE_INPUT = ": the input data may hold huge or non-finite values"
# numpy's errstate for the forward and backward of huge inputs: the finiteness
# checks after those calls report an overflow as one typed error.
_OVERFLOW_CHECKED = dict(over="ignore", invalid="ignore")
ADAM_B1, ADAM_B2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator eps
PREDICT_BATCH = 32  # images per untaped forward in predict and evaluate
FD_STEP = 1e-5  # grad_check's central-difference perturbation
# glibc heap settings, set only by the forward loops (train_loop, predict):
# arrays below HEAP_MMAP_THRESHOLD come from the heap, not fresh mappings, and
# the heap keeps up to HEAP_TRIM_THRESHOLD free at its top instead of trimming.
HEAP_MMAP_THRESHOLD = 32 << 20
HEAP_TRIM_THRESHOLD = 1 << 30
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, from glibc's malloc.h


# ---------------------------------------------------------------------------
# losses

def _one_hot(labels, logits):
    """``labels`` one-hot, shaped and typed as ``logits``; raises ContractError on
    an empty batch or unless ``check_labels`` accepts them shaped ``logits.shape[:-1]``."""
    labels = check_labels(labels, logits.shape[:-1], logits.shape[-1], ContractError)
    if not labels.size:
        raise ContractError(f"empty batch: logits shaped {logits.shape}")
    out = np.zeros(logits.shape, dtype=logits.dtype)
    np.put_along_axis(out, labels[..., None], 1.0, axis=-1)
    return out


def _mean_nll(logits, onehot):
    """Mean over the leading axes of -log softmax(logits) at ``onehot``'s ones."""
    log_z = T.logsumexp(logits, axis=-1)
    log_probs = T.add(logits, T.scale(log_z, -1.0))
    picked = T.tsum(T.mul(log_probs, onehot), axis=-1)
    return T.scale(T.tmean(picked), -1.0)


def cross_entropy(logits, labels):
    """Mean over the batch of -log softmax(logits)[label], via log-sum-exp."""
    return _mean_nll(logits, Tensor(_one_hot(labels, logits)))


def hybrid_dice_ce(logits, masks):
    """Soft-Dice loss (smoothing 1) plus pixel cross-entropy, summed unweighted.

    ``logits``: [batch, ..., K] per-pixel class logits; ``masks``: integer
    labels shaped ``logits.shape[:-1]``.
    """
    onehot = Tensor(_one_hot(masks, logits).reshape(-1, logits.shape[-1]))
    flat = T.reshape(logits, onehot.shape)
    ce = _mean_nll(flat, onehot)

    probs = T.softmax(flat, axis=-1)
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
        check_integers({"[optimizer] epochs": self.epochs, "[optimizer] seed": self.seed},
                       ConfigError, low=0)
        check_integers({"[optimizer] batch_size": self.batch_size}, ConfigError, low=1)
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

def _label_pair(y_true, y_pred):
    """Both label arrays, flat as int64; raises ContractError unless they are
    integer arrays of one non-empty shape with every label in [0, MAX_CLASSES)."""
    y_true = check_labels(y_true, np.shape(y_true), MAX_CLASSES, ContractError)
    y_pred = check_labels(y_pred, y_true.shape, MAX_CLASSES, ContractError)
    if not y_true.size:
        raise ContractError("empty label arrays")
    return y_true.astype(np.int64).ravel(), y_pred.astype(np.int64).ravel()


def accuracy(y_true, y_pred):
    y_true, y_pred = _label_pair(y_true, y_pred)
    return float(np.count_nonzero(y_true == y_pred)) / float(y_true.size)


def quadratic_weighted_kappa(y_true, y_pred):
    """Chance-corrected ordinal agreement with (i-j)^2/(K-1)^2 weights, read
    from the labels: the (K-1)^2 scale cancels, and the chance term needs only
    each side's label sum and sum of squares.  The sums are exact integers, so
    the result is order-independent; 1.0 when both sides hold one class only."""
    t, p = _label_pair(y_true, y_pred)
    n = t.size
    numer = n * int(np.dot(t - p, t - p))
    denom = n * int(np.dot(t, t) + np.dot(p, p)) - 2 * int(t.sum()) * int(p.sum())
    return 1.0 - numer / denom if denom else 1.0


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

def _check_images(cfg, images):
    """The image half of the batch contract, from shapes alone: a non-empty
    (n, H, W, C) stack of ``cfg``'s geometry.  Returns its shape."""
    shape = as_array(images, "images", ContractError).shape
    if shape[:1] == (0,):
        raise ContractError("empty dataset")
    geometry = (cfg.image_h, cfg.image_w, cfg.channels)
    if shape[1:] != geometry:
        raise ContractError(f"images shaped {shape}, not (n, H, W, C) with (H, W, C) = {geometry}")
    return shape


def _check_batch(cfg, task, images, labels):
    """The batch contract of every entry point that takes labels with its
    images, for a ``task`` model of config ``cfg``: every label, and every
    mask pixel, in [0, K).  Returns the scored labels; a mask is scored at
    its patch-centre pixels."""
    shape = _check_images(cfg, images)
    labels = check_labels(labels, label_shape(task, shape), cfg.num_classes, ContractError)
    if task == "segmentation":
        half = cfg.patch_size // 2
        labels = labels[:, half::cfg.patch_size, half::cfg.patch_size]
    return labels


def batch_loss(model, images, labels):
    """Forward + task loss as a Tensor (recordable on an active tape).
    Raises ContractError, before the forward, on a batch ``_check_batch``
    rejects."""
    labels = _check_batch(model.cfg, model.task, images, labels)
    logits = model.forward(Tensor(np.asarray(images, dtype=model.dtype)))
    loss = cross_entropy if model.task == "classification" else hybrid_dice_ce
    return loss(logits, labels)


def predict(model, images):
    """Logits for a stack of images, computed without taping,
    ``PREDICT_BATCH`` images at a time, under ``_OVERFLOW_CHECKED``.
    Raises ContractError on images ``_check_images`` rejects, or naming the
    first sample whose logits are not finite.  Pins the process's heap
    (``_pin_heap``) once the images are accepted."""
    _check_images(model.cfg, images)
    _pin_heap()
    outs = []
    with np.errstate(**_OVERFLOW_CHECKED):
        for start in range(0, len(images), PREDICT_BATCH):
            x = Tensor(np.asarray(images[start:start + PREDICT_BATCH], dtype=model.dtype))
            outs.append(model.forward(x).data)
    logits = np.concatenate(outs, axis=0)
    finite = np.isfinite(logits.reshape(len(logits), -1)).all(axis=1)
    if not finite.all():
        raise ContractError(
            f"non-finite logits for sample {np.argmin(finite)}{_HUGE_INPUT}")
    return logits


def evaluate(model, images, labels):
    """MetricsReport on a dataset, order-independent by construction; raises
    ContractError on a batch ``_check_batch`` rejects or logits ``predict``
    rejects."""
    labels = _check_batch(model.cfg, model.task, images, labels)
    preds = predict(model, images).argmax(axis=-1)
    if model.task == "classification":
        return MetricsReport(model.task, accuracy=accuracy(labels, preds),
                             kappa=quadratic_weighted_kappa(labels, preds))
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
    finite and ``_check_batch`` accepts the batch; a rejected batch, or a
    non-finite loss, leaves every ``grad`` as it was.  The passes run under
    ``_OVERFLOW_CHECKED`` and raise ContractError, naming the tensor, on a
    non-finite gradient or perturbed loss, so no NaN reads as a pass.
    """
    check_integers({"grad_check samples": samples}, ContractError, low=1)
    if not 0 < tol < math.inf:
        raise ContractError(f"grad_check tol must be positive and finite, got {tol}")
    if model.dtype != np.float64:
        raise ContractError("grad_check requires a float64 model")
    with np.errstate(**_OVERFLOW_CHECKED), Tape() as tape:
        loss = batch_loss(model, images, labels)
        if not np.isfinite(loss.item()):
            raise ContractError(f"non-finite loss {loss.item()}{_HUGE_INPUT}")
        model.zero_grad()
        backward(loss, tape)
    del tape  # the finite-difference forwards below run untaped

    trainable = model.trainable()
    for name, param in trainable:
        if not np.isfinite(param.grad).all():
            raise ContractError(f"gradient of {name!r} is not finite{_HUGE_INPUT}")
    sizes = np.array([t.size for _, t in trainable])
    rng = np.random.default_rng(seed)
    flat_choices = rng.choice(int(sizes.sum()), size=min(samples, int(sizes.sum())),
                              replace=False)
    offsets = np.cumsum(sizes)

    worst = 0.0
    records = []
    with np.errstate(**_OVERFLOW_CHECKED):  # rel is finite or inf once fd is finite
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
            if not np.isfinite([up, down, fd]).all():
                raise ContractError(f"perturbing {name!r} gives a non-finite loss{_HUGE_INPUT}")
            analytic = param.grad.ravel()[local]
            rel = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-6)
            worst = max(worst, rel)
            records.append({"name": name, "index": local, "analytic": float(analytic),
                            "finite_diff": float(fd), "rel_err": float(rel)})
    return {"max_rel_err": worst, "passed": worst < tol, "tol": tol,
            "samples": records}


# ---------------------------------------------------------------------------
# training loop


def _digest(array):
    """A SHA-256 digest of ``array``'s bytes, in row-major order."""
    return hashlib.sha256(np.ascontiguousarray(array)).digest()


def _pin_heap():
    """Pin glibc's heap to ``HEAP_MMAP_THRESHOLD`` and ``HEAP_TRIM_THRESHOLD``
    for the rest of the process, so each step or forward reuses the pages
    the one before it freed rather than faulting new ones in.  Returns
    False, and changes nothing, where the C library has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, TypeError):  # no mallopt; CDLL(None) is a TypeError on Windows
        return False
    mallopt(_M_MMAP_THRESHOLD, HEAP_MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, HEAP_TRIM_THRESHOLD)
    return True


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
    ``OptimizerConfig.validate`` rejects.  Checks at the end, against a
    digest of its bytes taken first, that no frozen tensor changed in any
    bit.  Pins the process's heap with ``_pin_heap``."""
    OptimizerConfig(lr=lr, epochs=epochs, batch_size=batch_size, seed=seed).validate()
    _check_batch(model.cfg, model.task, images, labels)
    images, labels = np.asarray(images), np.asarray(labels)  # batches index both
    frozen_digests = {
        name: _digest(t.data) for name, t in model.params.items() if not t.requires_grad
    }
    _pin_heap()
    rng = np.random.default_rng(seed)
    state = AdamState(lr=lr)
    history = []
    for epoch in range(epochs):
        order = rng.permutation(len(images))
        losses = []
        for start in range(0, len(images), batch_size):
            idx = order[start:start + batch_size]
            model.zero_grad()
            where = f"at epoch {epoch}, batch {start // batch_size}"
            with np.errstate(**_OVERFLOW_CHECKED):
                with Tape() as tape:
                    loss = batch_loss(model, images[idx], labels[idx])
                if not np.isfinite(loss.item()):
                    raise ContractError(f"non-finite loss {loss.item()} {where}{_HUGE_INPUT}")
                trainable = model.trainable()
                backward(loss, tape)
                del tape  # frees the step's activations before Adam and evaluate
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
    for name, digest in frozen_digests.items():
        if _digest(model.params[name].data) != digest:
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
