"""Dense tensors with reverse-mode automatic differentiation.

A small numpy-backed engine: forward operations optionally record onto an
active :class:`Tape`, and ``backward`` replays the tape in reverse to
accumulate gradients.  Only the primitives needed by the transformer and
the prompt-adapter branch are implemented.
"""

import numpy as np
from scipy.special import erf

FLOAT_DTYPES = (np.float32, np.float64)

_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class GradError(RuntimeError):
    """Raised on gradient-contract violations (e.g. non-scalar loss)."""


_TAPE_STACK = []


class Tensor:
    """N-dimensional array with an optional gradient buffer.

    ``grad`` accumulates across backward passes; callers zero it explicitly.
    Data is float32 or float64, row-major.
    """

    __slots__ = ("data", "grad", "requires_grad", "name")

    def __init__(self, data, requires_grad=False, name=None, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(np.float64 if arr.dtype == np.int64 else np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}{tag})"

    def __add__(self, other):
        return add(self, _as_tensor(other, self.dtype))

    def __mul__(self, other):
        return mul(self, _as_tensor(other, self.dtype))

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def __sub__(self, other):
        return add(self, scale(_as_tensor(other, self.dtype), -1.0))


def _as_tensor(x, dtype):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


class _Node:
    __slots__ = ("inputs", "output", "backward_fn")

    def __init__(self, inputs, output, backward_fn):
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of forward operations, replayed in reverse by backward.

    Construction order is topological by definition: an operation is
    appended only after its inputs exist.
    """

    def __init__(self):
        self._nodes = []

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False

    def __len__(self):
        return len(self._nodes)

    def record(self, inputs, output, backward_fn):
        self._nodes.append(_Node(inputs, output, backward_fn))


def active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def backward(loss, tape):
    """Accumulate d(loss)/d(tensor) into ``grad`` for every requires_grad
    leaf of ``loss`` on ``tape``.

    A leaf is a tensor that no node on ``tape`` produced: parameters and
    user inputs.  Intermediates pass their gradient on and keep
    ``grad`` None; each one's gradient is dropped as soon as its node has
    consumed it.  Gradients add onto whatever is already in ``grad``;
    running backward twice without zeroing doubles every gradient exactly.
    """
    if loss.size != 1:
        raise GradError(f"backward requires a scalar loss, got shape {loss.shape}")
    flowing = {id(loss): (loss, np.ones_like(loss.data))}
    for node in reversed(tape._nodes):
        entry = flowing.pop(id(node.output), None)
        if entry is None:
            continue
        grads = node.backward_fn(entry[1])
        for tensor, g in zip(node.inputs, grads):
            if g is None or not tensor.requires_grad:
                continue
            key = id(tensor)
            if key in flowing:
                g = flowing[key][1] + g
            flowing[key] = (tensor, g)
    for tensor, g in flowing.values():
        if not tensor.requires_grad:
            continue
        if tensor.grad is None:
            tensor.grad = np.zeros_like(tensor.data)
        tensor.grad += g


def _emit(data, inputs, backward_fn):
    out = Tensor(data, requires_grad=any(t.requires_grad for t in inputs))
    tape = active_tape()
    if tape is not None and out.requires_grad:
        tape.record(tuple(inputs), out, backward_fn)
    return out


def _reduce_to_shape(grad, shape):
    """Sum a broadcast gradient back down to ``shape``."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise / broadcast arithmetic

def add(a, b):
    def bwd(og):
        return (
            _reduce_to_shape(og, a.shape) if a.requires_grad else None,
            _reduce_to_shape(og, b.shape) if b.requires_grad else None,
        )

    return _emit(a.data + b.data, (a, b), bwd)


def mul(a, b):
    def bwd(og):
        return (
            _reduce_to_shape(og * b.data, a.shape) if a.requires_grad else None,
            _reduce_to_shape(og * a.data, b.shape) if b.requires_grad else None,
        )

    return _emit(a.data * b.data, (a, b), bwd)


def div(a, b):
    def bwd(og):
        ga = gb = None
        if a.requires_grad:
            ga = _reduce_to_shape(og / b.data, a.shape)
        if b.requires_grad:
            gb = _reduce_to_shape(-og * a.data / (b.data * b.data), b.shape)
        return (ga, gb)

    return _emit(a.data / b.data, (a, b), bwd)


def scale(a, factor):
    factor = float(factor)

    def bwd(og):
        return (og * factor,)

    return _emit(a.data * factor, (a,), bwd)


def add_const(a, value):
    def bwd(og):
        return (og,)

    return _emit(a.data + value, (a,), bwd)


def exp(a):
    out_data = np.exp(a.data)

    def bwd(og):
        return (og * out_data,)

    return _emit(out_data, (a,), bwd)


def log(a):
    def bwd(og):
        return (og / a.data,)

    return _emit(np.log(a.data), (a,), bwd)


def gelu(a):
    """Exact Gaussian-CDF GELU: x * Phi(x)."""
    x = a.data
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))

    def bwd(og):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
        return (og * (cdf + x * pdf),)

    return _emit(x * cdf, (a,), bwd)


# ---------------------------------------------------------------------------
# linear algebra

def matmul(a, b):
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    if a.dtype != b.dtype:
        raise ShapeError(f"matmul dtype mismatch: {a.dtype} vs {b.dtype}")

    def bwd(og):
        ga = gb = None
        if a.requires_grad:
            ga = _reduce_to_shape(np.matmul(og, np.swapaxes(b.data, -1, -2)), a.shape)
        if b.requires_grad:
            gb = _reduce_to_shape(np.matmul(np.swapaxes(a.data, -1, -2), og), b.shape)
        return (ga, gb)

    return _emit(np.matmul(a.data, b.data), (a, b), bwd)


def transpose(a, axes):
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def bwd(og):
        return (np.transpose(og, inverse),)

    return _emit(np.transpose(a.data, axes), (a,), bwd)


def reshape(a, shape):
    shape = tuple(shape)
    old = a.shape

    def bwd(og):
        return (og.reshape(old),)

    return _emit(a.data.reshape(shape), (a,), bwd)


def broadcast_to(a, shape):
    shape = tuple(shape)

    def bwd(og):
        return (_reduce_to_shape(og, a.shape),)

    return _emit(np.broadcast_to(a.data, shape).copy(), (a,), bwd)


def linear(x, weight, bias=None):
    """x @ weight (+ bias).  Not a primitive, just the common composition."""
    out = matmul(x, weight)
    if bias is not None:
        out = add(out, bias)
    return out


# ---------------------------------------------------------------------------
# shape surgery

def concat(tensors, axis):
    tensors = list(tensors)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(og):
        pieces = []
        for i, t in enumerate(tensors):
            idx = [slice(None)] * og.ndim
            idx[axis] = slice(offsets[i], offsets[i + 1])
            pieces.append(og[tuple(idx)] if t.requires_grad else None)
        return tuple(pieces)

    return _emit(np.concatenate([t.data for t in tensors], axis=axis), tensors, bwd)


def slice_axis(a, axis, start, stop):
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)

    def bwd(og):
        full = np.zeros_like(a.data)
        full[idx] = og
        return (full,)

    return _emit(a.data[idx].copy(), (a,), bwd)


def split(a, sizes, axis):
    """Split along ``axis`` into consecutive chunks of the given sizes."""
    if sum(sizes) != a.shape[axis]:
        raise ShapeError(f"split sizes {sizes} do not cover axis {axis} of shape {a.shape}")
    parts = []
    start = 0
    for size in sizes:
        parts.append(slice_axis(a, axis, start, start + size))
        start += size
    return parts


# ---------------------------------------------------------------------------
# reductions and normalizers

def tsum(a, axis=None, keepdims=False):
    def bwd(og):
        if axis is None:
            return (np.broadcast_to(og, a.shape).copy(),)
        g = og if keepdims else np.expand_dims(og, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _emit(a.data.sum(axis=axis, keepdims=keepdims), (a,), bwd)


def tmean(a, axis=None, keepdims=False):
    count = a.size if axis is None else a.shape[axis]

    def bwd(og):
        if axis is None:
            return (np.broadcast_to(og, a.shape).copy() / count,)
        g = og if keepdims else np.expand_dims(og, axis)
        return (np.broadcast_to(g, a.shape).copy() / count,)

    return _emit(a.data.mean(axis=axis, keepdims=keepdims), (a,), bwd)


def softmax(a, axis):
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def bwd(og):
        dot = (og * out_data).sum(axis=axis, keepdims=True)
        return (out_data * (og - dot),)

    return _emit(out_data, (a,), bwd)


def logsumexp(a, axis, keepdims=False):
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=axis, keepdims=True)
    out_data = np.log(s) + m
    soft = e / s
    if not keepdims:
        out_data = np.squeeze(out_data, axis=axis)

    def bwd(og):
        g = og if keepdims else np.expand_dims(og, axis)
        return (soft * g,)

    return _emit(out_data, (a,), bwd)


def layernorm(x, gamma, beta, eps=1e-5):
    """Normalize the last axis to zero mean / unit variance, then affine.

    ``eps`` is added inside the square root.
    """
    if x.shape[-1] != gamma.shape[-1] or x.shape[-1] != beta.shape[-1]:
        raise ShapeError(
            f"layernorm feature dim mismatch: x {x.shape}, gamma {gamma.shape}, beta {beta.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    out_data = xhat * gamma.data + beta.data

    def bwd(og):
        dx = dgamma = dbeta = None
        if x.requires_grad:
            dxhat = og * gamma.data
            dx = inv_std * (
                dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            )
        reduce_axes = tuple(range(og.ndim - 1))
        if gamma.requires_grad:
            dgamma = (og * xhat).sum(axis=reduce_axes).reshape(gamma.shape)
        if beta.requires_grad:
            dbeta = og.sum(axis=reduce_axes).reshape(beta.shape)
        return (dx, dgamma, dbeta)

    return _emit(out_data, (x, gamma, beta), bwd)
