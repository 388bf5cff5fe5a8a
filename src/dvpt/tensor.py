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

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}{tag})"


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
    # out= keeps 0-d results arrays: a plain ufunc call returns a numpy
    # scalar there, which the in-place steps cannot write into.
    cdf = np.multiply(x, _INV_SQRT2, out=np.empty_like(x))
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5

    def bwd(og):
        g = np.multiply(x, -0.5, out=np.empty_like(x))
        g *= x
        np.exp(g, out=g)
        g *= _INV_SQRT_2PI
        g *= x
        g += cdf
        # og may be wider than x (a float64 consumer), so not in place.
        return (og * g,)

    return _emit(x * cdf, (a,), bwd)


# ---------------------------------------------------------------------------
# linear algebra

def _check_matmul(a, b):
    """Raise ShapeError unless ``a @ b`` is defined on one dtype; takes
    Tensors or arrays."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    if a.dtype != b.dtype:
        raise ShapeError(f"matmul dtype mismatch: {a.dtype} vs {b.dtype}")


def _matmul_grads(og, a, b, need_a, need_b):
    """The matmul rule: gradients of arrays ``a`` and ``b`` through a @ b,
    None where not needed."""
    ga = gb = None
    if need_a:
        ga = _reduce_to_shape(np.matmul(og, np.swapaxes(b, -1, -2)), a.shape)
    if need_b:
        gb = _reduce_to_shape(np.matmul(np.swapaxes(a, -1, -2), og), b.shape)
    return ga, gb


def matmul(a, b):
    _check_matmul(a, b)

    def bwd(og):
        return _matmul_grads(og, a.data, b.data, a.requires_grad, b.requires_grad)

    return _emit(np.matmul(a.data, b.data), (a, b), bwd)


def linear(x, weight, bias=None):
    """x @ weight (+ bias) as one node.

    The bias is added in place into the product, so it must match the
    product's dtype and last axis exactly; nothing keeps the pre-bias
    product.
    """
    _check_matmul(x, weight)
    out = np.matmul(x.data, weight.data)
    if bias is None:
        inputs = (x, weight)
    else:
        if bias.shape != out.shape[-1:] or bias.dtype != out.dtype:
            raise ShapeError(
                f"linear bias must be 1-D {out.shape[-1:]} {out.dtype}, "
                f"got {bias.shape} {bias.dtype}")
        out += bias.data
        inputs = (x, weight, bias)

    def bwd(og):
        grads = _matmul_grads(og, x.data, weight.data, x.requires_grad, weight.requires_grad)
        if bias is None:
            return grads
        return grads + (_reduce_to_shape(og, bias.shape) if bias.requires_grad else None,)

    return _emit(out, inputs, bwd)


def attention(q, k, v, factor):
    """softmax(q @ k^T * factor) @ v over the last two axes, as one node.

    Only the softmax weights are kept for backward, which replays the
    matmul, softmax, scale, matmul and transpose rules of the unfused
    chain.  ``k`` and ``v`` may be the same tensor.
    """
    factor = float(factor)
    kt = np.swapaxes(k.data, -1, -2)
    _check_matmul(q, kt)
    weights = np.matmul(q.data, kt)
    _check_matmul(weights, v)
    weights *= factor
    _softmax_kernel(weights, -1, out=weights)

    def bwd(og):
        need_weights = q.requires_grad or k.requires_grad
        gw, gv = _matmul_grads(og, weights, v.data, need_weights, v.requires_grad)
        gq = gk = None
        if need_weights:
            gs = _softmax_grad(gw, weights, -1)
            gs *= factor
            gq, gkt = _matmul_grads(gs, q.data, kt, q.requires_grad, k.requires_grad)
            if gkt is not None:
                gk = np.swapaxes(gkt, -1, -2)
        return (gq, gk, gv)

    return _emit(np.matmul(weights, v.data), (q, k, v), bwd)


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


def _softmax_kernel(x, axis, out=None):
    """Shift ``x`` by its max along ``axis``, exponentiate and normalise,
    into ``out`` (a new array when None; may be ``x`` itself)."""
    out = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def _softmax_grad(og, out, axis):
    """The softmax rule, given the softmax output ``out``."""
    dot = (og * out).sum(axis=axis, keepdims=True)
    return out * (og - dot)


def softmax(a, axis):
    out_data = _softmax_kernel(a.data, axis)

    def bwd(og):
        return (_softmax_grad(og, out_data, axis),)

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
    if gamma.dtype != x.dtype or beta.dtype != x.dtype:
        raise ShapeError(
            f"layernorm dtype mismatch: x {x.dtype}, gamma {gamma.dtype}, beta {beta.dtype}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xhat = x.data - mu
    squares = xhat * xhat
    var = squares.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    out_data = np.multiply(xhat, gamma.data, out=squares)
    out_data += beta.data

    def bwd(og):
        dx = dgamma = dbeta = None
        if x.requires_grad:
            dxhat = og * gamma.data
            dx = dxhat - dxhat.mean(axis=-1, keepdims=True)
            proj = dxhat * xhat
            np.multiply(xhat, proj.mean(axis=-1, keepdims=True), out=proj)
            dx -= proj
            dx *= inv_std
        reduce_axes = tuple(range(og.ndim - 1))
        if gamma.requires_grad:
            dgamma = (og * xhat).sum(axis=reduce_axes).reshape(gamma.shape)
        if beta.requires_grad:
            dbeta = og.sum(axis=reduce_axes).reshape(beta.shape)
        return (dx, dgamma, dbeta)

    return _emit(out_data, (x, gamma, beta), bwd)
