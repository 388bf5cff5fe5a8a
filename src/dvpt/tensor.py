"""Dense tensors with reverse-mode automatic differentiation.

A small numpy-backed engine: forward operations optionally record onto an
active :class:`Tape`, and ``backward`` replays the tape in reverse to
accumulate gradients.  Only the primitives needed by the transformer and
the prompt-adapter branch are implemented.

A tape node holds only what its backward reads.  Its closure captures
arrays, shapes and the inputs' ``requires_grad`` flags at record time,
never a Tensor, and the node keeps no output.  It names where each
input's gradient goes: the index of the node on the same tape that
produced the input, the input itself if it is a leaf that requires a
gradient, or nothing.  A Tensor carries only a (tape serial, node index)
tag for the node that produced it, so holding a Tensor keeps no graph
alive.

While a :class:`BufferPool` is entered, the large arrays the ops and
``backward`` allocate come from it, so the steps of a training loop reuse
one set of buffers.
"""

import itertools
import math
import sys

import numpy as np
from scipy.special import erf

FLOAT_DTYPES = (np.float32, np.float64)

_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))
LAYERNORM_EPS = 1e-5


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class GradError(RuntimeError):
    """Raised on gradient-contract violations (e.g. non-scalar loss)."""


_TAPE_STACK = []
_TAPE_SERIALS = itertools.count()
_POOL_STACK = []
POOLED_BYTES = 1 << 16  # _empty draws arrays of this many bytes or more from the pool


class Tensor:
    """N-dimensional array with an optional gradient buffer.

    ``grad`` accumulates across backward passes; callers zero it explicitly.
    Data is float32 or float64, row-major.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_producer")

    def __init__(self, data, requires_grad=False, name=None):
        arr = np.asarray(data)
        if arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(np.float64 if arr.dtype == np.int64 else np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._producer = None  # (tape serial, node index) once a tape records it

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
    """One recorded operation: its backward rule, and per input slot the
    source its gradient goes to (see ``Tape._source``)."""

    __slots__ = ("sources", "backward_fn")

    def __init__(self, sources, backward_fn):
        self.sources = sources
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of forward operations, replayed in reverse by backward.

    Construction order is topological by definition: an operation is
    appended only after its inputs exist.
    """

    def __init__(self):
        self._nodes = []
        self._serial = next(_TAPE_SERIALS)

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
        sources = tuple(self._source(t) for t in inputs)
        output._producer = (self._serial, len(self._nodes))
        self._nodes.append(_Node(sources, backward_fn))

    def _source(self, tensor):
        """Where backward sends ``tensor``'s gradient: the index of the node
        on this tape that produced it; else, for a leaf (a tensor no node on
        this tape produced), the tensor itself if it requires a gradient,
        and None if not."""
        producer = tensor._producer
        if producer is not None and producer[0] == self._serial:
            return producer[1]
        return tensor if tensor.requires_grad else None


def active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _refs_from_list():
    buffers = [np.empty(0)]
    return sys.getrefcount(buffers[-1])


# What take's scan counts for a buffer nothing else refers to: the list and
# the call's argument, measured rather than assumed.
_FREE_REFS = _refs_from_list()


class BufferPool:
    """Uninitialised memory reused across training steps.

    ``take`` returns an array viewing a buffer of exactly its byte size,
    so arrays of different shapes and dtypes share buffers.  A buffer is
    handed out again only once nothing but the pool refers to it: every
    view of it, a taken array included, refers to it through ``.base``, so
    a buffer a Tensor or a tape closure still reads is never overwritten,
    and no caller has to hand anything back.  While entered, the pool
    serves the large arrays of ``_empty``.
    """

    def __init__(self):
        self._buffers = {}  # byte size -> buffers

    def __enter__(self):
        _POOL_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _POOL_STACK.pop()
        assert popped is self
        return False

    def take(self, shape, dtype):
        nbytes = math.prod(shape) * dtype.itemsize
        buffers = self._buffers.setdefault(nbytes, [])
        # Newest use first: the most recently taken free buffer is the one
        # most likely still in cache.
        for i in range(len(buffers) - 1, -1, -1):
            if sys.getrefcount(buffers[i]) == _FREE_REFS:
                buffer = buffers.pop(i)
                break
        else:
            buffer = np.empty(nbytes, np.uint8)
        buffers.append(buffer)
        return buffer.view(dtype).reshape(shape)


def _empty(shape, dtype):
    """An uninitialised C-ordered array: from the active pool when there is
    one and the array holds at least ``POOLED_BYTES``, else new."""
    shape, dtype = tuple(shape), np.dtype(dtype)
    if _POOL_STACK and math.prod(shape) * dtype.itemsize >= POOLED_BYTES:
        return _POOL_STACK[-1].take(shape, dtype)
    return np.empty(shape, dtype)


def _pooled(ufunc, *operands):
    """``ufunc(*operands)``, written into an array from ``_empty``."""
    shape = np.broadcast_shapes(*(np.shape(x) for x in operands))
    return ufunc(*operands, out=_empty(shape, np.result_type(*operands)))


def _copy(array):
    """A C-ordered copy of ``array`` in an array from ``_empty``."""
    out = _empty(array.shape, array.dtype)
    out[...] = array
    return out


def _reshape(array, shape):
    """``array.reshape(shape)``: a view where numpy makes one, else the same
    C-ordered copy, in an array from ``_empty``."""
    try:
        return array.reshape(shape, copy=False)
    except ValueError:
        return _copy(array).reshape(shape)


def backward(loss, tape):
    """Accumulate d(loss)/d(tensor) into ``grad`` for every requires_grad
    leaf of ``loss`` on ``tape``.

    A leaf is a tensor that no node on ``tape`` produced: parameters,
    user inputs and tensors produced on another tape.  Gradients flow by
    node index: each node's output gradient is summed from its consumers'
    contributions, handed to its backward rule once every consumer has
    run, and dropped; intermediates keep ``grad`` None.  Contributions to
    one node or leaf add in reverse node order, then slot order within a
    node, each onto the sum so far.  Gradients add onto whatever is
    already in ``grad``; running backward twice without zeroing doubles
    every gradient exactly.
    """
    if loss.size != 1:
        raise GradError(f"backward requires a scalar loss, got shape {loss.shape}")
    flowing = {}  # node index -> gradient of that node's output
    leaves = {}  # id(leaf) -> (leaf, gradient)

    def send(source, g):
        if isinstance(source, int):
            if source in flowing:
                g = _pooled(np.add, flowing[source], g)
            flowing[source] = g
        elif source is not None:
            key = id(source)
            if key in leaves:
                g = leaves[key][1] + g
            leaves[key] = (source, g)

    send(tape._source(loss), np.ones_like(loss.data))
    for index in range(len(tape._nodes) - 1, -1, -1):
        og = flowing.pop(index, None)
        if og is None:
            continue
        node = tape._nodes[index]
        for source, g in zip(node.sources, node.backward_fn(og)):
            if g is not None:
                send(source, g)
    for key in list(leaves):
        leaf, g = leaves.pop(key)  # each gradient goes once it is added
        if leaf.grad is None:
            leaf.grad = np.zeros_like(leaf.data)
        leaf.grad += g


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
    need_a, need_b, a_shape, b_shape = a.requires_grad, b.requires_grad, a.shape, b.shape

    def bwd(og):
        return (
            _reduce_to_shape(og, a_shape) if need_a else None,
            _reduce_to_shape(og, b_shape) if need_b else None,
        )

    return _emit(_pooled(np.add, a.data, b.data), (a, b), bwd)


def mul(a, b):
    need_a, need_b, a_shape, b_shape = a.requires_grad, b.requires_grad, a.shape, b.shape
    # each operand's gradient reads the other operand
    a_data = a.data if need_b else None
    b_data = b.data if need_a else None

    def bwd(og):
        return (
            _reduce_to_shape(_pooled(np.multiply, og, b_data), a_shape) if need_a else None,
            _reduce_to_shape(_pooled(np.multiply, og, a_data), b_shape) if need_b else None,
        )

    return _emit(_pooled(np.multiply, a.data, b.data), (a, b), bwd)


def div(a, b):
    need_a, need_b, a_shape, b_shape = a.requires_grad, b.requires_grad, a.shape, b.shape
    a_data = a.data if need_b else None
    b_data = b.data  # both gradients read the divisor

    def bwd(og):
        ga = gb = None
        if need_a:
            ga = _reduce_to_shape(og / b_data, a_shape)
        if need_b:
            gb = _reduce_to_shape(-og * a_data / (b_data * b_data), b_shape)
        return (ga, gb)

    return _emit(_pooled(np.divide, a.data, b.data), (a, b), bwd)


def scale(a, factor):
    factor = float(factor)

    def bwd(og):
        return (og * factor,)

    return _emit(_pooled(np.multiply, a.data, factor), (a,), bwd)


def add_const(a, value):
    def bwd(og):
        return (og,)

    return _emit(_pooled(np.add, a.data, value), (a,), bwd)


def gelu(a):
    """Exact Gaussian-CDF GELU: x * Phi(x).

    When the node will be recorded, the forward also computes the
    derivative Phi(x) + x * phi(x), and the node keeps only that; an
    untaped forward computes no derivative.  The output buffer holds
    Phi(x) until the derivative has read it, then becomes Phi(x) * x.
    """
    x = a.data
    # _pooled keeps 0-d results arrays: a plain ufunc call returns a numpy
    # scalar there, which the in-place steps cannot write into.
    out = _pooled(np.multiply, x, _INV_SQRT2)
    erf(out, out=out)
    out += 1.0
    out *= 0.5
    taped = a.requires_grad and active_tape() is not None
    if taped:
        g = _pooled(np.multiply, x, -0.5)
        g *= x
        np.exp(g, out=g)
        g *= _INV_SQRT_2PI
        g *= x
        g += out
    out *= x
    if not taped:
        return _emit(out, (a,), None)

    def bwd(og):
        # og may be wider than x (a float64 consumer), so not in place.
        return (_pooled(np.multiply, og, g),)

    return _emit(out, (a,), bwd)


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


def _product(a, b):
    """The array ``a @ b``, written into an array from ``_empty``.  With a
    2-D ``b``, all of ``a``'s rows go through one gemm as one matrix, where
    a batched matmul would call BLAS once per matrix of the batch."""
    if b.ndim == 2:
        rows = _reshape(a, (-1, a.shape[-1]))
        out = np.matmul(rows, b, out=_empty((len(rows), b.shape[1]), np.result_type(a, b)))
        return out.reshape(a.shape[:-1] + b.shape[1:])
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1])
    return np.matmul(a, b, out=_empty(shape, np.result_type(a, b)))


def _matmul_rule(a, b, need_a, need_b):
    """The matmul rule for arrays ``a @ b``: a function from the product's
    gradient to (a's gradient, b's gradient), None where not needed.  It
    keeps ``b`` only for a's gradient and ``a`` only for b's."""
    a_shape, b_shape = a.shape, b.shape
    a = a if need_b else None
    b = b if need_a else None

    def grads(og):
        ga = gb = None
        if need_a:
            ga = _reduce_to_shape(_product(og, np.swapaxes(b, -1, -2)), a_shape)
        if need_b:
            at = np.swapaxes(a, -1, -2)
            if og.shape[:-2] == b_shape[:-2]:
                gb = _product(at, og)
            else:  # summed over the batch at once: a pool buffer would sit idle
                gb = _reduce_to_shape(np.matmul(at, og), b_shape)
        return ga, gb

    return grads


def matmul(a, b):
    _check_matmul(a, b)
    bwd = _matmul_rule(a.data, b.data, a.requires_grad, b.requires_grad)
    return _emit(_product(a.data, b.data), (a, b), bwd)


def linear(x, weight, bias):
    """x @ weight + bias as one node.

    The bias is added in place into the product, so it must match the
    product's dtype and last axis exactly; nothing keeps the pre-bias
    product.  ``matmul`` is the bias-free product.
    """
    _check_matmul(x, weight)
    out = _product(x.data, weight.data)
    if bias.shape != out.shape[-1:] or bias.dtype != out.dtype:
        raise ShapeError(
            f"linear bias must be 1-D {out.shape[-1:]} {out.dtype}, "
            f"got {bias.shape} {bias.dtype}")
    out += bias.data
    product = _matmul_rule(x.data, weight.data, x.requires_grad, weight.requires_grad)
    need_bias, bias_shape = bias.requires_grad, bias.shape

    def bwd(og):
        return product(og) + (_reduce_to_shape(og, bias_shape) if need_bias else None,)

    return _emit(out, (x, weight, bias), bwd)


def attention(q, k, v, factor):
    """softmax(q @ k^T * factor) @ v over the last two axes, as one node.

    Only the softmax weights are kept for backward, which replays the
    matmul, softmax, scale, matmul and transpose rules of the unfused
    chain.  ``k`` and ``v`` may be the same tensor.
    """
    factor = float(factor)
    kt = np.swapaxes(k.data, -1, -2)
    _check_matmul(q, kt)
    weights = _product(q.data, kt)
    _check_matmul(weights, v)
    weights *= factor
    _softmax_kernel(weights, -1, out=weights)
    need_weights = q.requires_grad or k.requires_grad
    weighted = _matmul_rule(weights, v.data, need_weights, v.requires_grad)
    scores = _matmul_rule(q.data, kt, q.requires_grad, k.requires_grad)

    def bwd(og):
        gw, gv = weighted(og)
        gq = gk = None
        if need_weights:
            gs = _softmax_grad(gw, weights, -1)
            gs *= factor
            gq, gkt = scores(gs)
            if gkt is not None:
                gk = np.swapaxes(gkt, -1, -2)
        return (gq, gk, gv)

    return _emit(_product(weights, v.data), (q, k, v), bwd)


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
        return (_reshape(og, old),)

    return _emit(_reshape(a.data, shape), (a,), bwd)


def broadcast_to(a, shape):
    shape = tuple(shape)
    old = a.shape

    def bwd(og):
        return (_reduce_to_shape(og, old),)

    return _emit(_copy(np.broadcast_to(a.data, shape)), (a,), bwd)


# ---------------------------------------------------------------------------
# shape surgery

def concat(tensors, axis):
    tensors = list(tensors)
    needs = [t.requires_grad for t in tensors]
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def bwd(og):
        pieces = []
        for i, need in enumerate(needs):
            idx = [slice(None)] * og.ndim
            idx[axis] = slice(offsets[i], offsets[i + 1])
            pieces.append(og[tuple(idx)] if need else None)
        return tuple(pieces)

    arrays = [t.data for t in tensors]
    shape = list(arrays[0].shape)
    shape[axis] = int(offsets[-1])
    out = _empty(shape, np.result_type(*arrays))
    return _emit(np.concatenate(arrays, axis=axis, out=out), tensors, bwd)


def slice_axis(a, axis, start, stop):
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    shape, dtype = a.shape, a.dtype

    def bwd(og):
        full = _empty(shape, dtype)
        full.fill(0)
        full[idx] = og
        return (full,)

    return _emit(_copy(a.data[idx]), (a,), bwd)


# ---------------------------------------------------------------------------
# reductions and normalizers

def _reduction(a, axis, out_data, count):
    """A sum (``count`` 1) or mean over ``axis`` (None: all), which it drops."""
    shape = a.shape

    def bwd(og):
        g = og if axis is None else np.expand_dims(og, axis)
        return (np.broadcast_to(g, shape) / count,)

    return _emit(out_data, (a,), bwd)


def tsum(a, axis=None):
    return _reduction(a, axis, a.data.sum(axis=axis), 1)


def tmean(a, axis=None):
    return _reduction(a, axis, a.data.mean(axis=axis), a.size if axis is None else a.shape[axis])


def _softmax_kernel(x, axis, out=None):
    """Shift ``x`` by its max along ``axis``, exponentiate and normalise,
    into ``out`` (a new array when None; may be ``x`` itself)."""
    out = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def _softmax_grad(og, out, axis):
    """The softmax rule, given the softmax output ``out``."""
    dot = _pooled(np.multiply, og, out).sum(axis=axis, keepdims=True)
    g = _pooled(np.subtract, og, dot)
    g *= out
    return g


def softmax(a, axis):
    out_data = _softmax_kernel(a.data, axis)

    def bwd(og):
        return (_softmax_grad(og, out_data, axis),)

    return _emit(out_data, (a,), bwd)


def logsumexp(a, axis):
    """log(sum(exp(a))) over ``axis``, which the result keeps with size 1."""
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=axis, keepdims=True)
    out_data = np.log(s) + m
    soft = e / s

    def bwd(og):
        return (soft * og,)

    return _emit(out_data, (a,), bwd)


def layernorm(x, gamma, beta):
    """Normalize the last axis to zero mean / unit variance, then affine;
    ``LAYERNORM_EPS`` is added inside the square root."""
    if x.shape[-1] != gamma.shape[-1] or x.shape[-1] != beta.shape[-1]:
        raise ShapeError(
            f"layernorm feature dim mismatch: x {x.shape}, gamma {gamma.shape}, beta {beta.shape}"
        )
    if gamma.dtype != x.dtype or beta.dtype != x.dtype:
        raise ShapeError(
            f"layernorm dtype mismatch: x {x.dtype}, gamma {gamma.dtype}, beta {beta.dtype}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xhat = _pooled(np.subtract, x.data, mu)
    squares = _pooled(np.multiply, xhat, xhat)
    var = squares.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LAYERNORM_EPS)
    xhat *= inv_std
    out_data = np.multiply(xhat, gamma.data, out=squares)
    out_data += beta.data
    need_x, need_gamma, need_beta = x.requires_grad, gamma.requires_grad, beta.requires_grad
    gamma_shape, beta_shape = gamma.shape, beta.shape
    # x's gradient reads xhat, inv_std and gamma; gamma's reads xhat
    kept_xhat = xhat if need_x or need_gamma else None
    kept_inv_std, kept_gamma = (inv_std, gamma.data) if need_x else (None, None)

    def bwd(og):
        dx = dgamma = dbeta = None
        if need_x:
            dxhat = _pooled(np.multiply, og, kept_gamma)
            dx = _pooled(np.subtract, dxhat, dxhat.mean(axis=-1, keepdims=True))
            proj = _pooled(np.multiply, dxhat, kept_xhat)
            np.multiply(kept_xhat, proj.mean(axis=-1, keepdims=True), out=proj)
            dx -= proj
            dx *= kept_inv_std
        reduce_axes = tuple(range(og.ndim - 1))
        if need_gamma:
            dgamma = (og * kept_xhat).sum(axis=reduce_axes).reshape(gamma_shape)
        if need_beta:
            dbeta = og.sum(axis=reduce_axes).reshape(beta_shape)
        return (dx, dgamma, dbeta)

    return _emit(out_data, (x, gamma, beta), bwd)
