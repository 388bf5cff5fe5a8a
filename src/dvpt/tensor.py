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
"""

import itertools
import math
import os

import numpy as np

from . import worker

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


class Tensor:
    """N-dimensional array with an optional gradient buffer.

    ``grad`` accumulates across backward passes; callers zero it explicitly.
    Data is float32 or float64, row-major.

    ``data`` may be pending (see ``pending``): until it is read, the tensor
    holds a zero-stride placeholder of its shape and dtype, so ``shape``,
    ``dtype``, ``ndim`` and ``size`` never compute it.
    """

    __slots__ = ("_data", "_init", "grad", "requires_grad", "name", "_producer")

    def __init__(self, data, requires_grad=False, name=None):
        arr = np.asarray(data)
        if arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(np.float64 if arr.dtype == np.int64 else np.float32)
        self._data = arr
        self._init = None  # the pending initializer while data is pending
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._producer = None  # (tape serial, node index) once a tape records it

    @classmethod
    def pending(cls, shape, dtype, init, requires_grad=False, name=None):
        """A tensor whose data ``init`` computes at its first read:
        ``init.resolve()`` must assign it, and any assignment first calls
        ``init.forget(tensor)``."""
        out = cls(np.broadcast_to(np.zeros((), dtype), shape), requires_grad, name)
        out._init = init
        return out

    @property
    def data(self):
        if self._init is not None:
            self._init.resolve()
        return self._data

    @data.setter
    def data(self, value):
        init, self._init = self._init, None
        if init is not None:
            init.forget(self)
        self._data = value

    @property
    def shape(self):
        return self._data.shape

    @property
    def dtype(self):
        return self._data.dtype

    @property
    def ndim(self):
        return self._data.ndim

    @property
    def size(self):
        return self._data.size

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
                g = flowing[source] + g
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

    return _emit(a.data + b.data, (a, b), bwd)


def mul(a, b):
    need_a, need_b, a_shape, b_shape = a.requires_grad, b.requires_grad, a.shape, b.shape
    # each operand's gradient reads the other operand
    a_data = a.data if need_b else None
    b_data = b.data if need_a else None

    def bwd(og):
        return (
            _reduce_to_shape(og * b_data, a_shape) if need_a else None,
            _reduce_to_shape(og * a_data, b_shape) if need_b else None,
        )

    return _emit(a.data * b.data, (a, b), bwd)


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


# Cephes ndtr.c's coefficients, as scipy.special.erf evaluates them:
# erf(x) = x * T(x^2) / U(x^2) for |x| <= 1, and erfc(x) = exp(-x^2) * P(x) / Q(x)
# for 1 < x < 8.  U and Q have an implicit leading coefficient of 1.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERF_CHUNK = 32768  # elements per pass, so each float64 work array stays in cache


def _polevl(x, coef, out):
    """Cephes polevl: Horner's rule from the leading coefficient, into out."""
    np.multiply(x, coef[0], out=out)
    out += coef[1]
    for c in coef[2:]:
        out *= x
        out += c
    return out


def _p1evl(x, coef, out):
    """Cephes p1evl: polevl with an implicit leading coefficient of 1."""
    np.add(x, coef[0], out=out)
    for c in coef[1:]:
        out *= x
        out += c
    return out


def _erf_beyond_one(x):
    """erf of float64 values that are NaN or beyond 1 in magnitude, as
    Cephes computes it: sign(x) * (1 - erfc(|x|)).

    From 8 up Cephes's erfc (its R/S branch, or 0 past MAXLOG) is below
    1e-28, so 1 - erfc rounds to exactly 1, as it does at 8 itself: |x| is
    clamped to 8 instead.  Every NaN gives scipy's +NaN."""
    a = np.minimum(np.abs(x), 8.0)
    y = np.multiply(a, a)
    np.negative(y, out=y)
    np.exp(y, out=y)
    y *= _polevl(a, _ERFC_P, np.empty_like(a))
    y /= _p1evl(a, _ERFC_Q, np.empty_like(a))
    np.subtract(1.0, y, out=y)
    np.copysign(y, x, out=y)
    y[np.isnan(x)] = np.nan
    return y


def erf(x, out):
    """Write the error function of float array ``x`` into ``out`` (which may
    be ``x``) and return ``out``.

    A numpy port of the Cephes code that ``scipy.special.erf`` runs, with its
    coefficients and order of operations, in float64 over chunks of at most
    ``_ERF_CHUNK`` elements; a float32 result is rounded once at the end.
    float32 results equal scipy's bit for bit (``tools/erf_exhaustive.py``
    checks all 2**32 inputs).  float64 results equal scipy's for |x| <= 1
    and beyond 1 may differ by 1 ulp, where numpy's exp rounds differently
    from the C library's.  Temporary memory is a few chunks, whatever the
    size of ``x``, and no floating-point warning is raised."""
    # A small array takes chunks of a sixteenth of it (from 4096 elements
    # up), so its temporaries stay a fraction of its own size.
    chunk = min(_ERF_CHUNK, max(4096, x.size // 16))
    # Values beyond 1 (and NaNs), with their C-order positions, held until a
    # quarter chunk of them has gathered: each batch costs ~45 numpy calls,
    # whatever its size.
    held, where = [], []

    def flush():
        np.put(out, np.concatenate(where), _erf_beyond_one(np.concatenate(held)))
        held.clear()
        where.clear()

    # Silent: x * x overflows for huge x, a signalling NaN's cast to float64
    # is invalid and exp underflows, and each still gives scipy's result.
    with np.errstate(all="ignore"):
        with np.nditer([x, out], flags=["external_loop", "buffered", "zerosize_ok"],
                       op_flags=[["readonly"], ["writeonly"]], order="C",
                       op_dtypes=[np.float64, np.float64], casting="same_kind",
                       buffersize=chunk) as it:
            z, p, q = np.empty((3, chunk))
            for xc, oc in it:
                if sum(map(len, held)) >= chunk // 4:
                    flush()  # the iterator has written the earlier chunks back
                n = len(xc)
                zc, pc, qc = z[:n], p[:n], q[:n]
                np.multiply(xc, xc, out=zc)
                # x * x <= 1 exactly when |x| <= 1; the max is NaN if any is
                top = zc.max()
                if not top <= 1.0:
                    beyond = np.flatnonzero(~(zc <= 1.0) if np.isnan(top) else zc > 1.0)
                    held.append(xc[beyond])  # before oc is written: oc may be xc
                    where.append(beyond + it.iterindex)
                _polevl(zc, _ERF_T, pc)
                pc *= xc
                np.divide(pc, _p1evl(zc, _ERF_U, qc), out=oc)
        if held:
            flush()
    return out


def gelu(a):
    """Exact Gaussian-CDF GELU: x * Phi(x).

    When the node will be recorded, the forward also computes the
    derivative Phi(x) + x * phi(x), and the node keeps only that; an
    untaped forward computes no derivative.  The output buffer holds
    Phi(x) until the derivative has read it, then becomes Phi(x) * x.
    """
    x = a.data
    # out= keeps 0-d results arrays: a plain ufunc call returns a numpy
    # scalar there, which the in-place steps cannot write into.
    out = np.multiply(x, _INV_SQRT2, out=np.empty_like(x))
    erf(out, out=out)
    out += 1.0
    out *= 0.5
    taped = a.requires_grad and active_tape() is not None
    if taped:
        g = np.multiply(x, -0.5, out=np.empty_like(x))
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
        return (og * g,)

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


# A row split (see _product) needs a weight of _SPLIT_WEIGHT elements (the
# crossover measured over widths 128-768: every ViT-B/16 projection, no
# mid-config one), _SPLIT_ROWS rows and a multiple of _SPLIT_COLUMNS columns.
# Below them a half can take another BLAS path, such as gemv at one row or
# an edge tile that rounds otherwise, and change the bits.
_SPLIT_WEIGHT = 2 ** 17
_SPLIT_ROWS = 64
_SPLIT_COLUMNS = 64


def _cpus():
    """CPUs the process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _product(a, b):
    """The array ``a @ b``.  With a 2-D ``b``, all of ``a``'s rows go
    through one gemm as one matrix, where a batched matmul would call BLAS
    once per matrix of the batch.  With two CPUs, a large product's first
    half of rows goes to the package's worker thread while the caller
    computes the second.  Each row is the same gemm over the same K, and the floors keep
    both halves on the whole product's kernels, so the bits hold."""
    if b.ndim != 2:
        return np.matmul(a, b)
    a2 = a.reshape(math.prod(a.shape[:-1]), a.shape[-1])  # not -1: ambiguous at K = 0
    shape = a.shape[:-1] + b.shape[1:]
    if (b.size < _SPLIT_WEIGHT or len(a2) < _SPLIT_ROWS or b.shape[1] % _SPLIT_COLUMNS
            or _cpus() < 2):
        return (a2 @ b).reshape(shape)
    out = np.empty((len(a2), b.shape[1]), np.result_type(a2, b))
    half = len(a2) // 2

    def first_half():
        np.matmul(a2[:half], b, out=out[:half])

    wait = worker.submit(first_half)
    try:
        np.matmul(a2[half:], b, out=out[half:])
    finally:
        wait()  # the worker writes into out until it answers
    return out.reshape(shape)


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
            gb = _reduce_to_shape(np.matmul(np.swapaxes(a, -1, -2), og), b_shape)
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
        return (og.reshape(old),)

    return _emit(a.data.reshape(shape), (a,), bwd)


def broadcast_to(a, shape):
    shape = tuple(shape)
    old = a.shape

    def bwd(og):
        return (_reduce_to_shape(og, old),)

    return _emit(np.broadcast_to(a.data, shape).copy(), (a,), bwd)


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

    return _emit(np.concatenate([t.data for t in tensors], axis=axis), tensors, bwd)


def slice_axis(a, axis, start, stop):
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    shape, dtype = a.shape, a.dtype

    def bwd(og):
        full = np.zeros(shape, dtype)
        full[idx] = og
        return (full,)

    return _emit(a.data[idx].copy(), (a,), bwd)


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
    dot = (og * out).sum(axis=axis, keepdims=True)
    return out * (og - dot)


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
    xhat = x.data - mu
    squares = xhat * xhat
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
            dxhat = og * kept_gamma
            dx = dxhat - dxhat.mean(axis=-1, keepdims=True)
            proj = dxhat * kept_xhat
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
