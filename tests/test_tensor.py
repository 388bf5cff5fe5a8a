import gc
import importlib.util
import multiprocessing
import os
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from dvpt import tensor as T
from dvpt import worker
from dvpt.tensor import GradError, ShapeError, Tape, Tensor, backward

from conftest import finite_diff, rel_err


def t64(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


class TestMatmul:
    def test_identity(self):
        a = t64(np.eye(2))
        b = t64([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(T.matmul(a, b).data, b.data)

    def test_annihilating_product(self):
        a = t64([[1.0, 0.0], [0.0, 0.0]])
        b = t64([[0.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(T.matmul(a, b).data, np.zeros((2, 2)))

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(t64(np.ones((2, 3))), t64(np.ones((2, 3))))

    def test_grads_match_finite_differences(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        w = rng.normal(size=(3, 5))
        with Tape() as tape:
            loss = T.tsum(T.mul(T.matmul(a, b), Tensor(w)))
        backward(loss, tape)
        for x in (a, b):
            fd = finite_diff(lambda: float((np.matmul(a.data, b.data) * w).sum()), x.data)
            assert rel_err(x.grad, fd).max() < 1e-6


class TestSoftmax:
    def test_uniform_input(self):
        out = T.softmax(t64([0.0, 0.0, 0.0]), axis=-1)
        np.testing.assert_allclose(out.data, np.full(3, 1.0 / 3.0), atol=1e-12)

    def test_stable_under_large_input(self):
        out = T.softmax(t64([1000.0, 0.0]), axis=-1).data
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_scalar_oracle(self):
        # frozen from a high-precision evaluation of exp(x_i)/sum exp(x_j)
        out = T.softmax(t64([1.0, 2.0, 3.0]), axis=-1).data
        expected = [0.09003057317038046, 0.24472847105479767, 0.6652409557748219]
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_rows_sum_to_one_and_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = Tensor(rng.normal(scale=5.0, size=(4, 7)))
            out = T.softmax(x, axis=-1).data
            np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)
            assert ((out >= 0.0) & (out <= 1.0)).all()


class TestLayernorm:
    def test_constant_row_zeros(self):
        gamma, beta = t64(np.ones(4)), t64(np.zeros(4))
        out = T.layernorm(t64(np.full((2, 4), 3.7)), gamma, beta)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_gamma_zero_gives_beta(self):
        gamma = t64(np.zeros(4))
        beta = t64([1.0, -2.0, 0.5, 3.0])
        out = T.layernorm(t64(np.random.default_rng(2).normal(size=(3, 4))), gamma, beta)
        np.testing.assert_allclose(out.data, np.broadcast_to(beta.data, (3, 4)))

    def test_scalar_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=5)
        gamma = rng.normal(size=5)
        beta = rng.normal(size=5)
        eps = 1e-5
        mu = sum(x) / 5
        var = sum((v - mu) ** 2 for v in x) / 5
        expected = [(v - mu) / np.sqrt(var + eps) * g + b
                    for v, g, b in zip(x, gamma, beta)]
        out = T.layernorm(t64(x), t64(gamma), t64(beta))
        np.testing.assert_allclose(out.data, expected, atol=1e-6)


class TestGelu:
    def test_zero(self):
        assert T.gelu(t64([0.0])).data[0] == 0.0

    def test_asymptote(self):
        assert abs(T.gelu(t64([10.0])).data[0] - 10.0) < 1e-6

    def test_scalar_oracle(self):
        # gelu(1) = 1 * Phi(1), frozen from a high-precision normal CDF
        assert abs(T.gelu(t64([1.0])).data[0] - 0.8413447460685429) < 1e-12


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.random.default_rng(4).normal(size=(2, 3, 4)), requires_grad=True)
        with Tape() as tape:
            loss = T.tsum(x)
        backward(loss, tape)
        assert np.array_equal(x.grad, np.ones((2, 3, 4)))

    def test_square_at_three(self):
        x = t64([3.0], requires_grad=True)
        with Tape() as tape:
            loss = T.tsum(T.mul(x, x))
        backward(loss, tape)
        assert x.grad[0] == pytest.approx(6.0)

    def test_non_scalar_loss_rejected(self):
        x = t64([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = T.scale(x, 2.0)
        with pytest.raises(GradError):
            backward(y, tape)

    def test_double_backward_doubles_exactly(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        with Tape() as tape:
            loss = T.tsum(T.gelu(T.matmul(x, w)))
        backward(loss, tape)
        once = x.grad.copy(), w.grad.copy()
        backward(loss, tape)
        assert np.array_equal(x.grad, 2.0 * once[0])
        assert np.array_equal(w.grad, 2.0 * once[1])

    def test_node_the_loss_does_not_read_is_skipped(self):
        x = t64([1.0, 2.0], requires_grad=True)
        calls = []
        with Tape() as tape:
            tape.record((x,), Tensor(np.zeros(2)), lambda og: calls.append(og) or (og,))
            loss = T.tsum(T.scale(x, 3.0))
        backward(loss, tape)
        assert len(tape) == 3 and calls == []
        assert np.array_equal(x.grad, [3.0, 3.0])

    def test_reused_operand_accumulates(self):
        x = t64([2.0], requires_grad=True)
        with Tape() as tape:
            loss = T.tsum(T.add(T.mul(x, x), x))  # x^2 + x
        backward(loss, tape)
        assert x.grad[0] == pytest.approx(5.0)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(4, 4))

        def run():
            x = Tensor(data.copy(), requires_grad=True)
            with Tape() as tape:
                loss = T.tsum(T.softmax(T.matmul(x, x), axis=-1))
            backward(loss, tape)
            return loss.data.copy(), x.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert np.array_equal(l1, l2) and np.array_equal(g1, g2)


# every differentiable primitive vs central finite differences on
# randomized shapes, float64, step 1e-5
_PRIMITIVE_CASES = [
    ("add", lambda x, y: T.add(x, y), 2, (5, 7)),
    ("add_broadcast", lambda x, y: T.add(x, y), "broadcast", (4, 6)),
    ("mul", lambda x, y: T.mul(x, y), 2, (3, 8)),
    ("div", lambda x, y: T.div(x, T.add_const(T.mul(y, y), 1.0)), 2, (4, 4)),
    ("scale", lambda x: T.scale(x, -1.7), 1, (6,)),
    ("gelu", lambda x: T.gelu(x), 1, (8, 8)),
    ("matmul", lambda x, y: T.matmul(x, y), "matmul", (6, 5)),
    ("transpose", lambda x: T.transpose(x, (1, 0, 2)), 1, (3, 4, 5)),
    ("reshape", lambda x: T.reshape(x, (8, 2)), 1, (4, 4)),
    ("broadcast_to", lambda x: T.broadcast_to(x, (5, 3, 4)), 1, (3, 4)),
    ("concat", lambda x, y: T.concat([x, y], axis=1), 2, (3, 4)),
    ("slice", lambda x: T.slice_axis(x, 1, 1, 3), 1, (4, 5)),
    ("sum_axis", lambda x: T.tsum(x, axis=1), 1, (4, 6)),
    ("mean_axis", lambda x: T.tmean(x, axis=0), 1, (5, 3)),
    ("softmax", lambda x: T.softmax(x, axis=-1), 1, (4, 9)),
    ("logsumexp", lambda x: T.logsumexp(x, axis=-1), 1, (6, 4)),
    ("layernorm", "layernorm", 3, (8, 8, 16)),
    # a list of shapes gives each input its own shape
    ("linear_bias", lambda x, w, b: T.linear(x, w, b), [(2, 3, 4), (4, 5), (5,)], None),
    ("attention", lambda q, k, v: T.attention(q, k, v, 0.6),
     [(2, 3, 4), (2, 5, 4), (2, 5, 6)], None),
    ("attention_shared_kv", lambda q, kv: T.attention(q, kv, kv, 0.6),
     [(2, 3, 4), (2, 5, 4)], None),
]


def _case_op_and_shapes(op, arity, shape):
    """The callable and input shapes of one ``_PRIMITIVE_CASES`` row."""
    if isinstance(arity, list):
        return op, arity
    if arity == "broadcast":
        return op, [shape, (shape[-1],)]
    if arity == "matmul":
        return op, [shape, (shape[-1], 3)]
    if op == "layernorm":
        return T.layernorm, [shape, (shape[-1],), (shape[-1],)]
    return op, [shape] * arity


@pytest.mark.parametrize("name,op,arity,shape",
                         _PRIMITIVE_CASES, ids=[c[0] for c in _PRIMITIVE_CASES])
def test_primitive_gradient_vs_finite_differences(name, op, arity, shape):
    rng = np.random.default_rng(hash(name) % 2 ** 31)
    op, shapes = _case_op_and_shapes(op, arity, shape)
    inputs = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    proj = Tensor(rng.normal(size=op(*inputs).shape))

    def loss_value():
        return float((op(*inputs).data * proj.data).sum())

    with Tape() as tape:
        loss = T.tsum(T.mul(op(*inputs), proj))
    backward(loss, tape)
    for inp in inputs:
        fd = finite_diff(loss_value, inp.data, step=1e-5)
        assert rel_err(inp.grad, fd, floor=1e-6).max() < 1e-4, name


def test_slice_axis_pieces_roundtrip_and_grads():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(2, 7, 3)), requires_grad=True)
    with Tape() as tape:
        parts = [T.slice_axis(x, 1, start, stop) for start, stop in ((0, 2), (2, 3), (3, 7))]
        loss = T.tsum(T.concat(parts, axis=1))
    assert np.array_equal(np.concatenate([p.data for p in parts], axis=1), x.data)
    backward(loss, tape)
    assert np.array_equal(x.grad, np.ones_like(x.data))


# ---------------------------------------------------------------------------
# backward skips frozen inputs and keeps gradients on leaves only

class RecordingTape(Tape):
    """Keeps every (inputs, returned gradients) pair that backward sees,
    wrapping ``record`` the way a tracing tape does."""

    def __init__(self):
        super().__init__()
        self.returned = []

    def record(self, inputs, output, backward_fn):
        def kept(og):
            grads = backward_fn(og)
            self.returned.append((inputs, grads))
            return grads

        super().record(inputs, output, kept)


_MULTI_INPUT_CASES = [
    ("add", T.add, [(3, 4), (4,)]),
    ("mul", T.mul, [(3, 4), (3, 1)]),
    ("div", T.div, [(3, 4), (3, 4)]),
    ("matmul", T.matmul, [(2, 3, 4), (4, 5)]),
    ("concat", lambda *ts: T.concat(ts, axis=1), [(2, 3), (2, 1), (2, 4)]),
    ("layernorm", T.layernorm, [(2, 3, 6), (6,), (6,)]),
    ("linear", T.linear, [(2, 3, 4), (4, 5), (5,)]),
    ("attention", lambda q, k, v: T.attention(q, k, v, 0.6), [(2, 3, 4), (2, 5, 4), (2, 5, 6)]),
    ("attention_shared_kv", lambda q, kv: T.attention(q, kv, kv, 0.6), [(2, 3, 4), (2, 5, 4)]),
]
_FROZEN_SLOT_CASES = [(name, op, shapes, slot)
                      for name, op, shapes in _MULTI_INPUT_CASES
                      for slot in range(len(shapes))]


@pytest.mark.parametrize("name,op,shapes,slot", _FROZEN_SLOT_CASES,
                         ids=[f"{c[0]}-frozen{c[3]}" for c in _FROZEN_SLOT_CASES])
def test_frozen_operand_gets_no_gradient(name, op, shapes, slot):
    rng = np.random.default_rng(31)
    values = [rng.normal(size=s) for s in shapes]
    values[-1] = np.abs(values[-1]) + 0.5  # a safe divisor for div
    proj = Tensor(rng.normal(size=op(*[Tensor(v) for v in values]).shape))

    def run(frozen):
        inputs = [Tensor(v.copy(), requires_grad=i != frozen) for i, v in enumerate(values)]
        with RecordingTape() as tape:
            loss = T.tsum(T.mul(op(*inputs), proj))
        backward(loss, tape)
        op_inputs, grads = tape.returned[-1]  # the op is recorded first, so replayed last
        assert all(a is b for a, b in zip(op_inputs, inputs))
        return op_inputs, grads

    _, all_grads = run(frozen=None)
    op_inputs, grads = run(frozen=slot)
    frozen = op_inputs[slot]
    assert frozen.grad is None
    # an op may take one tensor in several slots (attention with k is v)
    for i, (t, g, full) in enumerate(zip(op_inputs, grads, all_grads)):
        if t is frozen:
            assert g is None, i
        else:
            assert g.dtype == full.dtype and g.tobytes() == full.tobytes(), i


def test_dvpt_step_computes_no_frozen_gradient(desk_cfg, desk_dvpt, monkeypatch):
    from dvpt import training
    from dvpt.model import model_for_policy

    tapes = []

    def recording_tape():
        tapes.append(RecordingTape())
        return tapes[-1]

    monkeypatch.setattr(training, "Tape", recording_tape)
    model, policy = model_for_policy(desk_cfg, desk_dvpt, "dvpt", seed=3)
    rng = np.random.default_rng(12)
    images = rng.normal(size=(4, 16, 16, 1)).astype(np.float32)
    training.train_loop(model, images, rng.integers(0, 5, size=4), policy, epochs=1,
                        batch_size=4, eval_metrics=False)
    assert len(tapes) == 1
    pairs = [(t, g) for inputs, grads in tapes[0].returned for t, g in zip(inputs, grads)]
    frozen = [g for t, g in pairs if not t.requires_grad]
    assert len(frozen) > 0  # the step does meet frozen weights
    assert all(g is None for g in frozen)
    assert all(g is not None for t, g in pairs if t.requires_grad)


def test_grad_is_written_on_leaves_only():
    rng = np.random.default_rng(32)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    frozen = Tensor(rng.normal(size=(2,)))
    with Tape() as tape:
        h = T.matmul(x, w)
        y = T.gelu(T.add(h, frozen))
        loss = T.tsum(y)
    backward(loss, tape)
    assert h.grad is None and y.grad is None and loss.grad is None
    assert frozen.grad is None
    assert x.grad.shape == x.shape and w.grad.shape == w.shape


def test_scalar_on_two_paths_matches_finite_differences():
    rng = np.random.default_rng(33)
    gate = Tensor(np.array(0.7), requires_grad=True)
    a = Tensor(rng.normal(size=(3, 4)))
    b = Tensor(rng.normal(size=(4,)))

    def forward():
        return T.tsum(T.add(T.mul(a, gate), T.gelu(T.mul(b, gate))))

    with Tape() as tape:
        loss = forward()
    backward(loss, tape)
    fd = finite_diff(lambda: forward().item(), gate.data)
    assert gate.grad.shape == () and rel_err(gate.grad, fd).max() < 1e-6


def test_add_operand_to_itself_matches_finite_differences():
    rng = np.random.default_rng(34)
    x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    proj = Tensor(rng.normal(size=(3, 5)))

    def forward():
        return T.tsum(T.mul(T.gelu(T.add(x, x)), proj))

    with Tape() as tape:
        loss = forward()
    backward(loss, tape)
    fd = finite_diff(lambda: forward().item(), x.data)
    assert rel_err(x.grad, fd).max() < 1e-6


# ---------------------------------------------------------------------------
# fused linear and attention, in-place kernels

def _grads_through(build, values, dtype, proj_seed=40):
    """Output and input gradients of ``build`` under a random projection."""
    inputs = [Tensor(v.astype(dtype), requires_grad=True) for v in values]
    with Tape() as tape:
        out = build(*inputs)
        proj = Tensor(np.random.default_rng(proj_seed).normal(size=out.shape).astype(dtype))
        loss = T.tsum(T.mul(out, proj))
    backward(loss, tape)
    return [out.data] + [t.grad for t in inputs]


def _assert_same_bits(fused, unfused):
    assert len(fused) == len(unfused)
    for i, (a, b) in enumerate(zip(fused, unfused)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), i


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_shape", [(5, 6), (3, 5, 6)])
@pytest.mark.parametrize("bias_trains", [True, False])
def test_linear_equals_matmul_plus_add_bitwise(dtype, x_shape, bias_trains):
    rng = np.random.default_rng(41)
    values = [rng.normal(size=x_shape), rng.normal(size=(6, 7))]
    bias = rng.normal(size=(7,))
    if bias_trains:
        values.append(bias)
        fused, unfused = T.linear, lambda x, w, b: T.add(T.matmul(x, w), b)
    else:  # the backbone's linears under every policy but full fine-tuning
        frozen = Tensor(bias.astype(dtype))
        fused = lambda x, w: T.linear(x, w, frozen)
        unfused = lambda x, w: T.add(T.matmul(x, w), frozen)
    _assert_same_bits(_grads_through(fused, values, dtype),
                      _grads_through(unfused, values, dtype))


def _unfused_attention(q, k, v, factor):
    axes = tuple(range(k.ndim - 2)) + (k.ndim - 1, k.ndim - 2)
    scores = T.scale(T.matmul(q, T.transpose(k, axes)), factor)
    return T.matmul(T.softmax(scores, axis=-1), v)


def _heads(t):
    """The [b, h, s, dh] view mhsa takes of a [b, s, d] tensor."""
    b, s, d = t.shape
    return T.transpose(T.reshape(t, (b, s, 2, d // 2)), (0, 2, 1, 3))


_ATTENTION_LAYOUTS = {
    "2d": (lambda q, k, v: (q, k, v), [(3, 4), (5, 4), (5, 6)]),
    "3d": (lambda q, k, v: (q, k, v), [(2, 3, 4), (2, 5, 4), (2, 5, 6)]),
    "heads": (lambda q, k, v: (_heads(q), _heads(k), _heads(v)),
              [(2, 5, 8), (2, 5, 8), (2, 5, 8)]),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", sorted(_ATTENTION_LAYOUTS))
@pytest.mark.parametrize("shared_kv", [False, True], ids=["kv", "k_is_v"])
def test_attention_equals_unfused_chain_bitwise(dtype, layout, shared_kv):
    view, shapes = _ATTENTION_LAYOUTS[layout]
    rng = np.random.default_rng(42)
    values = [rng.normal(size=s) for s in shapes]
    factor = 1.0 / np.sqrt(shapes[0][-1])

    def build(attend):
        if shared_kv:
            return lambda q, kv: attend(*view(q, kv, kv), factor)
        return lambda q, k, v: attend(*view(q, k, v), factor)

    if shared_kv:
        values = values[:2]
    fused = _grads_through(build(T.attention), values, dtype)
    unfused = _grads_through(build(_unfused_attention), values, dtype)
    _assert_same_bits(fused, unfused)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_shape", [(3, 0), (2, 3, 0)])
@pytest.mark.parametrize("op", ["linear", "matmul"])
def test_a_product_over_a_zero_inner_dimension_matches_numpy(dtype, x_shape, op):
    """K = 0: numpy's product is zeros of shape (..., N), and so are the
    forward and every gradient here, against numpy's own arithmetic."""
    x = Tensor(np.zeros(x_shape, dtype), requires_grad=True)
    w = Tensor(np.zeros((0, 4), dtype), requires_grad=True)
    b = Tensor(np.arange(4, dtype=dtype), requires_grad=True)
    with Tape() as tape:
        out = T.linear(x, w, b) if op == "linear" else T.matmul(x, w)
        loss = T.tsum(out)
    backward(loss, tape)
    og, batch = np.ones(x_shape[:-1] + (4,), dtype), tuple(range(len(x_shape) - 1))
    expected = [np.matmul(x.data, w.data) + (b.data if op == "linear" else 0),
                og @ w.data.T, np.tensordot(x.data, og, axes=(batch, batch))]
    got = [out.data, x.grad, w.grad]
    if op == "linear":
        expected.append(og.sum(axis=batch))  # [3 3 3 3] or [6 6 6 6]
        got.append(b.grad)
    else:
        assert b.grad is None
    _assert_same_bits(got, expected)


def test_linear_rejects_a_bias_it_cannot_add_in_place():
    x, w = Tensor(np.ones((2, 3), np.float32)), Tensor(np.ones((3, 4), np.float32))
    for bias in (np.ones((1, 4), np.float32), np.ones(5, np.float32), np.ones(4, np.float64)):
        with pytest.raises(ShapeError, match="linear bias"):
            T.linear(x, w, Tensor(bias))


def test_layernorm_rejects_mixed_dtypes():
    x = Tensor(np.ones((2, 4), np.float32))
    with pytest.raises(ShapeError, match="dtype"):
        T.layernorm(x, Tensor(np.ones(4, np.float64)), Tensor(np.zeros(4, np.float32)))


class GuardedTape(Tape):
    """Snapshots each node's inputs when it is recorded and its output
    gradient before its backward runs, and records every node whose
    backward (or a later forward) changed either."""

    def __init__(self):
        super().__init__()
        self.mutated = []

    def record(self, inputs, output, backward_fn):
        before = [t.data.copy() for t in inputs]

        def guarded(og):
            og_before = og.copy()
            grads = backward_fn(og)
            if og.tobytes() != og_before.tobytes():
                self.mutated.append("og")
            for t, snap in zip(inputs, before):
                if t.data.tobytes() != snap.tobytes():
                    self.mutated.append("input")
            return grads

        super().record(inputs, output, guarded)


@pytest.mark.parametrize("name,op,arity,shape",
                         _PRIMITIVE_CASES, ids=[c[0] for c in _PRIMITIVE_CASES])
def test_no_backward_mutates_its_output_gradient_or_inputs(name, op, arity, shape):
    rng = np.random.default_rng(43)
    op, shapes = _case_op_and_shapes(op, arity, shape)
    inputs = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    with GuardedTape() as tape:
        out = op(*inputs)
        loss = T.tsum(T.mul(out, Tensor(rng.normal(size=out.shape))))
    backward(loss, tape)
    assert tape.mutated == []


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_on_zero_dim_tensor(dtype):
    x = Tensor(np.array(1.0, dtype=dtype), requires_grad=True)
    with Tape() as tape:
        y = T.gelu(x)
    backward(y, tape)
    assert y.shape == () and y.dtype == dtype and x.grad.shape == ()
    # Phi(1) + phi(1), frozen from a high-precision evaluation
    tol = 1e-12 if dtype == np.float64 else 1e-6
    assert abs(y.item() - 0.8413447460685429) < tol
    assert abs(float(x.grad) - 1.0833154705876864) < tol


def test_desk_dvpt_step_tape_length(desk_cfg, desk_dvpt):
    from dvpt import training
    from dvpt.model import model_for_policy

    model, _ = model_for_policy(desk_cfg, desk_dvpt, "dvpt", seed=3)
    rng = np.random.default_rng(12)
    images = rng.normal(size=(4, 16, 16, 1)).astype(np.float32)
    with Tape() as tape:
        training.batch_loss(model, images, rng.integers(0, 5, size=4))
    # per block: attention residual 15 (layernorm, 3 linear, 6 head views,
    # attention, transpose, reshape, linear, add), FFN residual 5, adapter
    # branch 9, branch add 1; the last block also cuts the head rows from
    # the FFN residual's two reads and from the branch (3 slices); prompts
    # 3, head 2 (mean, linear: its input holds only the rows it reads),
    # cross-entropy 7.  The frozen patch embedding records nothing.
    assert len(tape) == desk_cfg.depth * 30 + 3 + 3 + 2 + 7 == 135


def _reference_kernels(x, gamma, beta, og, eps=1e-5):
    """(output, input gradients) of gelu, layernorm and softmax, written
    out of place in the operation order the in-place kernels keep."""
    from scipy.special import erf
    cdf = 0.5 * (1.0 + erf(x * float(1.0 / np.sqrt(2.0))))
    pdf = float(1.0 / np.sqrt(2.0 * np.pi)) * np.exp(-0.5 * x * x)
    gelu = (x * cdf, [og * (cdf + x * pdf)])

    centered = x - x.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + eps)
    xhat = centered * inv_std
    dxhat = og * gamma
    dx = inv_std * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    layernorm = (xhat * gamma + beta, [dx, (og * xhat).sum(axis=(0, 1)), og.sum(axis=(0, 1))])

    e = np.exp(x - x.max(axis=-1, keepdims=True))
    soft = e / e.sum(axis=-1, keepdims=True)
    softmax = (soft, [soft * (og - (og * soft).sum(axis=-1, keepdims=True))])
    return {"gelu": gelu, "layernorm": layernorm, "softmax": softmax}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kernel", ["gelu", "layernorm", "softmax"])
def test_in_place_kernels_keep_the_out_of_place_bits(dtype, kernel):
    rng = np.random.default_rng(44)
    x = rng.normal(scale=2.0, size=(3, 5, 16)).astype(dtype)
    gamma, beta = (rng.normal(size=16).astype(dtype) for _ in range(2))
    # the projection _grads_through draws, and so the op's output gradient
    og = np.random.default_rng(40).normal(size=x.shape).astype(dtype)
    out, grads = _reference_kernels(x, gamma, beta, og)[kernel]
    ops = {"gelu": (T.gelu, [x]), "layernorm": (T.layernorm, [x, gamma, beta]),
           "softmax": (lambda t: T.softmax(t, axis=-1), [x])}
    op, values = ops[kernel]
    _assert_same_bits(_grads_through(op, values, dtype), [out] + grads)


# ---------------------------------------------------------------------------
# a tape node keeps only what its backward reads

# Input slots whose arrays an op's backward reads, each mapped to the slots
# whose gradients read it; an op or slot not listed reads no input array.
_READS = {
    "mul": {0: {1}, 1: {0}},
    "div": {0: {1}, 1: {0, 1}},
    "matmul": {0: {1}, 1: {0}},
    "layernorm": {1: {0}},
    "linear": {0: {1}, 1: {0}},
    "attention": {0: {1}, 1: {0}, 2: {0, 1}},
    "attention_shared_kv": {0: {1}, 1: {0, 1}},
}
_KEPT_CASES = _FROZEN_SLOT_CASES + [(name, op, [shape], None)  # the single-input primitives
                                    for name, op, arity, shape in _PRIMITIVE_CASES if arity == 1]


def _recorded_op_arrays(op, shapes, frozen):
    """Record ``op`` on a tape, each training input made by a node on the
    same tape (so the tape holds no leaf Tensor for it) and the ``frozen``
    slot a plain leaf.  Returns the tape and weakrefs to the op's input
    arrays and its output array; nothing else refers to them."""
    rng = np.random.default_rng(35)
    values = [rng.normal(size=s) for s in shapes]
    values[-1] = np.abs(values[-1]) + 0.5  # a safe divisor for div
    with Tape() as tape:
        inputs = [Tensor(v) if i == frozen else T.scale(Tensor(v, requires_grad=True), 1.0)
                  for i, v in enumerate(values)]
        out = op(*inputs)
    return tape, [weakref.ref(t.data) for t in inputs], weakref.ref(out.data)


@pytest.mark.parametrize("name,op,shapes,frozen", _KEPT_CASES,
                         ids=[c[0] if c[3] is None else f"{c[0]}-frozen{c[3]}"
                              for c in _KEPT_CASES])
def test_node_keeps_only_the_arrays_its_backward_reads(name, op, shapes, frozen):
    tape, input_refs, output_ref = _recorded_op_arrays(op, shapes, frozen)
    assert len(tape) == len(shapes) - (frozen is not None) + 1
    kept = [ref() is not None for ref in input_refs]
    reads = [bool(_READS.get(name, {}).get(i, set()) - {frozen}) for i in range(len(shapes))]
    assert kept == reads
    # softmax's backward reads its output; no other node keeps one
    assert (output_ref() is not None) == (name == "softmax")


def test_gelu_node_keeps_only_its_derivative():
    x = T.scale(Tensor(np.random.default_rng(39).normal(size=(4, 6)), requires_grad=True), 1.0)
    with Tape() as tape:
        T.gelu(x)
    closure = tape._nodes[-1].backward_fn.__closure__
    arrays = [cell.cell_contents for cell in closure
              if isinstance(cell.cell_contents, np.ndarray)]
    assert len(arrays) == 1
    assert arrays[0].shape == x.shape and arrays[0].dtype == x.dtype


@pytest.mark.parametrize("taped", [False, True])
def test_gelu_computes_its_derivative_only_when_taped(taped):
    x = Tensor(np.random.default_rng(40).normal(size=(256, 256)), requires_grad=True)
    tape = Tape()
    tracemalloc.start()
    try:
        if taped:
            with tape:
                T.gelu(x)
        else:
            T.gelu(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output, which holds the CDF first; a recorded node also allocates
    # the derivative
    arrays = 2 if taped else 1
    assert arrays * x.data.nbytes <= peak < (arrays + 0.5) * x.data.nbytes


def test_graph_does_not_outlive_its_tape():
    rng = np.random.default_rng(36)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    s = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    gc.disable()
    try:
        with Tape() as tape:
            h = T.matmul(x, w)
            probs = T.softmax(T.mul(h, s), axis=-1)
            loss = T.tsum(probs)
        # mul's node keeps h for s's gradient, and softmax's node its output
        held = [weakref.ref(h.data), weakref.ref(probs.data)]
        del h, probs
        assert all(ref() is not None for ref in held)
        tape_ref = weakref.ref(tape)
        del tape
        assert tape_ref() is None
        assert all(ref() is None for ref in held)
        assert loss.size == 1
    finally:
        gc.enable()


def test_tensor_from_another_tape_is_a_leaf():
    x = Tensor(np.random.default_rng(37).normal(size=(3, 4)), requires_grad=True)
    with Tape():
        y = T.scale(x, 2.0)
    with Tape() as second:
        loss = T.tsum(T.mul(y, y))
    backward(loss, second)
    assert np.array_equal(y.grad, y.data + y.data)
    assert x.grad is None


def _benchmark_finetune_shape():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "shapes.py"
    spec = importlib.util.spec_from_file_location("benchmark_shapes", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FINETUNE


# Bytes one taped mid-config forward leaves allocated: ~53 (dvpt) and ~55 MiB
# (full fine-tuning), all read by backward.  A tape whose nodes keep every
# input and output holds 119 and 84 MiB, and one whose gelu nodes keep their
# input and CDF instead of the derivative 68 and 67 MiB.
@pytest.mark.parametrize("policy,limit_mib", [("dvpt", 58), ("full_finetune", 60)])
def test_taped_forward_retains_only_what_backward_reads(policy, limit_mib):
    from dvpt import training
    from dvpt.model import model_for_policy

    shape = _benchmark_finetune_shape()
    cfg = shape.vit
    model, _ = model_for_policy(cfg, shape.dvpt, policy, seed=0)
    rng = np.random.default_rng(38)
    images = rng.normal(size=(shape.batch_size, cfg.image_h, cfg.image_w, cfg.channels))
    labels = rng.integers(0, cfg.num_classes, size=shape.batch_size)
    images = images.astype(np.float32)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            loss = training.batch_loss(model, images, labels)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(tape) > 0 and loss.size == 1
    assert retained <= limit_mib * (1 << 20), retained / (1 << 20)


# ---------------------------------------------------------------------------
# erf: a numpy port of the Cephes code scipy.special.erf runs, which stays
# its oracle

def _bits32(*patterns):
    return np.array(patterns, dtype=np.uint32).view(np.float32)


def _float32_edges():
    one, four = np.float32(1.0), np.float32(4.0)
    tiny, huge = np.finfo(np.float32).tiny, np.finfo(np.float32).max
    magnitudes = np.concatenate([
        [0.0, np.nextafter(np.float32(0), one), tiny, np.nextafter(tiny, np.float32(0)),
         np.nextafter(one, np.float32(0)), one, np.nextafter(one, four),
         np.float32(8.0), np.float32(26.6), np.float32(27.0), np.float32(1e19),
         np.float32(3e38), huge, np.inf],
        _bits32(*range(1, 1 << 12)),  # subnormals
        np.arange(0x3F800000 - 2048, 0x3F800000 + 2048, dtype=np.uint32).view(np.float32),
        # every float32 in [3.9, 4.0], where erf reaches 1 in float32
        np.arange(np.float32(3.9).view(np.uint32), four.view(np.uint32) + 1,
                  dtype=np.uint32).view(np.float32),
    ]).astype(np.float32)
    nans = _bits32(0x7FC00000, 0xFFC00000, 0x7FC00001, 0xFFFFFFFF,  # quiet
                   0x7F800001, 0xFF800001, 0x7FA00000, 0xFFBFFFFF)  # signalling
    return np.concatenate([magnitudes, -magnitudes, nans])


def _scipy_erf(x):
    from scipy.special import erf
    with np.errstate(all="ignore"):  # scipy's own cast of signalling NaNs
        return erf(x)


def test_erf_float32_equals_scipy_bitwise_on_edges_and_random_bit_patterns():
    patterns = np.random.default_rng(45).integers(0, 1 << 32, size=10**6, dtype=np.uint32)
    x = np.concatenate([_float32_edges(), patterns.view(np.float32)])
    with np.errstate(all="raise"):  # erf's own arithmetic stays silent
        ours = T.erf(x, np.empty_like(x))
    ref = _scipy_erf(x)
    differ = ours.view(np.uint32) != ref.view(np.uint32)
    assert not differ.any(), x[differ][:8]


def test_erf_float64_equals_scipy_within_one_and_within_an_ulp_beyond():
    rng = np.random.default_rng(46)
    inside = np.concatenate([rng.uniform(-1.0, 1.0, size=10**6), [0.0, -0.0, 1.0, -1.0,
                             5e-324, -5e-324, np.nextafter(1.0, 0.0), 1e-300]])
    beyond = np.concatenate([
        rng.uniform(1.0, 8.0, size=10**6) * rng.choice([-1.0, 1.0], size=10**6),
        np.nextafter([1.0, -1.0], [2.0, -2.0]), [8.0, -8.0, 26.6, 27.0, 1e200, -1e308,
                                                 np.inf, -np.inf, np.nan, -np.nan]])
    with np.errstate(all="raise"):
        ours_inside = T.erf(inside, np.empty_like(inside))
        ours_beyond = T.erf(beyond, np.empty_like(beyond))
    assert np.array_equal(ours_inside.view(np.int64), _scipy_erf(inside).view(np.int64))
    # numpy's exp and the C library's round differently on some inputs
    ulps = ours_beyond.view(np.int64) - _scipy_erf(beyond).view(np.int64)
    assert np.abs(ulps).max() <= 1


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_erf_writes_in_place_and_takes_any_layout(dtype):
    x = np.random.default_rng(47).normal(scale=2.0, size=(40, 3, 700)).astype(dtype)
    x[0, 0, :4] = [np.nan, -np.inf, 30.0, -1.0]
    ref = T.erf(x, np.empty_like(x)).view(f"u{x.itemsize}")
    aliased = x.copy()
    assert T.erf(aliased, aliased) is aliased
    assert np.array_equal(aliased.view(ref.dtype), ref)
    view = x.transpose(2, 0, 1)[::2]
    out = np.empty_like(view)
    T.erf(view, out)
    assert np.array_equal(out.view(ref.dtype), ref.transpose(2, 0, 1)[::2])
    for shape in [(), (0,), (3, 0)]:
        x = np.full(shape, 0.5, dtype=dtype)
        out = np.empty_like(x)
        assert T.erf(x, out) is out and out.shape == shape
        assert np.array_equal(out, _scipy_erf(x))


# ---------------------------------------------------------------------------
# row-split products: a large product by a 2-D weight is split by rows
# between the caller and the package's worker thread, and keeps every bit

# ViT-B/16's 2-D weights, as (in, out): the patch embedding and attention
# projections, the FFN, the adapter's down and up projections and the head.
_VITB_WEIGHTS = [(768, 768), (768, 3072), (3072, 768), (768, 20), (20, 768), (768, 5)]
_SPLIT_TEST_ROWS = [64, 65, 196, 197, 247, 248, 2592]


def _allow_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@pytest.fixture
def splits(monkeypatch, jobs):
    """Two CPUs, whatever the machine has; counts the jobs submitted to the
    worker, each the first half of a product."""
    _allow_cpus(monkeypatch, 2)
    return jobs


def _worker_threads():
    return [t for t in threading.enumerate() if t.name == "dvpt-worker"]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("weight", _VITB_WEIGHTS, ids=lambda w: f"{w[0]}x{w[1]}")
@pytest.mark.parametrize("side", ["forward", "input_gradient"])
def test_split_product_equals_one_gemm(splits, dtype, weight, side):
    rng = np.random.default_rng(48)
    w = rng.normal(size=weight).astype(dtype)
    b = w if side == "forward" else w.T  # og @ W^T reads the weight transposed
    for rows in _SPLIT_TEST_ROWS:
        a = rng.normal(size=(rows, b.shape[0])).astype(dtype)
        assert T._product(a, b).tobytes() == (a @ b).tobytes(), rows
    assert splits[0] == (len(_SPLIT_TEST_ROWS) if w.size >= T._SPLIT_WEIGHT else 0)


def test_split_product_equals_one_gemm_on_random_shapes(splits):
    """Weights from the floor up with a multiple of 64 columns, any depth,
    as stored or transposed, at row counts around the kernels' tiles."""
    rng = np.random.default_rng(53)
    for case in range(24):
        dtype = (np.float32, np.float64)[case % 2]
        n = 64 * int(rng.integers(1, 33))
        k = int(rng.integers(-(-T._SPLIT_WEIGHT // n), 4 * T._SPLIT_WEIGHT // n + 2))
        b = rng.normal(size=(k, n)) if case % 4 < 2 else rng.normal(size=(n, k)).T
        rows = int(rng.choice([64, 65, 66, 97, 127, 129, 197, 247, 401]))
        a = rng.normal(size=(rows, k)).astype(dtype)
        b = b.astype(dtype)
        assert T._product(a, b).tobytes() == (a @ b).tobytes(), (dtype, k, n, rows)
    assert splits[0] == 24


# Each of these gave other bits than the whole product when split in half,
# float32 and float64 alike (OpenBLAS's SkylakeX kernels): a half of one
# row goes to gemv, and the small weights take other paths at these rows.
# In float64 so did most weights above the floor whose column count is not
# a multiple of 64 (33 of 40 random ones), at 64-700 rows.
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("weight,rows", [
    ((768, 768), 2), ((768, 768), 3), ((768, 20), 123), ((768, 20), 124),
    ((512, 128), 16), ((512, 128), 17), ((512, 128), 31),
    ((768, 770), 64), ((400, 1311), 247), ((2047, 257), 197), ((725, 725), 400)])
def test_split_rule_leaves_out_shapes_whose_halves_change_bits(splits, dtype, weight, rows):
    rng = np.random.default_rng(49)
    a, b = rng.normal(size=(rows, weight[0])).astype(dtype), rng.normal(size=weight).astype(dtype)
    assert T._product(a, b).tobytes() == (a @ b).tobytes()
    assert splits[0] == 0


@pytest.mark.parametrize("policy", ["dvpt", "full_finetune"])
def test_split_keeps_the_bits_of_a_vitb_wide_model(splits, monkeypatch, policy):
    """d=768 at depth 1 on 4 images of 16 patches and 50 prompts: every
    ViT-B/16 projection, 268 rows (64 in the patch embedding)."""
    from dvpt import DvptConfig, VitConfig, training
    from dvpt.model import model_for_policy

    cfg = VitConfig(image_h=64, image_w=64, channels=3, patch_size=16, embed_dim=768,
                    depth=1, heads=12, num_classes=5)
    model, _ = model_for_policy(cfg, DvptConfig(num_prompts=50, hidden_dim=20), policy, seed=3)
    rng = np.random.default_rng(50)
    images = rng.normal(size=(4, 64, 64, 3)).astype(np.float32)
    labels = rng.integers(0, 5, size=4)

    def logits_and_grads():
        model.zero_grad()
        logits = training.predict(model, images)
        with Tape() as tape:
            loss = training.batch_loss(model, images, labels)
        backward(loss, tape)
        return [logits] + [t.grad for _, t in model.trainable()]

    _allow_cpus(monkeypatch, 1)
    whole = logits_and_grads()
    assert splits[0] == 0
    _allow_cpus(monkeypatch, 2)
    _assert_same_bits(logits_and_grads(), whole)
    assert splits[0] > 0


def test_split_hands_a_worker_error_to_the_caller(splits, monkeypatch):
    escaped = []
    monkeypatch.setattr(threading, "excepthook", escaped.append)
    matmul = np.matmul

    def failing_on_the_worker(*args, **kwargs):
        if threading.current_thread().name == "dvpt-worker":
            raise MemoryError("worker half")
        return matmul(*args, **kwargs)

    a, b = np.ones((64, 768), np.float32), np.ones((768, 768), np.float32)
    monkeypatch.setattr(np, "matmul", failing_on_the_worker)
    with pytest.raises(MemoryError, match="worker half"):
        T._product(a, b)
    monkeypatch.setattr(np, "matmul", matmul)
    assert T._product(a, b).tobytes() == (a @ b).tobytes()  # the worker still serves
    assert splits[0] == 2 and not escaped


def test_split_applies_the_callers_errstate_to_both_halves(splits):
    a, b = np.ones((64, 768), np.float32), np.ones((768, 768), np.float32)
    a[0] = 1e38  # a row of the worker's half overflows
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            T._product(a, b)
    with np.errstate(over="ignore"):  # and a RuntimeWarning fails the test
        out = T._product(a, b)
        assert out.tobytes() == (a @ b).tobytes() and np.isinf(out[0]).all()
    assert splits[0] == 2


def test_split_product_keeps_no_reference_to_its_weight(splits):
    # A served model's weights are views of one loaded backbone buffer, so a
    # weight kept by the worker keeps the whole backbone alive.
    b = np.ones((768, 768), np.float32)
    alive = weakref.ref(b)
    T._product(np.ones((64, 768), np.float32), b)
    del b
    assert splits[0] == 1 and alive() is None


def _split_in_a_child():
    a, b = np.ones((64, 768)), np.full((768, 768), 0.5)
    assert T._product(a, b).tobytes() == (a @ b).tobytes()
    assert worker._jobs[0] == os.getpid()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_split_works_in_a_forked_child(splits):
    T._product(np.ones((64, 768)), np.ones((768, 768)))  # the parent's worker runs
    child = multiprocessing.get_context("fork").Process(target=_split_in_a_child)
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("a forked child's split did not return within 60 s")
    assert child.exitcode == 0 and splits[0] == 1


def test_split_from_many_caller_threads_at_once(splits, monkeypatch):
    monkeypatch.setattr(worker, "_jobs", None)  # the callers race to start it
    started_with = len(_worker_threads())
    rng = np.random.default_rng(51)
    b = rng.normal(size=(768, 768)).astype(np.float32)
    inputs = [rng.normal(size=(97 + i, 768)).astype(np.float32) for i in range(4)]
    wrong = []

    def call(a):
        for _ in range(10):
            if T._product(a, b).tobytes() != (a @ b).tobytes():
                wrong.append(len(a))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=call, args=(a,)) for a in inputs]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert not wrong and splits[0] == 40
    assert len(_worker_threads()) == started_with + 1  # one worker, whoever started it


def test_split_with_one_cpu_starts_no_thread(monkeypatch):
    _allow_cpus(monkeypatch, 1)
    monkeypatch.setattr(worker, "_jobs", None)
    threads = threading.enumerate()
    a, b = np.ones((2592, 768), np.float32), np.ones((768, 3072), np.float32)
    assert T._product(a, b).tobytes() == (a @ b).tobytes()
    assert threading.enumerate() == threads and worker._jobs is None


def test_split_is_never_reached_by_mid_config_training_or_evaluation(splits, monkeypatch):
    from dvpt import training
    from dvpt.model import model_for_policy

    monkeypatch.setattr(worker, "_jobs", None)
    threads = threading.enumerate()
    shape = _benchmark_finetune_shape()
    cfg = shape.vit
    rng = np.random.default_rng(52)
    images = rng.normal(size=(32, cfg.image_h, cfg.image_w, cfg.channels)).astype(np.float32)
    labels = rng.integers(0, cfg.num_classes, size=32)
    for policy in ("dvpt", "full_finetune"):
        model, frozen = model_for_policy(cfg, shape.dvpt, policy, seed=0)
        training.train_loop(model, images, labels, frozen, epochs=1,
                            batch_size=shape.batch_size)  # evaluates 32 images at once
    assert threading.enumerate() == threads and worker._jobs is None and splits[0] == 0
