import numpy as np
import pytest

from dvpt import tensor as T
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
        out = T.layernorm(t64(x), t64(gamma), t64(beta), eps=eps)
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
    ("exp", lambda x: T.exp(x), 1, (3, 5)),
    ("log", lambda x: T.log(T.add_const(T.mul(x, x), 1.0)), 1, (7,)),
    ("gelu", lambda x: T.gelu(x), 1, (8, 8)),
    ("matmul", lambda x, y: T.matmul(x, y), "matmul", (6, 5)),
    ("transpose", lambda x: T.transpose(x, (1, 0, 2)), 1, (3, 4, 5)),
    ("reshape", lambda x: T.reshape(x, (8, 2)), 1, (4, 4)),
    ("broadcast_to", lambda x: T.broadcast_to(x, (5, 3, 4)), 1, (3, 4)),
    ("concat", lambda x, y: T.concat([x, y], axis=1), 2, (3, 4)),
    ("slice", lambda x: T.slice_axis(x, 1, 1, 3), 1, (4, 5)),
    ("sum_axis", lambda x: T.tsum(x, axis=1), 1, (4, 6)),
    ("mean_axis", lambda x: T.tmean(x, axis=0, keepdims=True), 1, (5, 3)),
    ("softmax", lambda x: T.softmax(x, axis=-1), 1, (4, 9)),
    ("logsumexp", lambda x: T.logsumexp(x, axis=-1, keepdims=True), 1, (6, 4)),
    ("layernorm", "layernorm", 3, (8, 8, 16)),
]


@pytest.mark.parametrize("name,op,arity,shape",
                         _PRIMITIVE_CASES, ids=[c[0] for c in _PRIMITIVE_CASES])
def test_primitive_gradient_vs_finite_differences(name, op, arity, shape):
    rng = np.random.default_rng(hash(name) % 2 ** 31)
    if arity == "broadcast":
        shapes = [shape, (shape[-1],)]
    elif arity == "matmul":
        shapes = [shape, (shape[-1], 3)]
    elif op == "layernorm":
        shapes = [shape, (shape[-1],), (shape[-1],)]
        op = lambda x, g, b: T.layernorm(x, g, b)
    else:
        shapes = [shape] * arity
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


def test_split_roundtrip_and_grads():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(2, 7, 3)), requires_grad=True)
    with Tape() as tape:
        parts = T.split(x, [2, 1, 4], axis=1)
        loss = T.tsum(T.concat(parts, axis=1))
    assert np.array_equal(np.concatenate([p.data for p in parts], axis=1), x.data)
    backward(loss, tape)
    assert np.array_equal(x.grad, np.ones_like(x.data))


def test_split_size_mismatch():
    with pytest.raises(ShapeError):
        T.split(Tensor(np.zeros((2, 5))), [2, 2], axis=1)


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
        return inputs, grads

    _, all_grads = run(frozen=None)
    inputs, grads = run(frozen=slot)
    assert grads[slot] is None and inputs[slot].grad is None
    for i, (g, full) in enumerate(zip(grads, all_grads)):
        if i != slot:
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
        return T.tsum(T.add(T.mul(a, gate), T.exp(T.mul(b, gate))))

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
