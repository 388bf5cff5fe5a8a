import dataclasses
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvpt import peft
from dvpt import tensor as T
from dvpt.accounting import report_from_config
from dvpt.checkpoint import load_checkpoint, save_trainable
from dvpt.model import TASKS, Model, init_params, model_for_policy, param_shapes
from dvpt.peft import DvptConfig, FreezePolicy
from dvpt.tensor import Tape, Tensor, backward
from dvpt.training import AdamState, adam_step, batch_loss
from dvpt.vit import ConfigError, TokenSequence, VitConfig


def make_seq(rng, b, m, n, d, dtype=np.float64):
    tokens = Tensor(rng.normal(size=(b, m + 1 + n, d)).astype(dtype))
    return TokenSequence(tokens, num_prompts=m, has_cls=True, num_patches=n)


def adapter_params(d, d_prime, seed=0, gate=0.5, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return {
        "adapter0.down.weight": Tensor(rng.normal(size=(d, d_prime)).astype(dtype), requires_grad=True),
        "adapter0.down.bias": Tensor(rng.normal(size=(d_prime,)).astype(dtype), requires_grad=True),
        "adapter0.up.weight": Tensor(rng.normal(size=(d_prime, d)).astype(dtype), requires_grad=True),
        "adapter0.up.bias": Tensor(rng.normal(size=(d,)).astype(dtype), requires_grad=True),
        "adapter0.gate": Tensor(np.asarray(gate, dtype=dtype), requires_grad=True),
    }


class TestAppendPrompts:
    def test_empty_prompts_identity(self):
        rng = np.random.default_rng(0)
        seq = make_seq(rng, 1, 0, 4, 8)
        prompts = Tensor(np.zeros((0, 8)))
        assert peft.append_prompts(seq, prompts) is seq

    def test_ordering_prompts_first(self):
        rng = np.random.default_rng(1)
        seq = make_seq(rng, 1, 0, 1, 4)
        prompts = Tensor(rng.normal(size=(2, 4)))
        out = peft.append_prompts(seq, prompts)
        np.testing.assert_array_equal(out.tokens.data[0, :2], prompts.data)
        np.testing.assert_array_equal(out.tokens.data[0, 2:], seq.tokens.data[0])

    def test_roundtrip_recovers_prompts_bitwise(self):
        rng = np.random.default_rng(2)
        seq = make_seq(rng, 3, 0, 5, 6)
        prompts = Tensor(rng.normal(size=(4, 6)))
        out = peft.append_prompts(seq, prompts)
        for b in range(3):
            assert np.array_equal(out.tokens.data[b, :4], prompts.data)

    def test_double_injection_rejected(self):
        rng = np.random.default_rng(3)
        seq = make_seq(rng, 1, 0, 2, 4)
        prompts = Tensor(rng.normal(size=(2, 4)))
        once = peft.append_prompts(seq, prompts)
        with pytest.raises(ConfigError, match="already"):
            peft.append_prompts(once, prompts)


class TestDownProject:
    def test_zero_weights_zero_output(self):
        rng = np.random.default_rng(4)
        params = adapter_params(8, 3, seed=4)
        params["adapter0.down.weight"].data[:] = 0.0
        params["adapter0.down.bias"].data[:] = 0.0
        out = peft.down_project(make_seq(rng, 1, 2, 3, 8).tokens, params, "adapter0")
        assert np.abs(out.data).max() == 0.0

    def test_identity_projection_is_gelu(self):
        from scipy.special import erf
        rng = np.random.default_rng(5)
        d = 6
        params = {
            "adapter0.down.weight": Tensor(np.eye(d)),
            "adapter0.down.bias": Tensor(np.zeros(d)),
        }
        tokens = make_seq(rng, 1, 1, 2, d).tokens
        out = peft.down_project(tokens, params, "adapter0")
        x = tokens.data
        np.testing.assert_allclose(out.data, x * 0.5 * (1.0 + erf(x / np.sqrt(2.0))), atol=1e-12)

    def test_applies_to_every_token(self):
        from scipy.special import erf
        rng = np.random.default_rng(6)
        params = adapter_params(8, 3, seed=6)
        tokens = make_seq(rng, 2, 2, 3, 8).tokens
        out = peft.down_project(tokens, params, "adapter0")
        pre = tokens.data @ params["adapter0.down.weight"].data \
            + params["adapter0.down.bias"].data
        expected = pre * 0.5 * (1.0 + erf(pre / np.sqrt(2.0)))
        np.testing.assert_allclose(out.data, expected, atol=1e-10)


class TestCavpt:
    def test_no_prompts_rejected(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ConfigError):
            peft.cavpt(make_seq(rng, 1, 0, 3, 4))

    def test_single_key_copies_cls_row(self):
        rng = np.random.default_rng(8)
        seq = make_seq(rng, 1, 3, 0, 4)  # cls only, no patches
        out = peft.cavpt(seq)
        cls_row = seq.tokens.data[0, 3]
        for i in range(3):
            np.testing.assert_allclose(out.data[0, i], cls_row, atol=1e-12)

    def test_identical_keys_give_that_row(self):
        rng = np.random.default_rng(9)
        seq = make_seq(rng, 1, 2, 3, 5)
        v = rng.normal(size=5)
        seq.tokens.data[0, 2:] = v
        out = peft.cavpt(seq)
        for i in range(2):
            np.testing.assert_allclose(out.data[0, i], v, atol=1e-10)

    def test_direct_formula_oracle(self):
        rng = np.random.default_rng(10)
        m, n, dp = 2, 2, 3
        seq = make_seq(rng, 1, m, n, dp)
        out = peft.cavpt(seq)
        p = seq.tokens.data[0, :m]
        keys = seq.tokens.data[0, m:]
        scores = p @ keys.T / np.sqrt(dp)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        attn = e / e.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(out.data[0], attn @ keys, atol=1e-10)

    def test_attention_rows_convex(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            seq = make_seq(rng, 2, 3, 4, 1)
            out = peft.cavpt(seq)
            keys = seq.tokens.data[:, 3:, 0]
            lo = keys.min(axis=1, keepdims=True)
            hi = keys.max(axis=1, keepdims=True)
            vals = out.data[:, :, 0]
            assert (vals >= lo - 1e-12).all() and (vals <= hi + 1e-12).all()


class TestReassemble:
    def test_identity_reassembly(self):
        rng = np.random.default_rng(12)
        seq = make_seq(rng, 1, 2, 3, 4)
        p = Tensor(seq.tokens.data[:, :2].copy())
        out = peft.reassemble(p, seq)
        np.testing.assert_array_equal(out.data, seq.tokens.data)

    def test_keys_pass_through_bitwise(self):
        rng = np.random.default_rng(13)
        seq = make_seq(rng, 2, 3, 4, 5)
        p = Tensor(rng.normal(size=(2, 3, 5)))
        out = peft.reassemble(p, seq)
        assert np.array_equal(out.data[:, 3:], seq.tokens.data[:, 3:])

    def test_row_order(self):
        rng = np.random.default_rng(14)
        seq = make_seq(rng, 1, 1, 1, 3)
        p = Tensor(rng.normal(size=(1, 1, 3)))
        out = peft.reassemble(p, seq)
        np.testing.assert_array_equal(out.data[0, 0], p.data[0, 0])
        np.testing.assert_array_equal(out.data[0, 1:], seq.tokens.data[0, 1:])


class TestUpProjectGate:
    def test_gate_off_zero_output(self):
        rng = np.random.default_rng(15)
        params = adapter_params(8, 3, seed=15, gate=0.0)
        out = peft.up_project_gate(make_seq(rng, 1, 2, 2, 3).tokens, params, "adapter0")
        assert np.abs(out.data).max() == 0.0

    def test_zero_weight_gives_bias(self):
        rng = np.random.default_rng(16)
        params = adapter_params(8, 3, seed=16, gate=1.0)
        params["adapter0.up.weight"].data[:] = 0.0
        out = peft.up_project_gate(make_seq(rng, 1, 1, 2, 3).tokens, params, "adapter0")
        np.testing.assert_array_equal(
            out.data, np.broadcast_to(params["adapter0.up.bias"].data, (1, 4, 8)))

    def test_matmul_oracle(self):
        rng = np.random.default_rng(17)
        params = adapter_params(8, 3, seed=17, gate=0.7)
        tokens = make_seq(rng, 1, 2, 2, 3).tokens
        out = peft.up_project_gate(tokens, params, "adapter0")
        expected = 0.7 * (tokens.data @ params["adapter0.up.weight"].data
                          + params["adapter0.up.bias"].data)
        np.testing.assert_allclose(out.data, expected, atol=1e-10)


class TestAdapterBlock:
    def test_gate_off_equals_plain_block_bitwise(self, desk_cfg, desk_dvpt):
        dv = DvptConfig(desk_dvpt.num_prompts, desk_dvpt.hidden_dim, 1, 0.0)
        model = Model(desk_cfg, dv, seed=5)
        rng = np.random.default_rng(18)
        x = Tensor(rng.normal(size=(2, 16, 16, 1)).astype(np.float32))
        assert np.array_equal(model.forward(x).data,
                              model.forward(x, use_adapter=False).data)

    def test_deterministic_repeat(self, desk_cfg, desk_dvpt):
        model = Model(desk_cfg, desk_dvpt, seed=6)
        rng = np.random.default_rng(19)
        x = Tensor(rng.normal(size=(1, 16, 16, 1)).astype(np.float32))
        assert np.array_equal(model.forward(x).data, model.forward(x).data)

    def test_stage_by_stage_oracle(self, desk_cfg, desk_dvpt, monkeypatch):
        """``Model.forward``'s final token rows equal every block composed
        stage by stage: plain block plus the gated adapter branch."""
        import dvpt.vit as vit
        model = Model(desk_cfg, desk_dvpt, seed=7, dtype=np.float64)
        params = model.params
        rng = np.random.default_rng(20)
        images = Tensor(rng.normal(size=(1, 16, 16, 1)))
        real_head, final = vit.classification_head, []

        def head_spy(seq, params):
            final.append(seq.tokens.data)
            return real_head(seq, params)

        monkeypatch.setattr(vit, "classification_head", head_spy)
        model.forward(images)
        seq = peft.append_prompts(vit.patch_embed(images, params, desk_cfg), params["prompts"])
        x = seq.tokens
        for layer in range(desk_cfg.depth):
            block, adapter = f"block{layer}", f"adapter{layer}"
            mid = vit.attention_residual(x, params, block, desk_cfg)
            plain = vit.ffn_residual(mid, params, block)
            compressed = seq.with_tokens(peft.down_project(mid, params, adapter))
            branch = peft.up_project_gate(
                peft.reassemble(peft.cavpt(compressed), compressed), params, adapter)
            x = Tensor(plain.data + branch.data)
        np.testing.assert_allclose(final[0], x.data, atol=1e-6)


class TestSharing:
    @staticmethod
    def blocks_read(monkeypatch, cfg, share_every):
        """The adapter block index ``Model.forward`` hands each layer, in
        layer order."""
        real = peft.adapter_branch
        seen = []

        def spy(seq, params, prefix):
            seen.append(int(prefix.removeprefix("adapter")))
            return real(seq, params, prefix)

        model = Model(cfg, DvptConfig(4, 4, share_every, 0.5), seed=0)
        with monkeypatch.context() as patch:
            patch.setattr(peft, "adapter_branch", spy)
            model.forward(Tensor(np.ones((1, 16, 16, 1), np.float32)))
        assert sum(name.endswith(".gate") for name in model.params) == len(set(seen))
        return seen

    def test_block_counts(self, desk_cfg, monkeypatch):
        assert self.blocks_read(monkeypatch, desk_cfg, 1) == [0, 1, 2, 3]
        assert self.blocks_read(monkeypatch, desk_cfg, 4) == [0, 0, 0, 0]
        assert self.blocks_read(monkeypatch, desk_cfg, 2) == [0, 0, 1, 1]

    def test_remainder_layers_use_last_block(self, desk_cfg, monkeypatch):
        depth5 = dataclasses.replace(desk_cfg, depth=5)
        assert self.blocks_read(monkeypatch, depth5, 2) == [0, 0, 1, 1, 2]

    def test_invalid_share_factor(self, desk_cfg):
        for share_every in (0, 5):
            with pytest.raises(ConfigError, match=rf"share_every {share_every} outside"):
                Model(desk_cfg, DvptConfig(4, 4, share_every, 0.5))

    def test_shared_gradient_equals_sum_of_tied_per_layer_gradients(self, desk_cfg):
        dv_shared = DvptConfig(4, 4, 2, 0.5)
        dv_split = DvptConfig(4, 4, 1, 0.5)
        shared = Model(desk_cfg, dv_shared, seed=8, dtype=np.float64)
        split = Model(desk_cfg, dv_split, seed=8, dtype=np.float64)
        # tie: same backbone/prompt weights, per-layer blocks copy the shared ones
        for name, t in shared.params.items():
            if not name.startswith("adapter"):
                split.params[name].data = t.data.copy()
        for layer in range(desk_cfg.depth):
            src = f"adapter{layer // 2}"
            dst = f"adapter{layer}"
            for leaf in ("down.weight", "down.bias", "up.weight", "up.bias", "gate"):
                split.params[f"{dst}.{leaf}"].data = shared.params[f"{src}.{leaf}"].data.copy()
        rng = np.random.default_rng(21)
        images = rng.normal(size=(2, 16, 16, 1))
        labels = np.array([0, 3])
        for m in (shared, split):
            m.zero_grad()
            with Tape() as tape:
                loss = batch_loss(m, images, labels)
            backward(loss, tape)
        for k in range(2):
            for leaf in ("down.weight", "down.bias", "up.weight", "up.bias", "gate"):
                tied_sum = sum(split.params[f"adapter{layer}.{leaf}"].grad
                               for layer in (2 * k, 2 * k + 1))
                np.testing.assert_allclose(
                    shared.params[f"adapter{k}.{leaf}"].grad, tied_sum, atol=1e-9)


class TestFreezePolicy:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            FreezePolicy("lora")

    def test_dvpt_trainable_name_set(self, desk_cfg, desk_dvpt):
        model, _ = model_for_policy(desk_cfg, desk_dvpt, "dvpt")
        names = {n for n, _ in model.trainable()}
        expected = {"prompts", "head.weight", "head.bias"}
        expected |= {f"adapter{k}.{leaf}" for k in range(4)
                     for leaf in ("down.weight", "down.bias", "up.weight", "up.bias", "gate")}
        assert names == expected

    def test_full_finetune_everything_trainable(self, desk_cfg):
        model, _ = model_for_policy(desk_cfg, None, "full_finetune")
        assert all(t.requires_grad for t in model.params.values())

    def test_linear_probe_head_only(self, desk_cfg):
        model, _ = model_for_policy(desk_cfg, None, "linear_probe")
        assert {n for n, _ in model.trainable()} == {"head.weight", "head.bias"}

    def test_vpt_only_prompts_and_head(self, desk_cfg, desk_dvpt):
        model, _ = model_for_policy(desk_cfg, desk_dvpt, "vpt_only")
        assert {n for n, _ in model.trainable()} == {"prompts", "head.weight", "head.bias"}

    def test_frozen_tensors_immutable_under_training(self, desk_cfg, desk_dvpt):
        model, policy = model_for_policy(desk_cfg, desk_dvpt, "dvpt", seed=9)
        snapshot = {n: t.data.copy() for n, t in model.params.items()
                    if not t.requires_grad}
        rng = np.random.default_rng(22)
        images = rng.normal(size=(4, 16, 16, 1)).astype(np.float32)
        labels = np.array([0, 1, 2, 3])
        state = AdamState(lr=0.05)
        for _ in range(10):
            model.zero_grad()
            with Tape() as tape:
                loss = batch_loss(model, images, labels)
            backward(loss, tape)
            adam_step(model.trainable(), state)
        for name, snap in snapshot.items():
            assert np.array_equal(model.params[name].data, snap), name


# Each policy's trainable name prefixes as the policy table listed them
# before the trainable set was derived from the backbone rule.
_TRAINED_PREFIXES = {
    "full_finetune": ("",),
    "linear_probe": ("head.",),
    "vpt_only": ("head.", "prompts"),
    "dvpt": ("head.", "prompts", "adapter"),
}


@settings(max_examples=40, deadline=None)
@given(depth=st.integers(1, 5), data=st.data(), task=st.sampled_from(TASKS),
       mode=st.sampled_from(list(peft.POLICIES)))
def test_the_trainable_set_is_the_one_the_prefix_table_selected(depth, data, task, mode):
    cfg = VitConfig(depth=depth)
    dvpt_cfg = DvptConfig(num_prompts=data.draw(st.integers(1, 8)),
                          hidden_dim=data.draw(st.integers(1, 31)),
                          share_every=data.draw(st.integers(1, depth)))
    model, _ = model_for_policy(cfg, dvpt_cfg, mode, task=task)
    trainable = [name for name, _ in model.trainable()]
    assert trainable == [name for name in model.params
                         if name.startswith(_TRAINED_PREFIXES[mode])]
    report = report_from_config(cfg, dvpt_cfg, mode)
    assert sorted(trainable) == [row.name for row in report.rows if row.trainable]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "task.ckpt")
        save_trainable(path, model)
        assert list(load_checkpoint(path)) == sorted(trainable)


def test_end_to_end_gradient_check_all_policies(desk_cfg, desk_dvpt):
    from dvpt.training import grad_check
    rng = np.random.default_rng(23)
    images = rng.normal(size=(2, 16, 16, 1))
    labels = np.array([1, 4])
    # a fixed sampling seed per mode: a str hash is salted per process
    for seed, mode in enumerate(("full_finetune", "linear_probe", "vpt_only", "dvpt")):
        model, _ = model_for_policy(desk_cfg, desk_dvpt, mode, seed=10, dtype=np.float64)
        result = grad_check(model, images, labels, samples=12, tol=1e-4, seed=seed)
        assert result["passed"], (mode, result["max_rel_err"])
