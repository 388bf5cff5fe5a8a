import numpy as np
import pytest

from dvpt import tensor as T
from dvpt import vit
from dvpt.model import Model, init_params, param_shapes
from dvpt.tensor import Tape, Tensor, backward
from dvpt.vit import ConfigError, VitConfig


def make_params(cfg, seed=0, dtype=np.float64):
    return init_params(param_shapes(cfg), seed=seed, dtype=dtype)


def block(x, params, prefix, cfg):
    """One plain pre-norm block, composed as ``Model.forward`` composes it."""
    return vit.ffn_residual(vit.attention_residual(x, params, prefix, cfg), params, prefix)


def rand_seq(cfg, b, rng, dtype=np.float64, m=0):
    s = m + 1 + cfg.num_patches
    tokens = Tensor(rng.normal(size=(b, s, cfg.embed_dim)).astype(dtype))
    return vit.TokenSequence(tokens, num_prompts=m, has_cls=True,
                             num_patches=cfg.num_patches)


class TestConfig:
    def test_indivisible_image_rejected(self):
        with pytest.raises(ConfigError, match="divisible"):
            VitConfig(image_h=17, image_w=16).validate()

    def test_heads_must_divide_dim(self):
        with pytest.raises(ConfigError, match="heads"):
            VitConfig(embed_dim=30, heads=4).validate()

    @pytest.mark.parametrize("num_classes", [0, 1, 2 ** 16 + 1, 2.0, True])
    def test_the_class_count_has_one_range(self, num_classes):
        with pytest.raises(ConfigError, match=r"^num_classes must be an integer in \[2, 65536\]"):
            VitConfig(num_classes=num_classes).validate()

    @pytest.mark.parametrize("num_classes", [vit.MIN_CLASSES, vit.MAX_CLASSES])
    def test_the_class_count_range_is_inclusive(self, num_classes):
        assert VitConfig(num_classes=num_classes).validate().num_classes == num_classes

    def test_patch_count(self, desk_cfg):
        assert desk_cfg.num_patches == 16

    def test_token_layout_must_cover_the_sequence(self):
        # cavpt and the heads slice rows at the layout's offsets
        with pytest.raises(ConfigError, match=r"token layout mismatch: seq_len 6 != 2\+1\+4"):
            vit.TokenSequence(Tensor(np.zeros((1, 6, 4))), num_prompts=2, has_cls=True,
                              num_patches=4)


class TestPatchEmbed:
    def test_token_arithmetic(self, desk_cfg):
        params = make_params(desk_cfg)
        images = Tensor(np.zeros((2, 16, 16, 1)))
        seq = vit.patch_embed(images, params, desk_cfg)
        assert seq.seq_len == 17 and seq.num_patches == 16

    def test_zero_everything_gives_bias_rows(self, desk_cfg):
        params = make_params(desk_cfg)
        params["patch_embed.weight"].data[:] = 0.0
        params["pos_embed"].data[:] = 0.0
        bias = np.arange(32, dtype=np.float64)
        params["patch_embed.bias"].data[:] = bias
        seq = vit.patch_embed(Tensor(np.zeros((1, 16, 16, 1))), params, desk_cfg)
        np.testing.assert_array_equal(seq.tokens.data[0, 1:], np.tile(bias, (16, 1)))
        np.testing.assert_array_equal(seq.tokens.data[0, 0], params["cls_token"].data[0, 0])

    def test_per_patch_oracle(self, desk_cfg):
        rng = np.random.default_rng(10)
        params = make_params(desk_cfg, seed=1)
        image = rng.normal(size=(1, 16, 16, 1))
        seq = vit.patch_embed(Tensor(image), params, desk_cfg)
        w = params["patch_embed.weight"].data
        b = params["patch_embed.bias"].data
        pos = params["pos_embed"].data
        p = desk_cfg.patch_size
        for gy in range(4):
            for gx in range(4):
                flat = image[0, gy * p:(gy + 1) * p, gx * p:(gx + 1) * p, :].reshape(-1)
                expected = flat @ w + b + pos[1 + gy * 4 + gx]
                np.testing.assert_allclose(
                    seq.tokens.data[0, 1 + gy * 4 + gx], expected, atol=1e-6)


class TestMhsa:
    def test_single_token_attention_is_one(self, desk_cfg):
        rng = np.random.default_rng(11)
        params = make_params(desk_cfg, seed=2)
        x = rng.normal(size=(1, 1, 32))
        out = vit.mhsa(Tensor(x), params, "block0", desk_cfg)
        v = x[0] @ params["block0.attn.wv.weight"].data + params["block0.attn.wv.bias"].data
        expected = v @ params["block0.attn.wo.weight"].data + params["block0.attn.wo.bias"].data
        np.testing.assert_allclose(out.data[0], expected, atol=1e-10)

    def test_zero_query_means_uniform_attention(self, desk_cfg):
        rng = np.random.default_rng(12)
        params = make_params(desk_cfg, seed=3)
        params["block0.attn.wq.weight"].data[:] = 0.0
        params["block0.attn.wq.bias"].data[:] = 0.0
        tokens = rand_seq(desk_cfg, 1, rng).tokens
        out = vit.mhsa(tokens, params, "block0", desk_cfg)
        x = tokens.data[0]
        v = x @ params["block0.attn.wv.weight"].data + params["block0.attn.wv.bias"].data
        expected = (v.mean(axis=0) @ params["block0.attn.wo.weight"].data
                    + params["block0.attn.wo.bias"].data)
        np.testing.assert_allclose(out.data[0], np.tile(expected, (len(x), 1)), atol=1e-8)

    def test_three_token_single_head_oracle(self):
        cfg = VitConfig(image_h=8, image_w=4, channels=1, patch_size=4,
                        embed_dim=6, heads=1, depth=1, num_classes=2).validate()
        rng = np.random.default_rng(13)
        params = make_params(cfg, seed=4)
        x = rng.normal(size=(1, 3, 6))
        out = vit.mhsa(Tensor(x), params, "block0", cfg)

        def lin(name, arr):
            return arr @ params[f"block0.attn.{name}.weight"].data + \
                params[f"block0.attn.{name}.bias"].data

        q, k, v = lin("wq", x[0]), lin("wk", x[0]), lin("wv", x[0])
        scores = q @ k.T / np.sqrt(6.0)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        attn = e / e.sum(axis=-1, keepdims=True)
        expected = lin("wo", attn @ v)
        np.testing.assert_allclose(out.data[0], expected, atol=1e-6)

    def test_sequence_length_preserved(self, desk_cfg):
        rng = np.random.default_rng(14)
        params = make_params(desk_cfg)
        tokens = rand_seq(desk_cfg, 2, rng, m=3).tokens
        for fn in (lambda x: vit.mhsa(x, params, "block1", desk_cfg),
                   lambda x: vit.ffn(x, params, "block1"),
                   lambda x: block(x, params, "block1", desk_cfg)):
            assert fn(tokens).shape == tokens.shape


class TestFfn:
    def test_zero_input_zero_bias(self, desk_cfg):
        params = make_params(desk_cfg, seed=5)
        out = vit.ffn(Tensor(np.zeros((1, 17, 32))), params, "block2")
        assert np.abs(out.data).max() == 0.0

    def test_zero_w2_gives_bias(self, desk_cfg):
        rng = np.random.default_rng(15)
        params = make_params(desk_cfg, seed=6)
        params["block2.ffn.w2.weight"].data[:] = 0.0
        bias = params["block2.ffn.w2.bias"].data
        bias[:] = rng.normal(size=32)
        out = vit.ffn(rand_seq(desk_cfg, 1, rng).tokens, params, "block2")
        np.testing.assert_array_equal(out.data[0], np.tile(bias, (17, 1)))

    def test_scalar_composition_oracle(self, desk_cfg):
        rng = np.random.default_rng(16)
        params = make_params(desk_cfg, seed=7)
        tokens = rand_seq(desk_cfg, 1, rng).tokens
        out = vit.ffn(tokens, params, "block0")
        x = tokens.data[0]
        from scipy.special import erf
        h = x @ params["block0.ffn.w1.weight"].data + params["block0.ffn.w1.bias"].data
        h = h * 0.5 * (1.0 + erf(h / np.sqrt(2.0)))
        expected = h @ params["block0.ffn.w2.weight"].data + params["block0.ffn.w2.bias"].data
        np.testing.assert_allclose(out.data[0], expected, atol=1e-8)


class TestBlock:
    def test_all_zero_weights_identity(self, desk_cfg):
        params = make_params(desk_cfg, seed=8)
        for name, t in params.items():
            if name.startswith("block0."):
                t.data[:] = 0.0
        rng = np.random.default_rng(17)
        tokens = rand_seq(desk_cfg, 2, rng).tokens
        out = block(tokens, params, "block0", desk_cfg)
        np.testing.assert_array_equal(out.data, tokens.data)

    def test_matches_composed_stage_oracle(self, desk_cfg):
        rng = np.random.default_rng(18)
        params = make_params(desk_cfg, seed=9)
        x = rng.normal(size=(1, 3, 32))
        out = block(Tensor(x), params, "block3", desk_cfg)
        mid = vit.mhsa(
            T.layernorm(Tensor(x), params["block3.ln1.gamma"], params["block3.ln1.beta"]),
            params, "block3", desk_cfg).data + x
        final = vit.ffn(
            T.layernorm(Tensor(mid), params["block3.ln2.gamma"], params["block3.ln2.beta"]),
            params, "block3").data + mid
        np.testing.assert_allclose(out.data, final, atol=1e-9)


class TestHeads:
    def test_cls_only_when_no_prompts(self, desk_cfg):
        rng = np.random.default_rng(19)
        params = make_params(desk_cfg, seed=10)
        seq = rand_seq(desk_cfg, 2, rng)
        out = vit.classification_head(seq, params)
        expected = seq.tokens.data[:, 0] @ params["head.weight"].data + params["head.bias"].data
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_mean_of_identical_vectors(self, desk_cfg):
        params = make_params(desk_cfg, seed=11)
        v = np.random.default_rng(20).normal(size=32)
        tokens = np.random.default_rng(21).normal(size=(1, 19, 32))
        tokens[0, :3] = v  # 2 prompts + cls all equal
        seq = vit.TokenSequence(Tensor(tokens), 2, True, 16)
        out = vit.classification_head(seq, params)
        expected = v @ params["head.weight"].data + params["head.bias"].data
        np.testing.assert_allclose(out.data[0], expected, atol=1e-8)

    def test_prompt_pooling_hand_mean(self, desk_cfg):
        rng = np.random.default_rng(22)
        params = make_params(desk_cfg, seed=12)
        tokens = rng.normal(size=(1, 19, 32))
        seq = vit.TokenSequence(Tensor(tokens), 2, True, 16)
        out = vit.classification_head(seq, params)
        pooled = tokens[0, :3].mean(axis=0)
        expected = pooled @ params["head.weight"].data + params["head.bias"].data
        np.testing.assert_allclose(out.data[0], expected, atol=1e-8)

    def test_segmentation_zero_weights_bias_everywhere(self, desk_cfg):
        rng = np.random.default_rng(23)
        params = make_params(desk_cfg, seed=13)
        params["head.weight"].data[:] = 0.0
        bias = params["head.bias"].data
        bias[:] = rng.normal(size=5)
        seq = rand_seq(desk_cfg, 1, rng)
        out = vit.segmentation_head(seq, params, desk_cfg)
        assert out.shape == (1, 4, 4, 5)
        np.testing.assert_array_equal(out.data, np.broadcast_to(bias, (1, 4, 4, 5)))

    def test_segmentation_raster_order_and_oracle(self, desk_cfg):
        rng = np.random.default_rng(24)
        params = make_params(desk_cfg, seed=14)
        seq = rand_seq(desk_cfg, 1, rng, m=2)
        out = vit.segmentation_head(seq, params, desk_cfg)
        patches = seq.tokens.data[0, 3:]
        for i in range(16):
            expected = patches[i] @ params["head.weight"].data + params["head.bias"].data
            np.testing.assert_allclose(out.data[0, i // 4, i % 4], expected, atol=1e-10)


class TestModelInvariants:
    def test_patch_permutation_symmetry(self, desk_cfg):
        model = Model(desk_cfg, seed=3, dtype=np.float64)
        rng = np.random.default_rng(25)
        image = rng.normal(size=(1, 16, 16, 1))
        base = model.forward(Tensor(image)).data

        perm = rng.permutation(16)
        p = desk_cfg.patch_size
        patches = image.reshape(1, 4, p, 4, p, 1).transpose(0, 1, 3, 2, 4, 5)
        patches = patches.reshape(1, 16, p, p, 1)[:, perm]
        permuted = patches.reshape(1, 4, 4, p, p, 1).transpose(0, 1, 3, 2, 4, 5)
        permuted = permuted.reshape(1, 16, 16, 1)
        model.params["pos_embed"].data[1:] = model.params["pos_embed"].data[1:][perm]
        out = model.forward(Tensor(permuted)).data
        np.testing.assert_allclose(out, base, atol=1e-6)

    def test_full_gradient_connectivity(self, desk_cfg):
        model = Model(desk_cfg, seed=4, dtype=np.float64)
        rng = np.random.default_rng(26)
        x = Tensor(rng.normal(size=(2, 16, 16, 1)))
        with Tape() as tape:
            loss = T.tsum(model.forward(x))
        backward(loss, tape)
        missing = [n for n, t in model.params.items() if t.grad is None]
        assert missing == []
