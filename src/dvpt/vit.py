"""Minimal Vision-Transformer encoder: patch embedding, pre-norm blocks
with multi-head self-attention and a GELU FFN, plus classification and
segmentation heads.

Parameters live in a flat name -> Tensor dict owned by the model (see
``model.py``); the functions here take that dict plus a per-block prefix.
The block layers act on every row alike, so they take and return the
``[batch, seq_len, dim]`` token Tensor; only ``patch_embed`` and the heads,
which must tell prompt, class and patch rows apart, deal in a
``TokenSequence``.  Its ``head_rows`` is the one rule for which rows a
task's head reads: ``Model.forward`` runs the last block's FFN residual on
those rows alone, and the heads take them from any sequence.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .tensor import Tensor


class ConfigError(ValueError):
    """Raised when a configuration violates its structural constraints."""


INTEGER_TYPES = (int, np.integer)  # an integer argument is Python's or numpy's
REAL_TYPES = INTEGER_TYPES + (float, np.floating)  # and a real one may also be a float

# The one range of a class count K, inclusive: kappa needs two classes, and a
# DVDS dataset file stores each label in [0, K) as a u16.
MIN_CLASSES, MAX_CLASSES = 2, 1 << 16


def check_num_classes(k, error):
    """``k``; raises ``error(message)`` unless it is an integer in [MIN_CLASSES, MAX_CLASSES]."""
    if not (isinstance(k, INTEGER_TYPES) and MIN_CLASSES <= k <= MAX_CLASSES):
        raise error(f"num_classes must be an integer in [{MIN_CLASSES}, {MAX_CLASSES}], got {k!r}")
    return k


def check_integers(values, error, low=None):
    """Raises ``error(message)`` naming the first of the name -> value dict
    ``values`` whose value is not an integer, or is below ``low``."""
    for name, value in values.items():
        if not isinstance(value, INTEGER_TYPES):
            raise error(f"{name} must be an integer, got {value!r}")
        if low is not None and value < low:
            raise error(f"{name} must be >= {low}, got {value}")


def check_reals(values, error):
    """Raises ``error(message)`` naming the first of the name -> value dict
    ``values`` whose value is not a real number (an integer or a float)."""
    for name, value in values.items():
        if not isinstance(value, REAL_TYPES):
            raise error(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True)
class VitConfig:
    image_h: int = 16
    image_w: int = 16
    channels: int = 1
    patch_size: int = 4
    embed_dim: int = 32
    depth: int = 4
    heads: int = 4
    num_classes: int = 5

    def validate(self):
        check_num_classes(self.num_classes, ConfigError)
        check_integers(vars(self), ConfigError)  # every field is an integer
        for name, value in vars(self).items():
            if value <= 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        if self.image_h % self.patch_size or self.image_w % self.patch_size:
            raise ConfigError(
                f"image {self.image_h}x{self.image_w} not divisible by patch_size {self.patch_size}"
            )
        if self.embed_dim % self.heads:
            raise ConfigError(
                f"embed_dim {self.embed_dim} not divisible by heads {self.heads}"
            )
        return self

    @property
    def num_patches(self):
        return (self.image_h * self.image_w) // (self.patch_size ** 2)

    @property
    def grid_h(self):
        return self.image_h // self.patch_size

    @property
    def grid_w(self):
        return self.image_w // self.patch_size


@dataclass
class TokenSequence:
    """Batch of token embeddings plus the layout that locates prompt,
    class and patch rows.  The layout is the single source of truth for
    every split along the sequence axis."""

    tokens: Tensor  # [batch, seq_len, dim]
    num_prompts: int
    has_cls: bool
    num_patches: int

    def __post_init__(self):
        expected = self.num_prompts + (1 if self.has_cls else 0) + self.num_patches
        if self.tokens.shape[1] != expected:
            raise ConfigError(
                f"token layout mismatch: seq_len {self.tokens.shape[1]} != "
                f"{self.num_prompts}+{int(self.has_cls)}+{self.num_patches}"
            )

    @property
    def seq_len(self):
        return self.tokens.shape[1]

    def with_tokens(self, tokens):
        return replace(self, tokens=tokens)

    def head_rows(self, task):
        """``(start, stop)`` of the rows ``task``'s head reads, along the
        sequence axis: the prompt rows and the class row for classification,
        the patch rows for segmentation."""
        if task == "classification":
            if not self.has_cls:
                raise ConfigError("classification head requires a class token")
            return 0, self.num_prompts + 1
        start = self.num_prompts + int(self.has_cls)
        return start, start + self.num_patches

    def rows(self, start, stop, tokens):
        """The sequence of ``tokens``, which hold this sequence's rows
        ``[start, stop)``, with the layout of those rows."""
        first_patch = self.num_prompts + int(self.has_cls)
        return TokenSequence(tokens,
                             num_prompts=max(0, min(stop, self.num_prompts) - start),
                             has_cls=self.has_cls and start <= self.num_prompts < stop,
                             num_patches=max(0, stop - max(start, first_patch)))

    def head_tokens(self, task):
        """The token Tensor of the rows ``task``'s head reads: the tokens
        themselves when they hold only those rows, as ``Model.forward``'s
        last sequence does, else a slice."""
        start, stop = self.head_rows(task)
        return self.tokens if stop - start == self.seq_len else cut(self.tokens, (start, stop))


def cut(tokens, rows):
    """The ``[start, stop)`` rows of a token Tensor, or all of it when
    ``rows`` is None."""
    return tokens if rows is None else T.slice_axis(tokens, 1, *rows)


def patch_embed(images, params, cfg):
    """Flatten p x p x C patches, project to embed_dim, prepend the class
    token and add the learnable positional embedding."""
    b = images.shape[0]
    p, gh, gw = cfg.patch_size, cfg.grid_h, cfg.grid_w
    x = T.reshape(images, (b, gh, p, gw, p, cfg.channels))
    x = T.transpose(x, (0, 1, 3, 2, 4, 5))  # [b, gh, gw, p, p, C]
    x = T.reshape(x, (b, cfg.num_patches, p * p * cfg.channels))
    patches = T.linear(x, params["patch_embed.weight"], params["patch_embed.bias"])
    cls = T.broadcast_to(params["cls_token"], (b, 1, cfg.embed_dim))
    tokens = T.concat([cls, patches], axis=1)
    tokens = T.add(tokens, params["pos_embed"])
    return TokenSequence(tokens, num_prompts=0, has_cls=True, num_patches=cfg.num_patches)


def mhsa(x, params, prefix, cfg):
    """Multi-head self-attention with per-head scale sqrt(dim/heads) and an
    output projection.  Sequence length is preserved."""
    b, s, d = x.shape
    h = cfg.heads
    dh = d // h

    def heads_view(t):
        t = T.reshape(t, (b, s, h, dh))
        return T.transpose(t, (0, 2, 1, 3))  # [b, h, s, dh]

    q = heads_view(T.linear(x, params[f"{prefix}.attn.wq.weight"], params[f"{prefix}.attn.wq.bias"]))
    k = heads_view(T.linear(x, params[f"{prefix}.attn.wk.weight"], params[f"{prefix}.attn.wk.bias"]))
    v = heads_view(T.linear(x, params[f"{prefix}.attn.wv.weight"], params[f"{prefix}.attn.wv.bias"]))

    ctx = T.attention(q, k, v, 1.0 / np.sqrt(dh))  # [b, h, s, dh]
    ctx = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (b, s, d))
    return T.linear(ctx, params[f"{prefix}.attn.wo.weight"], params[f"{prefix}.attn.wo.bias"])


def ffn(x, params, prefix):
    """Position-wise feed-forward: GELU(x W1 + b1) W2 + b2, hidden dim 4d."""
    hidden = T.gelu(T.linear(x, params[f"{prefix}.ffn.w1.weight"], params[f"{prefix}.ffn.w1.bias"]))
    return T.linear(hidden, params[f"{prefix}.ffn.w2.weight"], params[f"{prefix}.ffn.w2.bias"])


def attention_residual(x, params, prefix, cfg):
    """MHSA(LN(x)) + x, the first half of a pre-norm block."""
    normed = T.layernorm(x, params[f"{prefix}.ln1.gamma"], params[f"{prefix}.ln1.beta"])
    return T.add(mhsa(normed, params, prefix, cfg), x)


def ffn_residual(x, params, prefix, rows=None):
    """FFN(LN(x)) + x, the second half of a pre-norm block, on x's rows
    ``[start, stop)`` alone when ``rows`` is given.  Each of the two reads
    of x is cut on its own, so x's gradient sums its two terms in the
    order the all-rows block does and keeps its bits."""
    normed = T.layernorm(cut(x, rows), params[f"{prefix}.ln2.gamma"], params[f"{prefix}.ln2.beta"])
    return T.add(ffn(normed, params, prefix), cut(x, rows))


def classification_head(seq, params):
    """Pool the representation and project to class logits.

    The pooled vector is the mean of the m prompt tokens and the class
    token, which is the class token itself when there are no prompts.
    """
    pooled = T.tmean(seq.head_tokens("classification"), axis=1)
    return T.linear(pooled, params["head.weight"], params["head.bias"])


def segmentation_head(seq, params, cfg):
    """Per-patch-token linear projection to class logits on the patch grid.

    Prompt and class tokens are excluded; spatial order is patch raster order.
    """
    logits = T.linear(seq.head_tokens("segmentation"), params["head.weight"], params["head.bias"])
    b = seq.tokens.shape[0]
    return T.reshape(logits, (b, cfg.grid_h, cfg.grid_w, cfg.num_classes))
