"""Parameter-efficient fine-tuning: prompt tokens, the gated bottleneck
adapter branch with prompt-query cross-attention, layer sharing, and
freeze policies.

The adapter branch runs parallel to the FFN inside each transformer
block: the post-attention sequence is down-projected through a GELU
bottleneck, the prompt rows attend over the image/class rows, the result
is up-projected and scaled by a learnable scalar gate, and added to the
block output as an extra residual.  The projections act on every row
alike and take a token Tensor; ``cavpt`` and ``reassemble`` split prompt
rows from the rest, so they read the ``TokenSequence`` layout.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .vit import ConfigError, TokenSequence, check_integers, check_reals

# Model variants a freeze policy can need.
PLAIN, PROMPTS, ADAPTERS = "plain backbone", "prompts only", "prompts plus adapters"

BACKBONE_PREFIXES = ("patch_embed.", "cls_token", "pos_embed", "block")


def is_backbone_param(name):
    """Backbone = shared pre-trained weights; excludes head, prompts, adapters."""
    return name.startswith(BACKBONE_PREFIXES)


# The freeze policies: mode -> (model variant, whether the backbone trains).
# Each trains all its variant adds to the backbone.  A new policy is one row.
POLICIES = {
    "full_finetune": (PLAIN, True),
    "linear_probe": (PLAIN, False),
    "vpt_only": (PROMPTS, False),
    "dvpt": (ADAPTERS, False),
}


@dataclass(frozen=True)
class DvptConfig:
    num_prompts: int = 8
    hidden_dim: int = 4
    share_every: int = 1
    gate_init: float = 0.0

    def validate(self, vit_cfg):
        check_integers(dict(num_prompts=self.num_prompts, hidden_dim=self.hidden_dim,
                            share_every=self.share_every), ConfigError)
        if self.num_prompts <= 0:
            raise ConfigError(f"num_prompts must be positive, got {self.num_prompts}")
        if self.hidden_dim <= 0:
            raise ConfigError(f"hidden_dim must be positive, got {self.hidden_dim}")
        if self.hidden_dim >= vit_cfg.embed_dim:
            raise ConfigError(
                f"hidden_dim {self.hidden_dim} must be a bottleneck, "
                f"smaller than embed_dim {vit_cfg.embed_dim}"
            )
        if not 1 <= self.share_every <= vit_cfg.depth:
            raise ConfigError(
                f"share_every {self.share_every} outside [1, depth={vit_cfg.depth}]"
            )
        check_reals({"gate_init": self.gate_init}, ConfigError)
        if not math.isfinite(self.gate_init):
            raise ConfigError(f"gate_init must be finite, got {self.gate_init}")
        return self

    def num_blocks(self, depth):
        return -(-depth // self.share_every)  # ceil


def append_prompts(seq, prompts):
    """Concatenate the trainable prompt rows ahead of the class and patch
    tokens: [P, Z_cls, Z].  Applied exactly once, at the input layer."""
    if seq.num_prompts:
        raise ConfigError("prompts already appended to this sequence")
    m, d = prompts.shape
    if m == 0:
        return seq
    b = seq.tokens.shape[0]
    rows = T.broadcast_to(T.reshape(prompts, (1, m, d)), (b, m, d))
    tokens = T.concat([rows, seq.tokens], axis=1)
    return TokenSequence(tokens, num_prompts=m, has_cls=seq.has_cls,
                         num_patches=seq.num_patches)


def down_project(x, params, prefix):
    """GELU bottleneck compression applied to every token row."""
    return T.gelu(T.linear(x, params[f"{prefix}.down.weight"], params[f"{prefix}.down.bias"]))


def cavpt(seq):
    """Prompt rows attend over image/class rows of the compressed sequence.

    The prompt rows themselves are the queries; keys and values are the
    image/class rows.  No learned weights inside.  Returns the attended
    prompt rows [batch, m, hidden_dim].
    """
    m = seq.num_prompts
    if m == 0:
        raise ConfigError("cross-attention needs at least one prompt row")
    d_prime = seq.tokens.shape[2]
    prompts = T.slice_axis(seq.tokens, 1, 0, m)
    keys = T.slice_axis(seq.tokens, 1, m, seq.seq_len)
    return T.attention(prompts, keys, keys, 1.0 / np.sqrt(d_prime))


def reassemble(p_prime, seq):
    """The compressed token rows with the attended prompt rows in front;
    image/class rows pass through unchanged."""
    keys = T.slice_axis(seq.tokens, 1, seq.num_prompts, seq.seq_len)
    return T.concat([p_prime, keys], axis=1)


def up_project_gate(x, params, prefix):
    """Expand back to embed_dim, then scale by the scalar gate."""
    out = T.linear(x, params[f"{prefix}.up.weight"], params[f"{prefix}.up.bias"])
    return T.mul(out, params[f"{prefix}.gate"])


def adapter_branch(seq, params, prefix):
    """The full bottleneck branch on the post-attention sequence; returns
    its token Tensor."""
    compressed = seq.with_tokens(down_project(seq.tokens, params, prefix))
    rebuilt = reassemble(cavpt(compressed), compressed)
    return up_project_gate(rebuilt, params, prefix)


@dataclass(frozen=True)
class FreezePolicy:
    """Declarative trainable/frozen partition of the named parameters,
    read from its row of ``POLICIES``."""

    mode: str

    def __post_init__(self):
        if self.mode not in POLICIES:
            raise ConfigError(f"unknown policy mode {self.mode!r}; expected one of {tuple(POLICIES)}")

    @property
    def variant(self):
        return POLICIES[self.mode][0]

    def is_trainable(self, name):
        return POLICIES[self.mode][1] or not is_backbone_param(name)

    def model_args(self, dvpt_cfg):
        """``(dvpt_cfg, prompts_only)`` that build this policy's model variant."""
        if self.variant == PLAIN:
            return None, False
        if dvpt_cfg is None:
            raise ConfigError(f"policy {self.mode!r} needs a dvpt config (a [dvpt] section)")
        return dvpt_cfg, self.variant == PROMPTS

