"""Anatomy of the prompt-adapter forward pass.

A plain vision transformer becomes a prompt-adapter model in two moves:

  1. trainable prompt rows are concatenated ahead of the class and patch
     tokens at the input, and
  2. each transformer block gains a bottleneck branch, parallel to its
     FFN, in which the prompt rows cross-attend over the image/class rows
     before being expanded back and scaled by a scalar gate.

This script walks one batch through the stages and demonstrates the two
key structural facts: the gate makes the branch an exact no-op at zero,
and consecutive layers can share one adapter's tensors.

Run:  python3 demos/02_prompt_adapter_anatomy.py
"""

import numpy as np

from dvpt import peft, vit
from dvpt.model import Model
from dvpt.peft import DvptConfig
from dvpt.tensor import Tensor
from dvpt.vit import VitConfig

cfg = VitConfig(image_h=16, image_w=16, channels=1, patch_size=4,
                embed_dim=32, depth=4, heads=4, num_classes=5)
adapter = DvptConfig(num_prompts=8, hidden_dim=4, share_every=2, gate_init=0.3)
model = Model(cfg, adapter, seed=0)

rng = np.random.default_rng(0)
images = Tensor(rng.normal(size=(2, 16, 16, 1)).astype(np.float32))

# --- stage by stage ------------------------------------------------------
seq = vit.patch_embed(images, model.params, cfg)
print(f"after patch embedding: {seq.tokens.shape}  "
      f"(cls + {seq.num_patches} patches)")

seq = peft.append_prompts(seq, model.params["prompts"])
print(f"after prompt append:   {seq.tokens.shape}  "
      f"({seq.num_prompts} prompts + cls + patches)")

# The block layers take and return the token tensor; only cross-attention
# needs the layout that tells prompt rows from the rest.
mid = vit.attention_residual(seq.tokens, model.params, "block0", cfg)
compressed = peft.down_project(mid, model.params, "adapter0")
print(f"bottleneck compresses tokens to width {compressed.shape[2]}")

p_prime = peft.cavpt(seq.with_tokens(compressed))
print(f"cross-attended prompt rows: {p_prime.shape}")

branch = peft.adapter_branch(seq.with_tokens(mid), model.params, "adapter0")
print(f"branch output, back at width {branch.shape[2]}, "
      f"scaled by gate = {model.params['adapter0.gate'].data:+.2f}")

logits = model.forward(images)
print(f"end-to-end logits: {logits.shape}")

# --- the gate is an exact off switch -------------------------------------
for name in model.params:
    if name.endswith(".gate"):
        model.params[name].data = np.asarray(0.0, dtype=np.float32)
plain = model.forward(images, use_adapter=False).data
gated = model.forward(images, use_adapter=True).data
print(f"gates at zero -> branch output bitwise equals the branch-free "
      f"forward: {np.array_equal(plain, gated)}")

# --- adapter sharing -----------------------------------------------------
# Model.forward hands layer l the tensors of adapter block l // share_every.
sharing = {layer: layer // adapter.share_every for layer in range(cfg.depth)}
print(f"share_every = {adapter.share_every}: layer -> adapter map {sharing}")
n_blocks = adapter.num_blocks(cfg.depth)
print(f"{cfg.depth} layers reuse {n_blocks} adapter blocks; "
      f"tied layers update one set of tensors whose gradients accumulate")
