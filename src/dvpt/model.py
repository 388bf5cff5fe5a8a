"""Model assembly: parameter shape tables, seeded initialization, and the
forward pass combining the ViT backbone with the optional prompt-adapter
branch.

Parameters are held in an ordered name -> Tensor dict.  Naming scheme:

    patch_embed.{weight,bias}, cls_token, pos_embed
    block{l}.ln1.{gamma,beta}, block{l}.attn.{wq,wk,wv,wo}.{weight,bias},
    block{l}.ln2.{gamma,beta}, block{l}.ffn.{w1,w2}.{weight,bias}
    prompts
    adapter{k}.down.{weight,bias}, adapter{k}.up.{weight,bias}, adapter{k}.gate
    head.{weight,bias}

Adapter blocks are shared across consecutive layers: layer l uses block
floor(l / share_every), as the same Tensor objects, so gradients
accumulate across the layers that share them.
"""

import math

import numpy as np

from . import peft, tensor as T, vit
from .peft import FreezePolicy, is_backbone_param  # noqa: F401 (part of this module's API)
from .tensor import Tensor
from .vit import ConfigError, check_integers

TASKS = ("classification", "segmentation")

def param_shapes(cfg, dvpt_cfg=None, prompts_only=False):
    """Ordered name -> shape table for a model configuration.

    The accountant uses this directly so paper-scale configurations can be
    counted without allocating the tensors.
    """
    cfg.validate()
    d = cfg.embed_dim
    shapes = {
        "patch_embed.weight": (cfg.patch_size ** 2 * cfg.channels, d),
        "patch_embed.bias": (d,),
        "cls_token": (1, 1, d),
        "pos_embed": (cfg.num_patches + 1, d),
    }
    for layer in range(cfg.depth):
        p = f"block{layer}"
        shapes[f"{p}.ln1.gamma"] = (d,)
        shapes[f"{p}.ln1.beta"] = (d,)
        for role in ("wq", "wk", "wv", "wo"):
            shapes[f"{p}.attn.{role}.weight"] = (d, d)
            shapes[f"{p}.attn.{role}.bias"] = (d,)
        shapes[f"{p}.ln2.gamma"] = (d,)
        shapes[f"{p}.ln2.beta"] = (d,)
        shapes[f"{p}.ffn.w1.weight"] = (d, 4 * d)
        shapes[f"{p}.ffn.w1.bias"] = (4 * d,)
        shapes[f"{p}.ffn.w2.weight"] = (4 * d, d)
        shapes[f"{p}.ffn.w2.bias"] = (d,)
    if dvpt_cfg is not None:
        dvpt_cfg.validate(cfg)
        shapes["prompts"] = (dvpt_cfg.num_prompts, d)
        if not prompts_only:
            for k in range(dvpt_cfg.num_blocks(cfg.depth)):
                a = f"adapter{k}"
                shapes[f"{a}.down.weight"] = (d, dvpt_cfg.hidden_dim)
                shapes[f"{a}.down.bias"] = (dvpt_cfg.hidden_dim,)
                shapes[f"{a}.up.weight"] = (dvpt_cfg.hidden_dim, d)
                shapes[f"{a}.up.bias"] = (d,)
                shapes[f"{a}.gate"] = ()
    shapes["head.weight"] = (d, cfg.num_classes)
    shapes["head.bias"] = (cfg.num_classes,)
    return shapes


INIT_STD = 0.02
_SKIP_CHUNK = 1 << 16  # values per draw when a skipped weight's draws are discarded


def _truncated_normal(rng, shape, std, dtype):
    """Normal(0, std) with draws beyond 2 std resampled."""
    out = rng.normal(0.0, std, size=shape)
    flat = out.reshape(-1)
    # Only the positions still out of range are redrawn, in index order:
    # the same draws, in the same order, as resampling the whole mask.
    bad = np.flatnonzero(np.abs(flat) > 2.0 * std)
    while bad.size:
        redraw = rng.normal(0.0, std, size=bad.size)
        flat[bad] = redraw
        bad = bad[np.abs(redraw) > 2.0 * std]
    return out.astype(dtype)


def _skip_truncated_normal(rng, size, std):
    """Advance ``rng`` past ``_truncated_normal``'s draws for ``size``
    values without keeping them: each round draws in chunks, counts the
    draws beyond 2 std, and the next round redraws that many."""
    while size:
        bad = 0
        for start in range(0, size, _SKIP_CHUNK):
            chunk = rng.normal(0.0, std, size=min(_SKIP_CHUNK, size - start))
            bad += np.count_nonzero(np.abs(chunk) > 2.0 * std)
        size = bad


class _PendingDraws:
    """The truncated-normal weights of one ``init_params`` call, drawn at
    the first read of any of them.

    Resolving replays ``default_rng(seed)`` over every weight in name
    order: a weight still pending gets its draws, and the generator only
    skips past the draws of a weight assigned meanwhile.  So every value
    equals an eager draw, whatever was assigned or read first.  Once a
    weight is assigned, only its size is kept, so holding a pending weight
    does not keep an assigned one (or the buffer it views) alive.
    """

    def __init__(self, seed, dtype):
        self.seed, self.dtype = seed, dtype
        self.weights = []  # (name, shape) of every weight, in name order
        self.pending = {}  # name -> Tensor, for the weights not yet assigned

    def add(self, name, shape):
        self.weights.append((name, shape))
        tensor = Tensor.pending(shape, self.dtype, self, requires_grad=True, name=name)
        self.pending[name] = tensor
        return tensor

    def forget(self, tensor):
        del self.pending[tensor.name]

    def resolve(self):
        rng = np.random.default_rng(self.seed)
        for name, shape in self.weights:
            if not self.pending:
                break
            tensor = self.pending.get(name)
            if tensor is None:
                _skip_truncated_normal(rng, math.prod(shape), INIT_STD)
            else:
                tensor.data = _truncated_normal(rng, shape, INIT_STD, self.dtype)


def init_params(shapes, gate_init=0.0, seed=0, dtype=np.float32):
    """Seeded initialization: truncated normal (std 0.02) for weights,
    zeros for biases, LN gamma 1 / beta 0, gates at gate_init.
    Deterministic in (seed, name order).  The weights are drawn at the
    first read of any of them (see ``_PendingDraws``), so weights that
    are assigned before then are never drawn.  ConfigError unless seed is an integer >= 0."""
    check_integers({"seed": seed}, ConfigError, low=0)
    draws = _PendingDraws(seed, dtype)
    params = {}
    for name, shape in shapes.items():
        if name.endswith(".gamma"):
            data = np.ones(shape, dtype=dtype)
        elif name.endswith((".bias", ".beta")):
            data = np.zeros(shape, dtype=dtype)
        elif name.endswith(".gate"):
            data = np.asarray(gate_init, dtype=dtype)
        else:
            params[name] = draws.add(name, shape)
            continue
        params[name] = Tensor(data, requires_grad=True, name=name)
    return params


class Model:
    """ViT backbone plus optional prompt tokens and adapter blocks.

    ``dvpt_cfg=None`` gives a plain ViT; ``prompts_only=True`` keeps the
    prompt tokens but omits the adapter blocks (pure prompt tuning).
    """

    def __init__(self, cfg, dvpt_cfg=None, prompts_only=False,
                 task="classification", seed=0, dtype=np.float32):
        if task not in TASKS:
            raise ConfigError(f"unknown task {task!r}; expected one of {TASKS}")
        self.cfg = cfg
        self.dvpt_cfg = dvpt_cfg
        self.task = task
        self.dtype = np.dtype(dtype)
        self.has_adapter = dvpt_cfg is not None and not prompts_only
        shapes = param_shapes(cfg, dvpt_cfg, prompts_only)
        gate_init = dvpt_cfg.gate_init if dvpt_cfg is not None else 0.0
        self.params = init_params(shapes, gate_init=gate_init, seed=seed, dtype=dtype)

    def forward(self, images, use_adapter=True):
        """Images [batch, H, W, C] -> logits ([batch, K] or patch-grid).

        Block l maps x to (FFN(LN(mid)) + mid) + gate * branch(mid), with
        mid = MHSA(LN(x)) + x; the branch term is there only with adapters.
        ``use_adapter=False`` excises it while keeping the prompt-extended
        sequence, for branch-off comparisons.

        The last block computes only the rows the task's head reads
        (``TokenSequence.head_rows``): its attention residual runs on every
        row, since the branch's ``cavpt`` reads them all, and the FFN
        residual and the branch's add run on the head rows alone.  The
        branch is cut after its gate, which keeps every gradient's sum
        order, and so its bits, as when all rows run.
        """
        seq = vit.patch_embed(images, self.params, self.cfg)
        if self.dvpt_cfg is not None:
            seq = peft.append_prompts(seq, self.params["prompts"])
        head_rows = seq.head_rows(self.task)
        for layer in range(self.cfg.depth):
            block = f"block{layer}"
            rows = head_rows if layer == self.cfg.depth - 1 else None
            mid = vit.attention_residual(seq.tokens, self.params, block, self.cfg)
            x = vit.ffn_residual(mid, self.params, block, rows)
            if self.has_adapter and use_adapter:
                adapter = f"adapter{layer // self.dvpt_cfg.share_every}"
                # no name holds the branch: it is freed once added, not at the next layer
                x = T.add(x, vit.cut(peft.adapter_branch(seq.with_tokens(mid), self.params,
                                                         adapter), rows))
            # seq carries the layout on; rebinding it frees this layer's input tokens
            seq = seq.with_tokens(x) if rows is None else seq.rows(*rows, x)
        if self.task == "classification":
            return vit.classification_head(seq, self.params)
        return vit.segmentation_head(seq, self.params, self.cfg)

    def trainable(self):
        """Ordered list of (name, tensor) with requires_grad set."""
        return [(n, t) for n, t in self.params.items() if t.requires_grad]

    def zero_grad(self):
        for t in self.params.values():
            t.grad = None


def model_for_policy(cfg, dvpt_cfg, mode, task="classification",
                     seed=0, dtype=np.float32):
    """Build the model variant a freeze policy implies (its row of
    ``peft.POLICIES``), with ``requires_grad`` set on the tensors it trains."""
    policy = FreezePolicy(mode)
    model = Model(cfg, *policy.model_args(dvpt_cfg), task=task, seed=seed, dtype=dtype)
    for name, tensor in model.params.items():
        tensor.requires_grad = policy.is_trainable(name)
    return model, policy
