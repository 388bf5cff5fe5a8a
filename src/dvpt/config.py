"""Run configuration files: flat key = value lines grouped in sections.

Unknown sections or keys are hard errors (silent hyperparameter typos are
the main reproducibility hazard), and every structural constraint of the
model configs is re-validated at load time.

Example::

    [run]
    task = classification
    policy = dvpt

    [model]
    image_h = 16
    image_w = 16
    channels = 1
    patch_size = 4
    embed_dim = 32
    depth = 4
    heads = 4
    num_classes = 5

    [dvpt]
    num_prompts = 8
    hidden_dim = 4
    share_every = 1
    gate_init = 0.0

    [optimizer]
    lr = 0.01
    epochs = 10
    batch_size = 8
    seed = 0

    [data]
    source = synthetic
    count = 64
    seed = 7
    difficulty = 0.3
    family = a
"""

import configparser
from dataclasses import dataclass

from .peft import DvptConfig, FreezePolicy
from .vit import ConfigError, VitConfig

_SCHEMA = {
    "run": {"task": str, "policy": str},
    "model": {
        "image_h": int, "image_w": int, "channels": int, "patch_size": int,
        "embed_dim": int, "depth": int, "heads": int, "num_classes": int,
    },
    "dvpt": {"num_prompts": int, "hidden_dim": int, "share_every": int,
             "gate_init": float},
    "optimizer": {"lr": float, "epochs": int, "batch_size": int, "seed": int},
    "data": {"source": str, "path": str, "count": int, "seed": int,
             "difficulty": float, "family": str},
}

_REQUIRED_SECTIONS = ("run", "model", "optimizer", "data")


@dataclass
class OptimizerConfig:
    lr: float = 0.01
    epochs: int = 10
    batch_size: int = 8
    seed: int = 0


@dataclass
class DataConfig:
    source: str = "synthetic"
    path: str = None
    count: int = 64
    seed: int = 0
    difficulty: float = 0.3
    family: str = "a"


@dataclass
class RunConfig:
    task: str
    policy: str
    model: VitConfig
    dvpt: DvptConfig  # may be None
    optimizer: OptimizerConfig
    data: DataConfig


def _parse_section(parser, section, defaults=None):
    schema = _SCHEMA[section]
    values = dict(defaults or {})
    for key, raw in parser.items(section):
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} in section [{section}]")
        caster = schema[key]
        try:
            values[key] = caster(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    return values


def load_config(path):
    parser = configparser.ConfigParser(interpolation=None)
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
    for section in _REQUIRED_SECTIONS:
        if not parser.has_section(section):
            raise ConfigError(f"missing section [{section}]")

    run = _parse_section(parser, "run")
    for key in ("task", "policy"):
        if key not in run:
            raise ConfigError(f"[run] missing key {key!r}")
    if run["task"] not in ("classification", "segmentation"):
        raise ConfigError(f"[run] task must be classification or segmentation, got {run['task']!r}")
    policy = FreezePolicy(run["policy"])

    model = VitConfig(**_parse_section(parser, "model")).validate()

    dvpt = None
    if parser.has_section("dvpt"):
        dvpt = DvptConfig(**_parse_section(parser, "dvpt")).validate(model)
    policy.model_args(dvpt)  # raises if the policy's model variant needs [dvpt]

    optimizer = OptimizerConfig(**_parse_section(parser, "optimizer"))
    if optimizer.lr < 0 or optimizer.epochs < 0 or optimizer.batch_size <= 0:
        raise ConfigError("[optimizer] lr/epochs must be >= 0 and batch_size > 0")

    data = DataConfig(**_parse_section(parser, "data"))
    if data.source not in ("synthetic", "file"):
        raise ConfigError(f"[data] source must be synthetic or file, got {data.source!r}")
    if data.source == "file" and not data.path:
        raise ConfigError("[data] source = file requires a path")
    if data.source == "synthetic" and data.family not in ("a", "b"):
        raise ConfigError(f"[data] family must be 'a' or 'b', got {data.family!r}")

    return RunConfig(task=run["task"], policy=run["policy"], model=model,
                     dvpt=dvpt, optimizer=optimizer, data=data)
