"""Run configuration files: flat key = value lines grouped in sections.

Each section other than ``[run]`` is one config dataclass, and its keys
are that dataclass's fields, cast by their annotated types: a new key is
one new field.  Unknown sections or keys are hard errors (silent
hyperparameter typos are the main reproducibility hazard), and every
section's ``validate`` runs at load time.

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
from dataclasses import dataclass, fields

from .data import DataConfig
from .model import TASKS
from .peft import DvptConfig, FreezePolicy
from .training import OptimizerConfig
from .vit import ConfigError, VitConfig

# Section -> the dataclass whose fields are its keys.
_SECTIONS = {"model": VitConfig, "dvpt": DvptConfig,
             "optimizer": OptimizerConfig, "data": DataConfig}
_RUN_KEYS = ("task", "policy")
_REQUIRED_SECTIONS = ("run", "model", "optimizer", "data")


@dataclass
class RunConfig:
    task: str
    policy: str
    model: VitConfig
    dvpt: DvptConfig  # may be None
    optimizer: OptimizerConfig
    data: DataConfig


def _parse_section(parser, section, casters):
    """The section's key -> value dict, each value cast by ``casters[key]``."""
    values = {}
    for key, raw in parser.items(section):
        if key not in casters:
            raise ConfigError(f"unknown key {key!r} in section [{section}]")
        try:
            values[key] = casters[key](raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    return values


def _load_section(parser, section, *validate_args):
    """The section's dataclass, built from its keys and validated."""
    cls = _SECTIONS[section]
    casters = {field.name: field.type for field in fields(cls)}
    return cls(**_parse_section(parser, section, casters)).validate(*validate_args)


def load_config(path):
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        detail = "; ".join(line.strip() for line in str(exc).splitlines())
        raise ConfigError(f"cannot parse config file {path!r}: {detail}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    for section in parser.sections():
        if section != "run" and section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
    for section in _REQUIRED_SECTIONS:
        if not parser.has_section(section):
            raise ConfigError(f"missing section [{section}]")

    run = _parse_section(parser, "run", dict.fromkeys(_RUN_KEYS, str))
    for key in _RUN_KEYS:
        if key not in run:
            raise ConfigError(f"[run] missing key {key!r}")
    task, policy = run["task"], run["policy"]
    if task not in TASKS:
        raise ConfigError(f"[run] task must be {' or '.join(TASKS)}, got {task!r}")
    freeze = FreezePolicy(policy)

    model = _load_section(parser, "model")
    dvpt = _load_section(parser, "dvpt", model) if parser.has_section("dvpt") else None
    freeze.model_args(dvpt)  # raises if the policy's model variant needs [dvpt]
    return RunConfig(task=task, policy=policy, model=model, dvpt=dvpt,
                     optimizer=_load_section(parser, "optimizer"),
                     data=_load_section(parser, "data"))
