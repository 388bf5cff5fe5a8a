"""Typed-error branches that no other test reaches: each case is one call
that must raise its documented error type with its message."""

import re

import numpy as np
import pytest

from dvpt import cli
from dvpt import tensor as T
from dvpt.checkpoint import save_checkpoint
from dvpt.config import load_config
from dvpt.data import DataConfig, Dataset, DatasetError, save_dataset, synth_generate
from dvpt.model import Model
from dvpt.peft import DvptConfig
from dvpt.tensor import ShapeError, Tensor
from dvpt.training import ContractError, accuracy, quadratic_weighted_kappa
from dvpt.vit import ConfigError, TokenSequence, VitConfig, classification_head

from test_config_cli import write_config


def _config(tmp_path, mutate):
    return load_config(write_config(tmp_path, mutate=mutate))


def _drop_section(text, name):
    return re.sub(rf"\[{name}\]\n(.+\n)*", "", text)


def _load_dataset_of_another_task(tmp_path):
    path = tmp_path / "seg.dvds"
    save_dataset(path, synth_generate("segmentation", 2, seed=0))
    return cli._load_data(_config(tmp_path, lambda t: t.replace(
        "source = synthetic", f"source = file\npath = {path}")))


_NO_CLS = TokenSequence(Tensor(np.zeros((1, 4, 8))), num_prompts=0, has_cls=False,
                        num_patches=4)

_CASES = {  # name -> (call taking a scratch directory, error type, message regex)
    "config file missing a section": (
        lambda tmp: _config(tmp, lambda t: _drop_section(t, "optimizer")),
        ConfigError, r"^missing section \[optimizer\]$"),
    "config file missing a [run] key": (
        lambda tmp: _config(tmp, lambda t: t.replace("policy = dvpt\n", "")),
        ConfigError, r"^\[run\] missing key 'policy'$"),
    "config file with a bad [run] task": (
        lambda tmp: _config(tmp, lambda t: t.replace("task = classification", "task = ranking")),
        ConfigError, r"^\[run\] task must be classification or segmentation, got 'ranking'$"),
    "DvptConfig num_prompts 0": (
        lambda tmp: DvptConfig(num_prompts=0).validate(VitConfig()),
        ConfigError, r"^num_prompts must be positive"),
    "DvptConfig hidden_dim 0": (
        lambda tmp: DvptConfig(hidden_dim=0).validate(VitConfig()),
        ConfigError, r"^hidden_dim must be positive"),
    "DvptConfig hidden_dim not below embed_dim": (
        lambda tmp: DvptConfig(hidden_dim=32).validate(VitConfig(embed_dim=32)),
        ConfigError, r"^hidden_dim 32 must be a bottleneck"),
    "VitConfig depth 0": (
        lambda tmp: VitConfig(depth=0).validate(),
        ConfigError, r"^depth must be positive, got 0$"),
    "DataConfig bad source": (
        lambda tmp: DataConfig(source="web").validate(),
        ConfigError, r"^\[data\] source must be synthetic or file"),
    "DataConfig bad family": (
        lambda tmp: DataConfig(family="c").validate(),
        ConfigError, r"^\[data\] family must be 'a' or 'b'"),
    "Model with an unknown task": (
        lambda tmp: Model(VitConfig(), task="ranking"),
        ConfigError, r"^unknown task 'ranking'"),
    "classification head without a class token": (
        lambda tmp: classification_head(_NO_CLS, {}),
        ConfigError, r"^classification head requires a class token$"),
    "matmul of a rank-1 operand": (
        lambda tmp: T.matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2)))),
        ShapeError, r"^matmul needs rank >= 2 operands"),
    "matmul of mixed dtypes": (
        lambda tmp: T.matmul(Tensor(np.zeros((2, 3), np.float32)),
                                     Tensor(np.zeros((3, 2)))),
        ShapeError, r"^matmul dtype mismatch"),
    "layernorm feature-dim mismatch": (
        lambda tmp: T.layernorm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)),
                                        Tensor(np.zeros(3))),
        ShapeError, r"^layernorm feature dim mismatch"),
    "save_checkpoint of an int array": (
        lambda tmp: save_checkpoint(tmp / "x.ckpt", {"w": np.zeros(2, np.int64)}),
        ValueError, r"^w: unsupported dtype int64$"),
    "save_checkpoint of a 70000-byte tensor name": (
        lambda tmp: save_checkpoint(tmp / "x.ckpt", {"x" * 70000: np.zeros(2, np.float32)}),
        ValueError, r"^tensor name of 70000 UTF-8 bytes, over the limit of 65535$"),
    "save_checkpoint of a 32768-character, 65536-byte tensor name": (
        lambda tmp: save_checkpoint(tmp / "x.ckpt", {"é" * 32768: np.zeros(2, np.float32)}),
        ValueError, r"^tensor name of 65536 UTF-8 bytes, over the limit of 65535$"),
    "save_checkpoint of an axis over 2**32 - 1": (
        lambda tmp: save_checkpoint(tmp / "x.ckpt", {"w": np.zeros((2**32, 0), np.float32)}),
        ValueError, r"^w: axis 0 of length 4294967296, over the limit of 4294967295$"),
    "save_dataset of an axis over 2**32 - 1": (
        lambda tmp: save_dataset(tmp / "x.dvds", Dataset(
            np.zeros((0, 2**32, 1, 1), np.float32), np.zeros(0, np.uint16), "classification", 2)),
        DatasetError, r"^images axis H of length 4294967296, over the limit of 4294967295$"),
    "accuracy of empty label arrays": (
        lambda tmp: accuracy(np.zeros(0, np.int64), np.zeros(0, np.int64)),
        ContractError, r"^empty label arrays$"),
    "kappa of a negative label": (
        lambda tmp: quadratic_weighted_kappa(np.array([1, -1, 0]), np.array([0, 1, 1])),
        ContractError, r"^labels outside \[0, 65536\): range -1\.\.1$"),
    "CLI dataset file of another task": (
        _load_dataset_of_another_task,
        ConfigError, r"^dataset task 'segmentation' does not match \[run\] task 'classification'$"),
}


@pytest.mark.parametrize("case", list(_CASES))
def test_a_typed_error_branch_raises_its_error(tmp_path, case):
    call, error, message = _CASES[case]
    with pytest.raises(error, match=message):
        call(tmp_path)
    assert not list(tmp_path.glob("x.*"))  # no checkpoint or dataset, nor its temp file
