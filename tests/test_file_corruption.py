"""Corrupt and mutated DVPT checkpoints and DVDS dataset files.

Every truncation, single-bit flip or header-field edit of a valid file
must either load or raise that format's corrupt-file error, and ``dvpt
eval`` on it must exit 0, 3 or 4 with at most a one-line message.
"""

import contextlib
import io
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvpt import cli
from dvpt.checkpoint import CorruptCheckpointError, load_checkpoint, save_checkpoint, save_trainable
from dvpt.data import (CorruptDatasetError, DatasetError, load_dataset, save_dataset,
                       synth_generate)
from dvpt.model import is_backbone_param, model_for_policy
from dvpt.peft import DvptConfig
from dvpt.vit import VitConfig

FUZZ = settings(max_examples=150, deadline=None)

CONFIG = """\
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
gate_init = 0.3

[optimizer]
lr = 0.01
epochs = 1
batch_size = 8
seed = 0

[data]
source = file
path = {path}
"""


def checkpoint_fields(blob):
    """(offset, struct format) of every header field of a DVPT file."""
    fields = [(4, "<I"), (8, "<I")]
    (count,) = struct.unpack_from("<I", blob, 8)
    offset = 12
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", blob, offset)
        fields.append((offset, "<H"))
        offset += 2 + name_len
        (rank,) = struct.unpack_from("<B", blob, offset)
        fields.append((offset, "<B"))
        fields += [(offset + 1 + 4 * i, "<I") for i in range(rank)]
        offset += 1 + 4 * rank
        fields.append((offset, "<B"))
        offset += 1
    return fields


DATASET_FIELDS = [(4, "<I"), (8, "<I"), (12, "<I"), (16, "<I"), (20, "<I"), (24, "<B"),
                  (25, "<I")]


@st.composite
def mutations(draw, blob, fields):
    """A truncated, bit-flipped or header-edited copy of ``blob``."""
    kind = draw(st.sampled_from(["truncate", "flip", "field"]))
    if kind == "truncate":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    out = bytearray(blob)
    if kind == "flip":
        out[draw(st.integers(0, len(blob) - 1))] ^= 1 << draw(st.integers(0, 7))
        return bytes(out)
    offset, fmt = draw(st.sampled_from(fields))
    top = 2 ** (8 * struct.calcsize(fmt)) - 1
    struct.pack_into(fmt, out, offset, draw(st.one_of(st.sampled_from([0, 1, top]),
                                                      st.integers(0, top))))
    return bytes(out)


def mutated(blob, fields):
    return mutations(blob, fields).filter(lambda b: b != blob)


def _blob(path, save, value):
    save(path, value)
    return path.read_bytes()


@pytest.fixture(scope="module")
def samples(tmp_path_factory):
    """Valid files to mutate, and an eval workspace over a desk-sized dvpt model."""
    root = tmp_path_factory.mktemp("samples")
    rng = np.random.default_rng(0)
    tensors = {"a.bias": rng.normal(size=5).astype(np.float32),
               "b.weight": rng.normal(size=(3, 4)).astype(np.float32),
               "gate": np.float64(0.25)}
    cfg = VitConfig(image_h=16, image_w=16, channels=1, patch_size=4,
                    embed_dim=32, depth=4, heads=4, num_classes=5)
    model, _ = model_for_policy(cfg, DvptConfig(8, 4, 1, 0.3), "dvpt", seed=0)
    save_checkpoint(root / "backbone.ckpt",
                    {n: t for n, t in model.params.items() if is_backbone_param(n)})
    save_trainable(root / "task.ckpt", model)
    save_dataset(root / "eval.dvds", synth_generate("classification", 3, seed=1))
    (root / "run.ini").write_text(CONFIG.format(path=root / "eval.dvds"))
    return {
        "root": root,
        "checkpoint": _blob(root / "sample.ckpt", save_checkpoint, tensors),
        "classification": _blob(root / "c.dvds", save_dataset,
                                synth_generate("classification", 3, seed=2, h=4, w=4)),
        "segmentation": _blob(root / "s.dvds", save_dataset,
                              synth_generate("segmentation", 2, seed=3, h=4, w=4)),
    }


def load_or_corrupt(path, blob, load, error):
    path.write_bytes(blob)
    with contextlib.suppress(error):
        load(path)


def run_eval(root):
    """Exit code and stderr of ``dvpt eval`` on the workspace files."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["eval", "--config", str(root / "run.ini"),
                         "--backbone", str(root / "backbone.ckpt"),
                         "--task-ckpt", str(root / "task.ckpt")])
    return code, err.getvalue()


def assert_clean_exit(code, err):
    assert "Traceback" not in err
    # a pixel mutated into a huge finite value overflows the forward, which
    # evaluate reports as a config error naming the non-finite logits
    logits = code == cli.EXIT_CONFIG and err.startswith("config error: non-finite logits")
    assert logits or code in (cli.EXIT_OK, cli.EXIT_ARCH_MISMATCH, cli.EXIT_CORRUPT), err
    if code != cli.EXIT_OK:
        assert err.count("\n") == 1 and err.endswith("\n"), err


class TestLoadersUnderMutation:
    @FUZZ
    @given(data=st.data())
    def test_checkpoint_loads_or_raises_corrupt(self, samples, data):
        blob = samples["checkpoint"]
        bad = data.draw(mutated(blob, checkpoint_fields(blob)))
        load_or_corrupt(samples["root"] / "fuzz.ckpt", bad, load_checkpoint,
                        CorruptCheckpointError)

    @pytest.mark.parametrize("task", ["classification", "segmentation"])
    @FUZZ
    @given(data=st.data())
    def test_dataset_loads_or_raises_corrupt(self, samples, task, data):
        bad = data.draw(mutated(samples[task], DATASET_FIELDS))
        load_or_corrupt(samples["root"] / "fuzz.dvds", bad, load_dataset, CorruptDatasetError)


class TestEvalUnderMutation:
    @pytest.mark.parametrize("target", ["eval.dvds", "backbone.ckpt", "task.ckpt"])
    @settings(FUZZ, max_examples=40)
    @given(data=st.data())
    def test_eval_exits_cleanly(self, samples, target, data):
        path = samples["root"] / target
        blob = path.read_bytes()
        fields = DATASET_FIELDS if target.endswith(".dvds") else checkpoint_fields(blob)
        try:
            path.write_bytes(data.draw(mutated(blob, fields)))
            assert_clean_exit(*run_eval(samples["root"]))
        finally:
            path.write_bytes(blob)

    def test_unmutated_workspace_evaluates(self, samples):
        assert run_eval(samples["root"]) == (cli.EXIT_OK, "")


class TestRegressions:
    @pytest.mark.parametrize("keep", [10, 29 + 100])  # inside the header; inside the images
    def test_truncated_dataset_is_corrupt(self, samples, tmp_path, keep):
        path = tmp_path / "t.dvds"
        path.write_bytes(samples["classification"][:keep])
        with pytest.raises(CorruptDatasetError) as info:
            load_dataset(path)
        assert isinstance(info.value, DatasetError)

    @pytest.mark.parametrize("corrupt", [lambda b: b[:29 + 100], lambda b: b"NOPE" + b[4:]],
                             ids=["truncated-images", "bad-magic"])
    def test_eval_on_corrupt_dataset_exits_four(self, samples, corrupt):
        path = samples["root"] / "eval.dvds"
        blob = path.read_bytes()
        try:
            path.write_bytes(corrupt(blob))
            code, err = run_eval(samples["root"])
        finally:
            path.write_bytes(blob)
        assert code == cli.EXIT_CORRUPT and err.startswith("corrupt file:")

    def test_exponent_flip_to_non_finite_pixel_is_corrupt(self, samples):
        path = samples["root"] / "eval.dvds"
        blob = path.read_bytes()
        pixels = np.frombuffer(blob, "<f4", count=16 * 16, offset=29)
        i = int(np.flatnonzero((np.abs(pixels) >= 1) & (np.abs(pixels) < 2))[0])
        bad = bytearray(blob)
        bad[29 + 4 * i + 3] ^= 0x40  # top exponent bit: [1, 2) becomes inf or NaN
        try:
            path.write_bytes(bytes(bad))
            with pytest.raises(CorruptDatasetError, match="non-finite"):
                load_dataset(path)
            code, err = run_eval(samples["root"])
        finally:
            path.write_bytes(blob)
        assert code == cli.EXIT_CORRUPT and err.startswith("corrupt file:")

    def test_non_finite_pixel_is_not_saved(self, tmp_path):
        ds = synth_generate("classification", 2, seed=4)
        ds.images[1, 3, 3, 0] = np.inf
        with pytest.raises(DatasetError, match="non-finite"):
            save_dataset(tmp_path / "x.dvds", ds)
        assert os.listdir(tmp_path) == []

    def test_undecodable_checkpoint_name_is_corrupt(self, samples, tmp_path):
        blob = bytearray(samples["checkpoint"])
        blob[14] = 0xFF  # first byte of the first tensor name
        path = tmp_path / "n.ckpt"
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptCheckpointError, match="UTF-8"):
            load_checkpoint(path)

    def test_duplicated_checkpoint_name_is_corrupt(self, tmp_path):
        path = tmp_path / "d.ckpt"
        save_checkpoint(path, {"w1": np.zeros(2, np.float32), "w2": np.ones(2, np.float32)})
        path.write_bytes(path.read_bytes().replace(b"w2", b"w1"))
        with pytest.raises(CorruptCheckpointError, match="duplicated"):
            load_checkpoint(path)

    @pytest.mark.parametrize("save", [
        lambda p: save_checkpoint(p, {"w": np.zeros(3, np.float32)}),
        lambda p: save_dataset(p, synth_generate("classification", 2, seed=4)),
    ], ids=["checkpoint", "dataset"])
    def test_failed_replace_leaves_no_temp_file(self, tmp_path, monkeypatch, save):
        path = tmp_path / "out"
        path.write_bytes(b"previous")

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="refused"):
            save(path)
        assert os.listdir(tmp_path) == ["out"]
        assert path.read_bytes() == b"previous"

    def test_bad_generation_parameters_still_exit_two(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(CONFIG.replace("source = file\npath = {path}",
                                      "source = synthetic\ncount = 0"))
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["synth-data", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == cli.EXIT_CONFIG
