import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dvpt import data as D
from dvpt.checkpoint import (ArchitectureMismatchError, CorruptCheckpointError,
                             load_backbone, load_checkpoint, load_task_params,
                             save_checkpoint, save_trainable)
from dvpt.data import Dataset, DatasetError, load_dataset, save_dataset, synth_generate
from dvpt.model import model_for_policy
from dvpt.tensor import Tensor
from dvpt.vit import VitConfig


class TestSynthGenerate:
    @pytest.mark.parametrize("task", ["classification", "segmentation"])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_same_seed_bitwise_identical(self, channels, task):
        a = synth_generate(task, 10, seed=7, family="a", channels=channels)
        b = synth_generate(task, 10, seed=7, family="a", channels=channels)
        assert a.images.tobytes() == b.images.tobytes()
        assert np.array_equal(a.labels, b.labels)
        assert np.isfinite(a.images).all()

    def test_different_seed_differs(self):
        a = synth_generate("classification", 10, seed=7)
        b = synth_generate("classification", 10, seed=8)
        assert not np.array_equal(a.images, b.images)

    def test_families_produce_distinct_images(self):
        a = synth_generate("classification", 5, seed=9, family="a")
        b = synth_generate("classification", 5, seed=9, family="b")
        assert not np.array_equal(a.images, b.images)

    def test_label_range_and_coverage(self):
        ds = synth_generate("classification", 200, seed=10, num_classes=5)
        assert ds.labels.min() >= 0 and ds.labels.max() < 5
        # with 200 draws every grade should occur
        assert set(np.unique(ds.labels)) == {0, 1, 2, 3, 4}

    def test_segmentation_masks_binary_and_nonempty(self):
        ds = synth_generate("segmentation", 20, seed=11)
        assert ds.num_classes == 2
        assert set(np.unique(ds.labels)) <= {0, 1}
        assert all(ds.labels[i].any() for i in range(20))

    def test_segmentation_mask_matches_clean_threshold(self):
        # mask pixels should sit where the image is bright on average
        ds = synth_generate("segmentation", 30, seed=12, difficulty=0.05)
        inside = ds.images[ds.labels.astype(bool)]
        outside = ds.images[~ds.labels.astype(bool)]
        assert inside.mean() > outside.mean() + 0.3

    def test_invalid_parameters(self):
        with pytest.raises(DatasetError):
            synth_generate("classification", 0, seed=0)
        with pytest.raises(DatasetError):
            synth_generate("classification", 5, seed=0, family="c")
        with pytest.raises(DatasetError):
            synth_generate("ranking", 5, seed=0)


class TestDatasetFile:
    def test_roundtrip_classification(self, tmp_path):
        ds = synth_generate("classification", 8, seed=13)
        path = tmp_path / "c.dvds"
        save_dataset(path, ds)
        back = load_dataset(path)
        assert back.task == "classification" and back.num_classes == 5
        assert np.array_equal(back.images, ds.images)
        assert np.array_equal(back.labels, ds.labels)

    def test_roundtrip_segmentation(self, tmp_path):
        ds = synth_generate("segmentation", 6, seed=14)
        path = tmp_path / "s.dvds"
        save_dataset(path, ds)
        back = load_dataset(path)
        assert back.task == "segmentation"
        assert np.array_equal(back.labels, ds.labels)

    def test_same_seed_identical_file_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.dvds", tmp_path / "b.dvds"
        save_dataset(p1, synth_generate("classification", 12, seed=15))
        save_dataset(p2, synth_generate("classification", 12, seed=15))
        assert p1.read_bytes() == p2.read_bytes()

    def test_magic_prefix(self, tmp_path):
        path = tmp_path / "m.dvds"
        save_dataset(path, synth_generate("classification", 2, seed=16))
        assert path.read_bytes()[:4] == b"DVDS"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.dvds"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(DatasetError, match="magic"):
            load_dataset(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.dvds"
        save_dataset(path, synth_generate("classification", 4, seed=17))
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        with pytest.raises(DatasetError, match="count"):
            load_dataset(path)

    def test_out_of_range_label_rejected_on_save(self, tmp_path):
        ds = synth_generate("classification", 4, seed=18)
        ds.labels = ds.labels.copy()
        ds.labels[0] = 9
        with pytest.raises(DatasetError, match="outside"):
            save_dataset(tmp_path / "x.dvds", ds)

    def test_label_shape_mismatch_rejected(self, tmp_path):
        ds = synth_generate("classification", 4, seed=19)
        bad = Dataset(ds.images, ds.labels[:2], "classification", 5)
        with pytest.raises(DatasetError, match="labels"):
            save_dataset(tmp_path / "x.dvds", bad)

    def test_no_temp_file_left_behind(self, tmp_path):
        save_dataset(tmp_path / "c.dvds", synth_generate("classification", 2, seed=20))
        assert [p.name for p in tmp_path.iterdir()] == ["c.dvds"]


_UNSAVABLE = {  # name -> (images shape, labels, task, num_classes, message)
    "float labels": ((2, 2, 2, 1), np.array([0.5, 1.7]), "classification", 5,
                     r"^labels must be integers"),
    "negative labels": ((2, 2, 2, 1), np.array([-65535, 1]), "classification", 5,
                        r"^labels outside \[0, 5\): range -65535\.\.1$"),
    "labels past u16": ((2, 2, 2, 1), np.array([65537, 0]), "classification", 5,
                        r"^labels outside \[0, 5\): range 0\.\.65537$"),
    "unknown task, mask labels": ((2, 2, 2, 1), np.zeros((2, 2, 2), int), "ranking", 5,
                                  r"^unknown task 'ranking'$"),
    "unknown task, one label per image": ((2, 2, 2, 1), np.zeros(2, int), "ranking", 5,
                                          r"^unknown task 'ranking'$"),
    "3-D images": ((2, 2, 2), np.zeros(2, int), "classification", 5,
                   r"^images must be \(count, H, W, C\)"),
    "num_classes 2**33": ((2, 2, 2, 1), np.zeros(2, int), "classification", 2 ** 33,
                          r"^num_classes must be an integer in \[2, 65536\]"),
    "num_classes above 2**16": ((2, 2, 2, 1), np.array([65536, 0]), "classification",
                                2 ** 16 + 1, r"^num_classes must be an integer in \[2, 65536\]"),
    "num_classes 1": ((2, 2, 2, 1), np.zeros(2, int), "classification", 1,
                      r"^num_classes must be an integer in \[2, 65536\], got 1$"),
}


@pytest.mark.parametrize("case", list(_UNSAVABLE))
def test_save_rejects_what_the_format_cannot_hold_before_any_file_exists(tmp_path, case):
    shape, labels, task, num_classes, message = _UNSAVABLE[case]
    ds = Dataset(np.zeros(shape, np.float32), labels, task, num_classes)
    with pytest.raises(DatasetError, match=message):
        save_dataset(tmp_path / "x.dvds", ds)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("kwargs, message", [
    (dict(family="b", w=0), r"^count, sides and channels must be positive, got 3 of 16x0x1$"),
    (dict(num_classes=0), r"^num_classes must be an integer in \[2, 65536\], got 0$"),
    (dict(family="b", h=-4), r"^count, sides and channels must be positive, got 3 of -4x16x1$"),
], ids=["grating of width 0", "no classes", "negative height"])
def test_bad_generation_parameters_raise_a_dataset_error(kwargs, message):
    with pytest.raises(DatasetError, match=message):
        synth_generate("classification", 3, seed=0, **kwargs)


@pytest.mark.parametrize("num_classes", [0, 1, 2 ** 16 + 1])
def test_a_file_whose_class_count_is_out_of_range_is_corrupt(tmp_path, num_classes):
    path = tmp_path / "k.dvds"
    save_dataset(path, synth_generate("classification", 2, seed=0))
    blob = bytearray(path.read_bytes())
    blob[25:29] = num_classes.to_bytes(4, "little")  # the header's u32 num_classes
    path.write_bytes(bytes(blob))
    with pytest.raises(D.CorruptDatasetError,
                       match=rf"num_classes must be an integer in \[2, 65536\], got {num_classes}$"):
        load_dataset(path)


_BLOB_KINDS = [("classification", "a"), ("segmentation", "a"), ("segmentation", "b")]


@pytest.mark.parametrize("task, family", _BLOB_KINDS)
@pytest.mark.parametrize("h, w", [(2, 2), (3, 16), (16, 3)])
def test_blob_images_with_a_side_under_four_are_rejected_before_any_draw(task, family, h, w):
    with pytest.raises(DatasetError, match=rf"^blob images need sides of at least 4, got {h}x{w}$"):
        synth_generate(task, 3, seed=0, family=family, h=h, w=w)


@pytest.mark.parametrize("task, family, side", [(*kind, 4) for kind in _BLOB_KINDS]
                         + [("classification", "b", 2), ("classification", "b", 1)])
def test_gratings_at_any_side_and_blobs_from_side_four_generate(task, family, side):
    ds = synth_generate(task, 5, seed=3, family=family, h=side, w=side)
    assert ds.images.shape == (5, side, side, 1) and np.isfinite(ds.images).all()


@pytest.mark.parametrize("task, family", _BLOB_KINDS + [("classification", "b")])
def test_a_difficulty_whose_pixels_overflow_float32_is_rejected_with_no_warning(task, family):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DatasetError,
                           match=r"^difficulty 1e\+308 gives a pixel outside float32's range$"):
            synth_generate(task, 3, seed=0, family=family, difficulty=1e308)
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("pixel, message", [
    (1e300, r"^images hold a pixel outside float32's range \(magnitude above 3\.4028235e\+38\)$"),
    (-3.5e38, r"^images hold a pixel outside float32's range"),
    (np.inf, r"^images hold a non-finite pixel$"),
    (np.nan, r"^images hold a non-finite pixel$"),
], ids=["1e300", "-3.5e38", "inf", "nan"])
def test_save_rejects_a_pixel_float32_cannot_hold_with_no_warning(tmp_path, pixel, message):
    images = np.zeros((2, 2, 2, 1))  # float64, so 1e300 is finite until the cast
    images[1, 0, 1, 0] = pixel
    ds = Dataset(images, np.zeros(2, int), "classification", 5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DatasetError, match=message):
            save_dataset(tmp_path / "x.dvds", ds)
    assert [str(w.message) for w in caught] == []
    assert os.listdir(tmp_path) == []


_LABEL_KINDS = ["valid", "negative", "float", "at least K", "at least 2**16"]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_dataset_reads_back_unchanged_or_is_not_saved(tmp_path, data):
    draw = data.draw
    task = draw(st.sampled_from(["classification", "segmentation"]))
    num_classes = draw(st.sampled_from([1, 5, 2 ** 16, 2 ** 16 + 1, 2 ** 33]))
    shape = (draw(st.integers(0, 3)),) + tuple(draw(st.integers(1, 3)) for _ in range(3))
    images = draw(hnp.arrays(np.float32, shape, elements=st.floats(
        width=32, allow_nan=False, allow_infinity=False)))
    labels = draw(hnp.arrays(np.int64, D.label_shape(task, shape),
                             elements=st.integers(0, num_classes - 1)))
    kind = draw(st.sampled_from(_LABEL_KINDS))
    if kind == "float":
        labels = labels + draw(st.sampled_from([0.0, 0.5]))
    elif kind != "valid" and labels.size:
        where = draw(st.integers(0, labels.size - 1))
        labels.ravel()[where] = draw({
            "negative": st.integers(-2 ** 33, -1),
            "at least K": st.integers(num_classes, num_classes + 2 ** 17),
            "at least 2**16": st.integers(2 ** 16, 2 ** 16 + 2 ** 17),
        }[kind])
    in_range = labels.size == 0 or 0 <= labels.min() <= labels.max() < num_classes
    savable = 2 <= num_classes <= 2 ** 16 and labels.dtype == np.int64 and in_range
    with tempfile.TemporaryDirectory(dir=tmp_path) as tmp:
        path = os.path.join(tmp, "d.dvds")
        with open(path, "wb") as fh:
            fh.write(b"old")
        try:
            save_dataset(path, Dataset(images, labels, task, num_classes))
        except DatasetError:
            assert not savable
            assert os.listdir(tmp) == ["d.dvds"]
            with open(path, "rb") as fh:
                assert fh.read() == b"old"
            return
        assert savable
        back = load_dataset(path)
    assert back.task == task and back.num_classes == num_classes
    assert back.images.dtype == np.float32 and np.array_equal(back.images, images)
    assert back.labels.shape == labels.shape and (back.labels == labels).all()


class TestCheckpointFile:
    def _tensors(self):
        rng = np.random.default_rng(21)
        return {
            "b.weight": rng.normal(size=(3, 4)).astype(np.float32),
            "a.bias": rng.normal(size=5).astype(np.float32),
            "gate": np.float64(0.25),
        }

    def test_roundtrip_values_and_dtypes(self, tmp_path):
        path = tmp_path / "w.ckpt"
        original = self._tensors()
        save_checkpoint(path, original)
        back = load_checkpoint(path)
        assert set(back) == set(original)
        for name in original:
            arr = np.asarray(original[name])
            assert back[name].shape == arr.shape
            assert back[name].dtype == arr.dtype
            assert np.array_equal(back[name], arr)

    def test_scalar_stays_zero_dimensional(self, tmp_path):
        path = tmp_path / "g.ckpt"
        save_checkpoint(path, {"gate": Tensor(np.float64(0.5))})
        assert load_checkpoint(path)["gate"].shape == ()

    def test_save_load_save_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "one.ckpt", tmp_path / "two.ckpt"
        save_checkpoint(p1, self._tensors())
        save_checkpoint(p2, load_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_entries_sorted_regardless_of_insertion_order(self, tmp_path):
        tensors = self._tensors()
        reordered = {k: tensors[k] for k in reversed(list(tensors))}
        p1, p2 = tmp_path / "one.ckpt", tmp_path / "two.ckpt"
        save_checkpoint(p1, tensors)
        save_checkpoint(p2, reordered)
        assert p1.read_bytes() == p2.read_bytes()
        assert list(load_checkpoint(p1)) == sorted(tensors)

    def test_magic_prefix(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, self._tensors())
        assert path.read_bytes()[:4] == b"DVPT"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"WXYZ" + b"\x00" * 32)
        with pytest.raises(CorruptCheckpointError, match="magic"):
            load_checkpoint(path)

    def test_flipped_payload_byte_fails_crc(self, tmp_path):
        path = tmp_path / "crc.ckpt"
        save_checkpoint(path, self._tensors())
        blob = bytearray(path.read_bytes())
        blob[-10] ^= 0xFF  # inside the payload, before the CRC trailer
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptCheckpointError, match="CRC"):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "trunc.ckpt"
        save_checkpoint(path, self._tensors())
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)


class TestModelCheckpoints:
    def test_trainable_checkpoint_contains_only_trainable(self, desk_cfg, desk_dvpt, tmp_path):
        model, _ = model_for_policy(desk_cfg, desk_dvpt, "dvpt", seed=22)
        path = tmp_path / "task.ckpt"
        save_trainable(path, model)
        names = set(load_checkpoint(path))
        assert names == {n for n, t in model.params.items() if t.requires_grad}
        assert not any(n.startswith("patch_embed") for n in names)

    def test_backbone_roundtrip_restores_weights(self, desk_cfg, tmp_path):
        src, _ = model_for_policy(desk_cfg, None, "full_finetune", seed=23)
        path = tmp_path / "full.ckpt"
        save_trainable(path, src)
        dst, _ = model_for_policy(desk_cfg, None, "full_finetune", seed=99)
        load_backbone(dst, load_checkpoint(path))
        for name, param in dst.params.items():
            if name.startswith("head."):
                continue
            assert np.array_equal(param.data, src.params[name].data), name

    def test_backbone_ignores_task_entries(self, desk_cfg, desk_dvpt, tmp_path):
        src, _ = model_for_policy(desk_cfg, None, "full_finetune", seed=24)
        path = tmp_path / "full.ckpt"
        save_trainable(path, src)
        dst, _ = model_for_policy(desk_cfg, desk_dvpt, "dvpt", seed=25)
        prompts_before = dst.params["prompts"].data.copy()
        load_backbone(dst, load_checkpoint(path))
        assert np.array_equal(dst.params["prompts"].data, prompts_before)

    @staticmethod
    def param_bytes(model):
        return {name: t.data.tobytes() for name, t in model.params.items()}

    def test_backbone_missing_tensor(self, desk_cfg, tmp_path):
        # patch_embed.* and cls_token come before pos_embed in the model
        src, _ = model_for_policy(desk_cfg, None, "full_finetune", seed=26)
        tensors = {n: t for n, t in src.params.items() if n != "pos_embed"}
        path = tmp_path / "partial.ckpt"
        save_checkpoint(path, tensors)
        dst, _ = model_for_policy(desk_cfg, None, "full_finetune", seed=27)
        before = self.param_bytes(dst)
        with pytest.raises(ArchitectureMismatchError, match="pos_embed"):
            load_backbone(dst, load_checkpoint(path))
        assert self.param_bytes(dst) == before

    def test_backbone_shape_mismatch(self, desk_cfg, tmp_path):
        # only pos_embed differs in shape, after patch_embed.* and cls_token
        src, _ = model_for_policy(desk_cfg, None, "full_finetune", seed=28)
        path = tmp_path / "full.ckpt"
        save_trainable(path, src)
        bigger = VitConfig(image_h=32, image_w=32, channels=1, patch_size=4,
                           embed_dim=32, depth=4, heads=4, num_classes=5)
        dst, _ = model_for_policy(bigger, None, "full_finetune", seed=29)
        before = self.param_bytes(dst)
        with pytest.raises(ArchitectureMismatchError, match="pos_embed' shape"):
            load_backbone(dst, load_checkpoint(path))
        assert self.param_bytes(dst) == before

    def test_task_params_unknown_name(self, desk_cfg, desk_dvpt, tmp_path):
        model, _ = model_for_policy(desk_cfg, desk_dvpt, "dvpt", seed=30)
        path = tmp_path / "odd.ckpt"
        save_checkpoint(path, {"adapter0.gate": np.float32(0.9),
                               "not_a_param": np.zeros(3, dtype=np.float32)})
        before = self.param_bytes(model)
        with pytest.raises(ArchitectureMismatchError, match="not_a_param"):
            load_task_params(model, load_checkpoint(path))
        assert self.param_bytes(model) == before

    def test_task_params_roundtrip_restores_exactly(self, desk_cfg, desk_dvpt, tmp_path):
        src, _ = model_for_policy(desk_cfg, desk_dvpt, "dvpt", seed=31)
        path = tmp_path / "task.ckpt"
        save_trainable(path, src)
        dst, _ = model_for_policy(desk_cfg, desk_dvpt, "dvpt", seed=32)
        load_task_params(dst, load_checkpoint(path))
        for name, t in src.params.items():
            if t.requires_grad:
                assert np.array_equal(dst.params[name].data, t.data), name
