"""The loaders' read path (one read into one buffer per file, views of it
for the arrays) and the truncated-normal initializer that builds every
weight before a backbone is loaded over it."""

import gc
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dvpt import binfile
from dvpt.checkpoint import (CorruptCheckpointError, load_checkpoint, save_checkpoint,
                             save_trainable)
from dvpt.data import CorruptDatasetError, Dataset, load_dataset, save_dataset
from dvpt.model import _truncated_normal, model_for_policy

MIB = 2 ** 20


# ---------------------------------------------------------------------------
# truncated normal

def rescanning_truncated_normal(rng, shape, std, dtype):
    """The initializer as first written: every round rescans the whole
    array and redraws every position still beyond 2 std."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out.astype(dtype)


def assert_same_draws(shape, seed, std, dtype):
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _truncated_normal(fast, shape, std, dtype)
    want = rescanning_truncated_normal(slow, shape, std, dtype)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert fast.bit_generator.state == slow.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(shape=st.one_of(st.sampled_from([(), (0,), (3, 0), (1,)]),
                       hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=40)),
       seed=st.integers(0, 2 ** 63 - 1),
       std=st.one_of(st.just(0.02), st.floats(1e-3, 1e3)),
       dtype=st.sampled_from([np.float32, np.float64]))
def test_truncated_normal_matches_rescanning_loop(shape, seed, std, dtype):
    assert_same_draws(shape, seed, std, dtype)


def test_truncated_normal_matches_on_a_vitb16_ffn_weight():
    """2.4M draws, about 110k of them beyond 2 std, several rounds deep."""
    assert_same_draws((768, 3072), seed=0, std=0.02, dtype=np.float32)


def test_truncated_normal_stays_within_two_std():
    out = _truncated_normal(np.random.default_rng(1), (200, 300), 0.5, np.float64)
    assert np.abs(out).max() <= 1.0


# ---------------------------------------------------------------------------
# loaded arrays

def test_trainable_checkpoint_loads_writable_aligned_disjoint_views(desk_cfg, desk_dvpt,
                                                                    tmp_path):
    model, _ = model_for_policy(desk_cfg, desk_dvpt, "dvpt", seed=4)
    path = tmp_path / "task.ckpt"
    save_trainable(path, model)
    loaded = load_checkpoint(path)
    arrays = list(loaded.values())
    for name, arr in loaded.items():
        assert arr.flags.writeable and arr.flags.c_contiguous and arr.flags.aligned, name
        assert arr.tobytes() == model.params[name].data.tobytes(), name
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


def test_edge_entries_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(5)
    tensors = {
        "a.scalar32": np.float32(-1.5),
        "b.scalar64": np.float64(np.pi),
        "c.empty": np.zeros((0,), np.float32),
        "d.empty2d": np.zeros((3, 0), np.float64),
        "e.wide64": rng.normal(size=(3, 5)),
        "f.odd32": rng.normal(size=7).astype(np.float32),
        "g.after_odd64": rng.normal(size=(2, 2)),
    }
    path, again = tmp_path / "edge.ckpt", tmp_path / "again.ckpt"
    save_checkpoint(path, tensors)
    loaded = load_checkpoint(path)
    assert list(loaded) == sorted(tensors)
    for name, value in tensors.items():
        arr = np.asarray(value)
        got = loaded[name]
        assert got.shape == arr.shape and got.dtype == arr.dtype, name
        assert got.tobytes() == arr.tobytes(), name
        assert got.flags.writeable and got.flags.c_contiguous, name
    save_checkpoint(again, loaded)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("task", ["classification", "segmentation"])
def test_dataset_loads_writable_disjoint_views(tmp_path, task):
    rng = np.random.default_rng(6)
    images = rng.normal(size=(5, 4, 4, 2)).astype(np.float32)
    shape = (5,) if task == "classification" else (5, 4, 4)
    labels = rng.integers(0, 2, size=shape).astype(np.uint16)
    path = tmp_path / "d.dvds"
    save_dataset(path, Dataset(images, labels, task, 2))
    back = load_dataset(path)
    for arr, want in ((back.images, images), (back.labels, labels)):
        assert arr.flags.writeable and arr.flags.c_contiguous and arr.flags.aligned
        assert arr.dtype == want.dtype and arr.tobytes() == want.tobytes()
    assert not np.shares_memory(back.images, back.labels)


def test_empty_dataset_round_trips(tmp_path):
    path = tmp_path / "empty.dvds"
    save_dataset(path, Dataset(np.zeros((0, 4, 4, 1), np.float32), np.zeros(0, np.uint16),
                               "classification", 5))
    back = load_dataset(path)
    assert back.images.shape == (0, 4, 4, 1) and back.labels.shape == (0,)


# ---------------------------------------------------------------------------
# memory

def traced_peak(load, path):
    """tracemalloc peak of ``load(path)``, counting the result it returns."""
    gc.collect()
    tracemalloc.start()
    try:
        result = load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_checkpoint_load_holds_one_copy_of_the_payload(tmp_path):
    rng = np.random.default_rng(7)
    tensors = {"w": rng.normal(size=(1024, 1024)), "v": np.ones(1000, np.float32)}
    path = tmp_path / "big.ckpt"
    save_checkpoint(path, tensors)
    payload = sum(np.asarray(t).nbytes for t in tensors.values())
    loaded, peak = traced_peak(load_checkpoint, path)
    assert loaded["w"].tobytes() == tensors["w"].tobytes()
    assert peak <= payload + MIB, (peak / MIB, payload / MIB)


def test_dataset_load_holds_one_copy_of_the_payload(tmp_path):
    rng = np.random.default_rng(8)
    ds = Dataset(rng.normal(size=(256, 32, 32, 8)).astype(np.float32),
                 rng.integers(0, 5, size=256).astype(np.uint16), "classification", 5)
    path = tmp_path / "big.dvds"
    save_dataset(path, ds)
    payload = ds.images.nbytes + ds.labels.nbytes
    back, peak = traced_peak(load_dataset, path)
    assert back.images.tobytes() == ds.images.tobytes()
    assert peak <= payload + MIB, (peak / MIB, payload / MIB)


# ---------------------------------------------------------------------------
# short reads and closed files

@pytest.fixture
def opened(monkeypatch):
    """Every file ``binfile`` opens from here on, in order."""
    files = []

    def tracking_open(*args, **kwargs):
        files.append(open(*args, **kwargs))
        return files[-1]

    monkeypatch.setattr(binfile, "open", tracking_open, raising=False)
    return files


class ShortRead:
    """A file whose ``method`` returns one byte fewer than asked for, as a
    file shrinking under the reader would; the magic still reads whole."""

    def __init__(self, fh, method):
        self._fh, self._method, self._reads = fh, method, 0

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def read(self, n):
        data = self._fh.read(n)
        self._reads += 1
        return data[:-1] if self._method == "read" and self._reads > 1 else data

    def readinto(self, buf):
        view = memoryview(buf)
        return self._fh.readinto(view[:-1] if self._method == "readinto" else view)


def _sample_files(tmp_path):
    rng = np.random.default_rng(9)
    ckpt, dvds = tmp_path / "s.ckpt", tmp_path / "s.dvds"
    save_checkpoint(ckpt, {"a": rng.normal(size=(2, 3)).astype(np.float32),
                           "b": np.float32(0.5)})
    save_dataset(dvds, Dataset(rng.normal(size=(2, 2, 2, 1)).astype(np.float32),
                               np.array([0, 1], np.uint16), "classification", 2))
    return [(ckpt, load_checkpoint, CorruptCheckpointError),
            (dvds, load_dataset, CorruptDatasetError)]


@pytest.mark.parametrize("method", ["read", "readinto"])
def test_short_read_is_corrupt_and_closes_the_file(tmp_path, monkeypatch, method):
    for path, load, error in _sample_files(tmp_path):
        files = []

        def short_open(*args, **kwargs):
            files.append(open(*args, **kwargs))
            return ShortRead(files[-1], method)

        monkeypatch.setattr(binfile, "open", short_open, raising=False)
        what = "payload" if method == "readinto" else "header"
        with pytest.raises(error, match=f"truncated {what}: read"):
            load(path)
        assert len(files) == 1 and files[0].closed


def _corruptions(path, blob):
    """(name, bytes) for each way a file of either format is tested to fail."""
    out = [(f"truncate{n}", blob[:n]) for n in range(len(blob))]
    out.append(("trailing", blob + b"\0"))
    out.append(("magic", b"XXXX" + blob[4:]))
    out.append(("version", blob[:4] + struct.pack("<I", 9) + blob[8:]))
    if path.suffix == ".ckpt":
        flipped = bytearray(blob)
        flipped[-5] ^= 0xFF  # last payload byte
        out.append(("crc", bytes(flipped)))
        name_at = 14  # first tensor name, after magic, version, count, name length
        out.append(("utf8", blob[:name_at] + b"\xff" + blob[name_at + 1:]))
        out.append(("order", blob[:name_at] + b"z" + blob[name_at + 1:]))
    else:
        bad = bytearray(blob)
        struct.pack_into("<f", bad, 29, float("nan"))  # first pixel
        out.append(("nan", bytes(bad)))
        out.append(("label", blob[:-2] + struct.pack("<H", 7)))
        out.append(("tag", blob[:24] + b"\x09" + blob[25:]))
    return out


def test_loaders_close_their_file_on_success_and_on_every_corrupt_error(tmp_path, opened):
    for path, load, error in _sample_files(tmp_path):
        blob = path.read_bytes()
        del opened[:]
        load(path)
        assert len(opened) == 1 and opened[0].closed
        for name, corrupt in _corruptions(path, blob):
            path.write_bytes(corrupt)
            del opened[:]
            with pytest.raises(error):
                load(path)
            assert opened and all(fh.closed for fh in opened), (path.name, name)
