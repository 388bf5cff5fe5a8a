"""The container both formats share (its writer, and its read path:
chunked reads into one 64-byte-aligned buffer per file, views of it for the
arrays, a checkpoint's CRC computed on the package's worker thread as the
chunks are read, then the trailer and the end of file), the arrays a checkpoint load hands to
the model as they are, and the truncated-normal initializer, whose draws
wait for the first read of a weight so that a loaded backbone is never
drawn."""

import gc
import os
import re
import struct
import subprocess
import sys
import threading
import tracemalloc
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dvpt import DvptConfig, VitConfig, binfile, worker
from dvpt.checkpoint import (CorruptCheckpointError, load_backbone, load_checkpoint,
                             load_task_params, save_checkpoint, save_trainable)
from dvpt.data import CorruptDatasetError, Dataset, load_dataset, save_dataset
from dvpt.model import INIT_STD, _truncated_normal, model_for_policy, param_shapes

MIB = 2 ** 20
SRC = str(Path(__file__).resolve().parent.parent / "src")
# conftest's desk model, as constants so that hypothesis tests can use it
DESK = VitConfig(image_h=16, image_w=16, channels=1, patch_size=4,
                 embed_dim=32, depth=4, heads=4, num_classes=5)
DESK_DVPT = DvptConfig(num_prompts=8, hidden_dim=4, share_every=1, gate_init=0.3)
# the benchmark's mid config
MID = VitConfig(image_h=32, image_w=32, channels=1, patch_size=4,
                embed_dim=128, depth=6, heads=4, num_classes=5)
MID_DVPT = DvptConfig(num_prompts=16, hidden_dim=8)


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
# deferred init draws

def is_weight(name):
    return not name.endswith((".gamma", ".bias", ".beta", ".gate"))


def eager_weights(cfg, dvpt_cfg, seed, dtype):
    """Every truncated-normal weight, drawn up front in name order."""
    rng = np.random.default_rng(seed)
    return {name: _truncated_normal(rng, shape, INIT_STD, dtype)
            for name, shape in param_shapes(cfg, dvpt_cfg).items() if is_weight(name)}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1),
       dtype=st.sampled_from([np.float32, np.float64]))
def test_weights_equal_eager_draws_whatever_is_assigned_or_read_first(data, seed, dtype):
    model, _ = model_for_policy(DESK, DESK_DVPT, "dvpt", seed=seed, dtype=dtype)
    weights = [name for name in model.params if is_weight(name)]
    assigned = data.draw(st.sets(st.sampled_from(weights)), label="assigned")
    values = {}
    for index, name in enumerate(sorted(assigned)):
        values[name] = np.full(model.params[name].shape, index, dtype)
        model.params[name].data = values[name]
    pending = [name for name in weights if name not in assigned]
    if pending:
        model.params[data.draw(st.sampled_from(pending), label="first read")].data
    want = eager_weights(DESK, DESK_DVPT, seed, dtype)
    for name, param in model.params.items():
        if name in values:
            assert param.data is values[name], name
        elif name in want:
            assert param.dtype == dtype and param.data.tobytes() == want[name].tobytes(), name


def test_reading_a_pending_weights_shape_draws_nothing(monkeypatch):
    model, _ = model_for_policy(DESK, DESK_DVPT, "dvpt", seed=3)
    generators = []
    default_rng = np.random.default_rng

    def counting_rng(*args):
        generators.append(default_rng(*args))
        return generators[-1]

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    prompts = model.params["prompts"]
    assert (prompts.shape, prompts.dtype, prompts.size, prompts.ndim) == (
        (8, 32), np.float32, 256, 2)
    for param in model.params.values():
        repr(param), param.shape, param.dtype, param.size, param.ndim
    assert generators == []
    prompts.data  # the first read draws every pending weight, from one generator
    assert len(generators) == 1
    monkeypatch.undo()
    for name, want in eager_weights(DESK, DESK_DVPT, 3, np.float32).items():
        assert model.params[name].data.tobytes() == want.tobytes(), name


# ---------------------------------------------------------------------------
# loaded arrays

def test_trainable_checkpoint_loads_writable_aligned_disjoint_views(desk_cfg, desk_dvpt,
                                                                    tmp_path):
    model, _ = model_for_policy(desk_cfg, desk_dvpt, "dvpt", seed=4)
    path = tmp_path / "task.ckpt"
    save_trainable(path, model)
    loaded = load_checkpoint(path)
    arrays = list(loaded.values())
    # malloc aligns to 16 bytes, so one load would be 64-aligned by chance 1 in 4
    again = [load_checkpoint(path) for _ in range(7)]
    for first in [arrays[0]] + [next(iter(d.values())) for d in again]:
        assert first.ctypes.data % binfile.ALIGN == 0
    for name, arr in loaded.items():
        assert arr.flags.writeable and arr.flags.c_contiguous and arr.flags.aligned, name
        assert arr.tobytes() == model.params[name].data.tobytes(), name
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


def save_backbone(path, cfg, seed=0):
    src, _ = model_for_policy(cfg, None, "full_finetune", seed=seed)
    save_trainable(path, src)
    return src


@pytest.mark.parametrize("dtype, shared", [(np.float32, True), (np.float64, False)])
def test_a_load_keeps_the_loaded_arrays_of_the_models_dtype(tmp_path, dtype, shared):
    src = save_backbone(tmp_path / "full.ckpt", DESK, seed=11)
    save_trainable(tmp_path / "task.ckpt", model_for_policy(DESK, DESK_DVPT, "dvpt", seed=12)[0])
    backbone, task = load_checkpoint(tmp_path / "full.ckpt"), load_checkpoint(tmp_path / "task.ckpt")
    model, _ = model_for_policy(DESK, DESK_DVPT, "dvpt", seed=13, dtype=dtype)
    load_backbone(model, backbone)
    load_task_params(model, task)
    for loaded in (task, {n: a for n, a in backbone.items() if not n.startswith("head.")}):
        for name, arr in loaded.items():
            param = model.params[name]
            assert param.dtype == dtype and np.shares_memory(param.data, arr) == shared, name
            assert np.array_equal(param.data, arr), name
    assert model.params["patch_embed.weight"].data.tobytes() == (
        src.params["patch_embed.weight"].data.astype(dtype).tobytes())


def payload_buffer(arr):
    """The array that owns the memory ``arr`` views."""
    while arr.base is not None:
        arr = arr.base
    return arr


def test_dropping_a_model_frees_the_backbone_it_loaded(tmp_path):
    # The prompts, adapters and head are still pending when the model goes,
    # and they hold the initializer: it must not hold the loaded weights.
    save_backbone(tmp_path / "full.ckpt", DESK)
    gc.collect()
    gc.disable()
    try:
        model, _ = model_for_policy(DESK, DESK_DVPT, "dvpt", seed=1)
        loaded = load_checkpoint(tmp_path / "full.ckpt")
        buffer = weakref.ref(payload_buffer(loaded["pos_embed"]))
        load_backbone(model, loaded)
        del loaded
        assert buffer() is not None
        del model
        assert buffer() is None
    finally:
        gc.enable()


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
        "z" * 65535: np.float32(2.0),  # the longest name a u16 length holds
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


def assert_checkpoint_load_holds_one_copy_of_the_payload(tmp_path):
    rng = np.random.default_rng(7)
    tensors = {"w": rng.normal(size=(1024, 1024)), "v": np.ones(1000, np.float32)}
    path = tmp_path / "big.ckpt"
    save_checkpoint(path, tensors)
    payload = sum(np.asarray(t).nbytes for t in tensors.values())
    loaded, peak = traced_peak(load_checkpoint, path)
    assert loaded["w"].tobytes() == tensors["w"].tobytes()
    assert peak <= payload + MIB, (peak / MIB, payload / MIB)


def test_checkpoint_load_holds_one_copy_of_the_payload(tmp_path):
    assert_checkpoint_load_holds_one_copy_of_the_payload(tmp_path)


def test_checkpoint_load_in_chunks_holds_one_copy_of_the_payload(tmp_path, monkeypatch):
    # tracemalloc sees the worker thread too; 2048 chunks of 4 KiB keep it quick
    monkeypatch.setattr(binfile, "CHUNK", 4096)
    assert_checkpoint_load_holds_one_copy_of_the_payload(tmp_path)


def test_checkpoint_save_copies_none_of_the_payload(tmp_path):
    rng = np.random.default_rng(9)
    tensors = {"w": rng.normal(size=(1024, 1024)), "v": np.ones(1000, np.float32)}
    path = tmp_path / "big.ckpt"
    payload = sum(np.asarray(t).nbytes for t in tensors.values())
    _, peak = traced_peak(lambda p: save_checkpoint(p, tensors), path)
    assert peak <= payload / 8, (peak / MIB, payload / MIB)
    assert load_checkpoint(path)["w"].tobytes() == tensors["w"].tobytes()


def test_dataset_save_copies_none_of_the_images(tmp_path):
    rng = np.random.default_rng(12)
    ds = Dataset(rng.normal(size=(250, 32, 32, 8)).astype(np.float32),
                 rng.integers(0, 5, size=250).astype(np.uint16), "classification", 5)
    path = tmp_path / "big.dvds"
    _, peak = traced_peak(lambda p: save_dataset(p, ds), path)
    assert peak < ds.images.nbytes / 2, (peak / MIB, ds.images.nbytes / MIB)
    assert load_dataset(path).images.tobytes() == ds.images.tobytes()


def test_checkpoint_save_writes_the_documented_layout(tmp_path):
    rng = np.random.default_rng(10)
    tensors = {"b.gate": np.asarray(0.5, np.float32), "a.w": rng.normal(size=(3, 4)).T}
    path = tmp_path / "small.ckpt"
    save_checkpoint(path, tensors)
    header = b"DVPT" + struct.pack("<II", 1, 2)
    header += struct.pack("<H", 3) + b"a.w" + struct.pack("<B2IB", 2, 4, 3, 1)
    header += struct.pack("<H", 6) + b"b.gate" + struct.pack("<BB", 0, 0)
    payload = np.ascontiguousarray(tensors["a.w"]).tobytes() + tensors["b.gate"].tobytes()
    assert path.read_bytes() == header + payload + struct.pack("<I", zlib.crc32(payload))


@pytest.mark.parametrize("rank", [64, 65, 255])
def test_checkpoint_rank_numpy_cannot_hold_is_corrupt(tmp_path, rank):
    # zero-length axes keep the payload empty, so only the rank can be wrong
    path = tmp_path / "deep.ckpt"
    path.write_bytes(b"DVPT" + struct.pack("<IIH", 1, 1, 1) + b"w"
                     + struct.pack(f"<B{rank}IB", rank, *[0] * rank, 0)
                     + struct.pack("<I", zlib.crc32(b"")))
    if rank == 64:
        assert load_checkpoint(path)["w"].shape == (0,) * 64
    else:
        with pytest.raises(CorruptCheckpointError, match=f"tensor 'w' has rank {rank}, over 64$"):
            load_checkpoint(path)


def test_building_and_loading_a_model_holds_one_copy_of_the_backbone(tmp_path):
    path = tmp_path / "full.ckpt"
    save_backbone(path, MID)
    payload = sum(arr.nbytes for arr in load_checkpoint(path).values())

    def build_and_load(path):
        model, _ = model_for_policy(MID, MID_DVPT, "dvpt", seed=2)
        load_backbone(model, load_checkpoint(path))
        return model

    _, peak = traced_peak(build_and_load, path)
    assert peak <= 1.1 * payload, (peak / MIB, payload / MIB)


# Builds the serving model (ViT-B/16 with dvpt) in a process of its own and
# prints how much that raised the process's peak resident set.
_BUILD_RSS = """
import resource
from dvpt import DvptConfig, VitConfig
from dvpt.model import model_for_policy

before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
model, _ = model_for_policy({cfg!r}, {dvpt!r}, "dvpt")
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def test_building_a_vitb16_model_draws_none_of_its_86m_weights(paper_cfg):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    code = _BUILD_RSS.format(cfg=paper_cfg, dvpt=DvptConfig(num_prompts=50, hidden_dim=20))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss is in bytes there, else KiB
    grown = int(proc.stdout) * unit
    assert grown < 32 * MIB, grown / MIB


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
    file shrinking under the reader would; the magic still reads whole, and
    readinto reads whole until its call number ``short_from``."""

    def __init__(self, fh, method, short_from=1):
        self._fh, self._method, self._reads = fh, method, 0
        self._readintos, self._short_from = 0, short_from

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def read(self, n):
        data = self._fh.read(n)
        self._reads += 1
        return data[:-1] if self._method == "read" and self._reads > 1 else data

    def readinto(self, buf):
        view = memoryview(buf)
        self._readintos += 1
        short = self._method == "readinto" and self._readintos >= self._short_from
        return self._fh.readinto(view[:-1] if short else view)


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


# ---------------------------------------------------------------------------
# the container: version, trailer and end of file, said once for both formats

def assert_corrupt_and_closed(path, load, error, opened, message):
    """``load(path)`` raises ``error`` naming ``path``, with ``message`` at
    the end, after closing the one file it opened."""
    del opened[:]
    with pytest.raises(error, match=re.escape(f"{path}: ") + message):
        load(path)
    assert len(opened) == 1 and opened[0].closed


_FORMATS = pytest.mark.parametrize("fmt", [0, 1], ids=["checkpoint", "dataset"])


@_FORMATS
def test_an_unsupported_version_is_corrupt(tmp_path, opened, fmt):
    path, load, error = _sample_files(tmp_path)[fmt]
    blob = path.read_bytes()
    path.write_bytes(blob[:4] + struct.pack("<I", 2) + blob[8:])
    assert_corrupt_and_closed(path, load, error, opened, "unsupported version 2$")


@_FORMATS
def test_a_byte_after_the_payload_or_trailer_is_corrupt(tmp_path, opened, fmt):
    path, load, error = _sample_files(tmp_path)[fmt]
    path.write_bytes(path.read_bytes() + b"\0")
    assert_corrupt_and_closed(path, load, error, opened, "1 trailing bytes$")


@pytest.mark.parametrize("cut", [1, 2, 3, 4])
def test_a_checkpoint_cut_inside_its_trailer_is_corrupt(tmp_path, opened, cut):
    path, load, error = _sample_files(tmp_path)[0]
    blob = path.read_bytes()
    path.write_bytes(blob[:-cut])
    assert_corrupt_and_closed(
        path, load, error, opened,
        f"truncated CRC trailer: 4 bytes needed at offset {len(blob) - 4}, {4 - cut} left$")


# ---------------------------------------------------------------------------
# chunked payload reads and the CRC job on the worker

SMALL_CHUNK = 64  # bytes, so that desk-sized payloads span several chunks
# payload sizes at and around the first four chunk boundaries
_BYTE_SIZES = [0, 1] + [k * SMALL_CHUNK + d for k in range(1, 5) for d in (-1, 0, 1)]


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(binfile, "CHUNK", SMALL_CHUNK)


@pytest.fixture
def thread_starts(monkeypatch):
    """Every thread started through ``threading.Thread`` during the test,
    across all of a hypothesis test's examples."""
    started = []
    thread = threading.Thread

    def recording_thread(*args, **kwargs):
        started.append(thread(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(threading, "Thread", recording_thread)
    return started


def worker_is_free():
    """Whether a no-op job returns within 10 s, so no earlier job holds the worker."""
    ran = threading.Event()
    worker.submit(ran.set)
    return ran.wait(10)


@pytest.mark.parametrize("nbytes", _BYTE_SIZES)
def test_a_payload_of_any_size_reads_in_chunks_with_its_crc(tmp_path, small_chunks, nbytes):
    payload = np.random.default_rng(nbytes).bytes(nbytes)
    path = tmp_path / "raw"

    def read(crc):
        with binfile.Reader(path, b"TEST", 7, binfile.CorruptFileError) as reader:
            assert reader.take(2, "header") == b"hd"
            return reader.arrays([(np.uint8, (nbytes,), "bytes")], crc=crc)

    for crc in (False, True):
        binfile.write(path, b"TEST", 7, b"hd", [np.frombuffer(payload, np.uint8)], crc=crc)
        trailer = struct.pack("<I", zlib.crc32(payload)) if crc else b""
        assert path.read_bytes() == b"TEST" + struct.pack("<I", 7) + b"hd" + payload + trailer
        (arr,) = read(crc)
        assert arr.tobytes() == payload
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0x01  # the trailer's last byte
    path.write_bytes(bytes(blob))
    with pytest.raises(binfile.CorruptFileError, match="payload CRC mismatch$"):
        read(crc=True)


# a checkpoint payload is whole float32 scalars, so its sizes step by 4 bytes
_SCALAR_COUNTS = [0, 1] + [k * SMALL_CHUNK // 4 + d for k in range(1, 5) for d in (-1, 0, 1)]


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(count=st.sampled_from(_SCALAR_COUNTS), data=st.data())
def test_a_checkpoint_round_trips_through_chunked_reads(tmp_path, thread_starts, jobs, count,
                                                       data):
    cuts = sorted(data.draw(st.lists(st.integers(0, count), max_size=2), label="cuts"))
    values = np.random.default_rng(count).normal(size=count).astype(np.float32)
    tensors = {name: part for name, part in zip("abc", np.split(values, cuts))}
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, tensors)
    submitted = jobs[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(binfile, "CHUNK", SMALL_CHUNK)
        loaded = load_checkpoint(path)
    assert jobs[0] - submitted == (4 * count > SMALL_CHUNK)  # a job only past one chunk
    assert len(thread_starts) <= 1 and worker_is_free()  # one worker for every example
    assert path.read_bytes()[-4:] == struct.pack("<I", zlib.crc32(values))
    assert {name: arr.tobytes() for name, arr in loaded.items()} == {
        name: arr.tobytes() for name, arr in tensors.items()}


def _chunked_checkpoint(tmp_path):
    """A checkpoint whose 400-byte payload spans 7 small chunks, and the
    offset its payload starts at."""
    path = tmp_path / "chunked.ckpt"
    save_checkpoint(path, {"w": np.arange(100, dtype=np.float32)})
    return path, path.stat().st_size - 400 - 4


def test_a_short_read_in_a_later_chunk_is_corrupt(tmp_path, monkeypatch, small_chunks):
    path, offset = _chunked_checkpoint(tmp_path)
    files = []

    def short_open(*args, **kwargs):
        files.append(open(*args, **kwargs))
        return ShortRead(files[-1], "readinto", short_from=3)

    monkeypatch.setattr(binfile, "open", short_open, raising=False)
    with pytest.raises(CorruptCheckpointError,
                       match=f"truncated payload: read 191 of 400 bytes at offset {offset}$"):
        load_checkpoint(path)
    assert worker_is_free()
    assert len(files) == 1 and files[0].closed


def test_a_flipped_byte_in_the_last_chunk_fails_the_crc(tmp_path, opened, small_chunks):
    path, _ = _chunked_checkpoint(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[-5] ^= 0x01  # last payload byte
    path.write_bytes(bytes(blob))
    del opened[:]
    with pytest.raises(CorruptCheckpointError, match="payload CRC mismatch$"):
        load_checkpoint(path)
    assert worker_is_free()
    assert len(opened) == 1 and opened[0].closed


def test_an_error_on_the_crc_worker_reaches_the_caller(tmp_path, monkeypatch, opened,
                                                       small_chunks):
    path, _ = _chunked_checkpoint(tmp_path)
    crc32 = zlib.crc32

    def failing_off_the_main_thread(data, value=0):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("no memory on the worker")
        return crc32(data, value)

    monkeypatch.setattr(zlib, "crc32", failing_off_the_main_thread)
    del opened[:]
    with pytest.raises(MemoryError, match="no memory on the worker"):
        load_checkpoint(path)
    assert worker_is_free()
    assert len(opened) == 1 and opened[0].closed


class InterruptedRead:
    """A file whose readinto call number ``at`` raises KeyboardInterrupt,
    as Ctrl-C during a load would."""

    def __init__(self, fh, at):
        self._fh, self._at, self._calls = fh, at, 0

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def readinto(self, buf):
        self._calls += 1
        if self._calls == self._at:
            raise KeyboardInterrupt
        return self._fh.readinto(buf)


def test_an_interrupted_load_joins_its_worker_and_closes_the_file(tmp_path, monkeypatch,
                                                                   small_chunks):
    path, _ = _chunked_checkpoint(tmp_path)
    files = []

    def interrupting_open(*args, **kwargs):
        files.append(open(*args, **kwargs))
        return InterruptedRead(files[-1], at=4)

    monkeypatch.setattr(binfile, "open", interrupting_open, raising=False)
    with pytest.raises(KeyboardInterrupt):
        load_checkpoint(path)
    assert worker_is_free()
    assert len(files) == 1 and files[0].closed


def _no_thread(*args, **kwargs):
    raise AssertionError("a load started a thread")


def _no_job(fn):
    raise AssertionError("a load submitted a job")


@pytest.mark.parametrize("chunk, count", [(None, 1000), (SMALL_CHUNK, SMALL_CHUNK // 4)],
                         ids=["default chunk", "exactly one small chunk"])
def test_a_one_chunk_checkpoint_load_starts_no_thread(tmp_path, monkeypatch, chunk, count):
    if chunk:
        monkeypatch.setattr(binfile, "CHUNK", chunk)
    path = tmp_path / "one.ckpt"
    values = np.arange(count, dtype=np.float32)
    save_checkpoint(path, {"w": values})
    monkeypatch.setattr(threading, "Thread", _no_thread)
    monkeypatch.setattr(worker, "submit", _no_job)
    assert load_checkpoint(path)["w"].tobytes() == values.tobytes()


def test_a_dataset_load_computes_no_crc_and_starts_no_thread(tmp_path, monkeypatch,
                                                            small_chunks):
    rng = np.random.default_rng(11)
    ds = Dataset(rng.normal(size=(4, 4, 4, 1)).astype(np.float32),
                 np.array([0, 1, 2, 1]), "classification", 3)
    path = tmp_path / "multi.dvds"  # a 264-byte payload: 5 small chunks
    save_dataset(path, ds)

    def no_crc(*args):
        raise AssertionError("a dataset load computed a CRC")

    monkeypatch.setattr(threading, "Thread", _no_thread)
    monkeypatch.setattr(worker, "submit", _no_job)
    monkeypatch.setattr(zlib, "crc32", no_crc)
    back = load_dataset(path)
    assert back.images.tobytes() == ds.images.tobytes()
    assert back.labels.tolist() == ds.labels.tolist()
