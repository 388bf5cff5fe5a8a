"""The package's one worker thread (``dvpt.worker``) and its two callers:
the row-split product (``tensor._product``) and the CRC of a payload of
more than one chunk (``binfile.Reader.arrays``)."""

import json
import multiprocessing
import os
import subprocess
import sys
import threading
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest

from dvpt import binfile, worker
from dvpt import tensor as T
from dvpt.checkpoint import CorruptCheckpointError, load_checkpoint, save_checkpoint

SRC = str(Path(__file__).resolve().parent.parent / "src")
SMALL_CHUNK = 4096  # bytes, so that a 400 KB payload spans ~100 chunks


@pytest.fixture
def two_cpus(monkeypatch):
    """Two CPUs, whatever the machine has, so that large products split."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def chunked(tmp_path, monkeypatch):
    """A checkpoint whose payload spans many small chunks, and its values."""
    monkeypatch.setattr(binfile, "CHUNK", SMALL_CHUNK)
    values = np.random.default_rng(60).normal(size=100_000).astype(np.float32)
    path = tmp_path / "chunked.ckpt"
    save_checkpoint(path, {"w": values})
    return path, values


def test_the_worker_keeps_nothing_of_a_job_once_its_submitter_returns(two_cpus, chunked,
                                                                        jobs):
    # A served weight views the whole loaded backbone, and a product's output
    # or a load's buffer kept by an idle worker would stay alive until its
    # next job, which a serving process may not send for a long time.
    b = np.ones((768, 768), np.float32)
    out = T._product(np.ones((64, 768), np.float32), b)
    kept = [weakref.ref(out.base), weakref.ref(b)]  # out views the buffer both halves wrote
    del out, b
    assert jobs[0] == 1 and [ref() for ref in kept] == [None, None]
    path, values = chunked
    loaded = load_checkpoint(path)
    assert loaded["w"].tobytes() == values.tobytes()
    kept = weakref.ref(loaded["w"].base)  # the one buffer the payload was read into
    del loaded
    assert jobs[0] == 2 and kept() is None


# A serving process: it saves a ViT-B-wide backbone of one block (a 31 MB
# payload, two 16 MiB chunks), loads it into a fresh model and serves four
# images. It prints the names of the threads it started in its life and the
# jobs it submitted.
_SERVING = """
import json, os, threading

started, thread = [], threading.Thread


def recording_thread(*args, **kwargs):
    started.append(thread(*args, **kwargs))
    return started[-1]


threading.Thread = recording_thread
os.sched_getaffinity = lambda pid: {{0, 1}}

import numpy as np
from dvpt import DvptConfig, VitConfig, training, worker
from dvpt.checkpoint import load_backbone, load_checkpoint, save_checkpoint
from dvpt.model import model_for_policy

jobs, submit = [], worker.submit
worker.submit = lambda fn: jobs.append(fn.__qualname__) or submit(fn)
cfg = VitConfig(image_h=64, image_w=64, channels=3, patch_size=16, embed_dim=768,
                depth=1, heads=12, num_classes=5)
dvpt = DvptConfig(num_prompts=50, hidden_dim=20)
model, _ = model_for_policy(cfg, dvpt, "dvpt", seed=3)
save_checkpoint({path!r}, model.params)
del model
served, _ = model_for_policy(cfg, dvpt, "dvpt", seed=4)
load_backbone(served, load_checkpoint({path!r}))
images = np.random.default_rng(54).normal(size=(4, 64, 64, 3)).astype(np.float32)
logits = training.predict(served, images)
print(json.dumps({{"threads": [t.name for t in started], "jobs": sorted(set(jobs)),
                  "finite": bool(np.isfinite(logits).all())}}))
"""


def test_a_serving_process_starts_one_thread_in_its_life(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    code = _SERVING.format(path=str(tmp_path / "backbone.ckpt"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["threads"] == ["dvpt-worker"] and report["finite"]
    assert report["jobs"] == ["Reader.arrays.<locals>.<lambda>",
                              "_product.<locals>.first_half"]


def test_a_load_and_splits_on_two_threads_share_the_worker(two_cpus, chunked, jobs):
    path, values = chunked
    rng = np.random.default_rng(61)
    a = rng.normal(size=(97, 768)).astype(np.float32)
    b = rng.normal(size=(768, 768)).astype(np.float32)
    whole = (a @ b).tobytes()
    wrong = []

    def repeat(what, call, expected):
        try:
            for _ in range(20):
                if call() != expected:
                    wrong.append(what)
        except BaseException as exc:  # reported by the assertion below
            wrong.append(f"{what}: {exc!r}")

    callers = [
        threading.Thread(target=repeat, args=(
            "load", lambda: load_checkpoint(path)["w"].tobytes(), values.tobytes())),
        threading.Thread(target=repeat, args=(
            "split", lambda: T._product(a, b).tobytes(), whole)),
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers), "no answer within 60 s"
    assert not wrong and jobs[0] == 40


def _load_in_a_child(path, values):
    assert load_checkpoint(path)["w"].tobytes() == values.tobytes()
    assert worker._jobs[0] == os.getpid()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_childs_chunked_load_finishes(chunked, jobs):
    path, values = chunked
    load_checkpoint(path)  # the parent's worker runs
    child = multiprocessing.get_context("fork").Process(target=_load_in_a_child,
                                                        args=(path, values))
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("a forked child's chunked load did not return within 60 s")
    assert child.exitcode == 0 and jobs[0] == 1


class _ShortThirdRead:
    """A file whose third ``readinto`` reads one byte short."""

    def __init__(self, fh):
        self._fh, self._calls = fh, 0

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def readinto(self, buf):
        self._calls += 1
        view = memoryview(buf)
        return self._fh.readinto(view[:-1] if self._calls == 3 else view)


def test_a_short_read_wins_over_an_error_in_its_hash(chunked, monkeypatch, jobs):
    path, _ = chunked
    crc32 = zlib.crc32

    def failing_on_the_worker(data, value=0):
        if threading.current_thread().name == "dvpt-worker":
            raise MemoryError("no memory on the worker")
        return crc32(data, value)

    files = []

    def short_open(*args, **kwargs):
        files.append(open(*args, **kwargs))
        return _ShortThirdRead(files[-1])

    monkeypatch.setattr(zlib, "crc32", failing_on_the_worker)
    monkeypatch.setattr(binfile, "open", short_open, raising=False)
    with pytest.raises(CorruptCheckpointError, match="truncated payload: read"):
        load_checkpoint(path)
    assert jobs[0] == 1 and len(files) == 1 and files[0].closed
