"""Synthetic datasets and the binary dataset file format.

Two disjoint pattern families stand in for pretraining and fine-tuning
data: family "a" encodes an ordinal 5-level grade as the number of bright
blobs in the image, family "b" encodes it as the spatial frequency of an
oriented grating.  Segmentation images are random blobs with exact masks.
All generation is fully determined by the seed.

Dataset file layout (all little-endian):

    magic "DVDS" | u32 version | u32 count | u32 H | u32 W | u32 C
    | u8 task tag (0=classification, 1=segmentation) | u32 num_classes
    images : count*H*W*C float32
    labels : count u16 (classification) or count*H*W u16 (mask grids)
"""

import struct
from dataclasses import dataclass

import numpy as np

from . import binfile
from .vit import ConfigError

MAGIC = b"DVDS"
VERSION = 1
_TASK_TAGS = {"classification": 0, "segmentation": 1}
_TAG_TASKS = {v: k for k, v in _TASK_TAGS.items()}


class DatasetError(ValueError):
    """Raised on bad generation parameters or a dataset that cannot be saved."""


class CorruptDatasetError(binfile.CorruptFileError, DatasetError):
    """A dataset file that does not parse; nothing is partially loaded."""


@dataclass
class Dataset:
    images: np.ndarray  # [count, H, W, C] float32
    labels: np.ndarray  # [count] or [count, H, W] uint16
    task: str
    num_classes: int

    def __len__(self):
        return len(self.images)


@dataclass
class DataConfig:
    """The ``[data]`` section of a run config: generate, or read a file."""

    source: str = "synthetic"
    path: str = None
    count: int = 64
    seed: int = 0
    difficulty: float = 0.3
    family: str = "a"

    def validate(self):
        if self.source not in ("synthetic", "file"):
            raise ConfigError(f"[data] source must be synthetic or file, got {self.source!r}")
        if self.source == "file" and not self.path:
            raise ConfigError("[data] source = file requires a path")
        if self.source == "synthetic" and self.family not in ("a", "b"):
            raise ConfigError(f"[data] family must be 'a' or 'b', got {self.family!r}")
        return self


def _grid(h, w):
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    return ys, xs


def _blob_image(rng, h, w, n_blobs, sigma):
    ys, xs = _grid(h, w)
    canvas = np.zeros((h, w))
    for _ in range(n_blobs):
        cy = rng.uniform(2, h - 2)
        cx = rng.uniform(2, w - 2)
        canvas += np.exp(-(((ys - cy) ** 2 + (xs - cx) ** 2) / (2.0 * sigma ** 2)))
    return canvas


def _classification_image(rng, family, grade, h, w, noise):
    if family == "a":
        img = _blob_image(rng, h, w, n_blobs=grade + 1, sigma=1.4)
    else:
        theta = rng.uniform(0.0, np.pi)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        ys, xs = _grid(h, w)
        freq = (grade + 1) / float(w)
        img = 0.8 * np.sin(2.0 * np.pi * freq * (xs * np.cos(theta) + ys * np.sin(theta)) + phase)
    return img + rng.normal(0.0, noise, size=(h, w))


def synth_generate(task, count, seed, difficulty=0.3, family="a",
                   h=16, w=16, channels=1, num_classes=5):
    """Generate a synthetic dataset, bitwise-reproducible from the seed."""
    if count <= 0:
        raise DatasetError(f"count must be positive, got {count}")
    if family not in ("a", "b"):
        raise DatasetError(f"family must be 'a' or 'b', got {family!r}")
    rng = np.random.default_rng(seed)
    images = np.empty((count, h, w, channels), dtype=np.float32)
    if task == "classification":
        labels = rng.integers(0, num_classes, size=count).astype(np.uint16)
        for i in range(count):
            img = _classification_image(rng, family, int(labels[i]), h, w, difficulty)
            images[i] = img.astype(np.float32)[:, :, None]
        return Dataset(images, labels, "classification", num_classes)
    if task != "segmentation":
        raise DatasetError(f"unknown task {task!r}")
    labels = np.empty((count, h, w), dtype=np.uint16)
    for i in range(count):
        n_blobs = int(rng.integers(1, 4))
        clean = _blob_image(rng, h, w, n_blobs, sigma=2.0 if family == "a" else 1.2)
        labels[i] = (clean > 0.5).astype(np.uint16)
        noisy = clean + rng.normal(0.0, difficulty, size=(h, w))
        images[i] = noisy.astype(np.float32)[:, :, None]
    return Dataset(images, labels, "segmentation", 2)


def save_dataset(path, dataset):
    """Write a dataset file atomically (temp file, then rename)."""
    images = np.ascontiguousarray(dataset.images, dtype=np.float32)
    labels = np.ascontiguousarray(dataset.labels, dtype=np.uint16)
    count, h, w, c = images.shape
    if dataset.task == "classification":
        if labels.shape != (count,):
            raise DatasetError(f"classification labels must be [count], got {labels.shape}")
    else:
        if labels.shape != (count, h, w):
            raise DatasetError(f"segmentation masks must be [count, H, W], got {labels.shape}")
    if labels.size and labels.max() >= dataset.num_classes:
        raise DatasetError(
            f"label {labels.max()} outside [0, {dataset.num_classes})"
        )
    if not np.isfinite(images).all():
        raise DatasetError("images hold a non-finite pixel")
    header = MAGIC + struct.pack(
        "<IIIIIBI", VERSION, count, h, w, c,
        _TASK_TAGS[dataset.task], dataset.num_classes,
    )
    binfile.atomic_write(path, [header, images.astype("<f4").tobytes(),
                                labels.astype("<u2").tobytes()])


def load_dataset(path):
    """Read a dataset file; images and labels are writable views of one
    buffer holding the whole payload."""
    with binfile.Reader(path, MAGIC, CorruptDatasetError) as reader:
        version, count, h, w, c, tag, num_classes = reader.unpack("IIIIIBI")
        if version != VERSION:
            raise reader.error(f"unsupported version {version}")
        if tag not in _TAG_TASKS:
            raise reader.error(f"unknown task tag {tag}")
        task = _TAG_TASKS[tag]
        label_shape = (count,) if task == "classification" else (count, h, w)
        (images, labels), _ = reader.arrays([
            ("<f4", (count, h, w, c), "images"),
            ("<u2", label_shape, f"labels of declared count {count}"),
        ])
        if reader.remaining:
            raise reader.error(f"{reader.remaining} bytes beyond declared count {count}")
        # min/max propagate NaN and find any inf with no image-sized mask
        if images.size and not (np.isfinite(images.min()) and np.isfinite(images.max())):
            raise reader.error("images hold a non-finite pixel")
        if labels.size and labels.max() >= num_classes:
            raise reader.error(f"label {labels.max()} outside [0, {num_classes})")
    return Dataset(images, labels, task, num_classes)
