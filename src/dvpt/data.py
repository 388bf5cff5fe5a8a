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

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import binfile
from .vit import ConfigError, check_integers, check_num_classes, check_reals

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
        check_integers({"[data] seed": self.seed}, ConfigError, low=0)
        return self


def _blob_image(rng, h, w, n_blobs, sigma):
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
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
        ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
        freq = (grade + 1) / float(w)
        img = 0.8 * np.sin(2.0 * np.pi * freq * (xs * np.cos(theta) + ys * np.sin(theta)) + phase)
    return img + rng.normal(0.0, noise, size=(h, w))


def synth_generate(task, count, seed, difficulty=0.3, family="a",
                   h=16, w=16, channels=1, num_classes=5):
    """Generate a synthetic dataset, bitwise-reproducible from the seed.
    Raises DatasetError on bad parameters: blobs need sides of at least 4,
    and a pixel float32 cannot hold is an error, not a warning."""
    check_integers(dict(count=count, h=h, w=w, channels=channels, seed=seed), DatasetError)
    if min(count, h, w, channels) <= 0:
        raise DatasetError(f"count, sides and channels must be positive, "
                           f"got {count} of {h}x{w}x{channels}")
    check_integers({"seed": seed}, DatasetError, low=0)
    check_num_classes(num_classes, DatasetError)
    if family not in ("a", "b"):
        raise DatasetError(f"family must be 'a' or 'b', got {family!r}")
    if task not in _TASK_TAGS:
        raise DatasetError(f"unknown task {task!r}")
    check_reals({"difficulty": difficulty}, DatasetError)
    if not 0 <= difficulty < math.inf:
        raise DatasetError(f"difficulty must be finite and >= 0, got {difficulty}")
    if min(h, w) < 4 and (task == "segmentation" or family == "a"):  # blobs sit 2 from an edge
        raise DatasetError(f"blob images need sides of at least 4, got {h}x{w}")
    rng = np.random.default_rng(seed)
    images = np.empty((count, h, w, channels), dtype=np.float32)
    with np.errstate(over="ignore"):  # an overflowed pixel is reported below
        if task == "classification":
            labels = rng.integers(0, num_classes, size=count).astype(np.uint16)
            for i in range(count):
                img = _classification_image(rng, family, int(labels[i]), h, w, difficulty)
                images[i] = img.astype(np.float32)[:, :, None]
        else:
            labels = np.empty((count, h, w), dtype=np.uint16)
            num_classes = 2  # a mask pixel is background or foreground
            for i in range(count):
                n_blobs = int(rng.integers(1, 4))
                clean = _blob_image(rng, h, w, n_blobs, sigma=2.0 if family == "a" else 1.2)
                labels[i] = (clean > 0.5).astype(np.uint16)
                noisy = clean + rng.normal(0.0, difficulty, size=(h, w))
                images[i] = noisy.astype(np.float32)[:, :, None]
    if not np.isfinite(images).all():
        raise DatasetError(f"difficulty {difficulty} gives a pixel outside float32's range")
    return Dataset(images, labels, task, num_classes)


def label_shape(task, image_shape):
    """The label shape of ``task``'s (n, H, W, C) images: one class per
    image, (n,), or one per pixel, (n, H, W)."""
    return image_shape[:1] if task == "classification" else image_shape[:3]


def as_array(values, what, error):
    """``values`` as an array; raises ``error(message)`` on ragged nested lists."""
    try:
        return np.asarray(values)
    except ValueError as exc:
        raise error(f"{what} do not form one array: {exc}") from None


def check_labels(labels, shape, num_classes, error):
    """``labels`` as an array; raises ``error(message)`` unless they are integers
    shaped ``shape``, each in [0, num_classes).  An empty array passes."""
    labels = as_array(labels, "labels", error)
    if labels.shape != shape:
        raise error(f"labels shaped {labels.shape} do not fit the label shape {shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise error(f"labels must be integers, got {labels.dtype}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise error(f"labels outside [0, {num_classes}): range {labels.min()}..{labels.max()}")
    return labels


def save_dataset(path, dataset):
    """Write a dataset file atomically (temp file, then rename); raises
    DatasetError, before any file exists, on data the format cannot hold."""
    try:
        with np.errstate(over="raise"):  # a finite pixel float32 cannot hold
            images = np.ascontiguousarray(dataset.images, dtype=np.float32)
    except FloatingPointError:
        raise DatasetError("images hold a pixel outside float32's range "
                           f"(magnitude above {np.finfo(np.float32).max:.8g})") from None
    if images.ndim != 4:
        raise DatasetError(f"images must be (count, H, W, C), got shape {images.shape}")
    if dataset.task not in _TASK_TAGS:
        raise DatasetError(f"unknown task {dataset.task!r}")
    num_classes = check_num_classes(dataset.num_classes, DatasetError)
    labels = check_labels(dataset.labels, label_shape(dataset.task, images.shape),
                          num_classes, DatasetError)
    if not np.isfinite(images).all():
        raise DatasetError("images hold a non-finite pixel")
    for axis, length in zip(("count", "H", "W", "C"), images.shape):
        if length > 0xFFFFFFFF:  # a u32; only an empty set has such an axis
            raise DatasetError(f"images axis {axis} of length {length}, "
                               "over the limit of 4294967295")
    header = struct.pack("<IIIIBI", *images.shape, _TASK_TAGS[dataset.task], num_classes)
    binfile.write(path, MAGIC, VERSION, header, [images, labels.astype("<u2", copy=False)])


def load_dataset(path):
    """Read a dataset file; images and labels are writable views of one
    buffer holding the whole payload."""
    with binfile.Reader(path, MAGIC, VERSION, CorruptDatasetError) as reader:
        count, h, w, c, tag, num_classes = reader.unpack("IIIIBI")
        check_num_classes(num_classes, reader.error)
        if tag not in _TAG_TASKS:
            raise reader.error(f"unknown task tag {tag}")
        task = _TAG_TASKS[tag]
        images, labels = reader.arrays([
            ("<f4", (count, h, w, c), "images"),
            ("<u2", label_shape(task, (count, h, w, c)), f"labels of declared count {count}"),
        ])
        # min/max propagate NaN and find any inf with no image-sized mask
        if images.size and not (np.isfinite(images.min()) and np.isfinite(images.max())):
            raise reader.error("images hold a non-finite pixel")
        check_labels(labels, labels.shape, num_classes, reader.error)
    return Dataset(images, labels, task, num_classes)
