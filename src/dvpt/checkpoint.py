"""Binary checkpoint format for named parameter tensors.

Layout (little-endian throughout):

    magic "DVPT" | u32 version | u32 tensor count
    per tensor: u16 name length | UTF-8 name | u8 rank | u32 dims...
                | u8 dtype tag (0=float32, 1=float64)
    payload: scalars, contiguous row-major, in entry order
    trailer: u32 CRC32 of the payload

Entries are sorted by name, so save -> load -> save is byte-identical;
the loader rejects any other order, which also catches duplicated names.
A fine-tuning checkpoint contains only the tensors its freeze policy
marks trainable; the full backbone is saved the same way under the
full_finetune policy.
"""

import struct
import zlib

import numpy as np

from . import binfile
from . import model as model_mod

MAGIC = b"DVPT"
VERSION = 1
_DTYPE_TAGS = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_TAG_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


class CorruptCheckpointError(binfile.CorruptFileError):
    """Magic, structure or CRC failure; nothing is partially loaded."""


class ArchitectureMismatchError(ValueError):
    """Checkpoint tensors do not line up with the target model."""


def save_checkpoint(path, tensors):
    """Write name -> array (or Tensor) entries atomically."""
    arrays = {}
    for name, value in tensors.items():
        arr = np.asarray(getattr(value, "data", value))
        if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        if arr.dtype not in _DTYPE_TAGS:
            raise ValueError(f"{name}: unsupported dtype {arr.dtype}")
        arrays[name] = arr
    names = sorted(arrays)
    header = [MAGIC, struct.pack("<II", VERSION, len(names))]
    payload = []
    for name in names:
        arr = arrays[name]
        encoded = name.encode("utf-8")
        header.append(struct.pack("<H", len(encoded)) + encoded)
        header.append(struct.pack(f"<B{arr.ndim}IB", arr.ndim, *arr.shape, _DTYPE_TAGS[arr.dtype]))
        payload.append(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())
    body = b"".join(payload)
    binfile.atomic_write(path, [*header, body, struct.pack("<I", zlib.crc32(body))])


def load_checkpoint(path):
    """Read a checkpoint into an ordered name -> ndarray dict.

    The arrays are writable views of one buffer holding the whole payload.
    """
    with binfile.Reader(path, MAGIC, CorruptCheckpointError) as reader:
        version, count = reader.unpack("II")
        if version != VERSION:
            raise reader.error(f"unsupported version {version}")
        entries = []
        for _ in range(count):
            (name_len,) = reader.unpack("H")
            name = reader.text(name_len, "tensor name")
            if entries and name <= entries[-1][0]:
                raise reader.error(f"tensor {name!r} out of order or duplicated")
            (rank,) = reader.unpack("B")
            *shape, tag = reader.unpack(f"{rank}IB")
            if tag not in _TAG_DTYPES:
                raise reader.error(f"unknown dtype tag {tag}")
            entries.append((name, tuple(shape), _TAG_DTYPES[tag]))
        arrays, payload = reader.arrays(
            [(dtype, shape, f"tensor {name!r}") for name, shape, dtype in entries])
        (crc,) = reader.unpack("I", "CRC trailer")
        if reader.remaining:
            raise reader.error(f"{reader.remaining} trailing bytes")
        if zlib.crc32(payload) != crc:
            raise reader.error("payload CRC mismatch")
    return {name: arr for (name, _, _), arr in zip(entries, arrays)}


def load_backbone(model, tensors):
    """Load the shared backbone weights into a model.

    Every backbone parameter of the model must be present with the exact
    shape; head / prompt / adapter entries in the checkpoint are ignored
    (they are task-specific).
    """
    for name, param in model.params.items():
        if not model_mod.is_backbone_param(name):
            continue
        if name not in tensors:
            raise ArchitectureMismatchError(f"backbone tensor {name!r} missing from checkpoint")
        arr = tensors[name]
        if tuple(arr.shape) != tuple(param.shape):
            raise ArchitectureMismatchError(
                f"backbone tensor {name!r} shape {tuple(arr.shape)} != model {tuple(param.shape)}"
            )
        param.data = arr.astype(model.dtype, copy=True)


def load_task_params(model, tensors):
    """Load task-specific (trainable) tensors; names and shapes must match."""
    for name, arr in tensors.items():
        if name not in model.params:
            raise ArchitectureMismatchError(f"checkpoint tensor {name!r} unknown to model")
        param = model.params[name]
        if tuple(arr.shape) != tuple(param.shape):
            raise ArchitectureMismatchError(
                f"tensor {name!r} shape {tuple(arr.shape)} != model {tuple(param.shape)}"
            )
        param.data = arr.astype(model.dtype, copy=True)


def save_trainable(path, model):
    """Checkpoint exactly the tensors the active freeze policy left trainable."""
    save_checkpoint(path, {name: t for name, t in model.params.items() if t.requires_grad})
