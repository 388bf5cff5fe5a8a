"""Binary checkpoint format for named parameter tensors.

Layout (little-endian throughout):

    magic "DVPT" | u32 version | u32 tensor count
    per tensor: u16 name length | UTF-8 name | u8 rank (<= 64) | u32 dims...
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

import numpy as np

from . import binfile
from .peft import is_backbone_param

MAGIC = b"DVPT"
VERSION = 1
_DTYPES = (np.dtype("<f4"), np.dtype("<f8"))  # indexed by dtype tag


class CorruptCheckpointError(binfile.CorruptFileError):
    """Magic, structure or CRC failure; nothing is partially loaded."""


class ArchitectureMismatchError(ValueError):
    """Checkpoint tensors do not line up with the target model."""


def save_checkpoint(path, tensors):
    """Write name -> array (or Tensor) entries atomically; raises
    ValueError, before any file exists, on an entry the format cannot hold."""
    arrays = {}
    for name, value in tensors.items():
        arr = np.asarray(getattr(value, "data", value))
        if arr.dtype not in _DTYPES:
            raise ValueError(f"{name}: unsupported dtype {arr.dtype}")
        arrays[name] = arr
    names = sorted(arrays)
    header = [struct.pack("<I", len(names))]
    for name in names:
        arr, encoded = arrays[name], name.encode("utf-8")
        if len(encoded) > 0xFFFF:  # a name's length is stored as a u16
            raise ValueError(f"tensor name of {len(encoded)} UTF-8 bytes, over the limit of 65535")
        header.append(struct.pack("<H", len(encoded)) + encoded)
        for axis, length in enumerate(arr.shape):
            if length > 0xFFFFFFFF:  # a u32; only a zero-size array has such an axis
                raise ValueError(f"{name}: axis {axis} of length {length}, over the limit of "
                                 "4294967295")
        tag = _DTYPES.index(arr.dtype)
        header.append(struct.pack(f"<B{arr.ndim}IB", arr.ndim, *arr.shape, tag))
    binfile.write(path, MAGIC, VERSION, b"".join(header), [arrays[name] for name in names],
                  crc=True)


def load_checkpoint(path):
    """Read a checkpoint into an ordered name -> ndarray dict.

    The arrays are writable views of one buffer holding the whole payload.
    """
    with binfile.Reader(path, MAGIC, VERSION, CorruptCheckpointError) as reader:
        (count,) = reader.unpack("I")
        entries = []
        for _ in range(count):
            (name_len,) = reader.unpack("H")
            name = reader.text(name_len, "tensor name")
            if entries and name <= entries[-1][0]:
                raise reader.error(f"tensor {name!r} out of order or duplicated")
            (rank,) = reader.unpack("B")
            if rank > 64:  # numpy arrays hold at most 64 axes
                raise reader.error(f"tensor {name!r} has rank {rank}, over 64")
            *shape, tag = reader.unpack(f"{rank}IB")
            if tag >= len(_DTYPES):
                raise reader.error(f"unknown dtype tag {tag}")
            entries.append((name, tuple(shape), _DTYPES[tag]))
        arrays = reader.arrays(
            [(dtype, shape, f"tensor {name!r}") for name, shape, dtype in entries], crc=True)
    return {name: arr for (name, _, _), arr in zip(entries, arrays)}


def _assign(model, tensors, what):
    """Make each ``name -> array`` entry parameter ``name``'s data, after
    checking every shape, so a mismatch leaves the model untouched.  An
    array of the model's dtype becomes the parameter's data as it is."""
    for name, arr in tensors.items():
        param = model.params[name]
        if tuple(arr.shape) != tuple(param.shape):
            raise ArchitectureMismatchError(
                f"{what} {name!r} shape {tuple(arr.shape)} != model {tuple(param.shape)}")
    for name, arr in tensors.items():
        model.params[name].data = arr.astype(model.dtype, copy=False)


def load_backbone(model, tensors):
    """Load the shared backbone weights into a model.

    Every backbone parameter of the model must be present with the exact
    shape; head / prompt / adapter entries in the checkpoint are ignored
    (they are task-specific).  Changes no process state: the forward
    loops pin the heap (``training.predict``).
    """
    names = list(filter(is_backbone_param, model.params))
    for name in names:
        if name not in tensors:
            raise ArchitectureMismatchError(f"backbone tensor {name!r} missing from checkpoint")
    _assign(model, {name: tensors[name] for name in names}, "backbone tensor")


def load_task_params(model, tensors):
    """Load task-specific (trainable) tensors; names and shapes must match."""
    for name in tensors:
        if name not in model.params:
            raise ArchitectureMismatchError(f"checkpoint tensor {name!r} unknown to model")
    _assign(model, tensors, "tensor")


def save_trainable(path, model):
    """Checkpoint exactly the tensors the active freeze policy left trainable."""
    save_checkpoint(path, {name: t for name, t in model.params.items() if t.requires_grad})
