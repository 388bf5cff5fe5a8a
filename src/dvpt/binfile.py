"""Shared I/O for the two little-endian binary formats (``DVPT``
checkpoints, ``DVDS`` datasets): an atomic, durable write and a
bounds-checked reader that turns every malformed byte into one error type.
"""

import math
import os
import struct

import numpy as np


class CorruptFileError(ValueError):
    """Short read, bad field or undecodable name; nothing is partially loaded."""


def atomic_write(path, chunks):
    """Write the byte chunks to ``path`` through a temp file that is
    fsynced and renamed over it; on any failure the temp file is removed
    and ``path`` keeps its previous content."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.lexists(tmp):
            os.unlink(tmp)


class Reader:
    """Sequential little-endian reads over a memoryview of a whole file
    that starts with ``magic``.

    Every read is checked against the bytes left and raises ``error`` (a
    CorruptFileError subclass) naming the file, never ``struct.error``.
    """

    def __init__(self, path, magic, error):
        with open(path, "rb") as fh:
            self.view = memoryview(fh.read())
        self.path, self.offset, self.error_type = path, len(magic), error
        if self.view[:len(magic)] != magic:
            raise self.error(f"bad magic {bytes(self.view[:len(magic)])!r}")

    @property
    def remaining(self):
        return len(self.view) - self.offset

    def error(self, message):
        return self.error_type(f"{self.path}: {message}")

    def take(self, nbytes, what):
        """The next ``nbytes`` bytes, as a view (no copy)."""
        if nbytes > self.remaining:
            raise self.error(f"truncated {what}: {nbytes} bytes needed at offset "
                             f"{self.offset}, {self.remaining} left")
        self.offset += nbytes
        return self.view[self.offset - nbytes:self.offset]

    def unpack(self, fmt, what="header"):
        fmt = "<" + fmt
        return struct.unpack_from(fmt, self.take(struct.calcsize(fmt), what))

    def text(self, nbytes, what):
        try:
            return str(self.take(nbytes, what), "utf-8")
        except UnicodeDecodeError as exc:
            raise self.error(f"{what} is not UTF-8 ({exc})") from None

    def array(self, dtype, shape, what):
        """A fresh, writable array of ``shape`` read from the next bytes."""
        dtype = np.dtype(dtype)
        chunk = self.take(math.prod(shape) * dtype.itemsize, what)
        return np.frombuffer(chunk, dtype=dtype).reshape(shape).copy()
