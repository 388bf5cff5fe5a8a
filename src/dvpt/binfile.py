"""Shared I/O for the two little-endian binary formats (``DVPT``
checkpoints, ``DVDS`` datasets): an atomic, durable write and a
bounds-checked reader that turns every malformed byte into one error type.

The reader takes header fields from the open file one by one, then reads
a file's whole payload with one ``readinto`` into one fresh buffer; the
loaded arrays are views of that buffer, so a loader holds one copy of the
payload at a time, and keeping any one loaded array alive keeps the whole
buffer alive.
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
    """Sequential little-endian reads from a file that starts with
    ``magic``; a context manager that closes the file on exit.

    Every read is checked against the file's size and against the bytes
    the read returned, and raises ``error`` (a CorruptFileError subclass)
    naming the file, never ``struct.error``.
    """

    def __init__(self, path, magic, error):
        self.path, self.error_type = path, error
        self.fh = open(path, "rb")
        try:
            self.size = os.fstat(self.fh.fileno()).st_size
            found = self.fh.read(len(magic))
            self.offset = len(found)
            if found != magic:
                raise self.error(f"bad magic {found!r}")
        except BaseException:
            self.fh.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    @property
    def remaining(self):
        return self.size - self.offset

    def error(self, message):
        return self.error_type(f"{self.path}: {message}")

    def _check(self, nbytes, what, offset):
        if nbytes > self.size - offset:
            raise self.error(f"truncated {what}: {nbytes} bytes needed at offset "
                             f"{offset}, {self.size - offset} left")

    def _short(self, what, got, nbytes):
        return self.error(f"truncated {what}: read {got} of {nbytes} bytes "
                          f"at offset {self.offset}")

    def take(self, nbytes, what):
        """The next ``nbytes`` bytes."""
        self._check(nbytes, what, self.offset)
        chunk = self.fh.read(nbytes)
        if len(chunk) != nbytes:
            raise self._short(what, len(chunk), nbytes)
        self.offset += nbytes
        return chunk

    def unpack(self, fmt, what="header"):
        fmt = "<" + fmt
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def text(self, nbytes, what):
        try:
            return str(self.take(nbytes, what), "utf-8")
        except UnicodeDecodeError as exc:
            raise self.error(f"{what} is not UTF-8 ({exc})") from None

    def arrays(self, entries):
        """Writable arrays for ``[(dtype, shape, what), ...]``, read from
        the next bytes in order, and the buffer they are views of.

        Every entry is bounds-checked before anything is allocated, so a
        truncated file names its first incomplete entry.  An array is
        aligned when its offset in the buffer is a multiple of its item
        size, which holds whenever all entries share one dtype.
        """
        spans, end = [], self.offset
        for dtype, shape, what in entries:
            dtype = np.dtype(dtype)
            nbytes = math.prod(shape) * dtype.itemsize
            self._check(nbytes, what, end)
            spans.append((dtype, shape, end - self.offset, nbytes))
            end += nbytes
        total = end - self.offset
        buf = np.empty(total, np.uint8)
        got = self.fh.readinto(buf)
        if got != total:
            raise self._short("payload", got, total)
        self.offset = end
        views = [buf[start:start + nbytes].view(dtype).reshape(shape)
                 for dtype, shape, start, nbytes in spans]
        return views, buf
