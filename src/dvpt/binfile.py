"""The little-endian binary container both file formats share (``DVPT``
checkpoints, ``DVDS`` datasets), written by ``write`` and read by
``Reader`` alone: magic | u32 version | header | payload | optional u32
CRC32 of the payload | end of file.  A format module states only its
header fields and its payload's arrays.  ``atomic_write``, under
``write``, also writes ``dvpt finetune --history``'s CSV.

The reader takes header fields one by one and turns every malformed byte
into one error type.  Its last read, ``Reader.arrays``, reads the payload
in ``CHUNK``-byte reads into one fresh buffer whose views are the loaded
arrays (so a loader holds one copy of the payload, and any one loaded
array keeps the whole buffer alive), then checks the CRC trailer and the
end of file.  The package's worker hashes a payload of several chunks as
they are read, and the read never waits for it.
"""

import contextlib
import math
import os
import queue
import struct
import zlib

import numpy as np

from . import worker

ALIGN = 64  # byte boundary the payload buffer starts on
CHUNK = 16 * 2 ** 20  # bytes per payload read; a larger payload is hashed on the worker


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


def write(path, magic, version, header, arrays, crc=False):
    """Write the container atomically: ``header`` is bytes, and the payload
    is ``arrays``, little-endian and row-major, in order.  An array that is
    already both is written as it is, and the CRC streams over the arrays,
    so no byte of such a payload is copied."""
    payload = [arr.astype(arr.dtype.newbyteorder("<"), order="C", copy=False)
               for arr in map(np.asarray, arrays)]
    trailer = [struct.pack("<I", _crc32(payload))] if crc else []
    atomic_write(path, [magic, struct.pack("<I", version), header, *payload, *trailer])


class Reader:
    """Sequential little-endian reads from a file that starts with
    ``magic`` and ``version``; a context manager that closes the file on
    exit.

    Every read is checked against the file's size and against the bytes
    the read returned, and raises ``error`` (a CorruptFileError subclass)
    naming the file, never ``struct.error``.
    """

    def __init__(self, path, magic, version, error):
        self.path, self.error_type = path, error
        self.fh = open(path, "rb")
        try:
            self.size = os.fstat(self.fh.fileno()).st_size
            found = self.fh.read(len(magic))
            self.offset = len(found)
            if found != magic:
                raise self.error(f"bad magic {found!r}")
            (found,) = self.unpack("I")
            if found != version:
                raise self.error(f"unsupported version {found}")
        except BaseException:
            self.fh.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

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

    def arrays(self, entries, crc=False):
        """Writable arrays for ``[(dtype, shape, what), ...]``, read from
        the payload in order; the file's last read.  With ``crc``, the
        CRC32 trailer that follows must match the payload before any array
        is returned; then the file must end.  A payload with a CRC that
        spans more than one ``CHUNK`` is hashed on the worker as its chunks
        are read; the read never waits for it, and its error wins.

        Every entry is bounds-checked before anything is allocated, so a
        truncated file names its first incomplete entry.  The buffer
        starts on an ``ALIGN``-byte boundary; an array is aligned when its
        offset in the buffer is a multiple of its item size, which holds
        whenever all entries share one dtype.
        """
        spans, end = [], self.offset
        for dtype, shape, what in entries:
            dtype = np.dtype(dtype)
            nbytes = math.prod(shape) * dtype.itemsize
            self._check(nbytes, what, end)
            spans.append((dtype, shape, end - self.offset, nbytes))
            end += nbytes
        total = end - self.offset
        # The arrays may live as long as a model does, so the buffer starts
        # on a cache-line boundary rather than where malloc put it.
        raw = np.empty(total + ALIGN - 1, np.uint8)
        skip = -raw.ctypes.data % ALIGN
        buf = raw[skip:skip + total]
        chunks = queue.SimpleQueue()  # views of buf as they are read, then None
        wait = (worker.submit(lambda: _crc32(iter(chunks.get, None)))
                if crc and total > CHUNK else None)  # else hashed here, if at all
        try:
            for start in range(0, total, CHUNK):
                chunk = buf[start:start + CHUNK]
                got = self.fh.readinto(chunk)
                if got != len(chunk):
                    raise self._short("payload", start + got, total)
                chunks.put(chunk.data)  # a memoryview, which iter can compare to None
        except BaseException:
            if wait:  # the job views buf until it ends, and the read's error wins
                chunks.put(None)
                with contextlib.suppress(BaseException):
                    wait()
            raise
        chunks.put(None)
        digest = wait() if wait else zlib.crc32(buf) if crc else None
        self.offset = end
        if crc:
            (stored,) = self.unpack("I", "CRC trailer")
        if self.size > self.offset:
            raise self.error(f"{self.size - self.offset} trailing bytes")
        if crc and stored != digest:
            raise self.error("payload CRC mismatch")
        return [buf[start:start + nbytes].view(dtype).reshape(shape)
                for dtype, shape, start, nbytes in spans]


def _crc32(chunks):
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    return crc
