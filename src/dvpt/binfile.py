"""Shared I/O for the two little-endian binary formats (``DVPT``
checkpoints, ``DVDS`` datasets): an atomic, durable write, which writes
every file the package writes (those two and ``dvpt finetune --history``'s
CSV), and a bounds-checked reader that turns every malformed byte into one
error type.

The reader takes header fields from the open file one by one, then reads
a file's whole payload in ``CHUNK``-byte reads into one fresh buffer; the
loaded arrays are views of that buffer, so a loader holds one copy of the
payload at a time, and keeping any one loaded array alive keeps the whole
buffer alive.  A checkpoint's CRC32 is computed while its payload is read:
on a worker thread, one chunk behind the read, when the payload spans more
than one chunk, and on the caller's thread after its one read otherwise.
"""

import math
import os
import queue
import struct
import threading
import zlib

import numpy as np

ALIGN = 64  # byte boundary the payload buffer starts on
CHUNK = 16 * 2 ** 20  # bytes per payload read; a larger payload is checked on a worker


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

    def arrays(self, entries, crc=False):
        """Writable arrays for ``[(dtype, shape, what), ...]``, read from
        the next bytes in order, and the CRC32 of those bytes if ``crc``
        (else None).  A payload of more than one ``CHUNK`` is hashed on a
        worker thread one chunk behind the read; a smaller one on this
        thread after its one read.

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
        if crc and total > CHUNK:
            digest = _crc32_behind(self._read_chunks(buf))
        else:
            for _ in self._read_chunks(buf):
                pass
            digest = zlib.crc32(buf) if crc else None
        self.offset = end
        views = [buf[start:start + nbytes].view(dtype).reshape(shape)
                 for dtype, shape, start, nbytes in spans]
        return views, digest

    def _read_chunks(self, buf):
        """Fill ``buf`` from the file ``CHUNK`` bytes at a time, yielding
        each chunk once it is read."""
        total = len(buf)
        for start in range(0, total, CHUNK):
            chunk = buf[start:start + CHUNK]
            got = self.fh.readinto(chunk)
            if got != len(chunk):
                raise self._short("payload", start + got, total)
            yield chunk


def _crc32_behind(chunks):
    """The CRC32 of the chunks ``chunks`` yields, each computed on a worker
    thread while the caller takes the next one; the worker is joined
    before this returns or raises, and an exception it raised is raised
    here."""
    todo, done = queue.SimpleQueue(), queue.SimpleQueue()
    worker = threading.Thread(target=_crc32_worker, args=(todo, done), name="dvpt-crc32")
    worker.start()
    crc, pending = 0, False
    try:
        for chunk in chunks:
            if pending:  # the previous chunk's CRC, so at most one chunk waits
                crc = _result(done.get())
            todo.put(chunk)
            pending = True
        if pending:
            crc = _result(done.get())
    finally:
        todo.put(None)
        worker.join()
    return crc


def _crc32_worker(todo, done):
    """Put the running CRC32 after each chunk taken from ``todo`` until it
    hands over None, or put the exception that stopped it."""
    crc = 0
    try:
        while (chunk := todo.get()) is not None:
            crc = zlib.crc32(chunk, crc)
            done.put(crc)
    except BaseException as exc:  # handed to the caller, which raises it
        done.put(exc)


def _result(item):
    """``item``, unless it is the worker's exception, which is raised."""
    if isinstance(item, BaseException):
        raise item
    return item
