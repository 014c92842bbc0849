"""Versioned binary container for caches and checkpoints.

One format serves the spectrum cache (SPEC1), the filter-bank cache (FBK1),
the ground-truth geodesic cache (GEO1) and model checkpoints (CKPT1): an
8-byte magic, a little-endian u32 version, a table of (name, dtype, shape,
offset) entries, then the raw arrays. Metadata travels as a JSON blob
stored under the reserved entry name "__meta__". Writes are atomic (temp
file + rename; the temp file is removed when a write fails).

An array too large to hold whole is written as `RowBlocks`, one block of
rows at a time, and its bytes in the file are the same either way. A reader
that needs only some elements of an array names them in
`read_container(..., pick=...)`, which reads just those.
"""

import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CorruptCache

VERSION = 1
KINDS = ("SPEC1", "FBK1", "GEO1", "CKPT1")
_DTYPES = {0: np.float64, 1: np.int64, 2: np.uint8, 3: np.float32}
_CODES = {np.dtype(np.float64): 0, np.dtype(np.int64): 1,
          np.dtype(np.uint8): 2, np.dtype(np.float32): 3}
_META = "__meta__"


def _magic(kind):
    if kind not in KINDS:
        raise ValueError(f"unknown container kind {kind!r}")
    return kind.encode("ascii").ljust(8, b"\x00")


@dataclass
class RowBlocks:
    """An array of `shape` and `dtype` as consecutive blocks of its rows.

    `blocks` is iterated once; its arrays stack along axis 0 to the whole.
    Iterating a RowBlocks iterates its blocks."""

    shape: tuple
    dtype: np.dtype
    blocks: object

    def __post_init__(self):
        self.shape = tuple(self.shape)
        self.dtype = np.dtype(self.dtype)

    def __iter__(self):
        return iter(self.blocks)

    @property
    def nbytes(self):
        return int(np.prod(self.shape, dtype=np.int64)) * self.dtype.itemsize


def write_container(path, kind, arrays, meta=None):
    """Write named arrays (and optional JSON-able metadata) atomically.

    An array given as RowBlocks is written block by block as it is made."""
    items = dict(arrays)
    if meta is not None:
        items[_META] = np.frombuffer(
            json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8)

    entries = []
    for name, arr in items.items():
        if not isinstance(arr, RowBlocks):
            arr = np.ascontiguousarray(arr)
            if arr.dtype not in _CODES:
                arr = arr.astype(np.float64)
        entries.append((name, arr))

    header = bytearray()
    header += _magic(kind)
    header += struct.pack("<II", VERSION, len(entries))
    table = bytearray()
    table_size = 0
    for name, arr in entries:
        table_size += 2 + len(name.encode()) + 1 + 1 + 8 * len(arr.shape) + 8
    offset = len(header) + table_size
    for name, arr in entries:
        nb = name.encode("utf-8")
        table += struct.pack("<H", len(nb)) + nb
        table += struct.pack("<BB", _CODES[arr.dtype], len(arr.shape))
        table += struct.pack(f"<{len(arr.shape)}Q", *arr.shape)
        table += struct.pack("<Q", offset)
        offset += arr.nbytes

    tmp = str(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(bytes(header))
            fh.write(bytes(table))
            for name, arr in entries:
                if isinstance(arr, RowBlocks):
                    _write_blocks(fh, name, arr)
                else:
                    fh.write(_bytes_of(arr))
        os.replace(tmp, str(path))
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_blocks(fh, name, arr):
    rows = 0
    for block in arr:
        block = np.ascontiguousarray(block, dtype=arr.dtype)
        if block.shape[1:] != arr.shape[1:] \
                or rows + block.shape[0] > arr.shape[0]:
            raise ValueError(
                f"block of shape {block.shape} does not fit {name!r} of "
                f"shape {arr.shape} after {rows} rows")
        fh.write(_bytes_of(block))
        rows += block.shape[0]
    if rows != arr.shape[0]:
        raise ValueError(
            f"blocks of {name!r} hold {rows} of its {arr.shape[0]} rows")


def _bytes_of(arr):
    """A contiguous array's bytes as a writable view, without a copy."""
    return arr.reshape(-1).view(np.uint8)


def read_container(path, kind=None, pick=None):
    """Read back (arrays, meta). Raises CorruptCache on any malformation.

    Each array is read straight into its own buffer, so reading holds no
    second copy of the file. `pick` maps an array name to flat (C-order)
    element indices: that array comes back as the 1-D array of those
    elements, each read with one `os.pread`, so the read holds only them.
    A pick outside its array raises IndexError, not CorruptCache: the file
    is sound. Every check of the header and of the file's size is made
    before any array is read."""
    try:
        with open(path, "rb") as fh:
            return _read_entries(fh, path, kind, pick or {})
    except (CorruptCache, IndexError):
        raise
    except OSError as exc:
        raise CorruptCache(f"{path}: {exc}") from exc
    except Exception as exc:
        raise CorruptCache(f"{path}: malformed container ({exc})") from exc


def _read_entries(fh, path, kind, pick):
    size = os.fstat(fh.fileno()).st_size

    def take(fmt):
        n = struct.calcsize(fmt)
        data = fh.read(n)
        if len(data) != n:
            raise CorruptCache(f"{path}: truncated header")
        return struct.unpack(fmt, data)

    magic = fh.read(8)
    found = magic.rstrip(b"\x00").decode("ascii", errors="replace")
    if kind is not None and magic != _magic(kind):
        raise CorruptCache(f"{path}: expected {kind} container, found {found!r}")
    if found not in KINDS:
        raise CorruptCache(f"{path}: bad magic {found!r}")
    version, count = take("<II")
    if version != VERSION:
        raise CorruptCache(f"{path}: unsupported version {version}")
    table = []
    for _ in range(count):
        (name_len,) = take("<H")
        name = fh.read(name_len).decode("utf-8")
        code, ndim = take("<BB")
        shape = take(f"<{ndim}Q")
        (offset,) = take("<Q")
        dtype = np.dtype(_DTYPES[code])
        if offset + int(np.prod(shape, dtype=np.int64)) * dtype.itemsize > size:
            raise CorruptCache(f"{path}: array {name!r} runs past the end")
        table.append((name, dtype, shape, offset))
    arrays = {}
    for name, dtype, shape, offset in table:
        if name in pick:
            arrays[name] = _picked(fh, path, name, dtype, shape, offset,
                                   pick[name])
            continue
        arr = np.empty(shape, dtype=dtype)
        fh.seek(offset)
        fh.readinto(_bytes_of(arr))
        arrays[name] = arr
    meta = None
    if _META in arrays:
        meta = json.loads(arrays.pop(_META).tobytes().decode("utf-8"))
    return arrays, meta


def _picked(fh, path, name, dtype, shape, offset, idx):
    """The elements at flat indices `idx` of the array at `offset`, one
    `os.pread` each."""
    idx = np.asarray(idx, dtype=np.int64).reshape(-1)
    count = int(np.prod(shape, dtype=np.int64))
    if idx.size and (idx.min() < 0 or idx.max() >= count):
        raise IndexError(
            f"{path}: pick outside array {name!r} of {count} elements")
    fd, width = fh.fileno(), dtype.itemsize
    data = bytearray()
    for at in offset + width * idx:
        data += os.pread(fd, width, at)
    if len(data) != width * idx.size:
        raise CorruptCache(f"{path}: file shrank while read")
    return np.frombuffer(data, dtype=dtype)
