"""Versioned binary container for caches and checkpoints.

One format serves the spectrum cache (SPEC1), the filter-bank cache (FBK1),
the ground-truth geodesic cache (GEO1) and model checkpoints (CKPT1): an
8-byte magic, a little-endian u32 version, a table of (name, dtype, shape,
offset) entries, then the raw arrays. Metadata travels as a JSON blob
stored under the reserved entry name "__meta__". Writes are atomic (temp
file + rename).
"""

import json
import os
import struct

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


def write_container(path, kind, arrays, meta=None):
    """Write named arrays (and optional JSON-able metadata) atomically."""
    items = dict(arrays)
    if meta is not None:
        items[_META] = np.frombuffer(
            json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8)

    entries = []
    for name, arr in items.items():
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
        table_size += 2 + len(name.encode()) + 1 + 1 + 8 * arr.ndim + 8
    offset = len(header) + table_size
    for name, arr in entries:
        nb = name.encode("utf-8")
        table += struct.pack("<H", len(nb)) + nb
        table += struct.pack("<BB", _CODES[arr.dtype], arr.ndim)
        table += struct.pack(f"<{arr.ndim}Q", *arr.shape)
        table += struct.pack("<Q", offset)
        offset += arr.nbytes

    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(bytes(header))
        fh.write(bytes(table))
        for _, arr in entries:
            fh.write(_bytes_of(arr))
    os.replace(tmp, str(path))


def _bytes_of(arr):
    """A contiguous array's bytes as a writable view, without a copy."""
    return arr.reshape(-1).view(np.uint8)


def read_container(path, kind=None):
    """Read back (arrays, meta). Raises CorruptCache on any malformation.

    Each array is read straight into its own buffer, so reading holds no
    second copy of the file."""
    try:
        with open(path, "rb") as fh:
            return _read_entries(fh, path, kind)
    except CorruptCache:
        raise
    except OSError as exc:
        raise CorruptCache(f"{path}: {exc}") from exc
    except Exception as exc:
        raise CorruptCache(f"{path}: malformed container ({exc})") from exc


def _read_entries(fh, path, kind):
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
        table.append((name, np.dtype(_DTYPES[code]), shape, offset))
    arrays = {}
    for name, dtype, shape, offset in table:
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if offset + nbytes > size:
            raise CorruptCache(f"{path}: array {name!r} runs past the end")
        arr = np.empty(shape, dtype=dtype)
        fh.seek(offset)
        fh.readinto(_bytes_of(arr))
        arrays[name] = arr
    meta = None
    if _META in arrays:
        meta = json.loads(arrays.pop(_META).tobytes().decode("utf-8"))
    return arrays, meta
