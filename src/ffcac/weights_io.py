"""Binary weight container.

Layout (all integers little-endian):

    bytes  0-4   magic "MEEW1"
    u32          tensor count
    per tensor:
        u16      name length, then that many UTF-8 bytes
        u8       rank
        u64*rank extents
        u8       dtype tag (0 = f32, 1 = f64)
        raw      values, little-endian IEEE 754, C (row-major) order
    u32          label count (0 when the container holds no label table)
    per label:
        u16      byte length, then that many UTF-8 bytes

A 0-d value is stored as one element of rank 1. Weights default to f32 on
disk; in-memory math stays f64.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import struct
from typing import BinaryIO

import numpy as np

from .errors import IngestionError, WeightsFormatError

MAGIC = b"MEEW1"
_DTYPE_TAGS = {"f32": 0, "f64": 1}
_TAG_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
MAX_TEXT_BYTES = 0xFFFF  # a name or label has a u16 byte length


def serialize_container(tensors, labels=(), dtype: str = "f32") -> bytes:
    """Encode named float arrays (+ optional label table) to bytes."""
    return b"".join(container_parts(tensors, labels, dtype))


def save_container(path, tensors, labels=(), dtype: str = "f32") -> None:
    """Write the container to ``path``. Its parts are built before the file
    is opened, so an input that cannot be encoded leaves the file as it was."""
    parts = container_parts(tensors, labels, dtype)
    with open(path, "wb") as fh:
        fh.writelines(parts)


def container_digest(tensors, labels=(), dtype: str = "f32") -> str:
    """The sha256 hex digest of the container's bytes, hashed part by part."""
    digest = hashlib.sha256()
    for part in container_parts(tensors, labels, dtype):
        digest.update(part)
    return digest.hexdigest()


def container_parts(tensors, labels=(), dtype: str = "f32") -> list:
    """The container as buffers, tensor values as views: writing or hashing
    them in turn skips the joined copy. Labels must be str, since the table
    stores text: any other label would reload as a different value."""
    if dtype not in _DTYPE_TAGS:
        raise WeightsFormatError(f"unsupported container dtype {dtype!r}")
    tag = _DTYPE_TAGS[dtype]
    np_dtype = _TAG_DTYPES[tag]
    parts = [MAGIC, struct.pack("<I", len(tensors))]
    seen = set()
    for name, values in tensors:
        if name in seen:
            raise WeightsFormatError(f"duplicate tensor name {name!r}")
        seen.add(name)
        values = np.ascontiguousarray(values, dtype=np_dtype)
        parts += [*_text(name, "tensor name"),
                  struct.pack(f"<B{values.ndim}QB", values.ndim, *values.shape, tag),
                  values.reshape(-1).view(np.uint8)]
    parts.append(struct.pack("<I", len(labels)))
    for label in labels:
        if not isinstance(label, str):  # it would reload as its str()
            raise WeightsFormatError(f"label {label!r} is not a string")
        parts += _text(label, "label")
    return parts


def _text(text: str, what: str) -> list:
    """A u16 byte length, then the UTF-8 bytes of ``text``."""
    raw = text.encode("utf-8")
    if len(raw) > MAX_TEXT_BYTES:
        raise WeightsFormatError(f"{what} of {len(raw)} UTF-8 bytes exceeds {MAX_TEXT_BYTES}")
    return [struct.pack("<H", len(raw)), raw]


class _Cursor:
    """Reads a container from a binary file of ``size`` bytes; tensor values
    go from the file straight into their arrays."""

    def __init__(self, fh, size: int):
        self.fh, self.size, self.pos = fh, size, 0

    def take(self, n: int, dtype: np.dtype | None = None):
        """The next n bytes, as a bytearray or, given ``dtype``, a new array."""
        if self.pos + n > self.size:
            raise WeightsFormatError(
                f"truncated container: wanted {n} bytes at offset {self.pos}, "
                f"have {self.size - self.pos}"
            )
        out = bytearray(n) if dtype is None else np.empty(n // dtype.itemsize, dtype=dtype)
        if self.fh.readinto(out) != n:  # the file shrank after its size was taken
            raise WeightsFormatError(f"truncated container: file shrank at offset {self.pos}")
        self.pos += n
        return out

    def uint(self, fmt: str) -> int:
        """One little-endian unsigned integer of struct format ``fmt``."""
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))[0]

    def text(self) -> str:
        """A u16 byte length, then that many UTF-8 bytes."""
        raw = self.take(self.uint("<H"))
        try:
            return str(raw, "utf-8")
        except UnicodeDecodeError as e:
            raise WeightsFormatError(
                f"invalid UTF-8 at offset {self.pos - len(raw) + e.start}: {e.reason}"
            ) from None


def parse_container(data: bytes) -> tuple[dict[str, np.ndarray], list[str]]:
    """Decode container bytes; tensors come back as float64 arrays."""
    return _read_container(io.BytesIO(data), len(data))


def _read_container(fh, size: int) -> tuple[dict[str, np.ndarray], list[str]]:
    cur = _Cursor(fh, size)
    if cur.take(len(MAGIC)) != MAGIC:
        raise WeightsFormatError("bad magic: not a weight container")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(cur.uint("<I")):
        name = cur.text()
        if name in tensors:
            raise WeightsFormatError(f"duplicate tensor name {name!r}")
        rank = cur.uint("<B")
        shape = struct.unpack(f"<{rank}Q", cur.take(8 * rank))
        tag = cur.uint("<B")
        if tag not in _TAG_DTYPES:
            raise WeightsFormatError(f"unknown dtype tag {tag} for tensor {name!r}")
        np_dtype = _TAG_DTYPES[tag]
        # exact integer product: extents whose product overflows int64 must
        # read as a truncated container, not wrap round to a small count
        values = cur.take(math.prod(shape) * np_dtype.itemsize, np_dtype)
        try:
            values = values.reshape(shape)
        except ValueError:
            raise WeightsFormatError(f"tensor {name!r} has unusable extents {shape}") from None
        tensors[name] = values.astype(np.float64, copy=False)
    labels = [cur.text() for _ in range(cur.uint("<I"))]
    if cur.pos != size:
        raise WeightsFormatError(f"{size - cur.pos} trailing bytes after container")
    return tensors, labels


def open_input(path) -> BinaryIO:
    """Open an input file for binary reading; a path that cannot be opened
    (missing, a directory, unreadable, a NUL byte) raises IngestionError."""
    try:
        return open(path, "rb")
    except FileNotFoundError:
        raise IngestionError(f"{path}: no such file") from None
    except OSError as e:
        raise IngestionError(f"{path}: cannot open ({e.strerror})") from e
    except ValueError as e:  # "embedded null byte"
        raise IngestionError(f"{str(path)!r}: cannot open ({e})") from e


def read_text(path) -> str:
    """An input file's UTF-8 text, newlines translated as ``Path.read_text`` does."""
    with io.TextIOWrapper(open_input(path), encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise IngestionError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from e


def load_container(path) -> tuple[dict[str, np.ndarray], list[str]]:
    with open_input(path) as fh:
        return _read_container(fh, os.fstat(fh.fileno()).st_size)
