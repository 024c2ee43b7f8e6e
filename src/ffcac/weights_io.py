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

import math
import struct
from pathlib import Path

import numpy as np

from .errors import IngestionError, WeightsFormatError

MAGIC = b"MEEW1"
_DTYPE_TAGS = {"f32": 0, "f64": 1}
_TAG_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def serialize_container(tensors, labels=(), dtype: str = "f32") -> bytes:
    """Encode named float arrays (+ optional label table) to bytes."""
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
        raw_name = name.encode("utf-8")
        values = np.ascontiguousarray(values, dtype=np_dtype)
        parts.append(struct.pack("<H", len(raw_name)))
        parts.append(raw_name)
        parts.append(struct.pack("<B", values.ndim))
        parts.append(struct.pack(f"<{values.ndim}Q", *values.shape))
        parts.append(struct.pack("<B", tag))
        parts.append(values.reshape(-1).view(np.uint8))  # a view: the join below is the one copy
    parts.append(struct.pack("<I", len(labels)))
    for label in labels:
        raw = str(label).encode("utf-8")
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
    return b"".join(parts)


class _Cursor:
    """Reads through a memoryview, so ``take`` slices without copying."""

    def __init__(self, data: bytes):
        self.data = memoryview(data)
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.data):
            raise WeightsFormatError(
                f"truncated container: wanted {n} bytes at offset {self.pos}, "
                f"have {len(self.data) - self.pos}"
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def text(self) -> str:
        """A u16 byte length, then that many UTF-8 bytes."""
        raw = self.take(self.u16())
        try:
            return str(raw, "utf-8")
        except UnicodeDecodeError as e:
            raise WeightsFormatError(
                f"invalid UTF-8 at offset {self.pos - len(raw) + e.start}: {e.reason}"
            ) from None


def parse_container(data: bytes) -> tuple[dict[str, np.ndarray], list[str]]:
    """Decode container bytes; tensors come back as float64 arrays."""
    cur = _Cursor(data)
    if cur.take(len(MAGIC)) != MAGIC:
        raise WeightsFormatError("bad magic: not a weight container")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(cur.u32()):
        name = cur.text()
        if name in tensors:
            raise WeightsFormatError(f"duplicate tensor name {name!r}")
        rank = cur.u8()
        shape = struct.unpack(f"<{rank}Q", cur.take(8 * rank))
        tag = cur.u8()
        if tag not in _TAG_DTYPES:
            raise WeightsFormatError(f"unknown dtype tag {tag} for tensor {name!r}")
        np_dtype = _TAG_DTYPES[tag]
        # exact integer product: extents whose product overflows int64 must
        # read as a truncated container, not wrap round to a small count
        raw = cur.take(math.prod(shape) * np_dtype.itemsize)
        try:
            values = np.frombuffer(raw, dtype=np_dtype).reshape(shape)
        except ValueError:
            raise WeightsFormatError(f"tensor {name!r} has unusable extents {shape}") from None
        tensors[name] = values.astype(np.float64)
    labels = [cur.text() for _ in range(cur.u32())]
    if cur.pos != len(data):
        raise WeightsFormatError(f"{len(data) - cur.pos} trailing bytes after container")
    return tensors, labels


def load_container(path) -> tuple[dict[str, np.ndarray], list[str]]:
    path = Path(path)
    if not path.exists():
        raise IngestionError(f"{path}: no such file")
    return parse_container(path.read_bytes())
