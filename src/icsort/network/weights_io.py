"""Binary serialization of classifier weights.

Layout (all integers little-endian unsigned 32-bit, floats little-endian
IEEE 754 single precision):

* magic bytes ``ICLW``, format version, layer count;
* per layer, in graph order: name length and UTF-8 name, kernel rank,
  kernel dimensions, kernel values in row-major order, then one bias value
  per output channel.

Loading validates the magic, version, layer set, every shape against the
fixed architecture and the finiteness of every value, so a loaded file is
always usable directly.
"""

from __future__ import annotations

import struct

import numpy as np

from ..bundles import atomic_write_bytes
from ..errors import DataError
from .model import ARCHITECTURE, NetworkWeights

MAGIC = b"ICLW"
VERSION = 1


def save_weights(path, weights: NetworkWeights) -> None:
    """Write weights to ``path`` atomically (``bundles.atomic_write_bytes``);
    values are stored in single precision."""
    weights.validate()
    chunks = [MAGIC, struct.pack("<II", VERSION, len(ARCHITECTURE))]
    for spec in ARCHITECTURE:
        kernel = np.ascontiguousarray(weights.kernels[spec.name], dtype="<f4")
        bias = np.ascontiguousarray(weights.biases[spec.name], dtype="<f4")
        name = spec.name.encode()
        chunks.append(struct.pack("<I", len(name)))
        chunks.append(name)
        chunks.append(struct.pack("<I", kernel.ndim))
        chunks.append(struct.pack(f"<{kernel.ndim}I", *kernel.shape))
        chunks.append(kernel.tobytes())
        chunks.append(bias.tobytes())
    atomic_write_bytes(path, b"".join(chunks))


class _Reader:
    def __init__(self, data: bytes, path):
        self.data = data
        self.offset = 0
        self.path = path

    def take(self, size: int) -> bytes:
        if self.offset + size > len(self.data):
            raise DataError(f"{self.path}: truncated weights file")
        out = self.data[self.offset : self.offset + size]
        self.offset += size
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def load_weights(path) -> NetworkWeights:
    """Read a weights file and validate it against the architecture."""
    with open(path, "rb") as fh:
        reader = _Reader(fh.read(), path)
    if reader.take(4) != MAGIC:
        raise DataError(f"{path}: not a weights file (bad magic)")
    version = reader.u32()
    if version != VERSION:
        raise DataError(f"{path}: unsupported weights version {version}")
    n_layers = reader.u32()
    if n_layers != len(ARCHITECTURE):
        raise DataError(f"{path}: expected {len(ARCHITECTURE)} layers, found {n_layers}")

    weights = NetworkWeights()
    for spec in ARCHITECTURE:
        name = reader.take(reader.u32()).decode("utf-8", errors="replace")
        if name != spec.name:
            raise DataError(f"{path}: expected layer {spec.name!r}, found {name!r}")
        rank = reader.u32()
        if rank != len(spec.weight_shape):
            raise DataError(
                f"{path}: layer {name!r} kernel must have rank {len(spec.weight_shape)}, "
                f"found {rank}"
            )
        shape = tuple(reader.u32() for _ in range(rank))
        if shape != spec.weight_shape:
            raise DataError(
                f"{path}: layer {name!r} kernel must be {spec.weight_shape}, found {shape}"
            )
        count = int(np.prod(shape))
        kernel = np.frombuffer(reader.take(4 * count), dtype="<f4").reshape(shape)
        bias = np.frombuffer(reader.take(4 * spec.out_channels), dtype="<f4")
        if not (np.all(np.isfinite(kernel)) and np.all(np.isfinite(bias))):
            raise DataError(f"{path}: layer {name!r} contains non-finite weights")
        weights.kernels[name] = kernel.astype(np.float32)
        weights.biases[name] = bias.astype(np.float32)
    if reader.offset != len(reader.data):
        raise DataError(f"{path}: trailing bytes after the last layer")
    weights.version = version
    return weights
