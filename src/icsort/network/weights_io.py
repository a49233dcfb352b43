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

import os
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
    """Reads an open file in order, each piece checked against the file's size first."""

    def __init__(self, fh, path):
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.offset = 0
        self.path = path

    def _claim(self, size: int) -> None:
        if self.offset + size > self.size:
            raise DataError(f"{self.path}: truncated weights file")
        self.offset += size

    def take(self, size: int) -> bytes:
        self._claim(size)
        data = self.fh.read(size)
        if len(data) != size:  # the file shrank after its size was read
            raise DataError(f"{self.path}: truncated weights file")
        return data

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def floats(self, shape: tuple) -> np.ndarray:
        """The next ``prod(shape)`` little-endian floats, read straight into a new array."""
        out = np.empty(shape, dtype="<f4")
        self._claim(out.nbytes)
        if self.fh.readinto(out) != out.nbytes:
            raise DataError(f"{self.path}: truncated weights file")
        return out


def load_weights(path) -> NetworkWeights:
    """Read a weights file and validate it against the architecture.

    Each kernel and bias is read into its own array, the one copy of the
    values held; on a little-endian host the float32 cast is that array.
    """
    with open(path, "rb") as fh:
        reader = _Reader(fh, path)
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
            name = str(reader.take(reader.u32()), "utf-8", errors="replace")
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
            kernel = reader.floats(shape)
            bias = reader.floats((spec.out_channels,))
            if not (np.all(np.isfinite(kernel)) and np.all(np.isfinite(bias))):
                raise DataError(f"{path}: layer {name!r} contains non-finite weights")
            weights.kernels[name] = kernel.astype(np.float32, copy=False)
            weights.biases[name] = bias.astype(np.float32, copy=False)
        if fh.read(1):  # every read so far had its exact size
            raise DataError(f"{path}: trailing bytes after the last layer")
    return weights
