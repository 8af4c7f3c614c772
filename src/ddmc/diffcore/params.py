"""Named parameter sets and their binary serialization.

A ParamSet is an ordered name -> Tensor map.  The name -> shape map
freezes once a network finishes registering its tensors; values stay
trainable.  BatchNorm running statistics live here too as non-trainable
tensors so checkpoint hashes cover them.

Binary layout (little-endian throughout), format version 1:

    magic   4 bytes  b"DDMC"
    version u16
    count   u32
    per tensor, in insertion order:
        name_len u16, name utf-8
        rank     u8
        extents  rank * u32
        values   float32, C order
"""

import hashlib
import struct

import numpy as np

from ..errors import (BadMagicError, ParamError, TruncatedFileError,
                      VersionMismatchError)
from .tensor import Tensor

MAGIC = b"DDMC"
FORMAT_VERSION = 1

# Names with these suffixes deserialize as non-trainable buffers.
_BUFFER_SUFFIXES = (".running_mean", ".running_var")


class ParamSet:
    """Ordered, freezable mapping of parameter names to tensors."""

    def __init__(self):
        self._tensors = {}
        self._frozen = False

    def add(self, name, tensor):
        if self._frozen:
            raise ParamError("parameter set is frozen, cannot add %r" % name)
        if name in self._tensors:
            raise ParamError("duplicate parameter name %r" % name)
        if not isinstance(tensor, Tensor):
            raise ParamError("parameter %r must be a Tensor" % name)
        self._tensors[name] = tensor

    def freeze(self):
        """Make the name -> shape map immutable (values stay writable)."""
        self._frozen = True

    def __getitem__(self, name):
        try:
            return self._tensors[name]
        except KeyError:
            raise ParamError("unknown parameter %r" % name) from None

    def __contains__(self, name):
        return name in self._tensors

    def __len__(self):
        return len(self._tensors)

    def items(self):
        return list(self._tensors.items())

    def trainable_items(self):
        return [(n, t) for n, t in self._tensors.items() if t.requires_grad]

    def zero_grads(self):
        for t in self._tensors.values():
            t.zero_grad()

    def to_bytes(self):
        out = bytearray(MAGIC)
        out += struct.pack("<H", FORMAT_VERSION)
        out += struct.pack("<I", len(self._tensors))
        for name, t in self._tensors.items():
            nb = name.encode("utf-8")
            arr = np.ascontiguousarray(t.data, dtype="<f4")
            out += struct.pack("<H", len(nb))
            out += nb
            out += struct.pack("<B", arr.ndim)
            out += struct.pack("<%dI" % arr.ndim, *arr.shape)
            out += arr.tobytes()
        return bytes(out)

    @classmethod
    def from_bytes(cls, buf, offset=0):
        """Decode one serialized set; returns (ParamSet, next_offset)."""
        view = memoryview(buf)

        def take(n, what):
            nonlocal offset
            if offset + n > len(view):
                raise TruncatedFileError(
                    "parameter blob ended reading %s" % what)
            piece = view[offset:offset + n]
            offset += n
            return piece

        if bytes(take(4, "magic")) != MAGIC:
            raise BadMagicError("expected %r parameter blob" % MAGIC)
        version, = struct.unpack("<H", take(2, "version"))
        if version != FORMAT_VERSION:
            raise VersionMismatchError(
                "parameter format version %d, expected %d"
                % (version, FORMAT_VERSION))
        count, = struct.unpack("<I", take(4, "tensor count"))
        ps = cls()
        for _ in range(count):
            nlen, = struct.unpack("<H", take(2, "name length"))
            name = bytes(take(nlen, "name")).decode("utf-8")
            rank, = struct.unpack("<B", take(1, "rank"))
            shape = struct.unpack("<%dI" % rank,
                                  take(4 * rank, "extents of %r" % name))
            size = int(np.prod(shape, dtype=np.int64)) if rank else 1
            raw = take(4 * size, "values of %r" % name)
            arr = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
            trainable = not name.endswith(_BUFFER_SUFFIXES)
            ps.add(name, Tensor(arr, requires_grad=trainable))
        ps.freeze()
        return ps, offset

    def content_hash(self):
        """SHA-256 over the serialized bytes; stable iff every value is."""
        return hashlib.sha256(self.to_bytes()).hexdigest()
