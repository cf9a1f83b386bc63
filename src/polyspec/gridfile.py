"""Binary sampled-grid files ("PSPC" format).

Layout, all little-endian:

    offset  size  field
    0       4     magic, ASCII "PSPC"
    4       4     format version, u32 (currently 1)
    8       4     n  (number of complex variables, at least 1), u32
    12      4     q  (form degree the samples belong to), u32
    16      8*n   per variable: radial node count u32, angular node count u32
    ...           payload: float64 pairs (re, im), C order, logical shape
                  (R_1, T_1, ..., R_n, T_n)

Samples live on the canonical quadrature grid of `spectral_ops`:
Gauss-Legendre radial nodes on [0, a_k] crossed with uniform angles
2*pi*t/T_k.  Radii are not stored; the consumer supplies them (they are
part of the request, like J), and the node positions then follow from the
counts.
"""

from __future__ import annotations

import math
import numbers
import os
import struct

import numpy as np

from .errors import InvalidArgumentError

__all__ = ["GRID_MAGIC", "GRID_VERSION", "write_grid", "read_grid"]

GRID_MAGIC = b"PSPC"
GRID_VERSION = 1


def write_grid(path: str, n: int, q: int, counts: list[tuple[int, int]], samples: np.ndarray) -> None:
    """Write complex samples for one coefficient function to `path`.

    `counts` holds (radial, angular) node counts per variable and must match
    the sample array shape (radial and angular axes interleaved).  n >= 1,
    q and the counts must be integers that fit a u32, each variable's counts
    a pair, and the samples numbers; everything is checked before the file
    is opened.  A C-contiguous complex128 array is written as it lies,
    without a copy.
    """
    _check_u32("n", n)
    _check_u32("q", q)
    if n == 0:
        raise InvalidArgumentError("a grid needs at least one variable, got n = 0")
    try:
        pairs = [tuple(pair) for pair in counts]
    except TypeError:  # counts, or one of its entries, is not iterable
        pairs = [()]
    if not all(len(pair) == 2 for pair in pairs):
        raise InvalidArgumentError(f"node counts must be (radial, angular) pairs, got {counts!r}")
    if len(pairs) != n:
        raise InvalidArgumentError(f"expected {n} per-variable node counts, got {len(pairs)}")
    shape = tuple(c for pair in pairs for c in pair)
    for c in shape:
        _check_u32("node count", c)
    try:
        arr = np.ascontiguousarray(samples, dtype="<c16")
    except (TypeError, ValueError):
        raise InvalidArgumentError("samples must be an array of complex numbers") from None
    if arr.shape != shape:
        raise InvalidArgumentError(f"sample shape {arr.shape} does not match counts {shape}")
    header = struct.pack("<4sIII", GRID_MAGIC, GRID_VERSION, n, q)
    header += b"".join(struct.pack("<II", r, t) for r, t in pairs)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(arr.data)


def _check_u32(name: str, value) -> None:
    if not isinstance(value, numbers.Integral) or not (0 <= value < 2**32):
        raise InvalidArgumentError(f"{name} must be an integer in [0, 2**32), got {value!r}")


def read_grid(path: str) -> tuple[int, int, list[tuple[int, int]], np.ndarray]:
    """Read a grid file; returns (n, q, counts, samples).

    The payload's length is checked against the file's size before any of
    it is read, and it is then read straight into the returned writable
    complex128 array, so a read holds one payload's worth of memory.
    """
    with open(path, "rb") as fh:
        head = fh.read(16)
        if len(head) < 16:
            raise InvalidArgumentError(f"{path}: truncated header")
        magic, version, n, q = struct.unpack("<4sIII", head)
        if magic != GRID_MAGIC:
            raise InvalidArgumentError(f"{path}: bad magic {magic!r}")
        if version != GRID_VERSION:
            raise InvalidArgumentError(f"{path}: unsupported version {version}")
        if n == 0:
            raise InvalidArgumentError(f"{path}: a grid needs at least one variable, got n = 0")
        counts = []
        for _ in range(n):
            pair = fh.read(8)
            if len(pair) < 8:
                raise InvalidArgumentError(f"{path}: truncated node counts")
            counts.append(struct.unpack("<II", pair))
        shape = tuple(c for pair in counts for c in pair)
        # math.prod: a numpy product wraps in int64 for large counts
        expected = math.prod(shape) * 16
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size == expected:
            samples = np.empty(shape, dtype="<c16")
            size = fh.readinto(samples.data)
        if size != expected:
            raise InvalidArgumentError(
                f"{path}: payload is {size} bytes, expected {expected}"
            )
    return n, q, counts, samples.astype(np.complex128, copy=False)
