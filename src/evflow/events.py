"""Event streams and their EVB1 serialization.

An event is one pixel-level brightness change: timestamp in microseconds,
pixel coordinates, and a polarity (brighter / darker). Streams keep events
in non-decreasing timestamp order and store them as column arrays so that
windowing and accumulation stay vectorized.

Binary format EVB1 (little-endian throughout), header struct format "<4sHH":

    magic "EVB1" | width u16 | height u16 | N x record
    record (13 bytes): t u64 (microseconds) | x u16 | y u16 | p u8 (1/0)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    BadMagic,
    EvflowError,
    InvalidInterval,
    NonMonotonic,
    OutOfBounds,
    TruncatedRecord,
)

EVB1_MAGIC = b"EVB1"
_EVB1_HEADER = struct.Struct("<4sHH")  # magic, width, height
HEADER_SIZE = _EVB1_HEADER.size
RECORD_SIZE = 13
T_MAX = 2**64 - 1  # the largest u64 timestamp

_RECORD_DTYPE = np.dtype([("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "u1")])
assert _RECORD_DTYPE.itemsize == RECORD_SIZE


@dataclass(frozen=True)
class SensorGeometry:
    width: int
    height: int

    def __post_init__(self):
        # x, y and the EVB1 header are u16
        if not (0 < self.width <= 0xFFFF and 0 < self.height <= 0xFFFF):
            raise ValueError(f"sensor sides must be in 1..65535, got {self.width}x{self.height}")


def _first_violation(
    geometry: SensorGeometry, t: np.ndarray, x: np.ndarray, y: np.ndarray, p: np.ndarray
) -> Optional[EvflowError]:
    """The stream-invariant violation with the lowest index (NonMonotonic on a tie), or None."""
    bad = np.flatnonzero(t[1:] < t[:-1])
    oob = np.flatnonzero((x >= geometry.width) | (y >= geometry.height) | (p > 1))
    i = int(bad[0]) + 1 if bad.size else t.size
    j = int(oob[0]) if oob.size else t.size
    if i < t.size and i <= j:
        return NonMonotonic(f"timestamp decreases at index {i}: {t[i]} < {t[i - 1]}")
    if j < t.size:
        return OutOfBounds(f"event at index {j}: ({x[j]}, {y[j]}) p={p[j]} outside "
                           f"{geometry.width}x{geometry.height}, p in {{0, 1}}")
    return None


class EventStream:
    """Immutable, time-ordered event container.

    Events are stored as four parallel arrays (t: u64, x: u16, y: u16,
    p: u8). The arrays are marked read-only, so a stream is safe to share
    across threads once constructed.
    """

    __slots__ = ("geometry", "t", "x", "y", "p")

    def __init__(self, geometry: SensorGeometry, t, x, y, p, check: bool = True):
        t = np.ascontiguousarray(t, dtype=np.uint64)
        x = np.ascontiguousarray(x, dtype=np.uint16)
        y = np.ascontiguousarray(y, dtype=np.uint16)
        p = np.ascontiguousarray(p, dtype=np.uint8)
        if not (t.shape == x.shape == y.shape == p.shape) or t.ndim != 1:
            raise ValueError("event columns must be equal-length 1D arrays")
        if check:
            violation = _first_violation(geometry, t, x, y, p)
            if violation is not None:
                raise violation
        for arr in (t, x, y, p):
            arr.setflags(write=False)
        object.__setattr__(self, "geometry", geometry)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("EventStream is immutable")

    @classmethod
    def empty(cls, geometry: SensorGeometry) -> "EventStream":
        return cls(geometry, [], [], [], [], check=False)

    @property
    def width(self) -> int:
        return self.geometry.width

    @property
    def height(self) -> int:
        return self.geometry.height

    def __len__(self) -> int:
        return int(self.t.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventStream):
            return NotImplemented
        return self.geometry == other.geometry and all(
            np.array_equal(a, b)
            for a, b in zip((self.t, self.x, self.y, self.p), (other.t, other.x, other.y, other.p))
        )

    def __repr__(self) -> str:
        span = f", t=[{self.t[0]}..{self.t[-1]}]" if len(self) else ""
        return f"EventStream({self.width}x{self.height}, {len(self)} events{span})"


def decode_stream(blob: bytes) -> EventStream:
    """Parse an EVB1 blob into a validated EventStream.

    Raises BadMagic, TruncatedRecord, OutOfBounds, or NonMonotonic.
    """
    if blob[:4] != EVB1_MAGIC:
        raise BadMagic(f"expected {EVB1_MAGIC!r}, got {bytes(blob[:4])!r}")
    if len(blob) < HEADER_SIZE:
        raise TruncatedRecord(f"header needs {HEADER_SIZE} bytes, got {len(blob)}")
    _, width, height = _EVB1_HEADER.unpack_from(blob)
    body = len(blob) - HEADER_SIZE
    if body % RECORD_SIZE:
        raise TruncatedRecord(f"payload of {body} bytes is not a multiple of {RECORD_SIZE}")
    if not (width and height):
        raise BadMagic(f"sensor sides must be positive, got {width}x{height}")
    geom = SensorGeometry(width, height)
    rec = np.frombuffer(blob, dtype=_RECORD_DTYPE, offset=HEADER_SIZE)
    # field views on a 13-byte packed dtype are strided; EventStream copies them out once
    return EventStream(geom, rec["t"], rec["x"], rec["y"], rec["p"])


def encode_stream(s: EventStream) -> bytes:
    """Serialize to EVB1; decode_stream(encode_stream(s)) == s bit-exactly."""
    rec = np.rec.fromarrays([s.t, s.x, s.y, s.p], dtype=_RECORD_DTYPE)
    return _EVB1_HEADER.pack(EVB1_MAGIC, s.width, s.height) + rec.tobytes()


def slice_interval(s: EventStream, t0: int, t1: int) -> EventStream:
    """Events with t0 <= t < t1 (half-open), order preserved."""
    if t0 > t1:
        raise InvalidInterval(f"t0={t0} > t1={t1}")
    # uint64 keys: Python-int keys would convert the whole column to float64.
    # A key past T_MAX bounds at len(s).
    keys = np.array([min(max(t0, 0), T_MAX), min(max(t1, 0), T_MAX)], dtype=np.uint64)
    lo, hi = np.where([t0 > T_MAX, t1 > T_MAX], len(s), np.searchsorted(s.t, keys, side="left"))
    return EventStream(s.geometry, s.t[lo:hi], s.x[lo:hi], s.y[lo:hi], s.p[lo:hi], check=False)
