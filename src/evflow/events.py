"""Event records, streams, and serialization.

An event is one pixel-level brightness change: timestamp in microseconds,
pixel coordinates, and a polarity (brighter / darker). Streams keep events
in non-decreasing timestamp order and store them as column arrays so that
windowing and accumulation stay vectorized.

Binary format EVB1 (little-endian throughout):

    magic "EVB1" | width u16 | height u16 | N x record
    record (13 bytes): t u64 (microseconds) | x u16 | y u16 | p u8 (1/0)

CSV alternative: header line ``t_us,x,y,p``, one event per row, same
semantics. CSV carries no geometry, so readers must supply it.
"""

from __future__ import annotations

import enum
import io
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

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
HEADER_SIZE = 8
RECORD_SIZE = 13

_RECORD_DTYPE = np.dtype([("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "u1")])
assert _RECORD_DTYPE.itemsize == RECORD_SIZE


class Polarity(enum.IntEnum):
    NEGATIVE = 0
    POSITIVE = 1


@dataclass(frozen=True)
class Event:
    """One brightness-change record."""

    t: int
    x: int
    y: int
    p: Polarity


@dataclass(frozen=True)
class SensorGeometry:
    width: int
    height: int

    def __post_init__(self):
        # x, y and the EVB1 header are u16
        if not (0 < self.width <= 0xFFFF and 0 < self.height <= 0xFFFF):
            raise ValueError(f"sensor sides must be in 1..65535, got {self.width}x{self.height}")


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violation: str | None = None


def _first_violation(
    geometry: SensorGeometry, t: np.ndarray, x: np.ndarray, y: np.ndarray
) -> Optional[EvflowError]:
    """The stream-invariant violation with the lowest index (NonMonotonic on a tie), or None."""
    bad = np.flatnonzero(t[1:] < t[:-1])
    oob = np.flatnonzero((x >= geometry.width) | (y >= geometry.height))
    i = int(bad[0]) + 1 if bad.size else t.size
    j = int(oob[0]) if oob.size else t.size
    if i < t.size and i <= j:
        return NonMonotonic(f"timestamp decreases at index {i}: {t[i]} < {t[i - 1]}")
    if j < t.size:
        return OutOfBounds(
            f"event at index {j}: ({x[j]}, {y[j]}) outside {geometry.width}x{geometry.height}"
        )
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
            violation = _first_violation(geometry, t, x, y)
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
    def from_events(cls, geometry: SensorGeometry, events: Iterable[Event]) -> "EventStream":
        evs = list(events)
        return cls(
            geometry,
            [e.t for e in evs],
            [e.x for e in evs],
            [e.y for e in evs],
            [int(e.p) for e in evs],
        )

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

    def __iter__(self) -> Iterator[Event]:
        for i in range(len(self)):
            yield self[i]

    def __getitem__(self, i: int) -> Event:
        return Event(int(self.t[i]), int(self.x[i]), int(self.y[i]), Polarity(int(self.p[i])))

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventStream):
            return NotImplemented
        return (
            self.geometry == other.geometry
            and self.t.shape == other.t.shape
            and bool(np.all(self.t == other.t))
            and bool(np.all(self.x == other.x))
            and bool(np.all(self.y == other.y))
            and bool(np.all(self.p == other.p))
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
    width = int.from_bytes(blob[4:6], "little")
    height = int.from_bytes(blob[6:8], "little")
    body = len(blob) - HEADER_SIZE
    if body % RECORD_SIZE:
        raise TruncatedRecord(f"payload of {body} bytes is not a multiple of {RECORD_SIZE}")
    geom = SensorGeometry(width, height)
    rec = np.frombuffer(blob, dtype=_RECORD_DTYPE, offset=HEADER_SIZE)
    # field views on a 13-byte packed dtype are strided; copy them out once
    return EventStream(
        geom,
        np.ascontiguousarray(rec["t"]),
        np.ascontiguousarray(rec["x"]),
        np.ascontiguousarray(rec["y"]),
        np.ascontiguousarray(rec["p"]),
    )


def encode_stream(s: EventStream) -> bytes:
    """Serialize to EVB1; decode_stream(encode_stream(s)) == s bit-exactly."""
    rec = np.empty(len(s), dtype=_RECORD_DTYPE)
    rec["t"] = s.t
    rec["x"] = s.x
    rec["y"] = s.y
    rec["p"] = s.p
    header = EVB1_MAGIC + s.width.to_bytes(2, "little") + s.height.to_bytes(2, "little")
    return header + rec.tobytes()


def validate(s: EventStream) -> ValidationReport:
    """Check stream invariants, reporting the first violation instead of raising."""
    violation = _first_violation(s.geometry, s.t, s.x, s.y)
    if violation is None:
        return ValidationReport(True)
    return ValidationReport(False, f"{type(violation).__name__}: {violation}")


def slice_interval(s: EventStream, t0: int, t1: int) -> EventStream:
    """Events with t0 <= t < t1 (half-open), order preserved."""
    if t0 > t1:
        raise InvalidInterval(f"t0={t0} > t1={t1}")
    # uint64 keys: Python-int keys would convert the whole column to float64
    keys = np.array([max(t0, 0), max(t1, 0)], dtype=np.uint64)
    lo, hi = np.searchsorted(s.t, keys, side="left")
    return EventStream(s.geometry, s.t[lo:hi], s.x[lo:hi], s.y[lo:hi], s.p[lo:hi], check=False)


def concat_streams(parts: Iterable[EventStream]) -> EventStream:
    """Concatenate consecutive streams sharing one geometry."""
    parts = list(parts)
    if not parts:
        raise ValueError("nothing to concatenate")
    geom = parts[0].geometry
    for p in parts[1:]:
        if p.geometry != geom:
            raise ValueError("geometry mismatch across parts")
    return EventStream(
        geom,
        np.concatenate([p.t for p in parts]),
        np.concatenate([p.x for p in parts]),
        np.concatenate([p.y for p in parts]),
        np.concatenate([p.p for p in parts]),
    )


def write_csv(s: EventStream, f: Union[str, io.IOBase]) -> None:
    """Write the CSV form (header t_us,x,y,p). Geometry is not stored."""
    cols = np.column_stack(
        [s.t.astype(np.uint64), s.x.astype(np.uint64), s.y.astype(np.uint64), s.p.astype(np.uint64)]
    )
    own = isinstance(f, str)
    fh = open(f, "w") if own else f
    try:
        fh.write("t_us,x,y,p\n")
        np.savetxt(fh, cols, fmt="%d", delimiter=",")
    finally:
        if own:
            fh.close()


def read_csv(f: Union[str, io.IOBase], geometry: SensorGeometry) -> EventStream:
    """Read the CSV form; the caller supplies the sensor geometry."""
    own = isinstance(f, str)
    fh = open(f, "r") if own else f
    try:
        header = fh.readline().strip()
        if header != "t_us,x,y,p":
            raise BadMagic(f"expected CSV header 't_us,x,y,p', got {header!r}")
        body = fh.read()
    finally:
        if own:
            fh.close()
    if not body.strip():
        return EventStream.empty(geometry)
    data = np.loadtxt(io.StringIO(body), dtype=np.uint64, delimiter=",", ndmin=2)
    return EventStream(geometry, data[:, 0], data[:, 1], data[:, 2], data[:, 3])
