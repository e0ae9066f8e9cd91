"""Event-to-frame conversion.

Events inside a fixed integration window are counted per pixel into two
uint8 channels (positive, negative), saturating at 255. A 1280x720 frame
therefore occupies exactly 1280*720*2 bytes. Rendering paints positive
activity white and negative activity blue on black.

One cutter covers a range of the window grid [k*T, (k+1)*T): it checks the
grid, finds every edge with one search, then yields each window's event
runs lazily. window_frames cuts the stream's own windows (window_range:
the first event's to the last event's) into full-resolution frames
(_scatter) or downscaled ones (_shrink); the pipeline and the CLI read
those. window_activity cuts windows 0..n-1 into uint16 pos + neg grids
and builds no frame; sync.align streams them into its rasters one at a
time, and sync.event_activity_sequence is their list form for outside
callers. Each frame records its window's event count in `events`; a frame
read back from PFR1 has None there, since the dump does not store it.

A window's cost follows its events: their polarity-extended cell indices
((p*H + y)*W + x; uint32, or uint64 when 2*W*H > 2^32) are sorted in place
and cut where the cell changes into runs of (cell, count saturated at 255).
_scatter writes the runs into one zeroed 2*W*H array, so an empty window
costs one calloc that nothing reads (the detector skips a frame whose
`events` is 0). _shrink never builds that array: the runs, already
row-major sorted, are one CSR matrix of shape (2H, W), its row pointers a
search of the row starts, resampled once by area_sum to (2h, w) and split
into channels. The activity consumer splits the runs at W*H with one search
and writes both halves into one zeroed H*W uint16 grid.

area_sum is the one resampler, for downscale, the runs path and sync. Output
cell j of n_out overlaps input cell i of n_in by an integer count of 1/n_out
input cells, so each output cell is S / D: S an integer-weighted band sum,
D = h*w. Downscaled frames round exactly half up as (2S + D) // (2D). A
dense grid is cropped to its nonzero box (nonzero_box, which the detector
also uses) before the products: a zero cell adds nothing to any band sum,
so S is the same, and an event grid is almost all zeros.

Frame dump format PFR1 (little-endian), header struct format "<4sHHQQ":

    magic "PFR1" | width u16 | height u16 | t0 u64 | duration u64
    | pos channel row-major bytes | neg channel row-major bytes
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np
from scipy import sparse

from .errors import InvalidWindow, TruncatedRecord, UpscaleUnsupported, BadMagic
from .events import T_MAX, EventStream, slice_interval

PFR1_MAGIC = b"PFR1"
_PFR1_HEADER = struct.Struct("<4sHHQQ")  # magic, width, height, t0, duration
SATURATION = 255
DEFAULT_WINDOW_US = 33_333  # 30 fps operating point


@dataclass(frozen=True)
class PolarityFrame:
    """Two-channel saturating count image over one integration window."""

    width: int
    height: int
    t0: int
    duration: int
    pos: np.ndarray
    neg: np.ndarray
    events: Optional[int] = None  # events in the window; None when unknown (read_pfr1)

    def __post_init__(self):
        for name, ch in (("pos", self.pos), ("neg", self.neg)):
            if ch.dtype != np.uint8:
                raise ValueError(f"{name} channel must be uint8, got {ch.dtype}")
            if ch.shape != (self.height, self.width):
                raise ValueError(
                    f"{name} channel shape {ch.shape} != ({self.height}, {self.width})"
                )
        self.pos.setflags(write=False)
        self.neg.setflags(write=False)

    @property
    def payload_bytes(self) -> int:
        return self.pos.nbytes + self.neg.nbytes

    @property
    def frame_index(self) -> int:
        return int(self.t0 // self.duration)


def _runs(s: EventStream, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted polarity-extended cells of events lo:hi and their counts, saturated.
    The cells are uint32 unless 2*W*H > 2^32, where they are uint64."""
    w, h = s.width, s.height
    cell_t = np.uint32 if 2 * w * h <= 2**32 else np.uint64
    flat = s.p[lo:hi].astype(cell_t)  # a copy, so the sort below leaves s alone
    flat *= cell_t(h)
    flat += s.y[lo:hi]
    flat *= cell_t(w)
    flat += s.x[lo:hi]
    flat.sort()
    start = np.empty(flat.size, dtype=bool)
    start[:1] = True
    np.not_equal(flat[1:], flat[:-1], out=start[1:])
    starts = np.flatnonzero(start)
    return flat[starts], np.minimum(np.diff(starts, append=flat.size), SATURATION)


def _scatter(s: EventStream, runs, t0: int, duration: int, events: int) -> PolarityFrame:
    """The full-resolution frame: the runs written into one zeroed 2*W*H array."""
    w, h = s.width, s.height
    cell, n = runs
    counts = np.zeros(2 * w * h, dtype=np.uint8)
    counts[cell] = n
    neg, pos = counts.reshape(2, h, w)
    return PolarityFrame(w, h, t0, duration, pos, neg, events)


def _shrink(
    s: EventStream, runs, t0: int, duration: int, events: int, size: Tuple[int, int]
) -> PolarityFrame:
    """The frame downscaled to size, built from the runs with no full-resolution frame."""
    w, h = s.width, s.height
    cell, n = runs
    # runs are sorted row-major over the (2H, W) stack of the neg then pos rows
    indptr = np.searchsorted(cell, np.arange(2 * h + 1, dtype=np.uint64) * np.uint64(w))
    grid = sparse.csr_matrix((n, cell % np.uint32(w), indptr), shape=(2 * h, w))
    # no row of _band_weights(2H, 2h) straddles input row H; S and D double, so rounding holds
    neg, pos = _round_u8(*area_sum(grid, size[0], 2 * size[1])).reshape(2, size[1], size[0])
    return PolarityFrame(size[0], size[1], t0, duration, pos, neg, events)


def _activity(s: EventStream, runs) -> np.ndarray:
    """The window's (H, W) uint16 pos + neg grid, written from the runs with no frame."""
    w, h = s.width, s.height
    cell, n = runs[0], runs[1].astype(np.uint16)
    wh = cell.dtype.type(w * h)
    split = np.searchsorted(cell, wh)  # negative runs, then positive ones
    grid = np.zeros(h * w, dtype=np.uint16)
    grid[cell[:split]] = n[:split]
    grid[cell[split:] - wh] += n[split:]  # exact: cells are unique within a polarity
    return grid.reshape(h, w)


def _check_window(duration: int) -> None:
    if not 0 < duration <= T_MAX:
        raise InvalidWindow(f"integration window must be in 1..2^64-1 us, got {duration}")


def accumulate(s: EventStream, t0: int, duration: int) -> PolarityFrame:
    """Count events with t0 <= t < t0 + duration into a PolarityFrame.

    Counting is order-independent and saturates each cell at 255.
    """
    _check_window(duration)
    window = slice_interval(s, t0, t0 + duration)
    return _scatter(window, _runs(window, 0, len(window)), t0, duration, len(window))


def window_range(s: EventStream, duration: int) -> range:
    """The stream's own grid: indices k of the windows [k*T, (k+1)*T) from the
    first event's to the last event's, none for an empty stream."""
    _check_window(duration)
    return range(int(s.t[0]) // duration, int(s.t[-1]) // duration + 1) if len(s) else range(0)


def _windows(
    s: EventStream, duration: int, ks: range
) -> Iterator[Tuple[int, int, Tuple[np.ndarray, np.ndarray]]]:
    """The checked window grid, cut lazily: (k, event count, runs) for each
    window [k*T, (k+1)*T), k in ks (window_range's, or windows 0..n-1)."""
    _check_window(duration)
    k0, n = ks.start, max(ks.stop - ks.start, 0)  # len(ks) overflows past 2^63
    if n >= np.iinfo(np.int64).max // 8:  # bounds' n + 1 int64 entries pass numpy's size limit
        raise InvalidWindow(f"a grid of {n} windows of {duration} us is too large to cut")
    # edges past T_MAX bound at len(s); one search finds all the others
    edges = np.arange(k0, min(k0 + n, T_MAX // duration) + 1, dtype=np.uint64) * np.uint64(duration)
    bounds = np.full(n + 1, len(s))
    bounds[: edges.size] = np.searchsorted(s.t, edges, side="left")
    for k, lo, hi in zip(ks, bounds[:-1], bounds[1:]):
        yield k, int(hi - lo), _runs(s, int(lo), int(hi))


def window_frames(
    s: EventStream, duration: int, size: Optional[Tuple[int, int]] = None
) -> Iterator[PolarityFrame]:
    """Frames over the windows of window_range(s, duration); windows without
    events yield all-zero frames. size=(w, h) yields each frame as
    downscale(frame, w, h) would, built from the window's runs; a size
    larger than the sensor, or a side below 1, raises before any frame.
    """
    windows = _windows(s, duration, window_range(s, duration))  # checks T before the size
    if size is not None:
        _check_size(s.width, s.height, *size)
    for k, events, runs in windows:
        if size is None:
            yield _scatter(s, runs, k * duration, duration, events)
        else:
            yield _shrink(s, runs, k * duration, duration, events, size)


def window_activity(s: EventStream, duration: int, n: int) -> Iterator[np.ndarray]:
    """(H, W) uint16 per-pixel pos + neg counts of windows 0..n-1, each equal
    to np.add(f.pos, f.neg, dtype=np.uint16) of accumulate(s, k*T, T) (so
    each polarity saturates at 255 and a pixel at 510), but built from the
    window's runs with no frame."""
    for _, _, runs in _windows(s, duration, range(n)):
        yield _activity(s, runs)


def render_rgb(f: PolarityFrame) -> np.ndarray:
    """(H, W, 3) uint8 image: positive white, negative-only blue, rest black.

    A cell with both polarities renders white (positive wins).
    """
    img = np.zeros((f.height, f.width, 3), dtype=np.uint8)
    img[f.neg > 0] = (0, 0, 255)
    img[f.pos > 0] = (255, 255, 255)
    return img


@functools.lru_cache(maxsize=16)
def _band_weights(n_in: int, n_out: int) -> sparse.csr_matrix:
    """(n_out, n_in) int64 overlaps of output with input cells, times n_out. Rows
    sum to n_in, columns to n_out. The cached matrix is shared: do not modify it."""
    j = np.arange(n_out)[:, None]
    i = j * n_in // n_out + np.arange(-(-n_in // n_out) + 1)  # each row's band of inputs
    overlap = np.minimum((j + 1) * n_in, (i + 1) * n_out) - np.maximum(j * n_in, i * n_out)
    keep = overlap > 0  # also drops band cells past the last input
    rows = np.broadcast_to(j, i.shape)[keep]
    return sparse.csr_matrix((overlap[keep], (rows, i[keep])), shape=(n_out, n_in))


def nonzero_box(grid: np.ndarray) -> Tuple[slice, slice]:
    """Row and column slices of the smallest box holding every nonzero cell of
    a dense 2D grid; both are empty for an all-zero grid."""
    rows = np.flatnonzero(grid.any(axis=1))
    if not rows.size:
        return slice(0, 0), slice(0, 0)
    ys = slice(int(rows[0]), int(rows[-1]) + 1)
    cols = np.flatnonzero(grid[ys].any(axis=0))
    return ys, slice(int(cols[0]), int(cols[-1]) + 1)


def area_sum(grid: np.ndarray, out_w: int, out_h: int) -> Tuple[np.ndarray, int]:
    """Area-weighted resize of a 2D grid as (S, D), the average being S / D.

    S = Wr @ grid @ Wc.T over integer band weights (int64 and exact for an
    integer grid, float64 for a float grid) and D = h*w. A dense grid is
    resampled over its nonzero box only, which leaves S unchanged: a zero
    cell adds nothing to any band sum. A sparse grid stores only its
    nonzeros already and is resampled whole.
    """
    h, w = grid.shape
    wr, wc = _band_weights(h, out_h), _band_weights(w, out_w)
    if not sparse.issparse(grid):
        ys, xs = nonzero_box(grid)
        grid, wr, wc = grid[ys, xs], wr[:, ys], wc[:, xs]
    return wr @ grid @ wc.T, h * w


def _check_size(width: int, height: int, out_w: int, out_h: int) -> None:
    if out_w > width or out_h > height:
        raise UpscaleUnsupported(f"requested {out_w}x{out_h} from {width}x{height}")
    if out_w <= 0 or out_h <= 0:
        raise ValueError("output dimensions must be positive")


def _round_u8(s, d: int) -> np.ndarray:
    """area_sum's exact average S / D rounded half up in integers as
    (2S + D) // (2D), saturated at 255, as a C-ordered uint8 grid."""
    if sparse.issparse(s):  # a zero sum rounds to 0, so round only the stored sums
        s = s.tocsr()
        s.data = _round_u8(s.data, d)
        return s.toarray()
    return np.minimum((2 * s + d) // (2 * d), SATURATION).astype(np.uint8, order="C")


def downscale(f: PolarityFrame, out_w: int, out_h: int) -> PolarityFrame:
    """Area-averaged resize of both channels, saturated at 255 (see _round_u8)."""
    _check_size(f.width, f.height, out_w, out_h)
    pos, neg = (_round_u8(*area_sum(ch, out_w, out_h)) for ch in (f.pos, f.neg))
    return PolarityFrame(out_w, out_h, f.t0, f.duration, pos, neg, f.events)


def write_pfr1(f: PolarityFrame) -> bytes:
    header = _PFR1_HEADER.pack(PFR1_MAGIC, f.width, f.height, int(f.t0), int(f.duration))
    return header + f.pos.tobytes() + f.neg.tobytes()


def read_pfr1(blob: bytes) -> PolarityFrame:
    if blob[:4] != PFR1_MAGIC:
        raise BadMagic(f"expected {PFR1_MAGIC!r}, got {bytes(blob[:4])!r}")
    if len(blob) < _PFR1_HEADER.size:
        raise TruncatedRecord(f"header needs {_PFR1_HEADER.size} bytes, got {len(blob)}")
    _, w, h, t0, duration = _PFR1_HEADER.unpack_from(blob)
    need = _PFR1_HEADER.size + 2 * w * h
    if len(blob) != need:
        raise TruncatedRecord(f"expected {need} bytes for {w}x{h}, got {len(blob)}")
    _check_window(duration)  # frame_index divides by it
    pos, neg = np.frombuffer(blob, dtype=np.uint8, offset=_PFR1_HEADER.size).reshape(2, h, w).copy()
    return PolarityFrame(w, h, t0, duration, pos, neg)
