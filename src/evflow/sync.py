"""Temporal alignment of event and frame streams via ZNCC.

The two modalities are first reduced to comparable "activity" signals:
per-window pos+neg event counts on one side, absolute consecutive-frame
differences on the other. Both are then resampled onto a small common
raster and the integer frame offset maximizing the mean zero-mean
normalized cross-correlation is reported, together with the whole score
curve.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import InsufficientOverlap, ShapeMismatch, ZeroVariance
from .events import EventStream
from .frames import activity, area_average, window_frames

log = logging.getLogger(__name__)

COMMON_RASTER = (320, 180)  # cheap and tolerant to unaligned geometry


@dataclass(frozen=True)
class GrayFrameSequence:
    """Luminance frames at a fixed period, all sharing one shape."""

    width: int
    height: int
    frame_period: int  # microseconds
    frames: Tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.frame_period <= 0:
            raise ValueError(f"frame_period must be positive, got {self.frame_period}")
        for fr in self.frames:
            if fr.shape != (self.height, self.width):
                raise ShapeMismatch(f"frame shape {fr.shape} != ({self.height}, {self.width})")
        object.__setattr__(self, "frames", tuple(self.frames))


@dataclass(frozen=True)
class OffsetResult:
    best_offset: int
    best_score: float
    score_curve: Tuple[Tuple[int, float], ...]


def zncc(a: np.ndarray, b: np.ndarray) -> float:
    """Zero-mean normalized cross-correlation of two equally shaped grids.

    sum((a - mean a)(b - mean b)) / (N * std a * std b), population stds.
    Result is in [-1, 1]; symmetric in its arguments.
    """
    if a.shape != b.shape:
        raise ShapeMismatch(f"{a.shape} vs {b.shape}")
    af = np.asarray(a, dtype=np.float64)
    bf = np.asarray(b, dtype=np.float64)
    za = af - af.mean()
    zb = bf - bf.mean()
    sa = np.sqrt(np.mean(za * za))
    sb = np.sqrt(np.mean(zb * zb))
    if sa == 0.0 or sb == 0.0:
        raise ZeroVariance("constant input grid")
    return float(np.sum(za * zb) / (za.size * sa * sb))


def rgb_activity(prev: np.ndarray, curr: np.ndarray) -> np.ndarray:
    """Per-pixel |curr - prev| as float64: a change signal comparable to events."""
    if prev.shape != curr.shape:
        raise ShapeMismatch(f"{prev.shape} vs {curr.shape}")
    return np.abs(curr.astype(np.float64) - prev.astype(np.float64))


def find_offset(
    ev_seq: Sequence[np.ndarray],
    rgb_seq: Sequence[np.ndarray],
    max_abs_offset: int,
) -> OffsetResult:
    """Offset d maximizing mean ZNCC of pairs (ev_seq[i], rgb_seq[i + d]).

    A positive result means the second sequence lags the first by that
    many frames. Zero-variance pairs are skipped (and logged); a candidate
    offset with no scorable pair raises InsufficientOverlap. Ties prefer
    the smaller |d|.
    """
    if max_abs_offset < 0:
        raise ValueError("max_abs_offset must be >= 0")
    shape = ev_seq[0].shape
    for g in list(ev_seq) + list(rgb_seq):
        if g.shape != shape:
            raise ShapeMismatch(f"{g.shape} vs {shape}")
    curve = []
    for d in range(-max_abs_offset, max_abs_offset + 1):
        scores = []
        skipped = 0
        for i in range(len(ev_seq)):
            j = i + d
            if j < 0 or j >= len(rgb_seq):
                continue
            try:
                scores.append(zncc(ev_seq[i], rgb_seq[j]))
            except ZeroVariance:
                skipped += 1
        if skipped:
            log.debug("offset %d: skipped %d zero-variance pair(s)", d, skipped)
        if not scores:
            raise InsufficientOverlap(f"offset {d} has no scorable frame pairs")
        curve.append((d, float(np.mean(scores))))
    best_d, best_s = curve[max_abs_offset]  # d == 0
    for d, s in sorted(curve, key=lambda c: (abs(c[0]), c[0])):
        if s > best_s:
            best_d, best_s = d, s
    return OffsetResult(best_d, best_s, tuple(curve))


def event_activity_sequence(
    s: EventStream, frame_period: int, n_frames: int | None = None
) -> List[np.ndarray]:
    """Per-window activity grids of windows 0..n_frames-1 (default: through
    the last event's window), as float64."""
    last = None if n_frames is None else n_frames - 1
    return [activity(f).astype(np.float64) for f in window_frames(s, frame_period, 0, last)]


def gray_activity_sequence(seq: GrayFrameSequence) -> List[np.ndarray]:
    """Consecutive |difference| grids; entry k covers the k-th frame period."""
    return [
        rgb_activity(seq.frames[k], seq.frames[k + 1]) for k in range(len(seq.frames) - 1)
    ]


def to_common_raster(
    grids: Sequence[np.ndarray], raster: Tuple[int, int] = COMMON_RASTER
) -> List[np.ndarray]:
    """Area-average every grid onto (width, height) = raster."""
    w, h = raster
    return [area_average(g, w, h) for g in grids]
