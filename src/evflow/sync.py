"""Temporal alignment of event and frame streams via ZNCC.

The two modalities are first reduced to comparable "activity" signals:
per-window pos+neg event counts on one side, absolute consecutive-frame
differences on the other. Both are then resampled onto a small common
raster and the integer frame offset maximizing the mean zero-mean
normalized cross-correlation is reported, together with the whole score
curve. Each raster is standardised once, so one matrix product scores every
event/frame pair and offset d is the mean of that matrix's d-th diagonal.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import InsufficientOverlap, ShapeMismatch, ZeroVariance
from .events import EventStream
from .frames import activity, area_sum, window_frames

log = logging.getLogger(__name__)

COMMON_RASTER = (320, 180)  # cheap and tolerant to unaligned geometry


@dataclass(frozen=True)
class GrayFrameSequence:
    """uint8 luminance frames at a fixed period, all sharing one shape (uint8
    keeps rgb_activity's |difference| exact and one byte per pixel)."""

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
            if fr.dtype != np.uint8:
                raise ValueError(f"frames must be uint8, got {fr.dtype}")
        object.__setattr__(self, "frames", tuple(self.frames))


@dataclass(frozen=True)
class OffsetResult:
    best_offset: int
    best_score: float
    score_curve: Tuple[Tuple[int, float], ...]


def _standardise(grids: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Equally shaped grids as float64 rows, each minus its mean and divided by
    its population std, and a flag per row that it varies (a constant row
    stays all zero)."""
    z = np.array(grids, dtype=np.float64).reshape(len(grids), -1)
    z -= z.mean(axis=1, keepdims=True)
    std = np.sqrt(np.einsum("ij,ij->i", z, z) / z.shape[1])
    varies = std > 0.0
    np.divide(z, std[:, None], out=z, where=varies[:, None])
    return z, varies


def zncc(a: np.ndarray, b: np.ndarray) -> float:
    """Zero-mean normalized cross-correlation of two equally shaped grids.

    sum((a - mean a)(b - mean b)) / (N * std a * std b), population stds.
    Result is in [-1, 1]; symmetric in its arguments.
    """
    if a.shape != b.shape:
        raise ShapeMismatch(f"{a.shape} vs {b.shape}")
    (za, zb), varies = _standardise((a, b))
    if not varies.all():
        raise ZeroVariance("constant input grid")
    return float(za @ zb / za.size)


def rgb_activity(prev: np.ndarray, curr: np.ndarray) -> np.ndarray:
    """Per-pixel |curr - prev| in the frames' dtype: a change signal comparable
    to events. Exact for unsigned integer and float frames; signed ones wrap."""
    if prev.shape != curr.shape:
        raise ShapeMismatch(f"{prev.shape} vs {curr.shape}")
    return np.maximum(curr, prev) - np.minimum(curr, prev)


def find_offset(
    ev_seq: Sequence[np.ndarray],
    rgb_seq: Sequence[np.ndarray],
    max_abs_offset: int,
) -> OffsetResult:
    """Offset d maximizing mean ZNCC of pairs (ev_seq[i], rgb_seq[i + d]).

    scores = Z_ev @ Z_rgb.T / cells, over the standardised grids, is the ZNCC
    of every pair; offset d is the mean of np.diagonal(scores, d). A positive
    result means the second sequence lags the first by that many frames.
    Zero-variance pairs are skipped (and logged); a candidate offset with no
    scorable pair raises InsufficientOverlap. Ties prefer the smaller |d|,
    then the negative d.
    """
    if max_abs_offset < 0:
        raise ValueError("max_abs_offset must be >= 0")
    shape = ev_seq[0].shape
    for g in list(ev_seq) + list(rgb_seq):
        if g.shape != shape:
            raise ShapeMismatch(f"{g.shape} vs {shape}")
    z_ev, ev_varies = _standardise(ev_seq)
    z_rgb, rgb_varies = _standardise(rgb_seq)
    scores = z_ev @ z_rgb.T / z_ev.shape[1]
    scorable = ev_varies[:, None] & rgb_varies
    curve = []
    for d in range(-max_abs_offset, max_abs_offset + 1):
        ok = np.diagonal(scorable, d)
        skipped = ok.size - np.count_nonzero(ok)
        if skipped:
            log.debug("offset %d: skipped %d zero-variance pair(s)", d, skipped)
        if skipped == ok.size:
            raise InsufficientOverlap(f"offset {d} has no scorable frame pairs")
        curve.append((d, float(np.mean(np.diagonal(scores, d)[ok]))))
    best_d, best_s = max(curve, key=lambda c: (c[1], -abs(c[0]), -c[0]))
    return OffsetResult(best_d, best_s, tuple(curve))


def event_activity_sequence(
    s: EventStream, frame_period: int, n_frames: int | None = None
) -> List[np.ndarray]:
    """Per-window uint16 activity grids of windows 0..n_frames-1 (default:
    through the last event's window)."""
    last = None if n_frames is None else n_frames - 1
    return [activity(f) for f in window_frames(s, frame_period, 0, last)]


def gray_activity_sequence(seq: GrayFrameSequence) -> List[np.ndarray]:
    """Consecutive |difference| grids; entry k covers the k-th frame period."""
    return [
        rgb_activity(seq.frames[k], seq.frames[k + 1]) for k in range(len(seq.frames) - 1)
    ]


def to_common_raster(
    grids: Sequence[np.ndarray], raster: Tuple[int, int] = COMMON_RASTER
) -> List[np.ndarray]:
    """Area-average every grid onto (width, height) = raster as float64 S / D,
    from area_sum's integer band weights (S exact for an integer grid)."""
    w, h = raster
    return [s / d for s, d in (area_sum(g, w, h) for g in grids)]
