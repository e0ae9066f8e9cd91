"""Bounding-box annotations, keyframe interpolation, and detection scoring.

Tracks hold sparse keyframes; boxes on frames in between come from linear
interpolation of (x, y, w, h) by frame-index fraction. Outside the keyframe
span a track has no box (no extrapolation). Scoring follows the usual
greedy protocol in one pass over all frames: detections in descending
confidence order, each matched one-to-one to the best remaining ground
truth of its frame at or above the IoU threshold; average precision is
the exact area under the precision envelope over recall (all-point
interpolation).

CSV schemas (written in this column order; read in any order, with
extra columns ignored):
    labels:      frame_idx,track_id,x,y,w,h
    detections:  frame_idx,class_id,confidence,x,y,w,h
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import IO, Dict, Iterable, List, Mapping, Sequence, Tuple, Union

import numpy as np

from .config import open_text, read_table
from .errors import BadRow, NoGroundTruth


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box: top-left corner plus size, real-valued pixels."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        if self.w < 0 or self.h < 0:
            raise ValueError(f"box size must be non-negative, got {self.w}x{self.h}")

    @property
    def area(self) -> float:
        return self.w * self.h

    @property
    def corners(self) -> Tuple[Tuple[float, float], ...]:
        return (
            (self.x, self.y),
            (self.x + self.w, self.y),
            (self.x, self.y + self.h),
            (self.x + self.w, self.y + self.h),
        )


@dataclass(frozen=True)
class Keyframe:
    frame_idx: int
    box: BBox

    def __post_init__(self):
        if self.frame_idx < 0:
            raise ValueError(f"frame index must be non-negative, got {self.frame_idx}")


@dataclass(frozen=True)
class Track:
    track_id: Union[int, str]
    keyframes: Tuple[Keyframe, ...]

    def __post_init__(self):
        kfs = tuple(self.keyframes)
        if not kfs:
            raise ValueError("track needs at least one keyframe")
        idxs = [k.frame_idx for k in kfs]
        if any(b <= a for a, b in zip(idxs, idxs[1:])):
            raise ValueError("keyframe indices must be strictly increasing")
        object.__setattr__(self, "keyframes", kfs)

    @property
    def span(self) -> Tuple[int, int]:
        return self.keyframes[0].frame_idx, self.keyframes[-1].frame_idx


@dataclass(frozen=True)
class Detection:
    frame_idx: int
    box: BBox
    confidence: float
    class_id: int = 0

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")


def interpolate_track(t: Track, frame_idx: int):
    """Box at frame_idx, or None outside the keyframe span.

    Exact at keyframes; linear in each of (x, y, w, h) between adjacent
    keyframes.
    """
    lo, hi = t.span
    if frame_idx < lo or frame_idx > hi:
        return None
    idxs = [k.frame_idx for k in t.keyframes]
    j = bisect_right(idxs, frame_idx) - 1
    kf = t.keyframes[j]
    if kf.frame_idx == frame_idx:
        return kf.box
    nxt = t.keyframes[j + 1]
    a, b = kf.box, nxt.box
    f = (frame_idx - kf.frame_idx) / (nxt.frame_idx - kf.frame_idx)
    return BBox(
        a.x + f * (b.x - a.x),
        a.y + f * (b.y - a.y),
        a.w + f * (b.w - a.w),
        a.h + f * (b.h - a.h),
    )


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union; 0 when the union has zero area."""
    ix = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    iy = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    inter = max(0.0, ix) * max(0.0, iy)
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


@dataclass(frozen=True)
class EvalReport:
    ap: float
    tp: int
    fp: int
    fn: int
    n_gt: int
    iou_thresh: float

    def to_dict(self) -> dict:
        return asdict(self)


def _match_all(
    all_dets: Sequence[Detection],
    all_gts: Mapping[int, Sequence[BBox]],
    iou_thresh: float,
) -> Tuple[List[bool], int]:
    """Greedy one-to-one matching across frames; returns (flags, n_gt).

    Detections are visited in descending confidence (ties keep input
    order); each takes the untaken ground truth of its own frame with the
    highest IoU if that IoU reaches iou_thresh. flags[k] says whether the
    k-th detection in that order matched.
    """
    n_gt = sum(len(v) for v in all_gts.values())
    order = sorted(range(len(all_dets)), key=lambda i: -all_dets[i].confidence)
    taken_by_frame: Dict[int, List[bool]] = {f: [False] * len(v) for f, v in all_gts.items()}
    flags = []
    for i in order:
        box, f = all_dets[i].box, all_dets[i].frame_idx
        gts, taken = all_gts.get(f, ()), taken_by_frame.get(f, [])
        best_j, best_iou = -1, 0.0
        for j, g in enumerate(gts):
            if taken[j]:
                continue
            v = iou(box, g)
            if v > best_iou:
                best_j, best_iou = j, v
        hit = best_j >= 0 and best_iou >= iou_thresh
        if hit:
            taken[best_j] = True
        flags.append(hit)
    return flags, n_gt


def average_precision(
    all_dets: Sequence[Detection],
    all_gts: Mapping[int, Sequence[BBox]],
    iou_thresh: float = 0.5,
) -> float:
    """All-point interpolated AP over the full detection ranking."""
    return evaluate_detections(all_dets, all_gts, iou_thresh).ap


def evaluate_detections(
    all_dets: Sequence[Detection],
    all_gts: Mapping[int, Sequence[BBox]],
    iou_thresh: float = 0.5,
) -> EvalReport:
    if not 0.0 < iou_thresh <= 1.0:
        raise ValueError(f"iou_thresh must be in (0, 1], got {iou_thresh}")
    flags, n_gt = _match_all(all_dets, all_gts, iou_thresh)
    if n_gt == 0:
        raise NoGroundTruth("no ground-truth boxes supplied")
    if not flags:
        return EvalReport(0.0, 0, 0, n_gt, n_gt, iou_thresh)
    tp = np.cumsum(flags)
    fp = np.cumsum([not f for f in flags])
    recall = tp / n_gt
    precision = tp / (tp + fp)
    # precision envelope: best precision at any recall >= r
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    prev_r = np.concatenate([[0.0], recall[:-1]])
    ap = float(np.sum((recall - prev_r) * envelope))
    n_tp = int(tp[-1])
    return EvalReport(ap, n_tp, len(flags) - n_tp, n_gt - n_tp, n_gt, iou_thresh)


def densify_tracks(tracks: Iterable[Track]) -> Dict[int, List[BBox]]:
    """Ground-truth boxes per frame from interpolating every track: each track
    contributes a box on every integer frame within its span."""
    out: Dict[int, List[BBox]] = defaultdict(list)
    for t in tracks:
        lo, hi = t.span
        for f in range(lo, hi + 1):
            box = interpolate_track(t, f)
            if box is not None:
                out[f].append(box)
    return dict(out)


# --- CSV I/O ---


def write_labels_csv(tracks: Iterable[Track], f: Union[str, IO[str]]) -> None:
    with open_text(f, "w") as fh:
        w = csv.writer(fh)
        w.writerow(["frame_idx", "track_id", "x", "y", "w", "h"])
        for t in tracks:
            for kf in t.keyframes:
                b = kf.box
                w.writerow([kf.frame_idx, t.track_id, b.x, b.y, b.w, b.h])


def load_labels_csv(f: Union[str, IO[str]]) -> List[Track]:
    rows = read_table(
        f,
        ("frame_idx", "track_id", "x", "y", "w", "h"),
        lambda i, tid, *xywh: (tid, Keyframe(int(i), BBox(*map(float, xywh)))),
    )
    per_track: Dict[str, List[Keyframe]] = defaultdict(list)
    for tid, kf in rows:
        per_track[tid].append(kf)
    tracks = []
    for tid, kfs in per_track.items():
        kfs.sort(key=lambda k: k.frame_idx)
        try:
            tracks.append(Track(tid, tuple(kfs)))
        except ValueError:
            raise BadRow(f"track {tid!r} has two keyframes on one frame") from None
    return tracks


def write_detections_csv(dets: Iterable[Detection], f: Union[str, IO[str]]) -> None:
    with open_text(f, "w") as fh:
        w = csv.writer(fh)
        w.writerow(["frame_idx", "class_id", "confidence", "x", "y", "w", "h"])
        for d in dets:
            b = d.box
            w.writerow([d.frame_idx, d.class_id, d.confidence, b.x, b.y, b.w, b.h])


def load_detections_csv(f: Union[str, IO[str]]) -> List[Detection]:
    return read_table(
        f,
        ("frame_idx", "class_id", "confidence", "x", "y", "w", "h"),
        lambda i, cls, conf, *xywh: Detection(int(i), BBox(*map(float, xywh)), float(conf), int(cls)),
    )
