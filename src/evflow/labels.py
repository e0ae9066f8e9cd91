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
import math
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, islice
from typing import IO, Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple, Union

import numpy as np

from .config import open_text, read_table
from .errors import BadRow, NoGroundTruth

_BLOCK_PAIRS = 65_536  # (detection, ground truth) pairs per IoU pass: about 10 MB


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box: top-left corner plus size, real-valued pixels."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)
                and math.isfinite(self.w) and math.isfinite(self.h)):
            raise ValueError(f"box fields must be finite, got {self}")
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
    return _lerp(kf.box, nxt.box, (frame_idx - kf.frame_idx) / (nxt.frame_idx - kf.frame_idx))


def _lerp(a: BBox, b: BBox, f: float) -> BBox:
    return BBox(a.x + f * (b.x - a.x), a.y + f * (b.y - a.y),
                a.w + f * (b.w - a.w), a.h + f * (b.h - a.h))


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

    The IoUs of the (detection, ground truth of its frame) pairs come from
    numpy passes over blocks of at most _BLOCK_PAIRS pairs, with iou's
    operation order, so they equal iou's values; the greedy claim takes
    them block by block, per pair in Python.
    """
    span: Dict[int, Tuple[int, int]] = {}  # frame -> (its first row in gt_xywh, count)
    gt_xywh: List[Tuple[float, float, float, float]] = []
    for f, boxes in all_gts.items():
        span[f] = (len(gt_xywh), len(boxes))
        gt_xywh.extend((g.x, g.y, g.w, g.h) for g in boxes)
    order = sorted(range(len(all_dets)), key=lambda i: -all_dets[i].confidence)
    dets = [all_dets[i] for i in order]
    spans = [span.get(d.frame_idx, (0, 0)) for d in dets]
    det_xywh = [(d.box.x, d.box.y, d.box.w, d.box.h) for d in dets]
    ious = chain.from_iterable(_pair_ious(det_xywh, gt_xywh, spans))
    taken = [False] * len(gt_xywh)
    flags = []
    for start, count in spans:
        best_j, best_iou = -1, 0.0
        for j, v in enumerate(islice(ious, count), start):
            if v > best_iou and not taken[j]:
                best_j, best_iou = j, v
        hit = best_j >= 0 and best_iou >= iou_thresh
        if hit:
            taken[best_j] = True
        flags.append(hit)
    return flags, len(gt_xywh)


def _pair_ious(
    det_xywh: Sequence[Tuple[float, ...]],
    gt_xywh: Sequence[Tuple[float, ...]],
    spans: Sequence[Tuple[int, int]],
) -> Iterator[List[float]]:
    """The pairs' IoUs as lists, one per block of at most _BLOCK_PAIRS pairs.
    Pairs run detection by detection: detection i, with span (start, count),
    pairs with ground truths start..start+count-1."""
    a_all = np.array(det_xywh, dtype=np.float64).reshape(-1, 4)
    b_all = np.array(gt_xywh, dtype=np.float64).reshape(-1, 4)
    starts = np.array([s for s, _ in spans], dtype=np.int64)
    counts = np.array([n for _, n in spans], dtype=np.int64)
    ends = np.cumsum(counts)  # one past each detection's last pair
    gt_shift = starts - (ends - counts)  # pair k of detection i is ground truth k + gt_shift[i]
    n_pairs = int(counts.sum())
    for lo in range(0, n_pairs, _BLOCK_PAIRS):
        pair = np.arange(lo, min(lo + _BLOCK_PAIRS, n_pairs))
        pair_det = np.searchsorted(ends, pair, side="right")
        ax, ay, aw, ah = a_all[pair_det].T
        bx, by, bw, bh = b_all[pair + gt_shift[pair_det]].T
        ix = np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx)
        iy = np.minimum(ay + ah, by + bh) - np.maximum(ay, by)
        inter = np.maximum(0.0, ix) * np.maximum(0.0, iy)
        union = aw * ah + bw * bh - inter
        yield np.divide(inter, union, out=np.zeros(pair.size), where=union > 0.0).tolist()


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
    recall = tp / n_gt
    precision = tp / np.arange(1, len(flags) + 1)
    # precision envelope: best precision at any recall >= r
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    prev_r = np.concatenate([[0.0], recall[:-1]])
    ap = float(np.sum((recall - prev_r) * envelope))
    n_tp = int(tp[-1])
    return EvalReport(ap, n_tp, len(flags) - n_tp, n_gt - n_tp, n_gt, iou_thresh)


def densify_tracks(tracks: Iterable[Track]) -> Dict[int, List[BBox]]:
    """Ground-truth boxes per frame from interpolating every track: each track
    contributes a box on every integer frame within its span, the box that
    interpolate_track gives."""
    out: Dict[int, List[BBox]] = defaultdict(list)
    for t in tracks:
        kfs = t.keyframes
        for ka, kb in zip(kfs, kfs[1:]):
            a, b = ka.box, kb.box
            out[ka.frame_idx].append(a)
            for i in range(ka.frame_idx + 1, kb.frame_idx):
                out[i].append(_lerp(a, b, (i - ka.frame_idx) / (kb.frame_idx - ka.frame_idx)))
        out[kfs[-1].frame_idx].append(kfs[-1].box)
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
