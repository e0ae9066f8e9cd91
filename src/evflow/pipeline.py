"""Accumulate -> detect pipeline with a bounded read-ahead.

One producer turns the event stream into polarity frames window by
window; one consumer gathers batches and runs the detector. By default
the producer runs on a one-thread ThreadPoolExecutor that computes up to
queue_capacity frames ahead of the consumer, and the next frame only when
the consumer takes one. The pipeline is therefore lossless: every window
is inferred, and queue_capacity bounds only the frames held in memory,
never the output. Setting EVFLOW_THREADS=1 (or threads=1) runs both
stages in one thread; detections are identical for any thread count,
batch size and capacity, only the timing metrics differ.

The stub detector stands in for a learned model: it thresholds the
activity grid, labels 4-connected components, and emits one detection per
sufficiently large component. An external-detections backend replays a
CSV of precomputed detections instead, so real model outputs can flow
through the same evaluation path.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from scipy import ndimage

from .config import numbers
from .errors import ConfigInvalid
from .events import EventStream
from .frames import PolarityFrame, activity, downscale, window_frames
from .geometry import CameraPair, transfer_tracks
from .labels import BBox, Detection, EvalReport, Track, densify_tracks, evaluate_detections, load_detections_csv

STUB_DETECTOR = "stub"
ENV_THREADS = "EVFLOW_THREADS"

_FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
_END = object()  # end of stream from the read-ahead worker

DetectorFn = Callable[[Sequence[PolarityFrame]], List[List[Detection]]]


@dataclass
class PipelineConfig:
    integration_window: int = 33_333          # microseconds
    batch_size: int = 1
    detector: str = STUB_DETECTOR             # "stub" or path to a detections CSV
    downscale_to: Optional[Tuple[int, int]] = None
    # frames held between producer and detector, default 2 * batch_size;
    # bounds memory only, since the producer waits once it is that far ahead
    queue_capacity: Optional[int] = None
    stub_min_area: int = 8                    # pixels^2
    stub_activity_thresh: int = 1             # counts

    def validated_capacity(self) -> int:
        cap = self.queue_capacity if self.queue_capacity is not None else 2 * self.batch_size
        if self.integration_window <= 0:
            raise ConfigInvalid(f"integration_window must be positive, got {self.integration_window}")
        if self.batch_size < 1:
            raise ConfigInvalid(f"batch_size must be >= 1, got {self.batch_size}")
        if cap < self.batch_size:
            raise ConfigInvalid(f"queue_capacity {cap} < batch_size {self.batch_size}")
        if self.stub_activity_thresh < 1:  # 0 would make every cell of every window a blob
            raise ConfigInvalid(f"stub_activity_thresh must be >= 1, got {self.stub_activity_thresh}")
        return cap


def pipeline_from_config(values: Dict[str, str]) -> PipelineConfig:
    """Read pipeline keys; every key is optional and falls back to defaults."""
    cfg = PipelineConfig()
    for key, attr in (
        ("integration_window_us", "integration_window"),
        ("batch_size", "batch_size"),
        ("queue_capacity", "queue_capacity"),
        ("stub_min_area", "stub_min_area"),
        ("stub_activity_thresh", "stub_activity_thresh"),
    ):
        if key in values:
            setattr(cfg, attr, numbers(values, key, 1, int)[0])
    if "detector" in values:
        cfg.detector = values["detector"]
    if values.get("downscale_to", "none").lower() != "none":
        w, h = numbers(values, "downscale_to", 2)
        cfg.downscale_to = (int(w), int(h))
    cfg.validated_capacity()
    return cfg


@dataclass
class PipelineMetrics:
    frames_produced: int = 0
    frames_inferred: int = 0
    frames_dropped: int = 0                   # always 0: the read-ahead never drops
    stage_latency_ms: Dict[str, Dict[str, float]] = field(default_factory=dict)
    throughput_fps: float = 0.0


@dataclass
class PipelineResult:
    detections: List[Detection]
    metrics: PipelineMetrics
    eval_report: Optional[EvalReport] = None
    labels_skipped: int = 0                   # ground-truth boxes that missed the event sensor


def stub_detector(
    batch: Sequence[PolarityFrame], min_area: int = 8, activity_thresh: int = 1
) -> List[List[Detection]]:
    """Connected-component blob detector over per-frame activity.

    Components of thresholded activity with at least min_area pixels
    become detections; confidence saturates with the component's total
    event mass.
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    out: List[List[Detection]] = []
    for f in batch:
        act = activity(f)
        mask = act >= activity_thresh
        labels, n = ndimage.label(mask, structure=_FOUR_CONNECTED)
        dets: List[Detection] = []
        if n:
            slices = ndimage.find_objects(labels)
            for comp, sl in enumerate(slices, start=1):
                region = labels[sl] == comp
                area = int(region.sum())
                if area < min_area:
                    continue
                mass = float(act[sl][region].sum())
                ys, xs = sl
                box = BBox(
                    float(xs.start),
                    float(ys.start),
                    float(xs.stop - xs.start),
                    float(ys.stop - ys.start),
                )
                dets.append(Detection(f.frame_index, box, min(1.0, mass / 255.0)))
        out.append(dets)
    return out


def _replay_detector(path: str) -> DetectorFn:
    by_frame: Dict[int, List[Detection]] = {}
    for d in load_detections_csv(path):
        by_frame.setdefault(d.frame_idx, []).append(d)

    def detect(batch: Sequence[PolarityFrame]) -> List[List[Detection]]:
        return [list(by_frame.get(f.frame_index, [])) for f in batch]

    return detect


def _percentiles(samples: List[float]) -> Dict[str, float]:
    if not samples:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
    arr = np.asarray(samples)
    return {
        "p50": float(np.percentile(arr, 50)),
        "p95": float(np.percentile(arr, 95)),
        "p99": float(np.percentile(arr, 99)),
    }


def _resolve_threads(threads: Optional[int]) -> int:
    if threads is None:
        raw = os.environ.get(ENV_THREADS, "2")
        try:
            threads = int(raw)
        except ValueError:
            raise ConfigInvalid(f"{ENV_THREADS} must be 1 or 2, got {raw!r}")
    if threads not in (1, 2):
        raise ConfigInvalid(f"{ENV_THREADS} must be 1 or 2, got {threads}")
    return threads


def _read_ahead(frames: Iterator[PolarityFrame], capacity: int) -> Iterator[PolarityFrame]:
    """Yield the frames of `frames`, computed ahead in a worker thread.

    The worker runs at most `capacity` frames ahead of the consumer and
    starts the next one only when the consumer takes one, so nothing is
    dropped. An error in the worker re-raises here, after the frames made
    before it; closing this generator cancels the pending frames and joins
    the worker.
    """
    pool = ThreadPoolExecutor(1, thread_name_prefix="evflow-accumulate")
    try:
        ahead = deque(pool.submit(next, frames, _END) for _ in range(capacity))
        while (frame := ahead.popleft().result()) is not _END:
            ahead.append(pool.submit(next, frames, _END))
            yield frame
    finally:
        pool.shutdown(cancel_futures=True)


def run_pipeline(
    events: EventStream,
    cfg: PipelineConfig,
    calib: Optional[CameraPair] = None,
    gts: Optional[Sequence[Track]] = None,
    detector_fn: Optional[DetectorFn] = None,
    threads: Optional[int] = None,
) -> PipelineResult:
    """Run accumulate -> batch -> detect over a whole stream.

    calib, when given, maps ground-truth tracks from the RGB view into the
    event view before scoring; boxes that miss the event sensor are
    skipped and counted. gts, when given, adds an average-precision report
    at IoU 0.5, scored in the detector's frame (downscaled when
    downscale_to is set). detector_fn overrides the configured detector
    (test hook).
    """
    capacity = cfg.validated_capacity()
    threads = _resolve_threads(threads)
    if detector_fn is not None:
        detect = detector_fn
    elif cfg.detector == STUB_DETECTOR:
        detect = lambda batch: stub_detector(batch, cfg.stub_min_area, cfg.stub_activity_thresh)
    else:
        detect = _replay_detector(cfg.detector)

    metrics = PipelineMetrics()
    acc_ms: List[float] = []
    det_ms: List[float] = []
    detections: List[Detection] = []
    t_begin = time.perf_counter()

    def produce() -> Iterator[PolarityFrame]:
        t0 = time.perf_counter()
        for frame in window_frames(events, cfg.integration_window):
            if cfg.downscale_to is not None:
                frame = downscale(frame, *cfg.downscale_to)
            acc_ms.append((time.perf_counter() - t0) * 1e3)
            yield frame
            t0 = time.perf_counter()

    def consume_batch(batch: List[PolarityFrame]) -> None:
        t0 = time.perf_counter()
        per_frame = detect(batch)
        det_ms.append((time.perf_counter() - t0) * 1e3)
        metrics.frames_inferred += len(batch)
        for dets in per_frame:
            detections.extend(dets)

    frames = produce() if threads == 1 else _read_ahead(produce(), capacity)
    with closing(frames):
        batch: List[PolarityFrame] = []
        for frame in frames:
            metrics.frames_produced += 1
            batch.append(frame)
            if len(batch) == cfg.batch_size:
                consume_batch(batch)
                batch = []
        if batch:
            consume_batch(batch)

    wall = time.perf_counter() - t_begin
    metrics.stage_latency_ms = {
        "accumulate": _percentiles(acc_ms),
        "detect": _percentiles(det_ms),
    }
    metrics.throughput_fps = metrics.frames_inferred / wall if wall > 0 else 0.0

    report = None
    skipped = 0
    if gts:
        tracks = list(gts)
        if calib is not None:
            tracks, skipped = transfer_tracks(tracks, calib)
        gt_boxes = densify_tracks(tracks)
        if cfg.downscale_to is not None:  # score in the detector's frame
            sx = cfg.downscale_to[0] / events.geometry.width
            sy = cfg.downscale_to[1] / events.geometry.height
            gt_boxes = {
                f: [BBox(b.x * sx, b.y * sy, b.w * sx, b.h * sy) for b in bs]
                for f, bs in gt_boxes.items()
            }
        report = evaluate_detections(detections, gt_boxes, iou_thresh=0.5)
    return PipelineResult(detections, metrics, report, skipped)
