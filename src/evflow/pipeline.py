"""Accumulate -> detect pipeline with a bounded read-ahead.

One producer turns the event stream into polarity frames window by
window, with frames.window_frames; with downscale_to set, it yields the
downscaled frames, built from each window's runs without a full-resolution
frame. One consumer gathers batches and runs the detector. By default
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
through the same pipeline; `evflow run` scores what it returns.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from scipy import ndimage

from .config import numbers
from .errors import ConfigInvalid
from .events import T_MAX, EventStream
from .frames import DEFAULT_WINDOW_US, PolarityFrame, nonzero_box, window_frames, window_range
from .labels import BBox, Detection, load_detections_csv

STUB_DETECTOR = "stub"
ENV_THREADS = "EVFLOW_THREADS"

_FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
_END = object()  # end of stream from the read-ahead worker

DetectorFn = Callable[[Sequence[PolarityFrame]], List[List[Detection]]]


@dataclass(frozen=True)
class PipelineConfig:
    integration_window: int = DEFAULT_WINDOW_US  # microseconds
    batch_size: int = 1
    detector: str = STUB_DETECTOR             # "stub" or path to a detections CSV
    downscale_to: Optional[Tuple[int, int]] = None
    # frames held between producer and detector, default (None) 2 * batch_size;
    # bounds memory only, since the producer waits once it is that far ahead
    queue_capacity: Optional[int] = None
    stub_min_area: int = 8                    # pixels^2
    stub_activity_thresh: int = 1             # counts

    def __post_init__(self):
        if self.queue_capacity is None:
            object.__setattr__(self, "queue_capacity", 2 * self.batch_size)
        if not 0 < self.integration_window <= T_MAX:
            raise ConfigInvalid(f"integration_window must be in 1..2^64-1 us, got {self.integration_window}")
        if not 1 <= self.batch_size < 2**63:
            raise ConfigInvalid(f"batch_size must be >= 1 and < 2**63, got {self.batch_size}")
        if not self.batch_size <= self.queue_capacity < 2**63:
            raise ConfigInvalid(f"queue_capacity must be in [batch_size, 2**63), got {self.queue_capacity}")
        if self.downscale_to is not None and min(self.downscale_to) < 1:
            raise ConfigInvalid(f"downscale_to sides must be >= 1, got {self.downscale_to}")
        if self.stub_activity_thresh < 1:  # 0 would make every cell of every window a blob
            raise ConfigInvalid(f"stub_activity_thresh must be >= 1, got {self.stub_activity_thresh}")


def pipeline_from_config(values: Dict[str, str]) -> PipelineConfig:
    """Read pipeline keys; every key is optional and falls back to defaults."""
    kw: dict = {}
    for key, attr in (
        ("integration_window_us", "integration_window"),
        ("batch_size", "batch_size"),
        ("queue_capacity", "queue_capacity"),
        ("stub_min_area", "stub_min_area"),
        ("stub_activity_thresh", "stub_activity_thresh"),
    ):
        if key in values:
            kw[attr] = numbers(values, key, 1, int)[0]
    if "detector" in values:
        kw["detector"] = values["detector"]
    if values.get("downscale_to", "none").lower() != "none":
        kw["downscale_to"] = tuple(numbers(values, "downscale_to", 2, int))
    return PipelineConfig(**kw)


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


def stub_detector(
    batch: Sequence[PolarityFrame], min_area: int = 8, activity_thresh: int = 1
) -> List[List[Detection]]:
    """Connected-component blob detector over per-frame activity.

    Components of thresholded activity with at least min_area pixels
    become detections; confidence saturates with the component's total
    event mass. Only the box of nonzero cells is labelled: with
    activity_thresh >= 1 no component reaches outside it, and the crop
    keeps raster order, so components and their order are the whole
    frame's. A frame of an empty window (events == 0) is not read.
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    if activity_thresh < 1:  # 0 would make the empty background a blob outside the box
        raise ValueError(f"activity_thresh must be >= 1, got {activity_thresh}")
    return [_detect_frame(f, min_area, activity_thresh) for f in batch]


def _detect_frame(f: PolarityFrame, min_area: int, activity_thresh: int) -> List[Detection]:
    if f.events == 0:  # an empty window: its all-zero channels are not read
        return []
    rows, cols = nonzero_box(f.pos | f.neg)
    if rows.start == rows.stop:  # no active cell
        return []
    act = f.pos[rows, cols].astype(np.uint16) + f.neg[rows, cols]
    labels, _ = ndimage.label(act >= activity_thresh, structure=_FOUR_CONNECTED)
    dets: List[Detection] = []
    for comp, (ys, xs) in enumerate(ndimage.find_objects(labels), start=1):
        region = labels[ys, xs] == comp
        area = int(region.sum())
        if area < min_area:
            continue
        mass = float(act[ys, xs][region].sum())
        box = BBox(
            float(cols.start + xs.start),
            float(rows.start + ys.start),
            float(xs.stop - xs.start),
            float(ys.stop - ys.start),
        )
        dets.append(Detection(f.frame_index, box, min(1.0, mass / 255.0)))
    return dets


def _replay_detector(path: str) -> DetectorFn:
    by_frame: Dict[int, List[Detection]] = {}
    for d in load_detections_csv(path):
        by_frame.setdefault(d.frame_idx, []).append(d)

    def detect(batch: Sequence[PolarityFrame]) -> List[List[Detection]]:
        return [list(by_frame.get(f.frame_index, [])) for f in batch]

    return detect


def _percentiles(samples: List[float]) -> Dict[str, float]:
    values = np.percentile(samples, (50, 95, 99)) if samples else (0.0, 0.0, 0.0)
    return {k: float(v) for k, v in zip(("p50", "p95", "p99"), values)}


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
    detector_fn: Optional[DetectorFn] = None,
    threads: Optional[int] = None,
) -> PipelineResult:
    """Run accumulate -> batch -> detect over a whole stream.

    Returns every window's detections, in window order and in the
    detector's frame (downscaled when downscale_to is set), with the frame
    counts and stage latencies. detector_fn overrides the configured
    detector (test hook); threads overrides EVFLOW_THREADS.
    """
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
        for frame in window_frames(events, cfg.integration_window, size=cfg.downscale_to):
            acc_ms.append((time.perf_counter() - t0) * 1e3)
            yield frame
            t0 = time.perf_counter()

    # a read-ahead deeper than the grid's windows and the end would hold idle futures
    ks = window_range(events, cfg.integration_window)
    depth = min(cfg.queue_capacity, ks.stop - ks.start + 1)  # not len(ks), which overflows past 2^63
    frames = produce() if threads == 1 else _read_ahead(produce(), depth)
    with closing(frames):
        for batch in iter(lambda: list(islice(frames, cfg.batch_size)), []):
            metrics.frames_produced += len(batch)
            t0 = time.perf_counter()
            per_frame = detect(batch)
            det_ms.append((time.perf_counter() - t0) * 1e3)
            metrics.frames_inferred += len(batch)
            for dets in per_frame:
                detections.extend(dets)
            del batch  # free its frames before the next batch is cut

    wall = time.perf_counter() - t_begin
    metrics.stage_latency_ms = {
        "accumulate": _percentiles(acc_ms),
        "detect": _percentiles(det_ms),
    }
    metrics.throughput_fps = metrics.frames_inferred / wall if wall > 0 else 0.0
    return PipelineResult(detections, metrics)
