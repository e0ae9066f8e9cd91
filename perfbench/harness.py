"""Load, run and time one workload through the public functions of ``evflow``.

A run is: half of its ``setup_reps`` set-ups, one discarded warm-up round,
measured rounds until ``seconds`` are spent (at least ``MIN_ROUNDS``), then
the other half of the set-ups. A round is the same operations every time:
``run_pipeline`` at t1 B=1, t1 B=4, the sync job and ``t2_reps`` passes at
t2 B=1, each followed by a timed batch of ``label_reps`` label jobs; a
traced round adds a per-window replay of accumulate -> downscale ->
stub_detector. Every timed quantity is a median over the measured rounds.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

import checks
import oracles
import workloads as wl
from evflow.events import EventStream, decode_stream, slice_interval
from evflow.frames import accumulate, downscale
from evflow.geometry import CameraPair, load_calibration, transfer_bbox
from evflow.labels import (
    BBox,
    Detection,
    Keyframe,
    Track,
    densify_tracks,
    evaluate_detections,
    load_detections_csv,
    load_labels_csv,
)
from evflow.netpbm import read_netpbm
from evflow.pipeline import PipelineConfig, run_pipeline, stub_detector
from evflow.sync import (
    GrayFrameSequence,
    event_activity_sequence,
    find_offset,
    gray_activity_sequence,
    to_common_raster,
)

P = wl.WINDOW_US
MIN_ROUNDS = 2
WARMUP_WINDOWS = 4
REPLAY_WINDOWS = 24  # windows sampled by the traced replay

END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB",
    "fps_t1_b1": "1/s", "fps_t1_b4": "1/s", "fps_t2_b1": "1/s",
    "latency_p50_ms": "ms", "latency_p95_ms": "ms", "ap": "fraction",
    "sync_s": "s", "label_s": "s",
}
PER_LAYER = {
    "events.decode_ms": "ms", "netpbm.read_ms_per_frame": "ms",
    "frames.events_per_window_p50": "count",
    "frames.accumulate_ms_p50": "ms", "frames.accumulate_ms_p95": "ms",
    "frames.downscale_ms_p50": "ms",
    "pipeline.detect_ms_p50": "ms", "pipeline.detect_ms_p95": "ms",
    "pipeline.run_self_ms_per_window": "ms", "pipeline.consumer_wait_ms_p50": "ms",
    "pipeline.frames_dropped": "count",
    "labels.evaluate_ms": "ms", "labels.densify_ms": "ms",
    "geometry.transfer_bbox_us_p50": "us",
    "sync.event_activity_ms": "ms", "sync.gray_activity_ms": "ms",
    "sync.raster_ms_per_grid": "ms", "sync.offset_curve_ms": "ms",
}


class Tracer:
    """Spans (id, name, start, end, parent) kept in memory; a no-op when disabled."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[list] = []

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None):
        if not self.enabled:
            yield None
            return
        rec = [len(self.spans), name, time.perf_counter(), None, parent]
        self.spans.append(rec)
        try:
            yield rec[0]
        finally:
            rec[3] = time.perf_counter()

    def ms(self, name: str) -> List[float]:
        return [(s[3] - s[2]) * 1e3 for s in self.spans if s[1] == name]

    def children(self, parent: int, name: str) -> List[list]:
        return [s for s in self.spans if s[4] == parent and s[1] == name]

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


@dataclass
class Inputs:
    stream: EventStream
    gray: GrayFrameSequence
    tracks: List[Track]
    calib: CameraPair
    detections: Optional[List[Detection]]


def load(d: Path, tracer: Tracer) -> Inputs:
    """Read one workload's files into program types; this is what setup_s times."""
    blob = (d / "events.evb1").read_bytes()
    with tracer.span("events.decode"):
        stream = decode_stream(blob)
    del blob
    frames = []
    for f in sorted((d / "gray").glob("*.pgm")):
        raw = f.read_bytes()
        with tracer.span("netpbm.read"):
            frames.append(read_netpbm(raw))
    gray = GrayFrameSequence(frames[0].shape[1], frames[0].shape[0], P, tuple(frames))
    with tracer.span("labels.load_csv"):
        tracks = load_labels_csv(str(d / "labels.csv"))
    with tracer.span("geometry.load_calibration"):
        calib = load_calibration((d / "calib.txt").read_text())
    dets = None
    if (d / "detections.csv").exists():
        with tracer.span("labels.load_detections"):
            dets = load_detections_csv(str(d / "detections.csv"))
    return Inputs(stream, gray, tracks, calib, dets)


class Run:
    """State of one benchmark run: counts of operations, problems found, samples."""

    def __init__(self, w: wl.Workload, expect: dict, tracer: Tracer):
        self.w = w
        self.expect = expect
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.samples: Dict[str, List[float]] = {}
        self.ref_keys = None

    def attempt(self, fn: Callable, *args):
        """Run one operation; an exception counts it failed instead of ending the run."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # the run goes on and reports the failure count
            self.failed += 1
            print(f"operation {fn.__name__} failed: {exc!r}", file=sys.stderr)
            return None

    def add(self, name: str, *values: float) -> None:
        self.samples.setdefault(name, []).extend(values)

    def flag(self, problems: List[str]) -> None:
        for p in problems:
            if p not in self.problems:
                self.problems.append(p)
                print(f"check failed: {p}", file=sys.stderr)

    # --- operations ---

    def pipeline_pass(self, stream: EventStream, threads: int, batch: int, windows: int,
                      record: bool):
        w, tracer = self.w, self.tracer
        cfg = PipelineConfig(batch_size=batch, queue_capacity=max(windows, 2 * batch),
                             downscale_to=w.downscale_to, stub_min_area=wl.STUB_MIN_AREA)
        returns: List[float] = []
        with tracer.span(f"pipeline.run_t{threads}_b{batch}") as parent:
            def detect(frames):
                with tracer.span("pipeline.detect", parent):
                    out = stub_detector(frames, cfg.stub_min_area, cfg.stub_activity_thresh)
                returns.append(time.perf_counter())
                return out

            t0 = time.perf_counter()
            res = run_pipeline(stream, cfg, detector_fn=detect, threads=threads)
            wall = time.perf_counter() - t0
        if not record:
            return res
        tag = f"t{threads}_b{batch}"
        keys = checks.detection_keys(res.detections)
        if self.ref_keys is None:
            self.ref_keys = keys
        self.flag(checks.check_pass(tag, res.metrics, keys, self.ref_keys, windows))
        self.add(f"fps_{tag}", windows / wall)
        self.add(f"dropped_{tag}", res.metrics.frames_dropped)
        if (threads, batch) == (1, 1):
            self.add("latency_ms", *(np.diff(returns) * 1e3))
        return res

    def sync_job(self, inp: Inputs, record: bool) -> int:
        w, tr = self.w, self.tracer
        t0 = time.perf_counter()
        clip = slice_interval(inp.stream, 0, w.sync_frames * P)
        with tr.span("sync.event_activity"):
            ev = event_activity_sequence(clip, P, w.sync_frames)
        with tr.span("sync.gray_activity"):
            rgb = gray_activity_sequence(inp.gray)
        with tr.span("sync.raster"):
            ev_r = to_common_raster(ev[: len(rgb)])
        with tr.span("sync.raster"):
            rgb_r = to_common_raster(rgb)
        with tr.span("sync.offset_curve"):
            res = find_offset(ev_r, rgb_r, wl.MAX_OFFSET)
        elapsed = time.perf_counter() - t0
        if record:
            self.add("sync_s", elapsed)
            self.add("raster_grids", len(ev_r) + len(rgb_r))
            self.flag(checks.check_offset(res.best_offset, self.expect["delay"]))
        return res.best_offset

    def label_job(self, inp: Inputs, dets: List[Detection]):
        """transfer_bbox for every keyframe, densify_tracks, evaluate_detections."""
        w, tr = self.w, self.tracer
        tracks = []
        for track in inp.tracks:
            kfs = []
            for kf in track.keyframes:
                with tr.span("geometry.transfer_bbox"):
                    moved = transfer_bbox(kf.box, inp.calib)
                kfs.append(Keyframe(kf.frame_idx, moved.box))
            tracks.append(Track(track.track_id, tuple(kfs)))
        with tr.span("labels.densify"):
            gt = densify_tracks(tracks)
        scored = gt
        if w.downscale_to is not None:  # detections live in the detector's frame
            s = w.downscale_to[0] / wl.SENSOR[0]
            scored = {f: [BBox(b.x * s, b.y * s, b.w * s, b.h * s) for b in boxes]
                      for f, boxes in gt.items()}
        with tr.span("labels.evaluate"):
            report = evaluate_detections(dets, scored, iou_thresh=0.5)
        return tracks, gt, report

    def label_batch(self, inp: Inputs, dets: List[Detection], reps: int, record: bool):
        """``reps`` label jobs timed as one batch; the last job's outputs are checked.

        A job of a few milliseconds runs at either of two speeds for a second or so
        at a time on a shared host, so label_s is the batch mean, not one job."""
        out = None
        t0 = time.perf_counter()
        for _ in range(reps):
            out = self.attempt(self.label_job, inp, dets)
        elapsed = time.perf_counter() - t0
        if not record or out is None:
            return
        tracks, gt, report = out
        self.add("label_s", elapsed / reps)
        self.add("ap", report.ap)
        self.flag(checks.check_transfer(tracks, self.expect["transferred"]))
        if self.expect["truth"] is not None:
            self.flag(checks.check_truth(gt, self.expect["truth"]))
            self.flag(checks.check_ap(report.ap))
        else:
            self.flag(checks.check_counts(report, self.expect["counts"]))

    def replay(self, stream: EventStream, windows: List[int]) -> None:
        """accumulate -> downscale -> stub_detector per sampled window, checked by oracles."""
        w, tr = self.w, self.tracer
        h, wd = stream.height, stream.width
        for k in windows:
            with tr.span("frames.accumulate"):
                frame = accumulate(stream, k * P, P)
            with tr.span("frames.downscale"):
                small = downscale(frame, *wl.RGB)
            with tr.span("pipeline.stub_detector"):
                stub_detector([small if w.downscale_to else frame], wl.STUB_MIN_AREA)
            pos, neg = oracles.count_frame(stream.t, stream.x, stream.y, stream.p, k * P, P, wd, h)
            self.flag(checks.check_frame(f"window {k}", frame, pos, neg))
            self.flag(checks.check_frame(f"window {k} downscaled", small,
                                         oracles.halve(pos), oracles.halve(neg)))


def _median(xs) -> float:
    return float(np.median(xs))


def run(w: wl.Workload, input_dir: Path, seconds: float, trace: bool,
        trace_path: Optional[Path] = None):
    """One benchmark run.

    Returns the result object the runner prints (per-layer metrics when
    traced) and the end-to-end metrics, which a traced run also measures so
    that the tracing overhead can be read off.
    """
    tracer = Tracer(trace)
    expect = json.loads((input_dir / "expect.json").read_text())
    r = Run(w, expect, tracer)
    windows = expect["windows"]
    first = expect["first_window"]

    setup: List[float] = []

    def set_up(reps: int):
        inp = None
        for _ in range(reps):
            inp = None  # free the previous copy before loading the next
            t0 = time.perf_counter()
            inp = r.attempt(load, input_dir, tracer)
            setup.append(time.perf_counter() - t0)
        return inp

    # half the set-ups now, half after the rounds: a burst of load on a shared
    # machine then cannot reach all of them
    inp = set_up((w.setup_reps + 1) // 2)
    if inp is None:
        raise RuntimeError("inputs could not be loaded")
    stream = inp.stream

    # warm-up round, discarded: short t1 passes, one sync and label job. No t2
    # pass runs before peak_rss_mb is read: a second thread's malloc arena
    # makes the resident size depend on scheduling.
    warm = slice_interval(stream, first * P, (first + WARMUP_WINDOWS) * P)
    for batch in (1, 4):
        r.attempt(r.pipeline_pass, warm, 1, batch, WARMUP_WINDOWS, False)
    r.attempt(r.sync_job, inp, False)
    r.label_batch(inp, inp.detections or [], 1, False)
    n_spans_warm = len(tracer.spans)

    sample = np.linspace(first, first + windows - 1, min(REPLAY_WINDOWS, windows)).round()
    replay_windows = sorted({int(k) for k in sample})
    rss_mb = None
    dets = inp.detections

    def label_jobs():
        # one batch after each job of the round, so that the short label jobs are
        # spread over the round, for the same reason as the set-ups
        if dets is not None:
            r.label_batch(inp, dets, w.label_reps, True)

    begin = time.perf_counter()
    rounds = 0
    while True:
        t_round = time.perf_counter()
        res = r.attempt(r.pipeline_pass, stream, 1, 1, windows, True)
        if inp.detections is None:
            dets = getattr(res, "detections", None)
        label_jobs()
        r.attempt(r.pipeline_pass, stream, 1, 4, windows, True)
        label_jobs()
        r.attempt(r.sync_job, inp, True)
        label_jobs()
        if rss_mb is None:
            # the t2 queue may hold up to every window; how full it gets depends
            # on thread scheduling, so the memory figure is read before t2 first runs
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for _ in range(w.t2_reps):
            r.attempt(r.pipeline_pass, stream, 2, 1, windows, True)
        label_jobs()
        if trace:
            r.attempt(r.replay, stream, replay_windows)
        rounds += 1
        now = time.perf_counter()
        if rounds >= MIN_ROUNDS and (now - begin) + (now - t_round) > seconds:
            break
    if not trace:  # the traced run checks every replayed window; this run checks three
        r.attempt(r.replay, stream, replay_windows[:: max(1, len(replay_windows) // 3)][:3])
    edges = np.arange(first, first + windows + 1, dtype=np.uint64) * np.uint64(P)
    per_window = np.diff(np.searchsorted(stream.t, edges))
    measured_end = len(tracer.spans)
    del inp, stream, warm, res, dets
    set_up(w.setup_reps // 2)

    s = r.samples
    missing = [k for k in ("fps_t1_b1", "fps_t1_b4", "fps_t2_b1", "latency_ms", "ap", "sync_s",
                           "label_s") if not s.get(k)]
    if missing:
        raise RuntimeError(f"every operation behind {missing} failed; no figure to report")
    lat = s["latency_ms"]
    e2e = {
        "setup_s": _median(setup),
        "peak_rss_mb": rss_mb,
        "fps_t1_b1": _median(s["fps_t1_b1"]),
        "fps_t1_b4": _median(s["fps_t1_b4"]),
        "fps_t2_b1": _median(s["fps_t2_b1"]),
        "latency_p50_ms": float(np.percentile(lat, 50)),
        "latency_p95_ms": float(np.percentile(lat, 95)),
        "ap": _median(s["ap"]),
        "sync_s": _median(s["sync_s"]),
        "label_s": _median(s["label_s"]),
    }
    if trace:
        measured = Tracer(True)
        measured.spans = tracer.spans[n_spans_warm:measured_end]
        metrics, units = _per_layer(tracer, measured, s, per_window, windows), PER_LAYER
        if trace_path is not None:
            tracer.write(trace_path)
    else:
        metrics, units = e2e, END_TO_END
    print(f"{w.name} seed {w.seed}: {rounds} measured rounds in "
          f"{time.perf_counter() - begin:.1f} s, {len(lat)} latency samples; fps per pass: "
          + ", ".join(f"{k[4:]} " + " ".join(f"{v:.1f}" for v in s[k])
                      for k in ("fps_t1_b1", "fps_t1_b4", "fps_t2_b1")), file=sys.stderr)
    result = {
        "correct": not r.problems,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, e2e


def _per_layer(setup: Tracer, tr: Tracer, s: Dict[str, List[float]], per_window: np.ndarray,
               windows: int) -> Dict[str, float]:
    """Per-layer figures from the measured rounds' spans; decode and reads from set-up."""
    t1 = [sp for sp in tr.spans if sp[1] == "pipeline.run_t1_b1"]
    t2 = [sp for sp in tr.spans if sp[1] == "pipeline.run_t2_b1"]
    detect, self_ms, waits = [], [], []
    for sp in t1:
        kids = tr.children(sp[0], "pipeline.detect")
        durs = [(k[3] - k[2]) * 1e3 for k in kids]
        detect += durs
        self_ms.append(((sp[3] - sp[2]) * 1e3 - sum(durs)) / windows)
    for sp in t2:
        kids = sorted(tr.children(sp[0], "pipeline.detect"), key=lambda k: k[2])
        waits += [(b[2] - a[3]) * 1e3 for a, b in zip(kids, kids[1:])]
    raster = tr.ms("sync.raster")
    raster_per_grid = [(a + b) / g for a, b, g in zip(raster[::2], raster[1::2], s["raster_grids"])]
    acc = tr.ms("frames.accumulate")
    return {
        "events.decode_ms": _median(setup.ms("events.decode")),
        "netpbm.read_ms_per_frame": _median(setup.ms("netpbm.read")),
        "frames.events_per_window_p50": float(np.median(per_window)),
        "frames.accumulate_ms_p50": float(np.percentile(acc, 50)),
        "frames.accumulate_ms_p95": float(np.percentile(acc, 95)),
        "frames.downscale_ms_p50": _median(tr.ms("frames.downscale")),
        "pipeline.detect_ms_p50": float(np.percentile(detect, 50)),
        "pipeline.detect_ms_p95": float(np.percentile(detect, 95)),
        "pipeline.run_self_ms_per_window": _median(self_ms),
        "pipeline.consumer_wait_ms_p50": _median(waits),
        "pipeline.frames_dropped": float(max(s["dropped_t2_b1"])),
        "labels.evaluate_ms": _median(tr.ms("labels.evaluate")),
        "labels.densify_ms": _median(tr.ms("labels.densify")),
        "geometry.transfer_bbox_us_p50": _median(tr.ms("geometry.transfer_bbox")) * 1e3,
        "sync.event_activity_ms": _median(tr.ms("sync.event_activity")),
        "sync.gray_activity_ms": _median(tr.ms("sync.gray_activity")),
        "sync.raster_ms_per_grid": _median(raster_per_grid),
        "sync.offset_curve_ms": _median(tr.ms("sync.offset_curve")),
    }
