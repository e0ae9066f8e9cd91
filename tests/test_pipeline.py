import threading
import time
import tracemalloc
import weakref
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from evflow.errors import ConfigInvalid, MissingField, UpscaleUnsupported
from evflow.events import EventStream, SensorGeometry
from evflow import frames as frames_mod
from evflow import pipeline as pipeline_mod
from evflow.frames import PolarityFrame, downscale, window_frames
from evflow.labels import (
    BBox,
    Detection,
    densify_tracks,
    evaluate_detections,
    interpolate_track,
    iou,
    write_detections_csv,
)
from evflow.pipeline import (
    PipelineConfig,
    pipeline_from_config,
    run_pipeline,
    stub_detector,
)
from evflow.synth import DiscTrajectory, generate_disc_events, ground_truth_boxes

GEOM = SensorGeometry(640, 480)
WINDOW = 33_333


def frame_from_grid(pos, neg=None):
    h, w = pos.shape
    if neg is None:
        neg = np.zeros_like(pos)
    return PolarityFrame(w, h, 0, WINDOW, pos.astype(np.uint8), neg.astype(np.uint8))


def disc_recording(seconds=3.0, seed=4, velocity=(95.0, 40.0), density=700.0):
    n_windows = int(round(seconds * 1e6 / WINDOW))
    traj = DiscTrajectory((70.0, 80.0), velocity, 14.0, n_windows * WINDOW * 1e-6, density)
    stream = generate_disc_events(traj, GEOM, seed)
    track = ground_truth_boxes(traj, WINDOW, GEOM)
    return stream, track, n_windows


def detection_keys(dets):
    return [(d.frame_idx, d.box.x, d.box.y, d.box.w, d.box.h, d.confidence) for d in dets]


def offline_frames(events, cfg):
    """Reference frames: every window's full-resolution frame, downscaled after."""
    frames = list(window_frames(events, cfg.integration_window))
    if cfg.downscale_to is not None:
        frames = [downscale(f, *cfg.downscale_to) for f in frames]
    return frames


def offline_detections(events, cfg):
    """Reference path: every window's frame in a list, then the stub detector
    batch by batch, with no read-ahead."""
    frames = offline_frames(events, cfg)
    detections = []
    for i in range(0, len(frames), cfg.batch_size):
        for dets in stub_detector(frames[i : i + cfg.batch_size], cfg.stub_min_area,
                                  cfg.stub_activity_thresh):
            detections.extend(dets)
    return detections


def full_frame_stub_detector(batch, min_area, activity_thresh):
    """Reference for stub_detector: labels the whole frame's thresholded activity."""
    out = []
    for f in batch:
        act = np.add(f.pos, f.neg, dtype=np.uint16)
        labels, _ = ndimage.label(act >= activity_thresh)  # default structure: 4-connected
        dets = []
        for comp, sl in enumerate(ndimage.find_objects(labels), start=1):
            region = labels[sl] == comp
            if int(region.sum()) < min_area:
                continue
            ys, xs = sl
            box = BBox(float(xs.start), float(ys.start), float(xs.stop - xs.start),
                       float(ys.stop - ys.start))
            mass = float(act[sl][region].sum())
            dets.append(Detection(f.frame_index, box, min(1.0, mass / 255.0)))
        out.append(dets)
    return out


# --- stub detector ---


def test_stub_empty_frame_no_detections():
    f = frame_from_grid(np.zeros((48, 64)))
    assert stub_detector([f]) == [[]]


class ReadSpy(np.ndarray):
    """A channel that records each ufunc applied to it and each index into it."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        self.reads.append(f"{ufunc.__name__}.{method}")
        inputs = [i.view(np.ndarray) if isinstance(i, ReadSpy) else i for i in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)

    def __getitem__(self, key):
        self.reads.append("index")
        return self.view(np.ndarray)[key]


def test_stub_does_not_read_an_empty_window():
    reads = []
    pos, neg = (np.zeros((48, 64), dtype=np.uint8).view(ReadSpy) for _ in range(2))
    pos.reads = neg.reads = reads
    empty = PolarityFrame(64, 48, 0, WINDOW, pos, neg, events=0)
    assert stub_detector([empty]) == [[]]
    assert reads == []
    # the same channels with an unknown count (a frame read back from PFR1) are read
    assert stub_detector([replace(empty, events=None)]) == [[]]
    assert reads


def test_stub_rejects_activity_threshold_below_one():
    # at 0 the empty background would be a blob, and it lies outside the active box
    with pytest.raises(ValueError):
        stub_detector([frame_from_grid(np.zeros((4, 4)))], activity_thresh=0)


@settings(max_examples=300)
@given(data=st.data())
def test_stub_detector_equals_full_frame_oracle(data):
    w, h = data.draw(st.integers(1, 24)), data.draw(st.integers(1, 16))
    frames = []
    for k in range(data.draw(st.integers(1, 3))):
        chans = np.zeros((2, h, w), dtype=np.uint8)
        for _ in range(data.draw(st.integers(0, 6))):  # no blob: an empty frame
            # small blobs, so frames hold several; often touching each border
            x0 = data.draw(st.one_of(st.just(0), st.integers(0, w - 1)))
            y0 = data.draw(st.one_of(st.just(0), st.integers(0, h - 1)))
            x1 = data.draw(st.one_of(st.just(w), st.integers(x0 + 1, min(w, x0 + 4))))
            y1 = data.draw(st.one_of(st.just(h), st.integers(y0 + 1, min(h, y0 + 4))))
            value = data.draw(st.one_of(st.integers(1, 4), st.just(255)))
            chans[data.draw(st.integers(0, 1)), y0:y1, x0:x1] = value
        # a frame with no blob may come from an empty window (events == 0)
        events = None if chans.any() else data.draw(st.sampled_from([None, 0]))
        frames.append(PolarityFrame(w, h, k * WINDOW, WINDOW, chans[0], chans[1], events))
    min_area = data.draw(st.integers(1, 10))
    thresh = data.draw(st.integers(1, 3))
    want = full_frame_stub_detector(frames, min_area, thresh)
    got = stub_detector(frames, min_area, thresh)
    assert [detection_keys(d) for d in got] == [detection_keys(d) for d in want]


def test_stub_single_disc_per_frame():
    stream, track, _ = disc_recording(seconds=2.0)
    frames = list(window_frames(stream, WINDOW))
    per_frame = stub_detector(frames, min_area=20, activity_thresh=1)
    good = 0
    for f, dets in zip(frames, per_frame):
        gt = interpolate_track(track, f.frame_index)
        if gt is None:
            continue
        if len(dets) == 1 and iou(dets[0].box, gt) >= 0.5:
            good += 1
    assert good / len(frames) >= 0.9


def bfs_components(mask):
    """Independent 4-connected labeling by breadth-first search."""
    seen = np.zeros_like(mask, dtype=bool)
    comps = []
    h, w = mask.shape
    for sy in range(h):
        for sx in range(w):
            if not mask[sy, sx] or seen[sy, sx]:
                continue
            queue = [(sy, sx)]
            seen[sy, sx] = True
            cells = []
            while queue:
                y, x = queue.pop()
                cells.append((y, x))
                for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                    if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] and not seen[ny, nx]:
                        seen[ny, nx] = True
                        queue.append((ny, nx))
            comps.append(cells)
    return comps


def test_stub_two_separated_discs():
    pos = np.zeros((48, 64))
    yy, xx = np.mgrid[0:48, 0:64]
    pos[(xx - 15) ** 2 + (yy - 15) ** 2 <= 36] = 3
    pos[(xx - 48) ** 2 + (yy - 32) ** 2 <= 36] = 2
    f = frame_from_grid(pos)
    dets = stub_detector([f], min_area=10, activity_thresh=1)[0]
    assert len(dets) == 2

    comps = bfs_components(pos > 0)
    assert len(comps) == 2
    boxes = sorted(
        (min(x for _, x in c), min(y for y, _ in c),
         max(x for _, x in c) - min(x for _, x in c) + 1,
         max(y for y, _ in c) - min(y for y, _ in c) + 1)
        for c in comps
    )
    got = sorted((d.box.x, d.box.y, d.box.w, d.box.h) for d in dets)
    assert got == [tuple(float(v) for v in b) for b in boxes]


def test_stub_min_area_filters_specks():
    pos = np.zeros((48, 64))
    pos[10:20, 10:20] = 1  # 100 px blob
    pos[40, 60] = 5        # speck
    dets = stub_detector([frame_from_grid(pos)], min_area=8, activity_thresh=1)[0]
    assert len(dets) == 1
    assert dets[0].box.w == 10.0


def test_stub_activity_threshold():
    pos = np.zeros((48, 64))
    pos[5:10, 5:10] = 1
    pos[30:35, 30:35] = 4
    dets = stub_detector([frame_from_grid(pos)], min_area=4, activity_thresh=3)[0]
    assert len(dets) == 1
    assert dets[0].box.x == 30.0


def test_stub_confidence_saturates():
    pos = np.zeros((48, 64))
    pos[10:20, 10:20] = 200
    dets = stub_detector([frame_from_grid(pos)], min_area=4, activity_thresh=1)[0]
    assert dets[0].confidence == 1.0


# --- pipeline ---


def test_pipeline_end_to_end_counts_and_ap():
    stream, track, n_windows = disc_recording(seconds=3.0)
    # capacity covers the whole recording, so drops cannot occur even when
    # the detector is the slower stage on a loaded machine
    cfg = PipelineConfig(batch_size=1, queue_capacity=128, stub_min_area=20)
    res = run_pipeline(stream, cfg, threads=2)
    assert res.metrics.frames_produced == n_windows
    assert res.metrics.frames_dropped == 0
    assert res.metrics.frames_inferred == n_windows
    assert evaluate_detections(res.detections, densify_tracks([track])).ap >= 0.9


def test_pipeline_batch_sizes_do_not_change_detections():
    stream, _, _ = disc_recording(seconds=1.5)
    outs = []
    for b in (1, 2, 4, 16):
        cfg = PipelineConfig(batch_size=b, queue_capacity=64, stub_min_area=20)
        outs.append(detection_keys(run_pipeline(stream, cfg, threads=1).detections))
    assert outs[0] == outs[1] == outs[2] == outs[3]


def test_pipeline_threaded_matches_single_threaded():
    stream, _, _ = disc_recording(seconds=1.5)
    cfg = PipelineConfig(batch_size=4, queue_capacity=64, stub_min_area=20)
    a = run_pipeline(stream, cfg, threads=1)
    b = run_pipeline(stream, cfg, threads=2)
    assert detection_keys(a.detections) == detection_keys(b.detections)


def test_pipeline_matches_offline_reference():
    stream, _, _ = disc_recording(seconds=1.5)
    cfg = PipelineConfig(batch_size=4, queue_capacity=256, stub_min_area=20)
    res = run_pipeline(stream, cfg, threads=2)
    ref = offline_detections(stream, cfg)
    assert detection_keys(res.detections) == detection_keys(ref)


@settings(max_examples=40)
@given(data=st.data())
def test_pipeline_is_lossless_and_deterministic(data):
    w, h = data.draw(st.integers(1, 64)), data.draw(st.integers(1, 48))
    event = st.tuples(st.integers(0, 20_000), st.integers(0, w - 1), st.integers(0, h - 1),
                      st.integers(0, 1))
    t, x, y, p = zip(*sorted(data.draw(st.lists(event, min_size=1, max_size=300))))
    stream = EventStream(SensorGeometry(w, h), t, x, y, p)
    window = data.draw(st.integers(200, 5_000))
    min_area = data.draw(st.integers(1, 8))
    n_windows = len(list(window_frames(stream, window)))
    ref = detection_keys(offline_detections(stream, PipelineConfig(window, stub_min_area=min_area)))
    for b in (1, 3):
        for capacity in (b, 2 * b + 1):
            cfg = PipelineConfig(window, b, queue_capacity=capacity, stub_min_area=min_area)
            for threads in (1, 2):
                res = run_pipeline(stream, cfg, threads=threads)
                assert res.metrics.frames_inferred == res.metrics.frames_produced == n_windows
                assert detection_keys(res.detections) == ref


@pytest.mark.parametrize("batch, capacity", [(1, 1), (1, None), (4, 4), (4, None)])
def test_pipeline_slow_detector_loses_nothing(batch, capacity):
    # the detector is the slower stage, so the queue fills; None is the default 2 * batch
    stream, _, n_windows = disc_recording(seconds=1.5)
    cfg = PipelineConfig(batch_size=batch, queue_capacity=capacity, stub_min_area=20)

    def slow_detector(frames):
        time.sleep(0.01 * len(frames))
        return stub_detector(frames, cfg.stub_min_area, cfg.stub_activity_thresh)

    res = run_pipeline(stream, cfg, detector_fn=slow_detector, threads=2)
    ref = run_pipeline(stream, cfg, threads=1)
    assert res.metrics.frames_dropped == 0
    assert res.metrics.frames_inferred == res.metrics.frames_produced == n_windows
    assert detection_keys(res.detections) == detection_keys(ref.detections)


@pytest.mark.parametrize("threads", [1, 2])
def test_pipeline_batches_are_full_but_the_last(threads):
    stream, _, n_windows = disc_recording(seconds=10 * WINDOW * 1e-6)
    assert n_windows == 10
    cfg = PipelineConfig(batch_size=4)
    for events, expected in ((stream, [4, 4, 2]), (EventStream.empty(GEOM), [])):
        sizes = []

        def record(frames):
            sizes.append(len(frames))
            return [[] for _ in frames]

        res = run_pipeline(events, cfg, detector_fn=record, threads=threads)
        assert sizes == expected
        assert res.metrics.frames_produced == res.metrics.frames_inferred == sum(expected)


def test_pipeline_frees_each_batch_before_cutting_the_next(monkeypatch):
    # a batch kept alive while the next one is cut costs batch_size frames of
    # memory; only the newest frame, which the producer still names, may live
    stream, _, _ = disc_recording(seconds=10 * WINDOW * 1e-6)
    inferred = []

    def detect(frames):
        inferred.extend(weakref.ref(f) for f in frames)
        return [[] for _ in frames]

    def checked_frames(*args, **kwargs):
        for frame in window_frames(*args, **kwargs):
            assert sum(ref() is not None for ref in inferred) <= 1
            yield frame

    monkeypatch.setattr(pipeline_mod, "window_frames", checked_frames)
    res = run_pipeline(stream, PipelineConfig(batch_size=4), detector_fn=detect, threads=1)
    assert res.metrics.frames_inferred == len(inferred) == 10


def accumulate_workers():
    return [t for t in threading.enumerate() if t.name.startswith("evflow-accumulate")]


def test_pipeline_detector_error_stops_worker():
    stream, _, _ = disc_recording(seconds=1.5)
    cfg = PipelineConfig(batch_size=1, queue_capacity=1, stub_min_area=20)
    calls = []

    def failing_detector(frames):
        calls.append(len(frames))
        if len(calls) == 3:
            raise RuntimeError("detector failed")
        return [[] for _ in frames]

    with pytest.raises(RuntimeError, match="detector failed"):
        run_pipeline(stream, cfg, detector_fn=failing_detector, threads=2)
    assert len(calls) == 3
    assert accumulate_workers() == []


@pytest.mark.parametrize("threads", [1, 2])
def test_pipeline_producer_error_reraises(threads):
    stream, _, _ = disc_recording(seconds=0.5)
    cfg = PipelineConfig(downscale_to=(1280, 960))
    with pytest.raises(UpscaleUnsupported):
        run_pipeline(stream, cfg, threads=threads)
    assert accumulate_workers() == []


def test_pipeline_external_detections_replay(tmp_path):
    stream, track, _ = disc_recording(seconds=1.0)
    cfg = PipelineConfig(batch_size=2, queue_capacity=16, stub_min_area=20)
    stub_out = run_pipeline(stream, cfg, threads=1).detections
    path = tmp_path / "dets.csv"
    write_detections_csv(stub_out, str(path))

    replay_cfg = PipelineConfig(batch_size=2, queue_capacity=16, detector=str(path))
    res = run_pipeline(stream, replay_cfg, threads=1)
    assert detection_keys(res.detections) == detection_keys(stub_out)
    assert evaluate_detections(res.detections, densify_tracks([track])).ap >= 0.9


def test_pipeline_downscale_halves_frame():
    stream, _, _ = disc_recording(seconds=1.0)
    cfg = PipelineConfig(batch_size=1, queue_capacity=8, downscale_to=(320, 240),
                         stub_min_area=4)
    res = run_pipeline(stream, cfg, threads=1)
    assert all(d.box.x < 320 and d.box.y < 240 for d in res.detections)
    assert res.detections  # the disc still shows up at quarter resolution


@pytest.mark.parametrize("threads", [1, 2])
def test_pipeline_downscale_never_builds_a_full_frame(monkeypatch, threads):
    stream, _, _ = disc_recording(seconds=1.0)
    cfg = PipelineConfig(batch_size=2, downscale_to=(213, 160), stub_min_area=4)
    want_frames, want = offline_frames(stream, cfg), offline_detections(stream, cfg)

    def no_full_frame(*args):
        raise AssertionError("a full-resolution frame was built")

    monkeypatch.setattr(frames_mod, "_scatter", no_full_frame)
    seen = []

    def detect(batch):
        seen.extend(batch)
        return stub_detector(batch, cfg.stub_min_area, cfg.stub_activity_thresh)

    res = run_pipeline(stream, cfg, detector_fn=detect, threads=threads)
    assert detection_keys(res.detections) == detection_keys(want) != []
    assert len(seen) == len(want_frames) == 30
    for g, w in zip(seen, want_frames):
        assert (g.width, g.height, g.t0, g.events) == (w.width, w.height, w.t0, w.events)
        assert np.array_equal(g.pos, w.pos) and np.array_equal(g.neg, w.neg)


def test_pipeline_metrics_percentiles_present():
    stream, _, _ = disc_recording(seconds=1.0)
    res = run_pipeline(stream, PipelineConfig(queue_capacity=8), threads=2)
    for stage in ("accumulate", "detect"):
        for pct in ("p50", "p95", "p99"):
            assert res.metrics.stage_latency_ms[stage][pct] >= 0.0
    assert res.metrics.throughput_fps > 0


def test_pipeline_env_var_selects_threading(monkeypatch):
    stream, _, _ = disc_recording(seconds=0.5)
    cfg = PipelineConfig(queue_capacity=8, stub_min_area=20)
    monkeypatch.setenv("EVFLOW_THREADS", "1")
    a = run_pipeline(stream, cfg)
    monkeypatch.setenv("EVFLOW_THREADS", "2")
    b = run_pipeline(stream, cfg)
    assert detection_keys(a.detections) == detection_keys(b.detections)
    for raw in ("3", "abc"):
        monkeypatch.setenv("EVFLOW_THREADS", raw)
        with pytest.raises(ConfigInvalid, match=raw):
            run_pipeline(stream, cfg)


def test_pipeline_config_validation():
    # every check runs when the config is built, so no caller can skip it
    for kwargs in (
        {"integration_window": 0},
        {"integration_window": 2**64},
        {"batch_size": 0},
        {"batch_size": 2**63},
        {"batch_size": 2**62},  # its default capacity 2 * batch_size reaches 2**63
        {"batch_size": 4, "queue_capacity": 2},
        {"queue_capacity": 2**63},
        {"stub_activity_thresh": 0},
    ):
        with pytest.raises(ConfigInvalid):
            PipelineConfig(**kwargs)
    for size in ((0, 0), (32, -5)):
        with pytest.raises(ConfigInvalid, match="downscale_to"):
            PipelineConfig(downscale_to=size)
    top = PipelineConfig(batch_size=2**63 - 1, queue_capacity=2**63 - 1)
    assert (top.batch_size, top.queue_capacity) == (2**63 - 1, 2**63 - 1)
    assert PipelineConfig(integration_window=2**64 - 1).integration_window == 2**64 - 1
    cfg = PipelineConfig(batch_size=3)
    assert cfg.queue_capacity == 6
    with pytest.raises(FrozenInstanceError):
        cfg.batch_size = 0
    assert cfg == PipelineConfig(batch_size=3, queue_capacity=6)


def test_read_ahead_is_bounded_by_the_window_count():
    # 9 windows with a 3x3 blob each; a capacity far past the window count
    # must not create a future per unit of capacity before the first frame
    ks = np.repeat(np.arange(9), 9)
    xs = np.tile(np.repeat(np.arange(3), 3), 9) + 2 * ks
    ys = np.tile(np.tile(np.arange(3), 3), 9) + 10
    stream = EventStream(SensorGeometry(32, 24), ks * WINDOW + 100, xs, ys, np.ones_like(ks))
    cfg = PipelineConfig(queue_capacity=50_000)
    ref = run_pipeline(stream, cfg, threads=1)
    tracemalloc.start()
    try:
        res = run_pipeline(stream, cfg, threads=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert detection_keys(res.detections) == detection_keys(ref.detections)
    assert len(ref.detections) == res.metrics.frames_inferred == 9
    assert peak < 8 * 2**20


def test_pipeline_from_config_reads_every_key():
    cfg = pipeline_from_config({
        "integration_window_us": "10000", "batch_size": "4", "queue_capacity": "8",
        "detector": "dets.csv", "downscale_to": "320 240", "stub_min_area": "20",
        "stub_activity_thresh": "2",
    })
    assert cfg == PipelineConfig(10_000, 4, "dets.csv", (320, 240), 8, 20, 2)
    assert pipeline_from_config({"downscale_to": "None"}) == PipelineConfig()


@pytest.mark.parametrize("values", [
    {"batch_size": "two"},
    {"batch_size": "2.5"},
    {"batch_size": "1 2"},
    {"downscale_to": "320"},
    {"downscale_to": "320 inf"},
    {"batch_size": "4", "queue_capacity": "2"},
    {"stub_activity_thresh": "0"},
    {"downscale_to": "0 0"},
    {"downscale_to": "32 -5"},
    {"downscale_to": "1.5 2.7"},
    {"integration_window_us": "0"},
    {"batch_size": str(2**63)},
    {"queue_capacity": str(2**63)},
])
def test_pipeline_from_config_rejects_malformed_value(values):
    with pytest.raises(ConfigInvalid):
        pipeline_from_config(values)


def test_missing_field_is_a_config_error():
    assert issubclass(MissingField, ConfigInvalid)
