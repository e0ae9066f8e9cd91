"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. The heavy criteria (throughput, end-to-end) stay
within their stated time budgets on commodity hardware.
"""

import math
import time

import numpy as np
import pytest
from scipy import optimize

from evflow.bench import PowerTrace, batching_latency, energy_per_frame, smooth
from evflow.events import EventStream, SensorGeometry
from evflow.frames import PolarityFrame, accumulate
from evflow.geometry import (
    Camera,
    CameraPair,
    Distortion,
    Extrinsics,
    Intrinsics,
    distort,
    transfer_point,
    undistort,
)
from evflow.labels import BBox, Detection, densify_tracks, evaluate_detections
from evflow.pipeline import PipelineConfig, run_pipeline
from evflow.sync import (
    GrayFrameSequence,
    event_activity_sequence,
    find_offset,
    gray_activity_sequence,
    to_common_raster,
    zncc,
)
from evflow.synth import DiscTrajectory, generate_disc_events, ground_truth_boxes, render_gray_frames

from test_geometry import axis_angle_rotation, oracle_transfer, safe_radius


def report(n, desc):
    def wrap(fn):
        def run():
            try:
                fn()
            except BaseException:
                print(f"\n[FAIL] criterion {n}: {desc}")
                raise
            print(f"\n[PASS] criterion {n}: {desc}")

        run.__name__ = fn.__name__
        return run

    return wrap


def sorted_times(rng, n, t_max):
    # sorted timestamps without an O(n log n) sort: cumulative positive steps
    steps = rng.integers(0, max(2 * t_max // n, 2), n, dtype=np.uint64)
    t = np.cumsum(steps)
    return np.minimum(t, t_max - 1)


def random_stream(geom, n, rng, t_max=1_000_000):
    return EventStream(
        geom,
        sorted_times(rng, n, t_max),
        rng.integers(0, geom.width, n, dtype=np.uint16),
        rng.integers(0, geom.height, n, dtype=np.uint16),
        rng.integers(0, 2, n, dtype=np.uint8),
        check=False,
    )


def test_criterion_1_frame_footprint():
    @report(1, "1280x720 polarity frame payload is exactly 1,843,200 bytes")
    def body():
        f = accumulate(EventStream.empty(SensorGeometry(1280, 720)), 0, 33_333)
        assert f.payload_bytes == 1_843_200
        assert f.pos.nbytes == f.neg.nbytes == 1280 * 720

    body()


def test_criterion_2_accumulation_oracle():
    @report(2, "accumulate matches a brute-force counter bit-exactly on 100 random streams")
    def body():
        rng = np.random.default_rng(2024)
        t_begin = time.perf_counter()
        saturated_streams = 0
        for i in range(100):
            n = int(10 ** rng.uniform(4, 6))
            geom = SensorGeometry(64, 48) if i % 2 else SensorGeometry(1280, 720)
            s = random_stream(geom, n, rng, t_max=200_000)
            if i % 2:
                # funnel a third of the events onto one pixel to force saturation
                x = s.x.copy(); y = s.y.copy()
                x[::3] = 7; y[::3] = 5
                s = EventStream(geom, s.t, x, y, s.p, check=False)
            t0, dur = 20_000, 120_000
            f = accumulate(s, t0, dur)

            sel = (s.t >= t0) & (s.t < t0 + dur)
            pos = np.zeros((geom.height, geom.width), dtype=np.int64)
            neg = np.zeros((geom.height, geom.width), dtype=np.int64)
            xs, ys, ps = s.x[sel], s.y[sel], s.p[sel]
            np.add.at(pos, (ys[ps == 1], xs[ps == 1]), 1)
            np.add.at(neg, (ys[ps == 0], xs[ps == 0]), 1)
            assert np.array_equal(f.pos, np.minimum(pos, 255).astype(np.uint8))
            assert np.array_equal(f.neg, np.minimum(neg, 255).astype(np.uint8))
            if (f.pos == 255).any() or (f.neg == 255).any():
                saturated_streams += 1
        assert saturated_streams >= 40  # the clipping path is genuinely exercised
        assert time.perf_counter() - t_begin < 10.0

    body()


def test_criterion_3_throughput_floor():
    @report(3, "accumulate sustains >= 10M events/s single-threaded over 1e8 events")
    def body():
        geom = SensorGeometry(1280, 720)
        rng = np.random.default_rng(7)
        chunk, n_chunks = 5_000_000, 20
        total_events = chunk * n_chunks
        busy = 0.0
        for _ in range(n_chunks):
            s = random_stream(geom, chunk, rng, t_max=33_000)
            t0 = time.perf_counter()
            f = accumulate(s, 0, 33_333)
            busy += time.perf_counter() - t0
            assert f.pos.any() or f.neg.any()
        rate = total_events / busy
        print(f"  accumulate rate: {rate / 1e6:.1f} M events/s over {total_events:.0e}")
        assert rate >= 10_000_000

    body()


def test_criterion_4_zncc_properties():
    @report(4, "ZNCC self/affine/shift/cross-modality recovery at stated tolerances")
    def body():
        rng = np.random.default_rng(4)
        # self-correlation and affine invariance
        for _ in range(20):
            a = rng.uniform(0, 255, (24, 32))
            assert abs(zncc(a, a) - 1.0) <= 1e-9
            assert abs(zncc(2.0 * a + 7.0, a) - 1.0) <= 1e-9

        # exact shift recovery for |d| <= 10 on 50 synthetic sequences
        for trial in range(50):
            seq_rng = np.random.default_rng(100 + trial)
            ev = [seq_rng.uniform(0, 255, (16, 20)) for _ in range(36)]
            d = int(seq_rng.integers(-10, 11))
            if d >= 0:
                rgb = [seq_rng.uniform(0, 255, (16, 20)) for _ in range(d)] + ev[: len(ev) - d]
            else:
                rgb = ev[-d:] + [seq_rng.uniform(0, 255, (16, 20)) for _ in range(-d)]
            assert find_offset(ev, rgb, 10).best_offset == d

        # cross-modality: disc events vs delayed gray renders, 20 seeded runs
        geom = SensorGeometry(320, 240)
        P, n, delay = 33_333, 60, 5
        hits = 0
        for seed in range(20):
            run_rng = np.random.default_rng(1000 + seed)
            traj = DiscTrajectory(
                (float(run_rng.uniform(40, 80)), float(run_rng.uniform(60, 120))),
                (float(run_rng.uniform(60, 90)), float(run_rng.uniform(-20, 30))),
                15.0, n * P * 1e-6, 500.0,
            )
            s = generate_disc_events(traj, geom, seed=seed)
            ev_act = event_activity_sequence(s, P, n)
            gray = render_gray_frames(traj, geom, P, n)
            seq = GrayFrameSequence(geom.width, geom.height, P,
                                    tuple([gray[0]] * delay + gray[:-delay]))
            rgb_act = gray_activity_sequence(seq)
            res = find_offset(to_common_raster(ev_act[: len(rgb_act)]),
                              to_common_raster(rgb_act), 8)
            hits += abs(res.best_offset - delay) <= 1
        print(f"  cross-modality offset within +-1 frame: {hits}/20")
        assert hits >= 19

    body()


def test_criterion_5_geometry():
    @report(5, "distortion round trip, identity transfer, and independent transfer oracle")
    def body():
        rng = np.random.default_rng(5)
        worst_rt = 0.0
        for _ in range(10_000):
            d = Distortion(
                rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                rng.uniform(-0.01, 0.01), rng.uniform(-0.01, 0.01),
            )
            r = 0.85 * safe_radius(d) * math.sqrt(rng.uniform())
            th = rng.uniform(0, 2 * math.pi)
            p = (r * math.cos(th), r * math.sin(th))
            est = undistort(distort(p, d), d)
            worst_rt = max(worst_rt, math.hypot(est[0] - p[0], est[1] - p[1]))
        print(f"  round-trip worst error: {worst_rt:.2e} normalized units")
        assert worst_rt <= 1e-6

        intr = Intrinsics(500.0, 500.0, 320.0, 240.0)
        geom = SensorGeometry(640, 480)
        ident = CameraPair(
            Camera(intr, Distortion(), geom),
            Camera(intr, Distortion(), geom),
            Extrinsics(np.eye(3), np.zeros(3)),
        )
        worst_id = 0.0
        for _ in range(1_000):
            px = (rng.uniform(0, 639), rng.uniform(0, 479))
            out = transfer_point(px, ident)
            worst_id = max(worst_id, math.hypot(out[0] - px[0], out[1] - px[1]))
        assert worst_id <= 1e-9

        worst_tr = 0.0
        for _ in range(1_000):
            intr1 = Intrinsics(rng.uniform(400, 700), rng.uniform(400, 700),
                               rng.uniform(300, 340), rng.uniform(220, 260))
            intr2 = Intrinsics(rng.uniform(400, 700), rng.uniform(400, 700),
                               rng.uniform(300, 340), rng.uniform(220, 260))
            d1 = Distortion(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2),
                            rng.uniform(-0.01, 0.01), rng.uniform(-0.01, 0.01))
            d2 = Distortion(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2),
                            rng.uniform(-0.01, 0.01), rng.uniform(-0.01, 0.01))
            pair = CameraPair(
                Camera(intr1, d1, geom),
                Camera(intr2, d2, geom),
                Extrinsics(axis_angle_rotation(rng.normal(size=3), rng.uniform(0, 5)),
                           rng.normal(size=3) * 0.1),
            )
            px = (rng.uniform(200, 440), rng.uniform(160, 320))
            ours = transfer_point(px, pair)
            ref = oracle_transfer(px, pair)
            worst_tr = max(worst_tr, math.hypot(ours[0] - ref[0], ours[1] - ref[1]))
        print(f"  transfer vs oracle worst error: {worst_tr:.2e} px")
        assert worst_tr <= 1e-3

    body()


def test_criterion_6_labels_eval():
    @report(6, "interpolation/IoU exact cases and AP worked example at 1e-6")
    def body():
        from evflow.labels import Keyframe, Track, interpolate_track, iou

        t = Track("a", (Keyframe(0, BBox(0, 0, 10, 10)), Keyframe(10, BBox(100, 0, 10, 10))))
        assert interpolate_track(t, 5).x == 50.0
        assert interpolate_track(t, 10) == t.keyframes[1].box
        assert interpolate_track(t, 11) is None

        assert iou(BBox(2, 3, 8, 9), BBox(2, 3, 8, 9)) == 1.0
        assert iou(BBox(0, 0, 10, 10), BBox(5, 0, 10, 10)) == pytest.approx(1 / 3, abs=1e-15)

        gts = {k: [BBox(15.0 * k, 5, 10, 10)] for k in range(8)}
        perfect = [Detection(k, BBox(15.0 * k, 5, 10, 10), 0.9) for k in range(8)]
        assert evaluate_detections(perfect, gts, 0.5).ap == 1.0
        assert evaluate_detections([], gts, 0.5).ap == 0.0

        # [TP, FP, TP] over two ground truths
        gts3 = {0: [BBox(0, 0, 10, 10)], 1: [BBox(0, 0, 10, 10)]}
        dets3 = [
            Detection(0, BBox(0, 0, 10, 10), 0.9),
            Detection(5, BBox(0, 0, 10, 10), 0.8),
            Detection(1, BBox(0, 0, 10, 10), 0.7),
        ]
        ap = evaluate_detections(dets3, gts3, 0.5).ap
        assert ap == pytest.approx(0.8333333, abs=1e-6)
        # independent envelope evaluation of the same ranking
        recalls, precs = [0.5, 0.5, 1.0], [1.0, 0.5, 2 / 3]
        indep = 0.0
        prev = 0.0
        for i, r in enumerate(recalls):
            env = max(precs[i:])
            indep += (r - prev) * env
            prev = r
        assert ap == pytest.approx(indep, abs=1e-12)

    body()


def test_criterion_7_batching_model():
    @report(7, "B=16/L=100ms -> 633.3 +- 0.5 ms (< 1 s); B=4/L=150ms -> ~283 ms")
    def body():
        res16 = batching_latency(16, 0.100, frame_period=33_333)
        assert res16.worst_case_ms == pytest.approx(633.3, abs=0.5)
        assert res16.worst_case_ms < 1000.0
        assert res16.realtime_feasible

        res4 = batching_latency(4, 0.150, frame_period=33_333)
        assert res4.worst_case_ms == pytest.approx(283.3, abs=0.5)
        print(f"  B=16: {res16.worst_case_ms:.1f} ms, B=4: {res4.worst_case_ms:.1f} ms")

    body()


def test_criterion_8_energy():
    @report(8, "constant-power energy exact, sawtooth within 0.1%, smoothing <= 1e-12")
    def body():
        n = 2001
        tr = PowerTrace(0.0005, np.full(n, 10.0), np.ones(n))
        assert energy_per_frame(tr, 0.0, 1.0, 100) == pytest.approx(100.0, abs=1e-9)

        ramp = np.linspace(5.0, 15.0, 101)[:-1]
        power = np.append(np.tile(ramp, 20), 5.0)
        saw = PowerTrace(0.0005, np.full(power.size, 10.0), power / 10.0)
        got = energy_per_frame(saw, 0.0, 1.0, 1) / 1e3
        expected = 20 * 0.05 * (5.0 + 14.9) / 2
        assert got == pytest.approx(expected, rel=1e-3)

        rng = np.random.default_rng(8)
        noisy = PowerTrace(0.0005, rng.uniform(10, 14, 400), rng.uniform(0.5, 2.0, 400))
        out = smooth(noisy, 10)
        p = noisy.power
        oracle = np.array([p[i : i + 10].mean() for i in range(len(p) - 9)])
        assert np.max(np.abs(out - oracle)) <= 1e-12

    body()


def test_criterion_9_end_to_end():
    @report(9, "10 s synthetic run: AP >= 0.9, identical detections across B and threading")
    def body():
        geom = SensorGeometry(1280, 720)
        n_windows = 300
        traj = DiscTrajectory((100.0, 100.0), (100.0, 55.0), 14.0,
                              n_windows * 33_333 * 1e-6, 700.0)
        stream = generate_disc_events(traj, geom, seed=99)
        track = ground_truth_boxes(traj, 33_333, geom)
        assert len(track.keyframes) == n_windows

        # queue sized to the whole recording: drops are then impossible, so
        # threaded and single-threaded runs must agree exactly
        base_cfg = PipelineConfig(batch_size=1, queue_capacity=320, stub_min_area=20)
        base = run_pipeline(stream, base_cfg, gts=[track], threads=2)
        assert base.metrics.frames_produced == n_windows
        assert base.metrics.frames_dropped == 0
        print(f"  AP = {base.eval_report.ap:.4f} over {n_windows} frames")
        assert base.eval_report.ap >= 0.9

        def keys(dets):
            return [(d.frame_idx, d.box.x, d.box.y, d.box.w, d.box.h, d.confidence)
                    for d in dets]

        ref = keys(base.detections)
        for b in (2, 4, 16):
            cfg = PipelineConfig(batch_size=b, queue_capacity=320, stub_min_area=20)
            out = run_pipeline(stream, cfg, threads=1)
            assert keys(out.detections) == ref, f"batch size {b} changed detections"
        single = run_pipeline(stream, base_cfg, threads=1)
        assert keys(single.detections) == ref

    body()


def test_criterion_10_non_reproducible_paper_numbers_declared():
    @report(10, "hardware-bound numbers declared non-reproducible; ingestion pathways work")
    def body():
        # Not desk-reproducible without the real dataset, the trained model,
        # and the measured Jetson traces: 0.53 mAP, 182 mJ/frame at B=1,
        # ~146 mJ/frame at B=4, <15 W average, <50 ms inference. The exact
        # pathway to reproduce them exists and is exercised here: external
        # detections replay through the evaluator, and measured power traces
        # through the energy model.
        import io

        from evflow.bench import load_power_trace
        from evflow.labels import load_detections_csv, write_detections_csv

        buf = io.StringIO()
        write_detections_csv([Detection(0, BBox(1, 2, 3, 4), 0.53)], buf)
        buf.seek(0)
        replayed = load_detections_csv(buf)
        assert replayed[0].confidence == 0.53

        rows = "\n".join(f"{i * 0.0005:.4f},12,1.1" for i in range(5))
        tr = load_power_trace(io.StringIO("t_s,voltage_v,current_a\n" + rows))
        assert tr.sample_period == pytest.approx(0.0005)
        assert energy_per_frame(tr, 0.0, tr.duration, 1) > 0

    body()
