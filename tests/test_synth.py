import numpy as np
import pytest

from evflow.errors import DegenerateTrajectory
from evflow.events import EventStream, SensorGeometry, slice_interval
from evflow.labels import interpolate_track
from evflow.synth import (
    DiscTrajectory,
    JITTER_US,
    generate_disc_events,
    ground_truth_boxes,
)

GEOM = SensorGeometry(640, 480)


def moving_disc(vx=60.0, vy=30.0, duration=2.0, density=300.0, radius=12.0,
                start=(100.0, 100.0)):
    return DiscTrajectory(start, (vx, vy), radius, duration, density)


def test_static_disc_emits_nothing():
    s = generate_disc_events(moving_disc(vx=0.0, vy=0.0), GEOM, seed=1)
    assert len(s) == 0


def test_same_seed_same_stream():
    traj = moving_disc()
    assert generate_disc_events(traj, GEOM, 7) == generate_disc_events(traj, GEOM, 7)


def test_different_seed_different_stream():
    traj = moving_disc()
    assert generate_disc_events(traj, GEOM, 7) != generate_disc_events(traj, GEOM, 8)


def test_generated_stream_validates():
    for seed in range(4):
        s = generate_disc_events(moving_disc(), GEOM, seed)
        assert EventStream(GEOM, s.t, s.x, s.y, s.p, check=True) == s


def test_rightward_motion_separates_polarity_means():
    s = generate_disc_events(moving_disc(vx=80.0, vy=0.0), GEOM, seed=3)
    T = 100_000
    checked = 0
    for k in range(0, 20):
        w = slice_interval(s, k * T, (k + 1) * T)
        if len(w) < 50:
            continue
        pos_x = w.x[w.p == 1].astype(float)
        neg_x = w.x[w.p == 0].astype(float)
        if pos_x.size and neg_x.size:
            assert pos_x.mean() > neg_x.mean()
            checked += 1
    assert checked >= 10


def test_off_sensor_trajectory_rejected():
    traj = DiscTrajectory((-500.0, -500.0), (-10.0, 0.0), 10.0, 1.0, 100.0)
    with pytest.raises(DegenerateTrajectory):
        generate_disc_events(traj, GEOM, seed=0)


def test_event_count_scales_linearly_with_density():
    base = moving_disc(density=200.0)
    scaled = moving_disc(density=600.0)
    n_base = np.mean([len(generate_disc_events(base, GEOM, s)) for s in range(5)])
    n_scaled = np.mean([len(generate_disc_events(scaled, GEOM, s)) for s in range(5)])
    assert n_scaled / n_base == pytest.approx(3.0, rel=0.10)


def test_events_inside_dilated_ground_truth_box():
    # slow disc: band + in-window motion + jitter stays within 2 px of the box
    traj = moving_disc(vx=40.0, vy=30.0, duration=3.0, density=400.0)
    s = generate_disc_events(traj, GEOM, seed=5)
    P = 33_333
    track = ground_truth_boxes(traj, P, GEOM)
    for kf in track.keyframes:
        w = slice_interval(s, kf.frame_idx * P, (kf.frame_idx + 1) * P)
        if not len(w):
            continue
        b = kf.box
        assert w.x.min() >= b.x - 2 and w.x.max() <= b.x + b.w + 2
        assert w.y.min() >= b.y - 2 and w.y.max() <= b.y + b.h + 2


def test_timestamps_within_duration():
    traj = moving_disc(duration=1.0)
    s = generate_disc_events(traj, GEOM, seed=9)
    assert int(s.t[-1]) < 1_000_000
    assert int(s.t[0]) >= 0


def test_ground_truth_full_disc_box():
    traj = DiscTrajectory((100.0, 100.0), (1.0, 0.0), 10.0, 1.0, 100.0)
    track = ground_truth_boxes(traj, 33_333, GEOM)
    b = track.keyframes[0].box
    # frame-0 midpoint moves the center by 1 px/s * 16.7 ms
    assert b.x == pytest.approx(90.0, abs=0.02)
    assert b.y == pytest.approx(90.0)
    assert (b.w, b.h) == (20.0, 20.0)


def test_ground_truth_center_steps_follow_velocity():
    traj = DiscTrajectory((100.0, 100.0), (30.0, 0.0), 10.0, 2.0, 100.0)
    track = ground_truth_boxes(traj, 33_333, GEOM)
    xs = [kf.box.x + kf.box.w / 2 for kf in track.keyframes[:20]]
    steps = np.diff(xs)
    assert np.allclose(steps, 30.0 * 33_333 * 1e-6, atol=1e-9)


def test_ground_truth_clipped_matches_direct_computation():
    # disc straddling the left edge
    traj = DiscTrajectory((5.0, 100.0), (0.0, 20.0), 15.0, 1.0, 100.0)
    track = ground_truth_boxes(traj, 33_333, GEOM)
    for kf in track.keyframes:
        t_mid = (kf.frame_idx + 0.5) * 33_333 * 1e-6
        cx, cy = traj.center_at(t_mid)
        x0, x1 = max(0.0, cx - 15.0), min(640.0, cx + 15.0)
        y0, y1 = max(0.0, cy - 15.0), min(480.0, cy + 15.0)
        assert kf.box.x == pytest.approx(x0)
        assert kf.box.w == pytest.approx(x1 - x0)
        assert kf.box.w < 30.0  # clipping actually reduced the width
        assert kf.box.h == pytest.approx(y1 - y0)


def test_ground_truth_frame_count_follows_duration():
    dur_frames = 30
    traj = moving_disc(duration=dur_frames * 33_333 * 1e-6)
    track = ground_truth_boxes(traj, 33_333, GEOM)
    assert len(track.keyframes) == dur_frames
    assert interpolate_track(track, 0) is not None


def test_trajectory_validation():
    with pytest.raises(ValueError):
        DiscTrajectory((0, 0), (1, 1), -1.0, 1.0, 10.0)
    with pytest.raises(ValueError):
        DiscTrajectory((0, 0), (1, 1), 1.0, 0.0, 10.0)
    with pytest.raises(ValueError):
        DiscTrajectory((0, 0), (1, 1), 1.0, 1.0, 0.0)
