import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from evflow.errors import DegenerateTrajectory
from evflow.events import EventStream, SensorGeometry, encode_stream, slice_interval
from evflow.labels import BBox, Keyframe, Track, interpolate_track
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
    # numpy's Poisson sampler rejects a mean above about 9.2234e18 events
    DiscTrajectory((0, 0), (1, 1), 1.0, 1.0, 9.2e18)
    with pytest.raises(ValueError, match="event_rate_density"):
        DiscTrajectory((0, 0), (1, 1), 1.0, 2.0, 4.65e18)
    # |v| * (|start| + |v| * duration + 2^17) below 1e150 keeps the generator finite
    with pytest.raises(ValueError, match="center reach"):
        DiscTrajectory((0, 0), (2e75, 0), 1.0, 1.0, 10.0)
    with pytest.raises(ValueError, match="center reach"):
        DiscTrajectory((1e148, 0), (200, 0), 1.0, 1.0, 10.0)


def test_fastest_accepted_disc_generates_without_overflow():
    # warnings are errors: an overflowing square would raise here
    traj = DiscTrajectory((100.0, 0.0), (7e74, 0.0), 14.0, 1.0, 700.0)
    assert len(generate_disc_events(traj, SensorGeometry(65535, 1), seed=0)) == 0
    with pytest.raises(DegenerateTrajectory):  # gone before the first frame's midpoint
        ground_truth_boxes(traj, 33_333, GEOM)


def corner_pass(miss, r=10.0, speed=100.0, t_closest=0.5):
    """A disc passing the sensor's (0, 0) corner, at `miss` px from it at t_closest."""
    n = np.array([-1.0, -1.0]) / math.sqrt(2)   # outward, away from the sensor
    tangent = np.array([1.0, -1.0]) / math.sqrt(2)
    start = n * miss - tangent * speed * t_closest
    return DiscTrajectory(tuple(map(float, start)), tuple(map(float, tangent * speed)), r, 1.0, 50.0)


def test_corner_pass_just_beyond_the_radius_is_degenerate():
    with pytest.raises(DegenerateTrajectory):
        generate_disc_events(corner_pass(10.5), GEOM, seed=0)
    assert len(generate_disc_events(corner_pass(9.5), GEOM, seed=0)) > 0


def test_disc_crossing_a_thin_sensor_between_its_corners_overlaps_it():
    # the center is far from every corner at that corner's closest approach,
    # and far from the sensor at both ends: only the edge crossings see it
    thin = SensorGeometry(1001, 2)
    traj = DiscTrajectory((490.0, -100.0), (100.0, 1000.0), 1.0, 0.2, 50.0)
    assert len(generate_disc_events(traj, thin, seed=0)) > 0


def sampled_min_distance(traj, geom, n=200_001):
    """Least distance from the center to the pixel-center rectangle over n evenly
    spaced times; within half a sampling step of the true minimum."""
    t = np.linspace(0.0, traj.duration, n)
    cx = traj.center_start[0] + traj.velocity[0] * t
    cy = traj.center_start[1] + traj.velocity[1] * t
    dx = np.maximum(np.maximum(-cx, 0.0), cx - (geom.width - 1))
    dy = np.maximum(np.maximum(-cy, 0.0), cy - (geom.height - 1))
    return float(np.hypot(dx, dy).min())


@given(
    sensor=st.sampled_from([(1, 1), (2, 3), (64, 48)]),
    corner=st.tuples(st.integers(0, 1), st.integers(0, 1)),
    at_corner=st.booleans(),
    along=st.floats(0.0, 1.0),
    radius=st.floats(0.5, 20.0),
    offset=st.floats(-4.0, 4.0),
    speed=st.floats(5.0, 500.0),
    t_closest=st.floats(0.1, 0.9),
    backwards=st.booleans(),
)
def test_degeneracy_of_a_pass_equals_the_sampled_path(
    sensor, corner, at_corner, along, radius, offset, speed, t_closest, backwards
):
    # the center comes within radius + offset of the sensor at t_closest and
    # then leaves it: past a corner obliquely, or along an edge from one end
    w, h = sensor
    geom = SensorGeometry(w, h)
    sx, sy = (1.0 if corner[0] else -1.0), (1.0 if corner[1] else -1.0)
    point = np.array([(w - 1) * corner[0], (h - 1) * corner[1]], dtype=float)
    if at_corner:  # outward normal anywhere in the corner's cone
        phi = along * math.pi / 2
        normal = np.array([sx * math.cos(phi), sy * math.sin(phi)])
    else:  # a point on the horizontal edge through the corner
        point[0] = (w - 1) * along
        normal = np.array([0.0, sy])
    tangent = np.array([-normal[1], normal[0]]) * (-1.0 if backwards else 1.0)
    center = point + normal * (radius + offset)
    start = center - tangent * speed * t_closest
    traj = DiscTrajectory(tuple(map(float, start)), tuple(map(float, tangent * speed)),
                          radius, 1.0, 1.0)
    sampled = sampled_min_distance(traj, geom)
    assume(abs(sampled - radius) > speed * traj.duration / 200_000)
    try:
        generate_disc_events(traj, geom, seed=0)
        degenerate = False
    except DegenerateTrajectory:
        degenerate = True
    assert degenerate == (sampled > radius)


GOLDEN_STREAMS = {
    "moving_disc": (
        DiscTrajectory((100.0, 100.0), (60.0, 30.0), 12.0, 0.5, 300.0), GEOM, 7,
        "d82cd6ba967291a6577bcc6f187fc31d2a5babd941fb93226e6fce8277d9b7af",
    ),
    # the leading edge enters at the left border as the recording ends, so
    # no pixel of the sensor sees the trailing edge: no negative events
    "positive_only": (
        DiscTrajectory((-30.0, 100.0), (100.0, 0.0), 10.0, 0.25, 300.0), GEOM, 7,
        "e4e7a014b7d286ca00c98705c7f885e0bfb9237b6302a6ad6fdb08e30e8be48b",
    ),
    "no_events": (
        DiscTrajectory((100.0, 100.0), (60.0, 30.0), 12.0, 0.5, 1e-9), GEOM, 7,
        "92a4bfbf79d1175797af51def95db7fee228bfdbff1f2efc96183e42ba86d674",
    ),
    "one_pixel_sensor": (
        DiscTrajectory((-5.0, 0.0), (10.0, 0.0), 2.0, 1.0, 1000.0), SensorGeometry(1, 1), 3,
        "de8f2d9412797f1cc482fbff419c02ce0c1544ea7ebb6f2878e2963dfcaa2adb",
    ),
    "vertical_velocity": (
        DiscTrajectory((320.0, -20.0), (0.0, 200.0), 8.0, 0.5, 400.0), GEOM, 11,
        "0ff2ef9d336c1407350bb528d2b9517ca6277cc060cc6152532ef864a9bd619d",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_STREAMS))
def test_generated_stream_matches_golden_digest(name):
    traj, geom, seed, digest = GOLDEN_STREAMS[name]
    s = generate_disc_events(traj, geom, seed)
    assert hashlib.sha256(encode_stream(s)).hexdigest() == digest
    if name == "positive_only":
        assert len(s) > 0 and set(s.p.tolist()) == {1}
    if name == "no_events":
        assert s == EventStream.empty(geom)


def every_frame_ground_truth(traj, frame_period, geom):
    """Reference: the box test at every frame midpoint inside the duration."""
    kfs, k = [], 0
    while (k + 0.5) * frame_period < traj.duration * 1e6:
        cx, cy = traj.center_at((k + 0.5) * frame_period * 1e-6)
        x0, y0 = max(0.0, cx - traj.radius), max(0.0, cy - traj.radius)
        x1, y1 = min(float(geom.width), cx + traj.radius), min(float(geom.height), cy + traj.radius)
        if x1 > x0 and y1 > y0:
            kfs.append(Keyframe(k, BBox(x0, y0, x1 - x0, y1 - y0)))
        k += 1
    return Track("disc", tuple(kfs)) if kfs else None


@given(
    sensor=st.sampled_from([(1, 1), (2, 3), (64, 48)]),
    start=st.tuples(st.floats(-100.0, 160.0), st.floats(-100.0, 150.0)),
    velocity=st.tuples(st.sampled_from([0.0, 1e-9]) | st.floats(-400.0, 400.0),
                       st.sampled_from([0.0, -1e-9]) | st.floats(-400.0, 400.0)),
    radius=st.floats(0.1, 30.0),
    duration=st.floats(0.001, 2.0),
    frame_period=st.integers(1_000, 200_000),
)
def test_ground_truth_equals_every_frame_reference(sensor, start, velocity, radius, duration,
                                                   frame_period):
    geom = SensorGeometry(*sensor)
    traj = DiscTrajectory(start, velocity, radius, duration, 100.0)
    ref = every_frame_ground_truth(traj, frame_period, geom)
    if ref is None:
        with pytest.raises(DegenerateTrajectory):
            ground_truth_boxes(traj, frame_period, geom)
    else:
        assert ground_truth_boxes(traj, frame_period, geom) == ref


class CountingTrajectory(DiscTrajectory):
    def center_at(self, t_s):
        self.calls.append(t_s)
        return super().center_at(t_s)


def counting(*args):
    traj = CountingTrajectory(*args)
    object.__setattr__(traj, "calls", [])
    return traj


def test_ground_truth_visits_only_frames_the_disc_can_overlap():
    # ~300,000 frames in 10^4 s; the disc leaves the sensor after about 9 s
    traj = counting((100.0, 100.0), (60.0, 30.0), 12.0, 1e4, 300.0)
    track = ground_truth_boxes(traj, 33_333, GEOM)
    assert len(traj.calls) <= len(track.keyframes) + 4
    short = DiscTrajectory((100.0, 100.0), (60.0, 30.0), 12.0, 20.0, 300.0)
    assert track == ground_truth_boxes(short, 33_333, GEOM)
    # a still disc beside the sensor never overlaps it, however long it stays
    still = counting((700.0, 100.0), (0.0, 0.0), 12.0, 1e4, 300.0)
    with pytest.raises(DegenerateTrajectory):
        ground_truth_boxes(still, 33_333, GEOM)
    assert len(still.calls) <= 4
