import tracemalloc

import numpy as np
import pytest

from evflow.errors import InsufficientOverlap, ShapeMismatch, ZeroVariance
from evflow.events import EventStream, SensorGeometry
from evflow.sync import (
    GrayFrameSequence,
    event_activity_sequence,
    find_offset,
    gray_activity_sequence,
    rgb_activity,
    to_common_raster,
    zncc,
)
from evflow.synth import DiscTrajectory, generate_disc_events, render_gray_frames


def random_grid(seed, shape=(24, 32)):
    return np.random.default_rng(seed).uniform(0, 255, shape)


def random_sequence(seed, n, shape=(24, 32)):
    rng = np.random.default_rng(seed)
    return [rng.uniform(0, 255, shape) for _ in range(n)]


def test_zncc_self_correlation_is_one():
    a = random_grid(0)
    assert zncc(a, a) == pytest.approx(1.0, abs=1e-9)


def test_zncc_anticorrelation_is_minus_one():
    a = random_grid(1)
    assert zncc(a, -a + 255.0) == pytest.approx(-1.0, abs=1e-9)


def test_zncc_positive_affine_invariance():
    a = random_grid(2)
    assert zncc(2.0 * a + 7.0, a) == pytest.approx(1.0, abs=1e-9)


def test_zncc_negative_gain_flips_sign():
    a, b = random_grid(3), random_grid(4)
    assert zncc(-1.5 * a + 3.0, b) == pytest.approx(-zncc(a, b), abs=1e-9)


def test_zncc_symmetric():
    a, b = random_grid(5), random_grid(6)
    assert zncc(a, b) == pytest.approx(zncc(b, a), abs=1e-12)


def test_zncc_bounded():
    for seed in range(10):
        a, b = random_grid(seed), random_grid(seed + 100)
        assert -1.0 - 1e-9 <= zncc(a, b) <= 1.0 + 1e-9


def test_zncc_rejects_constant_input():
    with pytest.raises(ZeroVariance):
        zncc(np.ones((4, 4)), random_grid(7, (4, 4)))


def test_zncc_rejects_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        zncc(np.zeros((4, 4)), np.zeros((4, 5)))


def test_rgb_activity_identical_frames():
    a = random_grid(8).astype(np.uint8)
    assert not rgb_activity(a, a).any()


def test_rgb_activity_constant_step():
    prev = np.zeros((6, 8), dtype=np.uint8)
    curr = np.full((6, 8), 10, dtype=np.uint8)
    assert (rgb_activity(prev, curr) == 10.0).all()


def test_rgb_activity_matches_elementwise_oracle():
    rng = np.random.default_rng(9)
    prev = rng.integers(0, 255, (16, 16)).astype(np.uint8)
    curr = rng.integers(0, 255, (16, 16)).astype(np.uint8)
    expected = np.abs(curr.astype(int) - prev.astype(int)).astype(float)
    assert np.array_equal(rgb_activity(prev, curr), expected)


def test_find_offset_recovers_pure_shift():
    ev = random_sequence(10, 30)
    rgb = [random_grid(999)] * 3 + ev[:-3]  # rgb lags events by 3 frames
    res = find_offset(ev, rgb, 5)
    assert res.best_offset == 3
    assert res.best_score > 0.9
    assert len(res.score_curve) == 11


def test_find_offset_shift_recovery_exact_for_all_offsets():
    ev = random_sequence(11, 40)
    for d in range(-6, 7):
        if d >= 0:
            rgb = [random_grid(12345 + i) for i in range(d)] + ev[: len(ev) - d]
        else:
            rgb = ev[-d:] + [random_grid(54321 + i) for i in range(-d)]
        assert find_offset(ev, rgb, 6).best_offset == d


def test_find_offset_constant_shift_does_not_move_argmax():
    ev = random_sequence(12, 30)
    rgb = [g.copy() for g in ev]
    base = find_offset(ev, rgb, 4).best_offset
    rgb_shifted = [g + 50.0 for g in rgb]
    assert find_offset(ev, rgb_shifted, 4).best_offset == base == 0


def test_find_offset_uncorrelated_sequences_score_low():
    scores = []
    for seed in range(5):
        ev = random_sequence(seed, 40)
        rgb = random_sequence(seed + 1000, 40)
        scores.append(find_offset(ev, rgb, 5).best_score)
    assert max(scores) < 0.2


def test_find_offset_skips_zero_variance_pairs():
    ev = random_sequence(13, 10)
    rgb = [np.ones((24, 32))] * 2 + ev[:-2]  # first two rgb frames constant
    res = find_offset(ev, rgb, 3)
    assert res.best_offset == 2


def test_find_offset_insufficient_overlap():
    ev = random_sequence(14, 3)
    rgb = random_sequence(15, 3)
    with pytest.raises(InsufficientOverlap):
        find_offset(ev, rgb, 10)


def test_find_offset_rejects_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        find_offset([np.zeros((4, 4))], [np.zeros((5, 4))], 0)


def test_cross_modality_offset_recovery():
    # events and gray renderings of the same moving disc, rgb delayed 5 frames
    geom = SensorGeometry(320, 240)
    P = 33_333
    n = 60
    delay = 5
    traj = DiscTrajectory((60.0, 90.0), (75.0, 15.0), 15.0, n * P * 1e-6, 500.0)
    s = generate_disc_events(traj, geom, seed=20)
    ev_act = event_activity_sequence(s, P, n)
    gray = render_gray_frames(traj, geom, P, n)
    delayed = [gray[0]] * delay + gray[:-delay]
    seq = GrayFrameSequence(geom.width, geom.height, P, tuple(delayed))
    rgb_act = gray_activity_sequence(seq)
    res = find_offset(
        to_common_raster(ev_act[: len(rgb_act)]), to_common_raster(rgb_act), 8
    )
    assert abs(res.best_offset - delay) <= 1


def test_event_activity_sequence_builds_only_requested_windows():
    # two events 10 s apart: only windows 0 and 1 may be built, not all ~300
    s = EventStream(SensorGeometry(160, 120), [5, 10_000_000], [1, 2], [1, 2], [1, 0])
    tracemalloc.start()
    try:
        grids = event_activity_sequence(s, 33_333, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(grids) == 2
    assert grids[0][1, 1] == 1.0 and grids[0].sum() == 1.0 and not grids[1].any()
    assert grids[0].dtype == np.uint16
    assert peak < 5_000_000


def test_offset_result_curve_contains_best():
    ev = random_sequence(16, 20)
    res = find_offset(ev, ev, 3)
    assert (res.best_offset, res.best_score) in res.score_curve
    assert res.best_score == pytest.approx(max(s for _, s in res.score_curve))
