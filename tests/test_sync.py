import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evflow.errors import InsufficientOverlap, ShapeMismatch, ZeroVariance
from evflow.events import EventStream, SensorGeometry
from evflow.sync import (
    GrayFrameSequence,
    align,
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


def loop_offset_curve(ev_seq, rgb_seq, max_abs_offset):
    """Reference for find_offset's curve: one zncc call per frame pair per offset."""
    curve = []
    for d in range(-max_abs_offset, max_abs_offset + 1):
        scores = []
        for i in range(len(ev_seq)):
            if 0 <= i + d < len(rgb_seq):
                try:
                    scores.append(zncc(ev_seq[i], rgb_seq[i + d]))
                except ZeroVariance:
                    pass
        if not scores:
            raise InsufficientOverlap(f"offset {d} has no scorable frame pairs")
        curve.append((d, float(np.mean(scores))))
    return curve


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


def test_zncc_rejects_constant_grid_whose_mean_does_not_round_back():
    third = np.full((180, 320), 1 / 3)
    assert third.mean() != third[0, 0]  # the mean leaves a residue in every cell
    with pytest.raises(ZeroVariance):
        zncc(third, random_grid(7, (180, 320)))


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
    expected = np.abs(curr.astype(int) - prev.astype(int))
    out = rgb_activity(prev, curr)
    assert out.dtype == np.uint8 and np.array_equal(out, expected)


def test_gray_frame_sequence_requires_uint8():
    with pytest.raises(ValueError):
        GrayFrameSequence(8, 6, 33_333, (np.zeros((6, 8), dtype=np.int16),) * 2)


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


def test_find_offset_skips_constant_grids_with_inexact_means():
    ev = random_sequence(13, 10, (180, 320))
    rgb = [np.full((180, 320), 1 / 3)] * 2 + ev[:-2]
    res = find_offset(ev, rgb, 3)
    assert res.best_offset == 2
    want = loop_offset_curve(ev, rgb, 3)  # its zncc raises on the constant pairs
    assert np.allclose([s for _, s in res.score_curve], [s for _, s in want], rtol=0, atol=1e-12)


def test_find_offset_tie_prefers_smaller_then_negative_offset():
    a, b = random_grid(17), random_grid(18)
    assert find_offset([a, b, a], [b, a, b], 1).best_offset == -1


@settings(max_examples=150)
@given(data=st.data())
def test_find_offset_matches_pairwise_loop(data):
    h, w = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))

    def grid():
        if data.draw(st.booleans()):  # a constant frame: its pairs are skipped
            return np.full((h, w), float(data.draw(st.integers(0, 255))))
        cells = data.draw(st.lists(st.integers(0, 255), min_size=h * w, max_size=h * w))
        return np.array(cells, dtype=np.float64).reshape(h, w)

    ev = [grid() for _ in range(data.draw(st.integers(1, 6)))]
    rgb = [grid() for _ in range(data.draw(st.integers(1, 6)))]
    max_offset = data.draw(st.integers(0, 7))
    try:
        want = loop_offset_curve(ev, rgb, max_offset)
    except InsufficientOverlap:
        with pytest.raises(InsufficientOverlap):
            find_offset(ev, rgb, max_offset)
        return
    res = find_offset(ev, rgb, max_offset)
    assert [d for d, _ in res.score_curve] == [d for d, _ in want]
    assert np.allclose([s for _, s in res.score_curve], [s for _, s in want], rtol=0, atol=1e-12)
    assert dict(want)[res.best_offset] >= max(s for _, s in want) - 1e-12


def test_find_offset_insufficient_overlap():
    ev = random_sequence(14, 3)
    rgb = random_sequence(15, 3)
    with pytest.raises(InsufficientOverlap):
        find_offset(ev, rgb, 10)


def test_find_offset_rejects_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        find_offset([np.zeros((4, 4))], [np.zeros((5, 4))], 0)


def delayed_pair(delay):
    """Events and 60 gray renderings of the same moving disc, the gray frames
    delayed by delay frames."""
    geom = SensorGeometry(320, 240)
    P = 33_333
    n = 60
    traj = DiscTrajectory((60.0, 90.0), (75.0, 15.0), 15.0, n * P * 1e-6, 500.0)
    s = generate_disc_events(traj, geom, seed=20)
    gray = render_gray_frames(traj, geom, P, n)
    delayed = [gray[0]] * delay + gray[:-delay]
    return s, GrayFrameSequence(geom.width, geom.height, P, tuple(delayed))


def test_cross_modality_offset_recovery():
    delay = 5
    s, seq = delayed_pair(delay)
    ev_act = event_activity_sequence(s, seq.frame_period, 60)
    rgb_act = gray_activity_sequence(seq)
    res = find_offset(
        to_common_raster(ev_act[: len(rgb_act)]), to_common_raster(rgb_act), 8
    )
    assert abs(res.best_offset - delay) <= 1


def test_align_equals_the_four_step_chain():
    s, seq = delayed_pair(4)
    rgb_act = gray_activity_sequence(seq)
    ev_act = event_activity_sequence(s, seq.frame_period, len(rgb_act))
    want = find_offset(to_common_raster(ev_act), to_common_raster(rgb_act), 8)
    got = align(s, seq, 8)
    assert got.best_offset == want.best_offset and abs(got.best_offset - 4) <= 1
    assert got.best_score == want.best_score
    assert got.score_curve == want.score_curve


def test_align_holds_one_full_resolution_event_grid_at_a_time():
    # 30 windows at 1280x720: their uint16 activity grids are 53 MB together.
    # The 60 common rasters and find_offset's standardised copies of them are
    # about 54 MB; holding every event grid as well peaked at 107 MB.
    P, n = 33_333, 31
    traj = DiscTrajectory((200.0, 300.0), (600.0, 100.0), 40.0, n * P * 1e-6, 50.0)
    s = generate_disc_events(traj, SensorGeometry(1280, 720), seed=3)
    small = DiscTrajectory((50.0, 75.0), (150.0, 25.0), 10.0, n * P * 1e-6, 50.0)
    gray = render_gray_frames(small, SensorGeometry(320, 180), P, n)
    seq = GrayFrameSequence(320, 180, P, tuple(gray))
    tracemalloc.start()
    try:
        res = align(s, seq, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(res.best_offset) <= 1
    assert peak < 80 * 2**20


def test_align_on_one_frame_is_insufficient_overlap():
    s = EventStream(SensorGeometry(64, 48), [5, 40_000], [1, 2], [3, 4], [1, 0])
    seq = GrayFrameSequence(64, 48, 33_333, (np.zeros((48, 64), dtype=np.uint8),))
    with pytest.raises(InsufficientOverlap):
        align(s, seq, 0)


@pytest.mark.parametrize("n_ev,n_rgb,max_offset", [(0, 0, 2), (1, 0, 0), (0, 1, 0)])
def test_find_offset_on_an_empty_sequence_is_insufficient_overlap(n_ev, n_rgb, max_offset):
    with pytest.raises(InsufficientOverlap, match="no frame pairs"):
        find_offset(random_sequence(17, n_ev), random_sequence(18, n_rgb), max_offset)


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
