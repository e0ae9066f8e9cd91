import numpy as np
import pytest

from evflow.errors import InvalidWindow, UpscaleUnsupported
from evflow.events import EventStream, SensorGeometry
from evflow.frames import (
    PolarityFrame,
    accumulate,
    activity,
    area_average,
    downscale,
    frame_sequence,
    read_pfr1,
    render_rgb,
    window_frames,
    write_pfr1,
)
from evflow.frames import _overlap_weights

HD = SensorGeometry(1280, 720)
SMALL = SensorGeometry(64, 48)


def random_stream(geom, n, seed, t_max=1_000_000):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.integers(0, t_max, n).astype(np.uint64))
    x = rng.integers(0, geom.width, n, dtype=np.uint16)
    y = rng.integers(0, geom.height, n, dtype=np.uint16)
    p = rng.integers(0, 2, n, dtype=np.uint8)
    return EventStream(geom, t, x, y, p)


def brute_force_counts(s, t0, t1, geom):
    """Independent per-pixel counter: int64 scatter-add, then clip."""
    pos = np.zeros((geom.height, geom.width), dtype=np.int64)
    neg = np.zeros((geom.height, geom.width), dtype=np.int64)
    sel = (s.t >= t0) & (s.t < t1)
    xs, ys, ps = s.x[sel], s.y[sel], s.p[sel]
    np.add.at(pos, (ys[ps == 1], xs[ps == 1]), 1)
    np.add.at(neg, (ys[ps == 0], xs[ps == 0]), 1)
    return np.minimum(pos, 255).astype(np.uint8), np.minimum(neg, 255).astype(np.uint8)


def test_empty_stream_gives_zero_frame():
    f = accumulate(EventStream.empty(SMALL), 0, 33_333)
    assert not f.pos.any() and not f.neg.any()


def test_saturation_at_255():
    n = 300
    s = EventStream(SMALL, np.arange(n, dtype=np.uint64), [7] * n, [5] * n, [1] * n)
    f = accumulate(s, 0, 33_333)
    assert f.pos[5, 7] == 255
    assert f.neg[5, 7] == 0


def test_accumulate_matches_brute_force():
    s = random_stream(SMALL, 10_000, seed=21, t_max=100_000)
    f = accumulate(s, 10_000, 50_000)
    pos, neg = brute_force_counts(s, 10_000, 60_000, SMALL)
    assert np.array_equal(f.pos, pos)
    assert np.array_equal(f.neg, neg)


def test_accumulate_order_independent():
    rng = np.random.default_rng(5)
    s = random_stream(SMALL, 5_000, seed=5, t_max=10_000)
    perm = rng.permutation(len(s))
    # events shuffled within the window, then re-sorted by t only
    order = np.argsort(s.t[perm], kind="stable")
    s2 = EventStream(SMALL, s.t[perm][order], s.x[perm][order], s.y[perm][order], s.p[perm][order])
    f1 = accumulate(s, 0, 10_000)
    f2 = accumulate(s2, 0, 10_000)
    assert np.array_equal(f1.pos, f2.pos) and np.array_equal(f1.neg, f2.neg)


def test_accumulate_rejects_zero_window():
    with pytest.raises(InvalidWindow):
        accumulate(EventStream.empty(SMALL), 0, 0)


def test_frame_payload_is_width_height_2():
    f = accumulate(EventStream.empty(HD), 0, 33_333)
    assert f.payload_bytes == 1280 * 720 * 2 == 1_843_200


def test_frame_sequence_spans_event_windows():
    s = EventStream(SMALL, [10, 40_000, 99_000], [1, 2, 3], [1, 2, 3], [1, 1, 1])
    frames = frame_sequence(s, 33_333)
    assert len(frames) == 3
    assert [f.t0 for f in frames] == [0, 33_333, 66_666]


def test_frame_sequence_conserves_events_below_saturation():
    s = random_stream(SMALL, 20_000, seed=13, t_max=500_000)
    frames = frame_sequence(s, 33_333)
    total = sum(int(f.pos.sum()) + int(f.neg.sum()) for f in frames)
    assert total == len(s)
    assert max(int(f.pos.max(initial=0)) for f in frames) < 255  # no cell saturated


def test_frame_sequence_rejects_zero_window():
    with pytest.raises(InvalidWindow):
        frame_sequence(EventStream.empty(SMALL), 0)


def test_frame_sequence_empty_stream():
    assert frame_sequence(EventStream.empty(SMALL), 33_333) == []


def assert_same_frame(a, b):
    assert (a.t0, a.duration, a.width, a.height) == (b.t0, b.duration, b.width, b.height)
    assert np.array_equal(a.pos, b.pos) and np.array_equal(a.neg, b.neg)


def gap_stream():
    # events in windows 3-4 and 9, none in windows 5-8
    a = random_stream(SMALL, 2_000, seed=31, t_max=60_000)
    b = random_stream(SMALL, 1_000, seed=32, t_max=20_000)
    t = np.concatenate([a.t + 100_000, b.t + 300_000])
    return EventStream(SMALL, t, np.concatenate([a.x, b.x]), np.concatenate([a.y, b.y]),
                       np.concatenate([a.p, b.p]))


def test_window_frames_match_accumulate_across_gap():
    s, T = gap_stream(), 33_333
    frames = list(window_frames(s, T))
    assert [f.frame_index for f in frames] == list(range(3, 10))
    for f in frames:
        assert_same_frame(f, accumulate(s, f.t0, T))
    assert not any(f.pos.any() or f.neg.any() for f in frames[2:6])


def test_window_frames_explicit_range_before_first_event():
    s, T = gap_stream(), 33_333
    frames = list(window_frames(s, T, 0, 11))
    assert [f.t0 for f in frames] == [k * T for k in range(12)]
    for f in frames:
        assert_same_frame(f, accumulate(s, f.t0, T))
    assert sum(int(f.pos.sum()) + int(f.neg.sum()) for f in frames) == len(s)


def test_window_frames_explicit_range_on_empty_stream():
    frames = list(window_frames(EventStream.empty(SMALL), 1000, 0, 2))
    assert [f.t0 for f in frames] == [0, 1000, 2000]
    assert not any(f.pos.any() or f.neg.any() for f in frames)


def loop_overlap_weights(n_in, n_out):
    """The double loop _overlap_weights replaced, kept as an exact oracle."""
    scale = n_in / n_out
    out = np.zeros((n_out, n_in))
    for j in range(n_out):
        start, end = j * scale, (j + 1) * scale
        i0, i1 = int(np.floor(start)), int(np.ceil(end))
        for i in range(i0, min(i1, n_in)):
            out[j, i] = min(end, i + 1) - max(start, i)
    return out / scale


@pytest.mark.parametrize("n_in,n_out", [(1280, 640), (1280, 427), (13, 7)])
def test_overlap_weights_equal_loop_oracle(n_in, n_out):
    assert np.array_equal(_overlap_weights(n_in, n_out), loop_overlap_weights(n_in, n_out))


def test_render_all_zero_is_black():
    f = accumulate(EventStream.empty(SMALL), 0, 1000)
    img = render_rgb(f)
    assert img.shape == (48, 64, 3)
    assert not img.any()


def test_render_single_positive_is_white():
    s = EventStream(SMALL, [5], [10], [20], [1])
    img = render_rgb(accumulate(s, 0, 1000))
    assert tuple(img[20, 10]) == (255, 255, 255)
    assert img.sum() == 765


def test_render_negative_is_blue_positive_wins_overlap():
    s = EventStream(SMALL, [1, 2, 3], [4, 4, 9], [4, 4, 9], [1, 0, 0])
    img = render_rgb(accumulate(s, 0, 1000))
    assert tuple(img[4, 4]) == (255, 255, 255)  # both polarities: white
    assert tuple(img[9, 9]) == (0, 0, 255)


def test_downscale_preserves_constants():
    pos = np.full((48, 64), 4, dtype=np.uint8)
    neg = np.full((48, 64), 4, dtype=np.uint8)
    f = PolarityFrame(64, 48, 0, 1000, pos, neg)
    out = downscale(f, 17, 13)
    assert (out.pos == 4).all() and (out.neg == 4).all()


def test_downscale_payload_matches_detector_input():
    f = accumulate(EventStream.empty(HD), 0, 33_333)
    out = downscale(f, 640, 480)
    assert (out.width, out.height) == (640, 480)
    assert out.payload_bytes == 640 * 480 * 2 == 614_400


def test_downscale_2x2_mean():
    pos = np.array([[0, 0], [4, 4]], dtype=np.uint8)
    f = PolarityFrame(2, 2, 0, 1000, pos, np.zeros((2, 2), dtype=np.uint8))
    out = downscale(f, 1, 1)
    assert out.pos[0, 0] == 2
    assert out.neg[0, 0] == 0


def test_downscale_rejects_upscale():
    f = accumulate(EventStream.empty(SMALL), 0, 1000)
    with pytest.raises(UpscaleUnsupported):
        downscale(f, 65, 48)


def test_area_average_against_manual_windows():
    # integer 2x factor reduces to plain block means
    rng = np.random.default_rng(3)
    g = rng.integers(0, 255, (8, 8)).astype(np.float64)
    out = area_average(g, 4, 4)
    manual = g.reshape(4, 2, 4, 2).mean(axis=(1, 3))
    assert np.allclose(out, manual, atol=1e-12)


def test_activity_zero_frame():
    f = accumulate(EventStream.empty(SMALL), 0, 1000)
    assert not activity(f).any()


def test_activity_no_uint8_overflow():
    pos = np.zeros((48, 64), dtype=np.uint8)
    neg = np.zeros((48, 64), dtype=np.uint8)
    pos[3, 3] = 255
    neg[3, 3] = 255
    f = PolarityFrame(64, 48, 0, 1000, pos, neg)
    act = activity(f)
    assert act.dtype == np.uint16
    assert act[3, 3] == 510


def test_activity_matches_elementwise_sum():
    s = random_stream(SMALL, 3_000, seed=8, t_max=10_000)
    f = accumulate(s, 0, 10_000)
    expected = f.pos.astype(int) + f.neg.astype(int)
    assert np.array_equal(activity(f), expected)


def test_pfr1_round_trip():
    s = random_stream(SMALL, 2_000, seed=17, t_max=33_333)
    f = accumulate(s, 0, 33_333)
    g = read_pfr1(write_pfr1(f))
    assert (g.width, g.height, g.t0, g.duration) == (f.width, f.height, f.t0, f.duration)
    assert np.array_equal(g.pos, f.pos) and np.array_equal(g.neg, f.neg)
